"""Totality: whatever text a repository holds, and whatever --ttim file or
--glob pattern comes with it, every subcommand ends in exit 0, 1 or 2 and
never lets an exception escape."""

import json
import string
import tempfile
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from tracegen.cli import cli

from conftest import CONFIG_SCHEMA, DEFAULT_TTIM, nested

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

OPEN_TAGS = [
    '<treqs-element id="RS" type="runtime-scenario">',
    '<treqs-element id="AL" type="abstraction-level">',
    '<treqs-element id="R" type="requirement">',
    '<treqs-element id="OI" type="OptimizerInput" placement="/properties/ethernet_latency">',
    '<treqs-element id="OI" type="OptimizerInput" placement="bad">',
    # placements that name no subschema: a keyword's value or an array entry
    '<treqs-element id="OI" type="OptimizerInput" placement="/type">',
    '<treqs-element id="OI" type="OptimizerInput" placement="/required/0">',
    '<treqs-element id="OI" type="OptimizerInput" placement="/properties/ethernet_latency/minimum">',
    '<treqs-element id="OI" type="OptimizerInput" placement="/properties">',
    '<treqs-element id="ST" type="schema-type">',
    '<treqs-element id="X" type="unknown">',
    '<treqs-element type="requirement">',
]
JSON = [
    '{"type": "number", "minimum": 0, "unit": "milliseconds"}',
    '{"type": "integer"}',
    '{"type": ["number"]}',
    '{"type": "object", "properties": {"a": {"type": "string"}}, "required": ["a"]}',
    '{"oneOf": []}',
    "20",
    "1e400",
    "NaN",
    "-Infinity",
    '"text"',
    "[1, 2",
    "null",
    # a const at the 512-level nesting bound and an enum member one past it
    json.dumps({"const": nested(511)}),
    json.dumps({"enum": [0, nested(511)]}),
]
INNER = [
    '<treqs-link type="scopes" target="AL" />',
    '<treqs-link type="contains" target="R" />',
    '<treqs-link type="realizes" target="OI" />',
    '<treqs-link type="refines" target="R" />',
    '<treqs-link type="describedBy" target="ST" />',
    '<treqs-link type="describedBy" target="OI" />',
    '<treqs-link type="nope" target="MISSING" />',
    "```json\n",
    "\n```\n",
    "\n",
] + [f"```json\n{body}\n```\n" for body in JSON]

# an explicit alphabet: hypothesis's default one costs seconds to build
ALPHABET = string.printable + "\x00\x85\xa0\xe9\u2028\ufeff\u4e2d\U0001f600"
text = st.text(alphabet=ALPHABET, max_size=12)

# mostly well-formed element blocks, so that links resolve and fenced bodies
# reach the checks, with stray tags and text between and inside them
block = st.builds(
    lambda open_tag, inner, close: open_tag + "\n" + "\n".join(inner) + close,
    st.sampled_from(OPEN_TAGS),
    st.lists(st.one_of(st.sampled_from(INNER), text), max_size=6),
    st.sampled_from(["\n</treqs-element>\n", ""]),
)
repo_text = st.lists(st.one_of(block, st.sampled_from(INNER), text), max_size=12).map("".join)

config_text = st.one_of(st.just(json.dumps(CONFIG_SCHEMA)), st.sampled_from(JSON), text)

# a --ttim file: each field is either of the expected shape or any YAML value
# built from lists, scalars, null and nested mappings (keys of mixed types too)
TYPE_NAMES = ["runtime-scenario", "abstraction-level", "requirement", "OptimizerInput",
              "schema-type", "describedBy", "scopes", ""]
type_name = st.sampled_from(TYPE_NAMES)
scalar = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), type_name, text)
yaml_value = st.recursive(
    scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.none(), st.integers(-2, 2), type_name), inner, max_size=3),
    ),
    max_leaves=6,
)


def shaped(strategy):
    return st.one_of(strategy, yaml_value)


names = shaped(st.one_of(type_name, st.lists(type_name, max_size=2)))
node_type = st.fixed_dictionaries({"name": shaped(type_name)}, optional={"description": yaml_value})
link_type = st.fixed_dictionaries(
    {"name": shaped(type_name), "source": names, "target": names},
    optional={"required": shaped(st.booleans())},
)
special = st.fixed_dictionaries(
    {}, optional={key: shaped(type_name)
                  for key in ("scenario", "optimizer_input", "schema_type", "schema_link")}
)
ttim_data = st.fixed_dictionaries(
    {},
    optional={
        "node_types": shaped(st.lists(shaped(node_type), max_size=7)),
        "link_types": shaped(st.lists(shaped(link_type), max_size=7)),
        "special": shaped(special),
        "extra": yaml_value,
    },
)
# the built-in meta-model with an optional schema link lets generated
# repositories reach traversal under a --ttim file too
ttim_text = st.one_of(
    st.none(),
    st.just(DEFAULT_TTIM.replace("required: true", "required: false")),
    ttim_data.map(yaml.safe_dump),
    text,
)

# --glob patterns: a slash-free text names entries of the repository root;
# a pattern with a '..' component is rejected
glob_pattern = st.one_of(
    st.none(),
    st.sampled_from([
        "**/*.md", "*.md", "f0.md", "**", "", ".", "./", "..", "/abs/*.md", "a/**.md",
        "../*.md", "../repo/*.md", "**/../*.md", "a/../../*", "*.md/", "**/",
    ]),
    st.text(alphabet="*?[]!-.\\amdf0", max_size=6),
)

# an input linked to a schema-type, for the pinned examples below
LINKED = (
    '<treqs-element id="RS" type="runtime-scenario">\n'
    '<treqs-link type="scopes" target="OI" />\n</treqs-element>\n'
    '<treqs-element id="OI" type="OptimizerInput" placement="/properties/ethernet_latency">\n'
    "```json\n1e400\n```\n"
    '<treqs-link type="describedBy" target="ST" />\n</treqs-element>\n'
    '<treqs-element id="ST" type="schema-type">\n```json\n{}\n```\n</treqs-element>\n'
)


@hypothesis.settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(
    files=st.lists(repo_text, min_size=1, max_size=3),
    config=config_text,
    ttim=ttim_text,
    glob=glob_pattern,
)
# inputs that once ended in a traceback, run on every test run
@hypothesis.example(files=[""], config='{"type": ["object"]}', ttim=None, glob=None)
@hypothesis.example(
    files=[LINKED.replace("{}", '{"type": ["number"]}')], config="{}", ttim=None, glob=None)
@hypothesis.example(
    files=[LINKED.replace("{}", '{"type": "integer"}')], config="{}", ttim=None, glob=None)
@hypothesis.example(
    files=[LINKED.replace("/properties/ethernet_latency", "/type")],
    config=json.dumps(CONFIG_SCHEMA), ttim=None, glob=None)
@hypothesis.example(
    files=[LINKED.replace("/properties/ethernet_latency", "/properties/c/const")],
    config='{"properties": {"c": {"const": {"items": 3}}}}', ttim=None, glob=None)
@hypothesis.example(files=[""], config="{}", ttim="node_types: 5", glob=None)
@hypothesis.example(
    files=[""], config="{}", ttim="node_types: null\nlink_types: []\nspecial: {}", glob=None)
@hypothesis.example(
    files=[""], config="{}", ttim="node_types: []\nlink_types: 7\nspecial: {}", glob=None)
@hypothesis.example(
    files=[""], config="{}", glob=None,
    ttim="node_types: [{name: rs}]\nlink_types: []\nspecial: {scenario: [rs]}")
@hypothesis.example(
    files=[""], config="{}", glob=None,
    ttim="node_types: []\nlink_types: [{name: [a], source: x, target: x}]\nspecial: {}")
@hypothesis.example(files=[""], config="{}", ttim="{1: a, b: c}", glob=None)
@hypothesis.example(files=[""], config="{}", ttim=None, glob="/abs/*.md")
@hypothesis.example(files=[""], config="{}", ttim=None, glob="")
@hypothesis.example(files=[""], config="{}", ttim=None, glob="a/**.md")
@hypothesis.example(files=[""], config="{}", ttim=None, glob=".")
@hypothesis.example(files=[""], config="{}", ttim=None, glob="./")
@hypothesis.example(files=[""], config="{}", ttim=None, glob="../*.md")
def test_every_subcommand_is_total(files, config, ttim, glob):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        repo = root / "repo"
        repo.mkdir()
        for i, text in enumerate(files):
            (repo / f"f{i}.md").write_text(text, encoding="utf-8")
        schema = root / "config.json"
        schema.write_text(config, encoding="utf-8")
        options = []
        if ttim is not None:
            (root / "ttim.yaml").write_text(ttim, encoding="utf-8")
            options += ["--ttim", root / "ttim.yaml"]
        if glob is not None:
            options += ["--glob", glob]
        for args in (
            ["check", repo, "--config-schema", schema, "--report", root / "r.yaml"],
            ["generate", repo, "--config-schema", schema, "--format", "yaml"],
            ["generate", repo, "--config-schema", schema, "--format", "plantuml"],
            ["list-scenarios", repo, "--config-schema", schema],
        ):
            result = runner.invoke(cli, [str(a) for a in args + options])
            assert result.exit_code in (0, 1, 2), (args[0], result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args[0],
                repr(result.exception),
            )
