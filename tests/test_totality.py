"""Totality: whatever text a repository holds, every subcommand ends in exit
0, 1 or 2 and never lets an exception escape."""

import json
import string
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from tracegen.cli import cli

from conftest import CONFIG_SCHEMA

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

OPEN_TAGS = [
    '<treqs-element id="RS" type="runtime-scenario">',
    '<treqs-element id="AL" type="abstraction-level">',
    '<treqs-element id="R" type="requirement">',
    '<treqs-element id="OI" type="OptimizerInput" placement="/properties/ethernet_latency">',
    '<treqs-element id="OI" type="OptimizerInput" placement="bad">',
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
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(files=st.lists(repo_text, min_size=1, max_size=3), config=config_text)
# inputs that once ended in a traceback, run on every test run
@hypothesis.example(files=[""], config='{"type": ["object"]}')
@hypothesis.example(files=[LINKED.replace("{}", '{"type": ["number"]}')], config="{}")
@hypothesis.example(files=[LINKED.replace("{}", '{"type": "integer"}')], config="{}")
def test_every_subcommand_is_total(files, config):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        repo = root / "repo"
        repo.mkdir()
        for i, text in enumerate(files):
            (repo / f"f{i}.md").write_text(text, encoding="utf-8")
        schema = root / "config.json"
        schema.write_text(config, encoding="utf-8")
        for args in (
            ["check", repo, "--config-schema", schema, "--report", root / "r.yaml"],
            ["generate", repo, "--config-schema", schema, "--format", "yaml"],
            ["generate", repo, "--config-schema", schema, "--format", "plantuml"],
            ["list-scenarios", repo, "--config-schema", schema],
        ):
            result = runner.invoke(cli, [str(a) for a in args])
            assert result.exit_code in (0, 1, 2), (args[0], result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args[0],
                repr(result.exception),
            )
