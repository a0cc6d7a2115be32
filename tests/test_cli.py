import json
import pathlib
import sys

import pytest
import yaml
from click.testing import CliRunner

from tracegen.cli import cli

from tracegen import checks
from tracegen import cli as cli_mod

from conftest import (
    CONFIG_SCHEMA, DEFAULT_TTIM, ETH_SCHEMA, nested, repo_files, write_repo,
)
from oracles import intermediary_reference

DELETED = object()  # a TTIM edit that removes the key


def run(*args):
    return CliRunner().invoke(cli, [str(a) for a in args])


def chain_repo(tmp_path, depth):
    """The fixture repository with a ``refines`` chain of ``depth``
    requirements between AL1 and OI_ETH."""
    chain = "".join(
        f'<treqs-element id="CH{i}" type="requirement">\n'
        f'<treqs-link type="refines" target="CH{i + 1}" />\n</treqs-element>\n'
        for i in range(depth - 1)
    )
    chain += (
        f'<treqs-element id="CH{depth - 1}" type="requirement">\n'
        '<treqs-link type="realizes" target="OI_ETH" />\n</treqs-element>\n'
    )
    files = repo_files()
    files["chain.md"] = chain
    files["architecture.md"] = files["architecture.md"].replace(
        '<treqs-link type="contains" target="REQ_MODEL" />',
        '<treqs-link type="contains" target="REQ_MODEL" />\n'
        '<treqs-link type="contains" target="CH0" />',
    )
    return write_repo(tmp_path, files)


def shared_schema_repo(tmp_path, st_body):
    """The fixture repository with a third input, OI_X, where OI_ETH, OI_MODEL
    and OI_X all link to ST_ETH, whose fenced body is ``st_body``."""
    files = repo_files()
    files["requirements.md"] = files["requirements.md"].replace(
        '<treqs-link type="realizes" target="OI_MODEL" />',
        '<treqs-link type="realizes" target="OI_MODEL" />\n'
        '<treqs-link type="realizes" target="OI_X" />',
    )
    files["optimizer.md"] = files["optimizer.md"].replace(
        'target="ST_MODEL"', 'target="ST_ETH"').replace(json.dumps(ETH_SCHEMA), st_body, 1)
    files["x.md"] = (
        '<treqs-element id="OI_X" type="OptimizerInput" placement="/properties/x">\n'
        '```json\n3\n```\n<treqs-link type="describedBy" target="ST_ETH" />\n</treqs-element>\n'
    )
    config = json.loads(json.dumps(CONFIG_SCHEMA))
    config["properties"]["x"] = ETH_SCHEMA
    return write_repo(tmp_path, files, config)


class TestCheck:
    def test_clean_fixture_exit_0(self, fig_repo):
        repo, schema = fig_repo
        result = run("check", repo, "--config-schema", schema)
        assert result.exit_code == 0, result.stderr
        assert result.stderr == ""

    def test_mistyped_element_exit_1(self, tmp_path):
        extra = '\n<treqs-element id="BAD" type="reqirement">\n</treqs-element>\n'
        repo, schema = write_repo(tmp_path, repo_files(extra_requirements=extra))
        result = run("check", repo, "--config-schema", schema)
        assert result.exit_code == 1
        metamodel_lines = [l for l in result.stderr.splitlines() if "metamodel" in l]
        assert len(metamodel_lines) == 1

    @pytest.mark.parametrize(
        "placement, first_error",
        [
            ("\n", "error: optimizer.md:3: placement is not a valid JSON Pointer: '\\n'"),
            ("/properties/ethernet_latency\n",
             "error: semantic_equivalence: optimizer.md:3: pointer "
             "'/properties/ethernet_latency\\n' unresolvable at segment 'ethernet_latency\\n'"),
        ],
        ids=["line-break-only", "token-ending-in-a-line-break"],
    )
    def test_placement_with_a_line_break_gives_one_line_diagnostics(
        self, tmp_path, placement, first_error
    ):
        files = repo_files()
        files["optimizer.md"] = files["optimizer.md"].replace(
            'placement="/properties/ethernet_latency"', f'placement="{placement}"')
        repo, schema = write_repo(tmp_path, files)
        lines = run("check", repo, "--config-schema", schema).stderr.splitlines()
        assert first_error in lines
        assert all(line.startswith(("error: ", "warning: ")) for line in lines)

    def test_missing_config_schema_exit_2(self, fig_repo):
        repo, _ = fig_repo
        result = run("check", repo, "--config-schema", repo / "nope.json")
        assert result.exit_code == 2

    def test_invalid_config_schema_exit_2(self, tmp_path, fig_repo):
        repo, _ = fig_repo
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run("check", repo, "--config-schema", bad)
        assert result.exit_code == 2
        assert "fatal" in result.stderr

    def test_config_schema_with_list_type_exit_2(self, tmp_path, fig_repo):
        repo, _ = fig_repo
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": ["object"]}')
        result = run("check", repo, "--config-schema", bad)
        assert result.exit_code == 2
        assert result.stderr == "fatal: invalid type ['object'] (at <root>)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"type": "number", "maximum": NaN}', "NaN is not a JSON value"),
            ('{"type": "number", "maximum": 1e400}', "number 1e400 is out of range"),
        ],
        ids=["nan", "1e400"],
    )
    def test_non_finite_config_schema_exit_2(self, tmp_path, fig_repo, text, message):
        repo, _ = fig_repo
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        result = run("check", repo, "--config-schema", bad)
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == f"fatal: config schema is not valid JSON: {message}\n"

    def test_bom_led_config_schema_exit_2(self, tmp_path, fig_repo):
        repo, schema = fig_repo
        bom = tmp_path / "bom.json"
        bom.write_text("\ufeff" + schema.read_text(encoding="utf-8"), encoding="utf-8")
        result = run("check", repo, "--config-schema", bom)
        assert result.exit_code == 2
        assert result.stderr == ("fatal: config schema is not valid JSON: Unexpected UTF-8 BOM "
                                 "(decode using utf-8-sig): line 1 column 1 (char 0)\n")

    def test_non_utf8_config_schema_exit_2(self, tmp_path, fig_repo):
        repo, _ = fig_repo
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = run("check", repo, "--config-schema", bad)
        assert result.exit_code == 2
        assert result.stderr.startswith("fatal: config schema is not UTF-8")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"node_types: [\n", "not valid YAML at line 2"),
            (b"a: b: c\n", "not valid YAML at line 1"),
            (b"\x01bad\n", "not valid YAML: unacceptable character"),
            (b"\xff\xfe: x\n", "not UTF-8"),
            pytest.param(b"[" * 2000 + b"]" * 2000, "nested too deeply to read", id="deep"),
        ],
    )
    def test_malformed_ttim_exit_2(self, tmp_path, fig_repo, content, reason):
        repo, schema = fig_repo
        ttim = tmp_path / "ttim.yaml"
        ttim.write_bytes(content)
        result = run("check", repo, "--config-schema", schema, "--ttim", ttim)
        assert result.exit_code == 2
        assert result.stderr.startswith(f"fatal: TTIM file is {reason}")
        assert result.stderr.count("\n") == 1

    def test_default_ttim_file_matches_built_in(self, fig_repo, tmp_path):
        repo, schema = fig_repo
        ttim = tmp_path / "ttim.yaml"
        ttim.write_text(DEFAULT_TTIM)
        report, built_in = tmp_path / "r1.yaml", tmp_path / "r2.yaml"
        result = run("check", repo, "--config-schema", schema, "--ttim", ttim, "--report", report)
        assert result.exit_code == 0, result.stderr
        run("check", repo, "--config-schema", schema, "--report", built_in)
        assert report.read_text() == built_in.read_text()

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (["node_types"], 5, "node_types must be a list"),
            (["node_types"], None, "node_types must be a list"),
            (["link_types"], 7, "link_types must be a list"),
            (["special", "scenario"], ["rs"],
             "special 'scenario' must be a non-empty string, got ['rs']"),
            (["special", "schema_link"], "",
             "special 'schema_link' must be a non-empty string, got ''"),
            (["link_types", 0, "name"], ["refines"],
             "link type name must be a non-empty string, got ['refines']"),
            (["node_types", 3, "name"], 3, "node type name must be a non-empty string, got 3"),
            (["link_types", 5, "required"], "sometimes",
             "link type 'describedBy': required must be true or false, got 'sometimes'"),
            (["node_types", 1], {"name": "runtime-scenario"}, "duplicate node type name"),
            (["link_types", 1, "name"], "refines", "duplicate link type name"),
            (["special", "schema_link"], "nope", "schema link type 'nope' not declared"),
            (["link_types", 5, "target"], "requirement",
             "schema link 'describedBy' must accept 'schema-type' targets"),
            (["node_types", 0], "runtime-scenario", "bad node type entry: 'runtime-scenario'"),
            (["node_types", 0, "color"], "red", "unknown node type key(s): ['color']"),
            (["link_types", 0], 5, "bad link type entry: 5"),
            (["special"], [], "special must be a mapping"),
            (["special", "extra"], "x", "unknown special key(s): ['extra']"),
            (["link_types", 0, "source"], [],
             "expected a type name or list of type names, got []"),
            (["link_types", 0, "target"], DELETED,
             "link type entry missing 'target': {'name': 'refines', 'source': 'requirement'}"),
        ],
        ids=["node-types-scalar", "node-types-null", "link-types-scalar", "special-list",
             "special-empty", "link-name-list", "node-name-number", "required-string",
             "duplicate-node-type", "duplicate-link-type", "schema-link-undeclared",
             "schema-link-target", "node-type-scalar", "node-type-extra-key", "link-type-scalar",
             "special-not-mapping", "special-extra-key", "link-source-empty", "link-target-missing"],
    )
    def test_ill_typed_ttim_exit_2(self, fig_repo, tmp_path, where, value, message):
        repo, schema = fig_repo
        data = yaml.safe_load(DEFAULT_TTIM)
        parent = data
        for key in where[:-1]:
            parent = parent[key]
        if value is DELETED:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        ttim = tmp_path / "ttim.yaml"
        ttim.write_text(yaml.safe_dump(data))
        result = run("check", repo, "--config-schema", schema, "--ttim", ttim)
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == f"fatal: {message}\n"

    @pytest.mark.parametrize(
        "pattern, reason",
        [
            ("/abs/*.md", "Non-relative patterns are unsupported"),
            ("", "Unacceptable pattern: ''"),
            (".", "Unacceptable pattern: '.'"),
            ("./", "Unacceptable pattern: './'"),
            ("a/**.md", "Invalid pattern: '**' can only be an entire path component"),
            ("*.md/", "a trailing '/' selects directories only"),
        ],
        ids=["absolute", "empty", "dot", "dot-slash", "double-star-in-component",
             "trailing-separator"],
    )
    def test_unsupported_glob_exit_2(self, fig_repo, pattern, reason):
        repo, schema = fig_repo
        for command in ("check", "generate", "list-scenarios"):
            result = run(command, repo, "--config-schema", schema,
                         "--glob", "*.md", "--glob", pattern)
            assert result.exit_code == 2
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.stderr == f"fatal: unsupported glob pattern {pattern!r}: {reason}\n"
            assert result.stdout == ""

    @pytest.mark.parametrize("pattern", ["../*.md", "docs/../../*.md", "**/../*.md", ".."])
    def test_glob_outside_the_root_exit_2(self, fig_repo, pattern):
        repo, schema = fig_repo
        (repo.parent / "outside.md").write_text('<treqs-element id="X" type="nope">\n')
        for command in ("check", "generate", "list-scenarios"):
            result = run(command, repo, "--config-schema", schema, "--glob", pattern)
            assert result.exit_code == 2
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.stderr == (
                f"fatal: unsupported glob pattern {pattern!r}: '..' leaves the repository root\n"
            )
            assert result.stdout == ""

    def test_report_into_missing_directory_exit_2(self, fig_repo, tmp_path):
        repo, schema = fig_repo
        report = tmp_path / "nodir" / "r.yaml"
        result = run("check", repo, "--config-schema", schema, "--report", report)
        assert result.exit_code == 2
        assert result.stderr.startswith("fatal: ")
        assert result.stderr.count("\n") == 1
        assert "r.yaml" in result.stderr

    @pytest.mark.parametrize(
        "literal, schema, message",
        [
            ("NaN", ETH_SCHEMA, "invalid JSON in fenced block: NaN is not a JSON value"),
            ("Infinity", ETH_SCHEMA,
             "invalid JSON in fenced block: Infinity is not a JSON value"),
            ("-Infinity", ETH_SCHEMA,
             "invalid JSON in fenced block: -Infinity is not a JSON value"),
            ("1e400", {"type": "integer"},
             "invalid JSON in fenced block: number 1e400 is out of range"),
            ("1e400", {"type": "number", "minimum": 0},
             "invalid JSON in fenced block: number 1e400 is out of range"),
            ("1" + "0" * 400, {"type": "integer", "maximum": 100},
             "instance violates schema at <root>: maximum: 1" + "0" * 400 + " > 100"),
            ("1" * 5000, ETH_SCHEMA, "invalid JSON in fenced block: Exceeds the limit"),
            ("[" * 100000, ETH_SCHEMA,
             "invalid JSON in fenced block: arrays and objects nested more than 512 deep"),
        ],
        ids=["nan", "infinity", "minus-infinity", "1e400", "1e400-number", "401-digits",
             "5000-digits", "deep"],
    )
    def test_out_of_range_values_are_check_2_errors(self, tmp_path, literal, schema, message):
        files = repo_files(oi_eth_value=literal)
        files["optimizer.md"] = files["optimizer.md"].replace(
            json.dumps(ETH_SCHEMA), json.dumps(schema), 1)
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        config["properties"]["ethernet_latency"] = schema
        repo, config_path = write_repo(tmp_path, files, config)
        result = run("check", repo, "--config-schema", config_path)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: internal_schema: optimizer.md:")
        assert line.split(": ", 3)[3].startswith(message)

    @pytest.mark.parametrize(
        "st_body, finding, schemas_parsed",
        [
            ('{"type": "float"}', "invalid type 'float' (at <root>)", 1),
            ('{"type": ', "invalid JSON in fenced block: Expecting value", 0),
        ],
        ids=["schema-error", "invalid-json"],
    )
    def test_shared_broken_schema_type_reported_once(
        self, tmp_path, monkeypatch, st_body, finding, schemas_parsed
    ):
        repo, schema = shared_schema_repo(tmp_path, st_body)
        read, parsed = [], []
        real_read, real_parse = checks.first_json_fence, checks.parse_schema
        monkeypatch.setattr(checks, "first_json_fence", lambda e: read.append(e.uid) or real_read(e))
        monkeypatch.setattr(checks, "parse_schema", lambda d: parsed.append(d) or real_parse(d))
        report = tmp_path / "report.yaml"
        result = run("check", repo, "--config-schema", schema, "--report", report)
        assert result.exit_code == 1
        assert result.stderr == f"error: internal_schema: optimizer.md:17: {finding}\n"
        data = yaml.safe_load(report.read_text())
        assert data["counts"]["internal_schema"] == {"errors": 1, "warnings": 0}
        assert [(v["subject_uid"], v["message"]) for v in data["violations"]] == [
            ("ST_ETH", finding)]
        assert read == ["ST_ETH"]  # the inputs' values are not read without a schema
        assert len(parsed) == schemas_parsed

    def test_shared_schema_type_parsed_once(self, tmp_path, monkeypatch):
        repo, schema = shared_schema_repo(tmp_path, json.dumps(ETH_SCHEMA))
        parsed = []
        real = checks.parse_schema
        monkeypatch.setattr(checks, "parse_schema", lambda doc: parsed.append(doc) or real(doc))
        result = run("generate", repo, "--config-schema", schema)
        assert result.exit_code == 0, result.stderr
        assert [r["uid"] for r in yaml.safe_load(result.stdout)["optimizer_inputs"]] == [
            "OI_ETH", "OI_MODEL", "OI_X"]
        assert parsed == [ETH_SCHEMA]

    def test_extra_fenced_blocks_warned_once_per_element(self, tmp_path):
        # OI_ETH, OI_MODEL and OI_X link to ST_ETH; it and OI_MODEL carry a second block
        repo, schema = shared_schema_repo(
            tmp_path, json.dumps(ETH_SCHEMA) + '\n```\n```json\n{"type": "string"}')
        optimizer = repo / "optimizer.md"
        optimizer.write_text(optimizer.read_text().replace(
            "```json\n50\n```", "```json\n50\n```\n```json\n60\n```"))
        lines = optimizer.read_text().splitlines()
        report = tmp_path / "report.yaml"
        result = run("check", repo, "--config-schema", schema, "--report", report)
        assert result.exit_code == 0, result.stderr
        assert result.stderr.splitlines() == [
            f"warning: internal_schema: optimizer.md:{lines.index(opening) + 1}: "
            "multiple fenced JSON blocks; only the first is used"
            for opening in lines if opening.startswith(('<treqs-element id="OI_MODEL"',
                                                        '<treqs-element id="ST_ETH"'))]
        data = yaml.safe_load(report.read_text())
        assert data["counts"]["internal_schema"] == {"errors": 0, "warnings": 2}
        assert [v["subject_uid"] for v in data["violations"]] == ["OI_MODEL", "ST_ETH"]
        result = run("generate", repo, "--config-schema", schema, "--format", "yaml")
        assert (result.exit_code, result.stderr) == (0, "")
        assert [(r["uid"], r["value"], r["schema"])
                for r in yaml.safe_load(result.stdout)["optimizer_inputs"]] == [
            ("OI_ETH", 20, ETH_SCHEMA), ("OI_MODEL", 50, ETH_SCHEMA), ("OI_X", 3, ETH_SCHEMA)]

    @pytest.mark.parametrize(
        "placement, segment",
        [("/type", "type"), ("/required/0", "required"),
         ("/properties/ethernet_latency/minimum", "minimum")],
    )
    @pytest.mark.parametrize("form", [["check"], ["generate", "--format", "yaml"],
                                      ["generate", "--format", "plantuml"]], ids=" ".join)
    def test_placement_naming_no_subschema_exit_1(self, tmp_path, placement, segment, form):
        files = repo_files()
        files["optimizer.md"] = files["optimizer.md"].replace(
            'placement="/properties/ethernet_latency"', f'placement="{placement}"')
        repo, schema = write_repo(tmp_path, files)
        report = tmp_path / "report.yaml"
        result = run(*form, repo, "--config-schema", schema, "--report", report)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        error = f"pointer {placement!r} unresolvable at segment {segment!r}"
        if form == ["check"]:
            assert f"error: semantic_equivalence: optimizer.md:3: {error}" in result.stderr
        errors = [v["message"] for v in yaml.safe_load(report.read_text())["violations"]
                  if v["severity"] == "error"]
        assert errors == [error]

    def test_canonical_text_written_only_for_mismatches(self, tmp_path, monkeypatch):
        texts = []
        real = checks.canonical_text
        monkeypatch.setattr(checks, "canonical_text", lambda s: texts.append(s) or real(s))
        repo, schema = shared_schema_repo(tmp_path / "pass", json.dumps(ETH_SCHEMA))
        result = run("check", repo, "--config-schema", schema)
        assert (result.exit_code, texts) == (0, []), result.stderr
        # OI_ETH, OI_MODEL and OI_X share ST_ETH, and each placement differs from it
        st_schema = {"type": "number", "minimum": 1, "description": "shared"}
        repo, schema = shared_schema_repo(tmp_path / "fail", json.dumps(st_schema))
        result = run("check", repo, "--config-schema", schema)
        assert result.exit_code == 1
        assert result.stderr.count("schema mismatch") == 3
        assert texts == [ETH_SCHEMA, st_schema] * 3

    @pytest.mark.parametrize("depth", [350, 500])
    @pytest.mark.parametrize("keyword", ["const", "enum"])
    def test_deep_const_and_enum_member(self, tmp_path, keyword, depth):
        st_schema = {keyword: nested(depth) if keyword == "const" else [0, nested(depth)]}
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        config["properties"]["ethernet_latency"] = st_schema
        failed = "differs from const" if keyword == "const" else "not among enum members"
        for value, stderr in (
            (nested(depth), ""),
            (nested(depth, leaf=2), "error: internal_schema: optimizer.md:3: instance violates "
                                    f"schema at <root>: {keyword}: value {failed}\n"),
        ):
            files = repo_files(oi_eth_value=json.dumps(value))
            files["optimizer.md"] = files["optimizer.md"].replace(
                json.dumps(ETH_SCHEMA), json.dumps(st_schema), 1)
            repo, schema = write_repo(tmp_path / str(len(stderr)), files, config)
            result = run("check", repo, "--config-schema", schema)
            assert (result.exit_code, result.stderr) == (1 if stderr else 0, stderr)

    def test_report_written(self, fig_repo, tmp_path):
        repo, schema = fig_repo
        report = tmp_path / "report.yaml"
        result = run("check", repo, "--config-schema", schema, "--report", report)
        assert result.exit_code == 0
        assert yaml.safe_load(report.read_text())["passed"] is True


# An element or link that a parse or graph error drops, with the error line it
# prints; the checks pass on what is left.
LOAD_ERRORS = {
    "dangling-link": (
        '<treqs-element id="REQ_X" type="requirement">\n'
        '<treqs-link type="refines" target="REQ_GONE" />\n</treqs-element>\n',
        "error: requirements.md:13: dangling link 'refines' to unknown uid 'REQ_GONE'",
    ),
    "duplicate-uid": (
        '<treqs-element id="REQ_ETH" type="requirement">\n</treqs-element>\n',
        "error: requirements.md:12: duplicate uid 'REQ_ETH' (first defined at requirements.md:3)",
    ),
    "malformed-tag": (
        '<treqs-element type="requirement">\n</treqs-element>\n',
        "error: requirements.md:12: missing id attribute",
    ),
}


@pytest.mark.parametrize("case", LOAD_ERRORS)
class TestLoadErrors:
    """A parse or graph error fails check and generate, whose report still
    says the three checks passed; list-scenarios lists what is left."""

    def repo(self, tmp_path, case):
        return write_repo(tmp_path, repo_files(extra_requirements=LOAD_ERRORS[case][0]))

    def test_check_exit_1(self, tmp_path, case):
        repo, schema = self.repo(tmp_path, case)
        report = tmp_path / "report.yaml"
        result = run("check", repo, "--config-schema", schema, "--report", report)
        assert (result.exit_code, result.stderr) == (1, LOAD_ERRORS[case][1] + "\n")
        assert yaml.safe_load(report.read_text())["passed"] is True

    @pytest.mark.parametrize("output_format", ["yaml", "plantuml"])
    def test_generate_refuses_exit_1(self, tmp_path, case, output_format):
        repo, schema = self.repo(tmp_path, case)
        report = tmp_path / "report.yaml"
        result = run("generate", repo, "--config-schema", schema, "--format", output_format,
                     "--report", report)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr.splitlines() == [
            LOAD_ERRORS[case][1], "checks failed; run check for details"]
        assert yaml.safe_load(report.read_text())["passed"] is True

    def test_list_scenarios_exit_0(self, tmp_path, case):
        repo, schema = self.repo(tmp_path, case)
        result = run("list-scenarios", repo, "--config-schema", schema)
        assert (result.exit_code, result.stdout) == (0, "RS1\tNight driving\t2\n")
        assert result.stderr == LOAD_ERRORS[case][1] + "\n"


def test_a_commands_diagnostics_are_written_at_once(tmp_path, monkeypatch):
    # the errors of every load case and two stray-link warnings: one stderr write, its
    # lines joined, with the bytes of one write per line
    extra = "".join(LOAD_ERRORS[case][0] for case in LOAD_ERRORS)
    repo, schema = write_repo(tmp_path, repo_files(extra_requirements=extra))
    (repo / "x.md").write_text('<treqs-link type="refines" target="RS1" />\n' * 2)
    written, real = [], cli_mod._warn
    monkeypatch.setattr(cli_mod, "_warn", lambda message: written.append(message) or real(message))
    result = run("check", repo, "--config-schema", schema)
    assert result.exit_code == 1
    assert len(written) == 1 and written[0].count("\n") >= len(LOAD_ERRORS)
    assert result.stderr == written[0] + "\n"


@pytest.mark.parametrize("command, exit_code", [
    (["check"], 1), (["generate", "--format", "yaml"], 1),
    (["generate", "--format", "plantuml"], 1), (["list-scenarios"], 0)])
def test_unreadable_file_is_an_error(fig_repo, monkeypatch, command, exit_code):
    repo, schema = fig_repo
    read_text = pathlib.Path.read_text

    def refuse(path, *args, **kwargs):
        if path.name == "architecture.md":
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", refuse)
    result = run(command[0], repo, "--config-schema", schema, *command[1:])
    assert result.exit_code == exit_code
    assert result.stderr.startswith(
        "error: architecture.md:1: cannot read file: [Errno 13] Permission denied: "
        f"{str(repo / 'architecture.md')!r}\n")


class TestGenerate:
    def test_yaml_output(self, fig_repo):
        repo, schema = fig_repo
        result = run("generate", repo, "--config-schema", schema, "--format", "yaml")
        assert result.exit_code == 0, result.stderr
        data = yaml.safe_load(result.stdout)
        assert len(data["optimizer_inputs"]) == 2

    def test_numbers_keep_their_written_form(self, tmp_path):
        # check 3 finds 0.0 and 0 equal; the document writes each as it was given
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        config["properties"]["ethernet_latency"]["minimum"] = 0.0
        repo, schema = write_repo(tmp_path, repo_files(), config)
        result = run("generate", repo, "--config-schema", schema, "--format", "yaml")
        assert result.exit_code == 0, result.stderr
        assert "    ethernet_latency:\n      minimum: 0.0\n" in result.stdout
        eth = yaml.safe_load(result.stdout)["optimizer_inputs"][0]
        assert eth["uid"] == "OI_ETH" and repr(eth["schema"]["minimum"]) == "0"

    def test_plantuml_output(self, fig_repo):
        repo, schema = fig_repo
        result = run("generate", repo, "--config-schema", schema, "--format", "plantuml")
        assert result.exit_code == 0
        assert result.stdout.startswith("@startuml")

    def test_plantuml_writes_line_breaks_as_spaces(self, tmp_path):
        files = repo_files()
        files["scenarios.md"] = files["scenarios.md"].replace(
            'label="Night driving"', 'label="Night\ndriving\tslow"')
        files["optimizer.md"] = files["optimizer.md"].replace(
            'placement="/properties/ethernet_latency"', 'placement="/properties/ethernet\nlatency"')
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        config["properties"]["ethernet\nlatency"] = config["properties"].pop("ethernet_latency")
        config["required"] = ["ethernet\nlatency", "model_latency"]
        repo, schema = write_repo(tmp_path, files, config)
        result = run("generate", repo, "--config-schema", schema, "--format", "plantuml")
        assert (result.exit_code, result.stderr) == (0, "")
        lines = result.stdout.splitlines()
        assert 'component "RS1\\nruntime-scenario\\nNight driving slow" as n_RS1' in lines
        assert "  OI_ETH: /properties/ethernet latency (number)" in lines
        assert lines[-3:] == ["  OI_MODEL: /properties/model_latency (number)", "endlegend", "@enduml"]
        # the intermediary document keeps the raw text
        document = run("generate", repo, "--config-schema", schema, "--format", "yaml")
        records = yaml.safe_load(document.stdout)["optimizer_inputs"]
        assert records[0]["placement"] == "/properties/ethernet\nlatency"

    @staticmethod
    def deep_value_repo(tmp_path, innermost):
        """The fixture with OI_ETH's value nested 500 arrays deep around
        `innermost`; the checks pass it."""
        schema = {"type": "array"}
        files = repo_files(oi_eth_value="[" * 500 + innermost + "]" * 500)
        files["optimizer.md"] = files["optimizer.md"].replace(
            json.dumps(ETH_SCHEMA), json.dumps(schema), 1)
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        config["properties"]["ethernet_latency"] = schema
        repo, config_path = write_repo(tmp_path, files, config)
        assert run("check", repo, "--config-schema", config_path).exit_code == 0
        return repo, config_path

    @staticmethod
    def assert_written_like_python_emitter(repo, config_path, monkeypatch):
        """`generate` exits 0 and writes what PyYAML's emitter writes for the
        same document; its representer recurses once per level, so the
        reference runs under a higher recursion limit."""
        written = run("generate", repo, "--config-schema", config_path, "--format", "yaml")
        assert written.exit_code == 0, written.stderr
        monkeypatch.setattr("tracegen.cli.emit_yaml", intermediary_reference)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            reference = run("generate", repo, "--config-schema", config_path, "--format", "yaml")
        finally:
            sys.setrecursionlimit(limit)
        assert reference.exit_code == 0
        assert written.stdout == reference.stdout
        return written.stdout

    def test_deep_value_written_without_recursion(self, tmp_path, monkeypatch):
        repo, config_path = self.deep_value_repo(tmp_path, '"a", 1.5, null')
        text = self.assert_written_like_python_emitter(repo, config_path, monkeypatch)
        assert "- - - - - - - - - - - a\n" in text

    def test_deep_value_with_a_line_break_written_without_recursion(self, tmp_path, monkeypatch):
        # NEL is a line break that PyYAML's own scalar writer writes, 500 levels deep
        repo, config_path = self.deep_value_repo(tmp_path, '"a\\u0085b"')
        text = self.assert_written_like_python_emitter(repo, config_path, monkeypatch)
        assert "- - - - - - - - - - - 'a\x85" in text
        result = run("generate", repo, "--config-schema", config_path, "--format", "plantuml")
        assert result.exit_code == 0, result.stderr

    def test_refuses_on_check_errors(self, tmp_path):
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        del config["properties"]["ethernet_latency"]["minimum"]
        repo, schema = write_repo(tmp_path, repo_files(), config)
        out = tmp_path / "out.yaml"
        result = run("generate", repo, "--config-schema", schema, "--out", out)
        assert result.exit_code == 1
        assert "checks failed" in result.stderr
        assert not out.exists()

    def test_out_file(self, fig_repo, tmp_path):
        repo, schema = fig_repo
        out = tmp_path / "out.yaml"
        result = run("generate", repo, "--config-schema", schema, "--out", out)
        assert result.exit_code == 0
        assert yaml.safe_load(out.read_text())["config_schema"] == CONFIG_SCHEMA

    def test_stdout_is_artifact_only(self, fig_repo):
        repo, schema = fig_repo
        result = run("generate", repo, "--config-schema", schema)
        assert yaml.safe_load(result.stdout) is not None

    def test_check_then_generate_is_stateless(self, fig_repo, tmp_path):
        repo, schema = fig_repo
        r1 = tmp_path / "r1.yaml"
        r2 = tmp_path / "r2.yaml"
        run("check", repo, "--config-schema", schema, "--report", r1)
        run("generate", repo, "--config-schema", schema, "--report", r2)
        assert r1.read_text() == r2.read_text()

    def test_reverse_links(self, tmp_path):
        # same fixture with every link written in the opposite direction;
        # flipping restores the default framework's canonical directions
        flipped = {
            "flipped.md": """
<treqs-element id="RS1" type="runtime-scenario" label="Night driving">
</treqs-element>
<treqs-element id="AL1" type="abstraction-level">
<treqs-link type="scopes" target="RS1" />
</treqs-element>
<treqs-element id="REQ_ETH" type="requirement">
<treqs-link type="contains" target="AL1" />
</treqs-element>
<treqs-element id="OI_ETH" type="OptimizerInput" placement="/properties/ethernet_latency">
```json
20
```
<treqs-link type="realizes" target="REQ_ETH" />
</treqs-element>
<treqs-element id="ST_ETH" type="schema-type">
<treqs-link type="describedBy" target="OI_ETH" />
```json
{"type": "number", "minimum": 0, "unit": "milliseconds"}
```
</treqs-element>
""",
        }
        config = {
            "type": "object",
            "properties": {
                "ethernet_latency": {"type": "number", "minimum": 0, "unit": "milliseconds"},
            },
        }
        repo, schema = write_repo(tmp_path, flipped, config)
        result = run("generate", repo, "--config-schema", schema, "--reverse-links")
        assert result.exit_code == 0, result.stderr
        data = yaml.safe_load(result.stdout)
        assert len(data["optimizer_inputs"]) == 1
        assert data["optimizer_inputs"][0]["trace"][-1]["uid"] == "RS1"

    def test_glob_flag_limits_files(self, fig_repo):
        repo, schema = fig_repo
        result = run(
            "generate", repo, "--config-schema", schema, "--glob", "scenarios.md"
        )
        # only the scenario file is visible: its scopes link dangles, and
        # that error refuses the document
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr.splitlines() == [
            "error: scenarios.md:5: dangling link 'scopes' to unknown uid 'AL1'",
            "checks failed; run check for details",
        ]

    def test_input_without_optional_schema_link_exit_1(self, tmp_path):
        # a TTIM may make the schema link optional: checks then pass, but an
        # input reachable without that link has no schema to emit
        ttim_path = tmp_path / "ttim.yaml"
        ttim_path.write_text(DEFAULT_TTIM.replace("required: true", "required: false"))
        files = repo_files()
        files["optimizer.md"] = files["optimizer.md"].replace(
            '<treqs-link type="describedBy" target="ST_ETH" />\n', "")
        repo, schema = write_repo(tmp_path, files)
        result = run("generate", repo, "--config-schema", schema, "--ttim", ttim_path)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        error_lines = [l for l in result.stderr.splitlines() if l.startswith("error:")]
        assert len(error_lines) == 1
        assert "OI_ETH" in error_lines[0]
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_report_into_missing_directory_exit_2(self, fig_repo, tmp_path):
        repo, schema = fig_repo
        out = tmp_path / "out.yaml"
        report = tmp_path / "nodir" / "r.yaml"
        result = run(
            "generate", repo, "--config-schema", schema, "--report", report, "--out", out
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("fatal: ")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_bodies_parsed_once_per_input(self, tmp_path, monkeypatch):
        # RS1 reaches OI_ETH through three levels, so three trace paths share
        # one input; its schema and value are each parsed once
        files = repo_files()
        files["scenarios.md"] = files["scenarios.md"].replace(
            '<treqs-link type="scopes" target="AL1" />',
            '<treqs-link type="scopes" target="AL1" />\n'
            '<treqs-link type="scopes" target="AL2" />\n'
            '<treqs-link type="scopes" target="AL3" />',
        )
        for level in ("AL2", "AL3"):
            files["architecture.md"] += (
                f'<treqs-element id="{level}" type="abstraction-level">\n'
                '<treqs-link type="contains" target="REQ_ETH" />\n</treqs-element>\n'
            )
        repo, schema = write_repo(tmp_path, files)
        parsed = []
        real = checks.first_json_fence
        monkeypatch.setattr(
            checks, "first_json_fence", lambda e: parsed.append(e.uid) or real(e)
        )
        result = run("generate", repo, "--config-schema", schema)
        assert result.exit_code == 0, result.stderr
        uids = [r["uid"] for r in yaml.safe_load(result.stdout)["optimizer_inputs"]]
        assert uids == ["OI_ETH"] * 3 + ["OI_MODEL"]
        assert sorted(parsed) == ["OI_ETH", "OI_MODEL", "ST_ETH", "ST_MODEL"]

    def test_refines_chain_past_the_recursion_limit(self, tmp_path):
        repo, schema = chain_repo(tmp_path, 1200)
        result = run("generate", repo, "--config-schema", schema)
        assert result.exit_code == 0, result.stderr
        # three records with 4, 4 and 1,203 trace nodes (RS1, AL1, the chain,
        # OI_ETH), one link fewer each; counted on the text, as loading a
        # 1,200-entry trace with PyYAML takes a second
        assert result.stdout.count("\n  - link_to_next: ") == 3 + 3 + 1202
        assert all(f"    uid: CH{i}\n" in result.stdout for i in range(1200))

    def test_max_paths_cap(self, fig_repo):
        repo, schema = fig_repo
        result = run(
            "generate", repo, "--config-schema", schema, "--max-paths-per-scenario", 1
        )
        assert result.exit_code == 1


class TestListScenarios:
    def test_two_scenarios(self, tmp_path):
        files = repo_files()
        files["scenarios.md"] += """
<treqs-element id="RS2" type="runtime-scenario" label="Day driving">
<treqs-link type="scopes" target="AL1" />
</treqs-element>
"""
        repo, schema = write_repo(tmp_path, files)
        result = run("list-scenarios", repo, "--config-schema", schema)
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t") == ["RS1", "Night driving", "2"]
        assert lines[1].split("\t") == ["RS2", "Day driving", "2"]

    def test_label_line_breaks_written_as_spaces(self, tmp_path):
        files = repo_files()
        files["scenarios.md"] = files["scenarios.md"].replace(
            'label="Night driving"', 'label="Night\ndriving\tslow"')
        repo, schema = write_repo(tmp_path, files)
        result = run("list-scenarios", repo, "--config-schema", schema)
        assert (result.exit_code, result.stdout) == (0, "RS1\tNight driving slow\t2\n")

    def test_empty_repo(self, tmp_path):
        (tmp_path / "repo").mkdir()
        schema = tmp_path / "config.json"
        schema.write_text(json.dumps(CONFIG_SCHEMA))
        result = run("list-scenarios", tmp_path / "repo", "--config-schema", schema)
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_refines_chain_past_the_recursion_limit(self, tmp_path):
        repo, schema = chain_repo(tmp_path, 1200)
        result = run("list-scenarios", repo, "--config-schema", schema)
        assert result.exit_code == 0, result.stderr
        assert result.stdout == "RS1\tNight driving\t3\n"

    def test_repeated_links_give_no_duplicate_paths(self, tmp_path):
        files = repo_files()
        for name, link in [("architecture.md", '<treqs-link type="contains" target="REQ_ETH" />'),
                           ("optimizer.md", '<treqs-link type="describedBy" target="ST_MODEL" />')]:
            files[name] = files[name].replace(link, link + "\n" + link)
        repo, schema = write_repo(tmp_path, files)
        warnings = (
            "warning: architecture.md:6: duplicate link 'contains' to 'REQ_ETH'\n"
            "warning: optimizer.md:15: duplicate link 'describedBy' to 'ST_MODEL'\n"
        )
        listing = run("list-scenarios", repo, "--config-schema", schema)
        assert (listing.exit_code, listing.stdout) == (0, "RS1\tNight driving\t2\n")
        assert listing.stderr == warnings
        checked = run("check", repo, "--config-schema", schema)
        assert (checked.exit_code, checked.stderr) == (0, warnings)
        generated = run("generate", repo, "--config-schema", schema, "--format", "yaml")
        assert generated.exit_code == 0
        records = yaml.safe_load(generated.stdout)["optimizer_inputs"]
        assert [r["uid"] for r in records] == ["OI_ETH", "OI_MODEL"]

    def test_counts_match_generate(self, fig_repo):
        repo, schema = fig_repo
        listing = run("list-scenarios", repo, "--config-schema", schema)
        generated = run("generate", repo, "--config-schema", schema)
        count = int(listing.stdout.splitlines()[0].split("\t")[2])
        assert count == len(yaml.safe_load(generated.stdout)["optimizer_inputs"])


def items_chain(depth):
    """``depth`` schemas, each the ``items`` of the one around it."""
    schema = {}
    for _ in range(depth - 1):
        schema = {"items": schema}
    return schema


def properties_chain(depth):
    """Schemas ``depth`` objects deep, each a ``properties`` entry of the one
    two levels out."""
    schema = {} if depth % 2 else {"properties": {}}
    for _ in range((depth - 1) // 2):
        schema = {"properties": {"a": schema}}
    return schema


# a schema nested exactly ``depth`` deep, and a value it accepts
NESTED_SCHEMAS = {
    "const": lambda depth: ({"const": nested(depth - 1)}, nested(depth - 1)),
    "enum": lambda depth: ({"enum": [0, nested(depth - 2)]}, nested(depth - 2)),
    "items": lambda depth: (items_chain(depth), []),
    "properties": lambda depth: (properties_chain(depth), {}),
}
NESTING_LIMIT = "arrays and objects nested more than 512 deep"


class TestNestingBound:
    """Every JSON text is read up to 512 levels of arrays and objects and
    refused past them, on every Python, and every subcommand ends cleanly at
    the bound and one level past it."""

    COMMANDS = [
        ("check", "--report", "report.yaml"),
        ("generate", "--format", "yaml"),
        ("generate", "--format", "plantuml"),
        ("list-scenarios",),
    ]

    @staticmethod
    def nested_repo(tmp_path, shape, depth, where):
        """The fixture with ST_ETH's body and OI_ETH's value built by
        ``shape``: the body ``depth`` deep, or, for ``where="config"``, the
        config schema ``depth`` deep with that body as ethernet_latency."""
        schema, value = NESTED_SCHEMAS[shape](depth if where == "schema-type" else depth - 2)
        files = repo_files(oi_eth_value=json.dumps(value))
        files["optimizer.md"] = files["optimizer.md"].replace(
            json.dumps(ETH_SCHEMA), json.dumps(schema), 1)
        config = json.loads(json.dumps(CONFIG_SCHEMA))
        if where == "config":
            config["properties"]["ethernet_latency"] = schema
        return write_repo(tmp_path, files, config)

    @pytest.mark.parametrize("where", ["schema-type", "config"])
    @pytest.mark.parametrize("shape", list(NESTED_SCHEMAS))
    @pytest.mark.parametrize("depth", [512, 513], ids=["at-the-bound", "past-it"])
    def test_every_subcommand_at_and_past_the_bound(self, tmp_path, monkeypatch, depth,
                                                      shape, where):
        repo, schema = self.nested_repo(tmp_path, shape, depth, where)
        monkeypatch.chdir(tmp_path)
        for command in self.COMMANDS:
            result = run(command[0], repo, "--config-schema", schema, *command[1:])
            assert result.exception is None or isinstance(result.exception, SystemExit)
            outcome = (result.exit_code, result.stderr)
            if depth == 512:
                # read in full: only check 3 fails, since the deep schema-type
                # is not the configuration's subschema at its placement
                assert NESTING_LIMIT not in result.stderr
                failed = where == "schema-type" and command[0] != "list-scenarios"
                assert result.exit_code == int(failed)
                assert ("error: semantic_equivalence: optimizer.md:3: schema mismatch"
                        in result.stderr) == (failed and command[0] == "check")
            elif where == "config":
                assert outcome == (2, f"fatal: config schema is not valid JSON: {NESTING_LIMIT}\n")
            elif command[0] == "check":
                assert result.exit_code == 1
                assert (f"error: internal_schema: optimizer.md:17: invalid JSON in fenced block: "
                        f"{NESTING_LIMIT}\n") in result.stderr
            elif command[0] == "generate":
                assert outcome == (1, "checks failed; run check for details\n")
            else:
                assert outcome == (0, "")  # list-scenarios reads no schema-type body
