"""PyYAML is imported only where YAML is read (a --ttim file) or where a string
needs PyYAML's own scalar writer: the intermediary document, the check report,
the PlantUML overview, list-scenarios and --help run without it, and where it
is loaded the bytes are those of a process that had it loaded from the start."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tracegen.checks import Resolution
from tracegen.cli import cli
from tracegen.graph import TraceGraph
from tracegen.traversal import TracePath

from conftest import DEFAULT_TTIM, mk_element
from oracles import dump_reference, intermediary_reference

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(script):
    """Run ``script`` in a new process; its last stderr line says whether
    PyYAML was loaded at the end."""
    script += "\nsys.stdout.flush()\nsys.stderr.write(f\"\\nyaml {'yaml' in sys.modules}\\n\")"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                            capture_output=True, env=env, timeout=120)
    stderr, _, loaded = result.stderr.rpartition(b"\nyaml ")
    assert loaded in (b"True\n", b"False\n"), result.stderr
    return result, stderr, loaded == b"True\n"


def fresh_cli(args):
    result, stderr, loaded = fresh(
        "from tracegen.cli import cli\n"
        "try:\n"
        f"    cli.main({list(map(str, args))!r}, prog_name='tracegen')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(f'code {code}')")
    stderr, _, code = stderr.rpartition(b"code ")
    expected = CliRunner().invoke(cli, args, prog_name="tracegen")
    assert (int(code), result.stdout, stderr) == (
        expected.exit_code, expected.stdout_bytes, expected.stderr_bytes)
    return loaded


def repo_args(command, fig_repo, *options):
    repo, schema = fig_repo
    return [*command, str(repo), "--config-schema", str(schema), *options]


@pytest.mark.parametrize("command", [["generate", "--format", "plantuml"], ["list-scenarios"]],
                         ids=" ".join)
def test_not_loaded_for_the_overview_or_the_listing(fig_repo, command):
    assert not fresh_cli(repo_args(command, fig_repo))


def test_not_loaded_for_help():
    assert not fresh_cli(["--help"])


def test_not_loaded_for_the_intermediary_document(fig_repo):
    assert not fresh_cli(repo_args(["generate", "--format", "yaml"], fig_repo))


def test_not_loaded_for_the_report(fig_repo, tmp_path):
    report = tmp_path / "report.yaml"
    args = repo_args(["check"], fig_repo, "--report", str(report))
    CliRunner().invoke(cli, args)
    expected = report.read_bytes()
    report.unlink()
    assert not fresh_cli(args)
    assert report.read_bytes() == expected


def test_loaded_for_a_ttim_file(fig_repo, tmp_path):
    ttim = tmp_path / "ttim.yaml"
    ttim.write_text(DEFAULT_TTIM, encoding="utf-8")
    assert fresh_cli(repo_args(["list-scenarios"], fig_repo, "--ttim", str(ttim)))


@pytest.mark.parametrize("allow_unicode", [False, True])
def test_loaded_for_a_string_only_pyyaml_writes(allow_unicode):
    data = ["a line\nbreak", "\x07bell"]
    result, stderr, loaded = fresh(
        "from tracegen import emit\n"
        "assert 'yaml' not in sys.modules\n"
        f"sys.stdout.write(emit.dump_yaml({data!r}, {allow_unicode}))")
    assert loaded, stderr
    assert result.stdout.decode("utf-8") == dump_reference(data, allow_unicode)


def test_loaded_for_a_record_field_only_pyyaml_writes():
    element = mk_element("OI", "OptimizerInput", label="a line\nbreak", placement="/p")
    doc = ({"type": "object"}, [TracePath(("OI",), ())], TraceGraph({"OI": element}, (), {}, {}),
           {"OI": Resolution((), {"type": "number"}, 1, True)})
    result, stderr, loaded = fresh(
        "from tracegen import emit\n"
        "from tracegen.checks import Resolution\n"
        "from tracegen.elements import RawElement, RawLink\n"
        "from tracegen.graph import TraceGraph\n"
        "from tracegen.traversal import TracePath\n"
        "assert 'yaml' not in sys.modules\n"
        f"sys.stdout.write(emit.emit_yaml(*{doc!r}))")
    assert loaded, stderr
    assert result.stdout.decode("utf-8") == intermediary_reference(*doc)
