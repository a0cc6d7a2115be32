"""The process entry point, ``python -m tracegen.cli`` and the console script:
it runs the command with the collector off for the life of the process and
leaves by os._exit once stdout and stderr are flushed. Exit codes, stdout
and stderr stay those of ``cli``; stdout is the artifact's UTF-8 bytes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tracegen.cli import cli

from conftest import repo_files, write_repo
from test_cli import LOAD_ERRORS
from test_collector import COMMANDS, exit_repo

SRC = Path(__file__).resolve().parents[1] / "src"
PROG = "tracegen"  # click's program name for the scripts below, whose argv[0] it is


def run(argv, stdout=subprocess.PIPE, main="cli.main()", prelude="", preexec_fn=None,
        stderr=subprocess.PIPE, **env):
    """``argv`` through ``main`` in a new process, after ``prelude``; the
    default is the entry point itself, as ``python -m tracegen.cli`` runs it.
    Standard output is buffered, as by default, unless ``env`` says otherwise."""
    script = "\n".join(["import sys", "from tracegen import cli", prelude,
                        f"sys.argv = ['tracegen', *{list(map(str, argv))!r}]", main])
    return subprocess.run([sys.executable, "-c", script], stdout=stdout, stderr=stderr,
                          env=environ(**env), preexec_fn=preexec_fn, timeout=120)


def environ(**env):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        **{"PYTHONUNBUFFERED": "", **env})


def command_args(command, repo, schema, options=()):
    return [*command, str(repo), "--config-schema", str(schema), *options]


@pytest.mark.parametrize("code", [0, 1, 2])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_exit_codes_and_bytes_equal_a_cli_run(tmp_path, command, code):
    (repo, schema), options = exit_repo(tmp_path, code)
    args = command_args(command, repo, schema, [] if command[0] == "check" else options)
    expected = CliRunner().invoke(cli, args, prog_name=PROG)
    result = run(args)
    assert (result.returncode, result.stdout, result.stderr) == (
        code, expected.stdout_bytes, expected.stderr_bytes)
    if command[0] != "check" and code == 0:
        assert result.stdout


@pytest.mark.parametrize("args", [["--help"], ["generate", "--nope"], []], ids=str)
def test_help_and_usage_errors_equal_a_cli_run(args):
    expected = CliRunner().invoke(cli, args, prog_name=PROG)
    result = run(args)
    assert (result.returncode, result.stdout, result.stderr) == (
        expected.exit_code, expected.stdout_bytes, expected.stderr_bytes)


def test_the_module_runs_the_entry_point():
    result = subprocess.run([sys.executable, "-m", "tracegen.cli", "--help"],
                            capture_output=True, env=environ(), timeout=120)
    expected = CliRunner().invoke(cli, ["--help"], prog_name="python -m tracegen.cli")
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.stdout_bytes, b"")


def into_a_closed_pipe(args, **options):
    """The entry point's run and ``cli``'s run as the whole program, which lets
    the interpreter flush and tear down, each with a stdout no one reads."""
    results = []
    for main in ("cli.main()", "cli.cli()"):
        read, write = os.pipe()
        os.close(read)
        try:
            results.append(run(args, stdout=write, main=main, **options))
        finally:
            os.close(write)
    return results


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_reader_that_closed_stdout_gets_what_cli_gives(fig_repo, command, unbuffered):
    entry, whole = into_a_closed_pipe(command_args(command, *fig_repo),
                                      PYTHONUNBUFFERED=unbuffered)
    assert (entry.returncode, entry.stderr) == (whole.returncode, whole.stderr)
    assert entry.returncode == (0 if command == ["check"] else 1)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_closed_stdout_gets_what_cli_gives(fig_repo, command):
    # with descriptor 1 closed, the interpreter starts with sys.stdout set to None
    entry, whole = (run(command_args(command, *fig_repo), stdout=None, main=main,
                        preexec_fn=lambda: os.close(1))
                    for main in ("cli.main()", "cli.cli()"))
    assert (entry.returncode, entry.stderr) == (whole.returncode, whole.stderr) == (0, b"")


def test_a_failed_flush_at_exit_ends_as_the_interpreter_would(fig_repo):
    # text left in stdout's buffer, which a closed pipe refuses at exit
    prelude = ("def unflushed(**options):\n"
               "    sys.stdout.write('x')\n"
               "    sys.exit(0)\n"
               "cli.cmd_check.callback = unflushed")
    entry, whole = into_a_closed_pipe(command_args(["check"], *fig_repo), prelude=prelude)
    assert (entry.returncode, entry.stderr) == (whole.returncode, whole.stderr)
    assert entry.returncode == 120  # the interpreter's code for a failed flush at exit
    assert b"BrokenPipeError" in entry.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [*COMMANDS[1:], ["--help"]], ids=" ".join)
def test_a_full_stdout_ends_in_one_fatal_line(fig_repo, command, unbuffered):
    # every write to /dev/full fails with ENOSPC, which is not a broken pipe
    args = command if command == ["--help"] else command_args(command, *fig_repo)
    with open("/dev/full", "wb") as full:
        result = run(args, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert result.returncode == 2
    assert result.stderr.startswith(b"fatal: ") and result.stderr.count(b"\n") == 1
    assert result.stderr.endswith(b"\n") and b"Traceback" not in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("dangling", [False, True], ids=["clean", "dangling-link"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_full_stderr_ends_with_exit_2_once_a_line_is_refused(tmp_path, command, dangling):
    # the clean fixture writes nothing to stderr; a dangling link writes an error line
    extra = LOAD_ERRORS["dangling-link"][0] if dangling else ""
    args = command_args(command, *write_repo(tmp_path, repo_files(extra_requirements=extra)))
    with open("/dev/full", "wb") as full:
        result = run(args, stderr=full)
    if dangling:
        assert (result.returncode, result.stdout) == (2, b"")
    else:
        expected = CliRunner().invoke(cli, args, prog_name=PROG)
        assert (result.returncode, result.stdout) == (0, expected.stdout_bytes)
        assert expected.stderr_bytes == b""


@pytest.mark.parametrize("body, code, stderr", [
    ("sys.exit()", 0, b""),
    ("sys.exit(3)", 3, b""),
    ("sys.exit('stopped here')", 1, b"stopped here\n"),
])
def test_exit_values(fig_repo, body, code, stderr):
    prelude = f"def stop(**options):\n    {body}\ncli.cmd_check.callback = stop"
    result = run(command_args(["check"], *fig_repo), prelude=prelude)
    assert (result.returncode, result.stderr) == (code, stderr)


def test_an_unexpected_exception_keeps_its_traceback(fig_repo):
    prelude = ("def broken(**options):\n"
               "    raise RuntimeError('boom')\n"
               "cli.cmd_check.callback = broken")
    result = run(command_args(["check"], *fig_repo), prelude=prelude)
    assert result.returncode == 1
    assert result.stderr.startswith(b"Traceback (most recent call last):\n")
    assert result.stderr.endswith(b"RuntimeError: boom\n")


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_no_collection_runs_and_the_collector_stays_off(fig_repo, command):
    # from the scan on, which runs inside the command, report the collector's
    # state and every pass; with a threshold of 1 any allocation while the
    # collector is on starts one
    prelude = ("import gc\n"
               "gc.set_threshold(1)\n"
               "scanned = []\n"
               "gc.callbacks.append(lambda phase, info: scanned and phase == 'start'\n"
               "                    and sys.stderr.write('gc pass\\n'))\n"
               "scan = cli.elements_mod.scan_repository\n"
               "def reported_scan(*args):\n"
               "    scanned.append(sys.stderr.write(f'enabled {gc.isenabled()}\\n'))\n"
               "    return scan(*args)\n"
               "cli.elements_mod.scan_repository = reported_scan")
    result = run(command_args(command, *fig_repo), prelude=prelude)
    assert result.returncode == 0
    assert result.stderr == b"enabled False\n"


def test_out_and_report_files_are_complete(tmp_path, fig_repo):
    repo, schema = fig_repo
    for output_format in ("yaml", "plantuml"):
        options = ["--format", output_format, "--report", str(tmp_path / "r.yaml")]
        expected = CliRunner().invoke(cli, command_args(["generate"], repo, schema, options))
        report = (tmp_path / "r.yaml").read_bytes()
        (tmp_path / "r.yaml").unlink()
        out = tmp_path / f"out.{output_format}"
        result = run(command_args(["generate"], repo, schema, [*options, "--out", str(out)]))
        assert (result.returncode, result.stdout) == (0, b"")
        assert out.read_bytes() == expected.stdout_bytes
        assert (tmp_path / "r.yaml").read_bytes() == report


def labelled_repo(tmp_path, label):
    files = repo_files()
    files["scenarios.md"] = files["scenarios.md"].replace(
        'label="Night driving"', f'label="{label}"')
    return write_repo(tmp_path, files)


@pytest.mark.parametrize("encoding", [None, "latin-1", "ascii"])
@pytest.mark.parametrize("label", ["Night \x1b[1mdriving\x1b[0m", "Night 東京"],
                         ids=["ansi", "non-ascii"])
def test_stdout_is_the_artifact_bytes(tmp_path, label, encoding):
    """Piped stdout keeps ANSI sequences and is UTF-8 whatever the stream's
    encoding: byte for byte what --out writes."""
    repo, schema = labelled_repo(tmp_path, label)
    env = {"PYTHONIOENCODING": encoding} if encoding else {}
    out = tmp_path / "overview.puml"
    args = command_args(["generate", "--format", "plantuml"], repo, schema)
    written = run([*args, "--out", str(out)], **env)
    piped = run(args, **env)
    assert (written.returncode, piped.returncode, piped.stderr) == (0, 0, b"")
    assert piped.stdout == out.read_bytes()
    assert f'"RS1\\nruntime-scenario\\n{label}"'.encode("utf-8") in piped.stdout
    listed = run(command_args(["list-scenarios"], repo, schema), **env)
    assert (listed.returncode, listed.stderr) == (0, b"")
    assert listed.stdout == f"RS1\t{label}\t2\n".encode("utf-8")
