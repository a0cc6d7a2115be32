"""A command runs with the cyclic garbage collector off and leaves it as it
found it; the run's data holds no reference cycles, so reference counting
frees all of it and the collector finds the same few objects at any size."""

import gc
import re

import pytest
from click.testing import CliRunner

from tracegen import cli as cli_mod
from tracegen.cli import cli

from conftest import repo_files, write_repo

COMMANDS = (["check"], ["generate", "--format", "yaml"], ["generate", "--format", "plantuml"],
            ["list-scenarios"])


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def exit_repo(tmp_path, code):
    """The fixture repository, and the options that end every command with
    ``code``."""
    if code == 0:
        return write_repo(tmp_path, repo_files()), []
    if code == 1:  # a failed check; list-scenarios fails on the path cap
        repo, schema = write_repo(tmp_path, repo_files(oi_eth_value='"fast"'))
        return (repo, schema), ["--max-paths-per-scenario", "1"]
    repo, schema = write_repo(tmp_path, repo_files())
    schema.write_text("{", encoding="utf-8")  # exit 2: the config schema is not JSON
    return (repo, schema), []


@pytest.mark.parametrize("code", [0, 1, 2])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_collector_off_during_a_command_and_on_after_it(
    tmp_path, monkeypatch, collector_on, command, code
):
    (repo, schema), options = exit_repo(tmp_path, code)
    if command[0] == "check":
        options = []
    seen = []
    real = cli_mod.elements_mod.scan_repository
    monkeypatch.setattr(cli_mod.elements_mod, "scan_repository",
                        lambda *a: seen.append(gc.isenabled()) or real(*a))
    result = CliRunner().invoke(cli, [*command, str(repo), "--config-schema", str(schema),
                                      *options])
    assert result.exit_code == code, result.stderr
    assert seen == ([] if code == 2 else [False])
    assert gc.isenabled()


def test_collector_on_after_an_unexpected_exception(fig_repo, monkeypatch, collector_on):
    repo, schema = fig_repo

    def broken(*args):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "build_graph", broken)
    result = CliRunner().invoke(cli, ["check", str(repo), "--config-schema", str(schema)])
    assert isinstance(result.exception, RuntimeError)
    assert gc.isenabled()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_caller_that_turned_the_collector_off_keeps_it_off(fig_repo, collector_on, command):
    repo, schema = fig_repo
    gc.disable()
    result = CliRunner().invoke(cli, [*command, str(repo), "--config-schema", str(schema)])
    assert result.exit_code == 0, result.stderr
    assert not gc.isenabled()


# One of each defect, added to every copy of the fixture repository: invalid
# JSON, an unresolvable placement, a schema error, a duplicate uid, a dangling
# link, a malformed tag and a cycle edge.
DEFECTS = """
<treqs-element id="OI_JSON" type="OptimizerInput" placement="/properties/model_latency">
```json
{"unclosed":
```
<treqs-link type="describedBy" target="ST_MODEL" />
</treqs-element>

<treqs-element id="OI_NOWHERE" type="OptimizerInput" placement="/properties/nowhere">
```json
5
```
<treqs-link type="describedBy" target="ST_BAD" />
</treqs-element>

<treqs-element id="ST_BAD" type="schema-type">
```json
{"type": "float"}
```
</treqs-element>

<treqs-element id="REQ_DANGLING" type="requirement">
<treqs-link type="realizes" target="NOT_THERE" />
</treqs-element>

<treqs-element id="BROKEN" type=requirement>
</treqs-element>

<treqs-element id="REQ_LOOP" type="requirement">
<treqs-link type="refines" target="REQ_MODEL" />
</treqs-element>

<treqs-element id="REQ_LOOP" type="requirement">
</treqs-element>
"""


def defective_copies(tmp_path, copies):
    """``copies`` copies of the fixture repository in one, each with its own
    uids and with one of each defect."""
    files = {}
    for name, content in {**repo_files(), "defects.md": DEFECTS}.items():
        for k in range(copies):
            files[f"{k}-{name}"] = re.sub(
                r'\b(id|target)="([^"]+)"', lambda m: f'{m[1]}="{m[2]}_{k}"', content)
    for k in range(copies):  # REQ_MODEL refines REQ_LOOP, which refines it back
        files[f"{k}-requirements.md"] = files[f"{k}-requirements.md"].replace(
            f'<treqs-link type="realizes" target="OI_MODEL_{k}" />',
            f'<treqs-link type="realizes" target="OI_MODEL_{k}" />\n'
            f'<treqs-link type="refines" target="REQ_LOOP_{k}" />')
    return write_repo(tmp_path / f"x{copies}", files)


def unreachable_after(command, repo, schema):
    """Exit code of ``command`` run with the collector off, and the number of
    unreachable objects that the collector then finds."""
    gc.collect()
    gc.disable()
    try:
        try:
            cli.main([*command, str(repo), "--config-schema", str(schema)],
                     standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        return code, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_the_collector_finds_the_same_objects_at_one_and_eight_copies(
    tmp_path, capsys, collector_on, command
):
    one = defective_copies(tmp_path, 1)
    eight = defective_copies(tmp_path, 8)
    unreachable_after(command, *one)  # warm-up: imports and first-call caches
    code_one, found_one = unreachable_after(command, *one)
    code_eight, found_eight = unreachable_after(command, *eight)
    out, err = capsys.readouterr()
    assert code_one == code_eight == (0 if command == ["list-scenarios"] else 1), err
    found = ["malformed attribute", "duplicate uid", "dangling link"]
    if command == ["check"]:
        found += ["invalid JSON", "unresolvable", "invalid type 'float'"]
    elif command == ["list-scenarios"]:  # both inputs reached, one through the cycle
        assert out.count("\tNight driving\t2\n") == 1 + 1 + 8
    assert all(needle in err for needle in found), err
    assert found_one == found_eight
