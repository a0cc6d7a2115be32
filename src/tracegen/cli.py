"""Command-line entry point: parse, build, check, traverse, emit.

Exit codes: 0 success, 1 check failures, 2 usage/IO/parse-fatal errors.
Standard output carries only the requested artifact; diagnostics go to
standard error.
"""

from __future__ import annotations

import gc
import json  # noqa: F401 (perfbench/tracer.py wraps cli.json.loads by name)
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from tracegen import checks as checks_mod
from tracegen import elements as elements_mod
from tracegen.elements import DEFAULT_GLOBS, parse_json
from tracegen.emit import emit_plantuml, emit_yaml, one_line
from tracegen.errors import Diagnostic, InvalidJson, TracegenError
from tracegen.graph import TraceGraph, build_graph
from tracegen.schema import SchemaDoc, parse_schema
from tracegen.traversal import (
    DEFAULT_MAX_PATHS,
    collect_optimizer_inputs,
    summarize_traversal,
    traverse_from_scenario,
)
from tracegen.ttim import TtimDefinition, default_extended_framework, load_ttim

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_OPERATIONAL = 2


def _warn(message: str) -> None:
    click.echo(message, err=True)


def _fail(message: object, code: int = EXIT_OPERATIONAL) -> NoReturn:
    """End a failed run with one stderr line: ``fatal:`` and exit 2 for input
    or I/O that stops the run, ``error:`` and exit 1 for a failed traversal."""
    _warn(f"{'fatal' if code == EXIT_OPERATIONAL else 'error'}: {message}")
    sys.exit(code)


def _print_diagnostics(diagnostics: list[Diagnostic]) -> None:
    for diag in diagnostics:
        _warn(str(diag))


def _load_pipeline(
    repo_root: str,
    ttim_path: str | None,
    config_schema_path: str,
    globs: tuple[str, ...],
    reverse_links: bool,
) -> tuple[TraceGraph, TtimDefinition, SchemaDoc]:
    """Shared front half of every subcommand; a fatal input problem ends the
    run with exit 2."""
    try:
        ttim = load_ttim(ttim_path) if ttim_path else default_extended_framework()
        # of the calls in this block, only reading the config schema raises
        # InvalidJson or UnicodeDecodeError
        config_doc = parse_json(Path(config_schema_path).read_text(encoding="utf-8"))
        config_schema = parse_schema(config_doc)
        include = globs if globs else DEFAULT_GLOBS
        files, diagnostics = elements_mod.scan_repository(repo_root, include)
    except InvalidJson as exc:  # a JSONDecodeError cause also gives the position
        _fail(f"config schema is not valid JSON: {exc.__cause__ or exc}")
    except UnicodeDecodeError as exc:
        _fail(f"config schema is not UTF-8: {exc}")
    except (TracegenError, OSError) as exc:
        _fail(exc)
    all_elements = []
    for file in files:
        parsed, file_diags = elements_mod.parse_file(file)
        all_elements.extend(parsed)
        diagnostics.extend(file_diags)
    graph, build_diags = build_graph(all_elements, reverse_links)
    diagnostics.extend(build_diags)
    _print_diagnostics(diagnostics)
    return graph, ttim, config_schema


def _write(path: str, text: str) -> None:
    """Write an artifact or report file; an I/O failure is fatal."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(exc)


def _common_options(func):
    func = click.option(
        "--reverse-links",
        is_flag=True,
        help="Flip every trace-link direction before checking and traversal "
        "(for repositories whose links point upward).",
    )(func)
    func = click.option(
        "--glob",
        "globs",
        multiple=True,
        help="Include glob pattern, repeatable (default: **/*.md and **/*.txt).",
    )(func)
    func = click.option(
        "--config-schema",
        "config_schema_path",
        required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="JSON schema of the target system configuration.",
    )(func)
    func = click.option(
        "--ttim",
        "ttim_path",
        type=click.Path(exists=True, dir_okay=False),
        help="TTIM meta-model YAML file (default: built-in extended framework).",
    )(func)
    func = click.argument("repo_root", type=click.Path(exists=True, file_okay=False))(func)
    return func


_max_paths_option = click.option(
    "--max-paths-per-scenario",
    default=DEFAULT_MAX_PATHS,
    show_default=True,
    help="Abort when one scenario produces more trace paths than this.",
)


@click.group()
@click.pass_context
def cli(ctx: click.Context) -> None:
    """Extract traceable runtime-configuration specifications from textual
    requirements."""
    # A run builds no reference cycles, so reference counting frees all of its
    # data and the cyclic collector's passes find nothing. Turn it off for the
    # command and back on when the command ends, however it ends.
    if gc.isenabled():
        gc.disable()
        ctx.call_on_close(gc.enable)


@cli.command("check")
@_common_options
@click.option("--report", "report_path", type=click.Path(dir_okay=False), help="Write the check report as YAML.")
def cmd_check(repo_root, ttim_path, config_schema_path, globs, reverse_links, report_path) -> None:
    """Run the three quality-assurance checks."""
    graph, ttim, config_schema = _load_pipeline(
        repo_root, ttim_path, config_schema_path, globs, reverse_links
    )
    report = checks_mod.run_all_checks(
        graph, ttim, config_schema, checks_mod.resolve_optimizer_inputs(graph, ttim)
    )
    _print_diagnostics(report.violations)
    if report_path:
        _write(report_path, checks_mod.report_to_yaml(report))
    sys.exit(EXIT_OK if report.passed else EXIT_CHECK_FAILED)


@cli.command("generate")
@_common_options
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["yaml", "plantuml"]),
    default="yaml",
    show_default=True,
)
@click.option("--out", "output_path", type=click.Path(dir_okay=False), help="Output file (default: stdout).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), help="Write the check report as YAML.")
@_max_paths_option
def cmd_generate(
    repo_root,
    ttim_path,
    config_schema_path,
    globs,
    reverse_links,
    output_format,
    output_path,
    report_path,
    max_paths_per_scenario,
) -> None:
    """Emit the intermediary YAML document or the PlantUML overview."""
    graph, ttim, config_schema = _load_pipeline(
        repo_root, ttim_path, config_schema_path, globs, reverse_links
    )

    resolutions = checks_mod.resolve_optimizer_inputs(graph, ttim)
    report = checks_mod.run_all_checks(graph, ttim, config_schema, resolutions)
    if report_path:
        _write(report_path, checks_mod.report_to_yaml(report))
    if not report.passed:
        _warn("checks failed; run check for details")
        sys.exit(EXIT_CHECK_FAILED)

    summary = summarize_traversal(graph, ttim, max_paths_per_scenario)
    if not summary.scenarios:
        _warn("warning: no runtime scenarios found")
    try:
        for uid in summary.scenarios:  # the cap holds before any path is listed
            summary.count(uid)
        warnings = [summary.warnings(uid) for uid in summary.scenarios]
        for found in warnings:
            _print_diagnostics(found)
        summary.require_resolved(resolutions)
        if output_format == "yaml":  # one record per path: list them
            paths = collect_optimizer_inputs([
                traverse_from_scenario(summary, uid, found)
                for uid, found in zip(summary.scenarios, warnings)
            ])
    except TracegenError as exc:
        _fail(exc, EXIT_CHECK_FAILED)

    if output_format == "yaml":
        text = emit_yaml(config_schema, paths, graph, resolutions)
    else:
        text = emit_plantuml(*summary.reached(summary.scenarios), graph, resolutions)
    if output_path:
        _write(output_path, text)
    else:  # as bytes, so that click.echo neither strips ANSI sequences nor re-encodes
        click.echo(text.encode("utf-8"), nl=False)
    sys.exit(EXIT_OK)


@cli.command("list-scenarios")
@_common_options
@_max_paths_option
def cmd_list_scenarios(
    repo_root, ttim_path, config_schema_path, globs, reverse_links, max_paths_per_scenario
) -> None:
    """List runtime scenarios with their reachable trace-path counts."""
    graph, ttim, _ = _load_pipeline(
        repo_root, ttim_path, config_schema_path, globs, reverse_links
    )
    summary = summarize_traversal(graph, ttim, max_paths_per_scenario)
    for uid in summary.scenarios:
        try:
            count = summary.count(uid)
        except TracegenError as exc:
            _fail(exc, EXIT_CHECK_FAILED)
        label = one_line(graph.elements[uid].label or "")
        click.echo(f"{uid}\t{label}\t{count}\n".encode("utf-8"), nl=False)
    sys.exit(EXIT_OK)


def main() -> None:
    """The console script: the collector stays off for the life of the process, which
    skips the interpreter's teardown by leaving with os._exit once stdout and stderr are flushed."""
    gc.disable()
    try:
        cli()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise  # the interpreter writes the message and exits 1
        try:
            for stream in filter(None, (sys.stdout, sys.stderr)):
                stream.flush()
        except (OSError, ValueError):  # a closed pipe: end as the interpreter would
            raise exc from None
        os._exit(exc.code or 0)


if __name__ == "__main__":
    main()
