"""Run the tracegen CLI in this process with a span around each public call.

Usage: python3 tracer.py SPANS.json -- CLI-ARGUMENTS...

The CLI runs exactly as ``python3 -m tracegen.cli CLI-ARGUMENTS...`` would,
writing its artifact to standard output or its ``--report`` file, but every
call it makes into the pipeline's public functions is wrapped in a span.
Spans and per-layer counts stay in memory and are written to SPANS.json once
the CLI has exited. A renamed or moved function makes the patching fail
loudly rather than silently dropping its span.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
import types

_BLOCK_TAG = re.compile(r"<treqs-element\b[^<>]*>|</treqs-element>")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, func, count=None):
        """``func`` timed under span ``name``; ``count(result)`` runs after
        the span closes, so counting is not part of the layer's time."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"name": name, "parent": parent})
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index].update(start=start, end=end)
            if count is not None:
                count(result)
            return result

        return traced


def _tagged_bytes(content: str) -> int:
    """UTF-8 bytes inside outermost element blocks, tags included."""
    tagged = depth = start = 0
    for match in _BLOCK_TAG.finditer(content):
        if match.group(0).startswith("</"):
            if depth:
                depth -= 1
                if depth == 0:
                    tagged += len(content[start:match.end()].encode("utf-8"))
        else:
            if depth == 0:
                start = match.start()
            depth += 1
    return tagged


def install(tracer: Tracer) -> list:
    """Patch the CLI's calls into each layer; returns the scanned files."""
    from tracegen import checks, cli, elements

    scanned: list = []

    def on_scan(result):
        files, _ = result
        scanned.extend(files)
        tracer.add("elements.files", len(files))

    def on_parse(result):
        tracer.add("elements.count", len(result[0]))

    def on_checks(result):
        tracer.add("checks.violations", len(result))

    def on_traverse(result):
        tracer.add("traversal.paths", len(result.paths))
        tracer.add("traversal.pruned_edges", len(result.diagnostics))

    def on_collect(result):
        tracer.add("traversal.records", len(result))
        tracer.add("traversal.inputs", len({r.uid for r in result}))

    def on_emit(result):
        tracer.add("emit.bytes", len(result.encode("utf-8")))

    elements.scan_repository = tracer.wrap("elements.scan", elements.scan_repository, on_scan)
    elements.parse_file = tracer.wrap("elements.parse", elements.parse_file, on_parse)
    cli.build_graph = tracer.wrap(
        "graph.build", cli.build_graph,
        lambda result: tracer.add("graph.edges", len(result[0].edges)))
    for span, name in (
        ("checks.metamodel", "check_metamodel_consistency"),
        ("checks.internal_schema", "check_internal_schema_correctness"),
        ("checks.semantic_equivalence", "check_semantic_equivalence"),
    ):
        setattr(checks, name, tracer.wrap(span, getattr(checks, name), on_checks))
    checks.report_to_yaml = tracer.wrap("checks.report", checks.report_to_yaml)
    cli.traverse_from_scenario = tracer.wrap(
        "traversal.traverse", cli.traverse_from_scenario, on_traverse)
    cli.collect_optimizer_inputs = tracer.wrap(
        "traversal.collect", cli.collect_optimizer_inputs, on_collect)
    cli.emit_yaml = tracer.wrap("emit.yaml", cli.emit_yaml, on_emit)
    cli.emit_plantuml = tracer.wrap("emit.plantuml", cli.emit_plantuml, on_emit)
    # The config schema is read with json.loads and checked with parse_schema,
    # both called from cli; the module's other json users are untouched.
    cli.json = types.SimpleNamespace(
        loads=tracer.wrap("schema.config_parse", cli.json.loads),
        JSONDecodeError=cli.json.JSONDecodeError,
    )
    cli.parse_schema = tracer.wrap("schema.config_parse", cli.parse_schema)
    return scanned


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    scanned = install(tracer)
    from tracegen import cli

    run = tracer.wrap("cli.main", cli.cli.main)
    try:
        run(args=cli_args, prog_name="tracegen")
        exit_code = 0
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    total = sum(len(f.content.encode("utf-8")) for f in scanned)
    tracer.add("elements.input_bytes", total)
    tracer.add("elements.tagged_bytes", sum(_tagged_bytes(f.content) for f in scanned))
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump({"exit_code": exit_code, "spans": tracer.spans, "counts": tracer.counts}, out)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
