"""The three quality-assurance checks and their aggregated report."""

from __future__ import annotations

from collections import Counter
from typing import Any, NamedTuple

from tracegen.elements import RawElement, first_json_fence, parse_json
from tracegen.emit import dump_yaml
from tracegen.errors import Diagnostic, InvalidJson, PointerUnresolvable, SchemaError
from tracegen.graph import TraceGraph
from tracegen.schema import (
    SchemaDoc,
    canonical_text,
    collect_property_paths,
    equivalent,
    parse_schema,
    resolve_pointer,
    validate_instance,
)
from tracegen.ttim import TtimDefinition

CHECK_METAMODEL = "metamodel"
CHECK_INTERNAL_SCHEMA = "internal_schema"
CHECK_SEMANTIC_EQUIVALENCE = "semantic_equivalence"
CHECK_ORDER = (CHECK_METAMODEL, CHECK_INTERNAL_SCHEMA, CHECK_SEMANTIC_EQUIVALENCE)


class CheckReport(NamedTuple):
    violations: list[Diagnostic]
    counts: dict[str, tuple[int, int]]  # id -> (errors, warnings)
    passed: bool = True


def _violation(
    check_id: str,
    severity: str,
    graph: TraceGraph,
    uid: str,
    message: str,
) -> Diagnostic:
    element = graph.elements[uid]
    return Diagnostic(
        severity=severity,
        message=message,
        file=element.file,
        line=element.line,
        check_id=check_id,
        subject_uid=uid,
    )


def check_metamodel_consistency(graph: TraceGraph, ttim: TtimDefinition) -> list[Diagnostic]:
    """Check 1: the graph instantiates only declared types and declared,
    direction-respecting link types, and carries every required link.
    Unsorted: ``run_all_checks`` orders the report."""
    out: list[Diagnostic] = []

    def violation(uid: str, message: str) -> None:
        out.append(_violation(CHECK_METAMODEL, "error", graph, uid, message))

    declared = set(ttim.node_types)
    for element_type, uids in graph.by_type.items():
        if element_type not in declared:
            for uid in uids:
                violation(uid, f"element type {element_type!r} is not declared in the meta-model")
    link_defs = {link_def.name: link_def for link_def in ttim.link_types}
    elements = graph.elements
    for source, link_type, target in graph.edges:
        link_def = link_defs.get(link_type)
        if link_def is None:
            violation(source, f"link type {link_type!r} is not declared in the meta-model")
            continue
        source_type = elements[source].element_type
        target_type = elements[target].element_type
        if source_type not in link_def.source_types:
            violation(source, f"link {link_type!r} may not start from a {source_type!r} element")
        if target_type not in link_def.target_types:
            violation(
                source,
                f"link {link_type!r} may not point at a {target_type!r} element ({target})",
            )
    for link_def in ttim.link_types:
        if not link_def.required:
            continue
        for element_type in sorted(link_def.source_types):
            for uid in graph.by_type.get(element_type, ()):
                if not any(lt == link_def.name for _, lt, _ in graph.outgoing(uid)):
                    violation(uid, f"missing required outgoing link of type {link_def.name!r}")
    return out


class Resolution(NamedTuple):
    """One optimizer input's schema and instance value, and the check-2
    violations met while reading them."""

    violations: tuple[Diagnostic, ...]
    schema: SchemaDoc | None = None  # set once the schema body parsed
    value: Any = None
    complete: bool = False  # schema and value both read


def _resolve(
    graph: TraceGraph, ttim: TtimDefinition, oi_uid: str, schemas: dict[str, SchemaDoc | None]
) -> Resolution:
    found: list[Diagnostic] = []

    def note(severity: str, uid: str, message: str) -> None:
        found.append(_violation(CHECK_INTERNAL_SCHEMA, severity, graph, uid, message))

    def read(element: RawElement, missing: str, parse) -> tuple[bool, Any]:
        text, more = first_json_fence(element)
        if text is None:
            note("error", element.uid, missing)
            return False, None
        if more:
            note("warning", element.uid, "multiple fenced JSON blocks; only the first is used")
        try:
            return True, parse(parse_json(text))
        except InvalidJson as exc:
            note("error", element.uid, f"invalid JSON in fenced block: {exc}")
        except SchemaError as exc:
            note("error", element.uid, str(exc))
        return False, None

    targets = [t for _, lt, t in graph.outgoing(oi_uid) if lt == ttim.schema_link]
    if not targets:
        # check 1 reports the absence when the meta-model requires the link
        return Resolution(())
    if len(targets) > 1:
        note("error", oi_uid, f"ambiguous schema link: {len(targets)} {ttim.schema_link!r} edges")
        return Resolution(tuple(found))
    target = targets[0]
    if target not in schemas:  # read once; its findings go with this first input
        _, schemas[target] = read(
            graph.elements[target], "schema-type element carries no fenced JSON block", parse_schema
        )
    if schemas[target] is None:
        return Resolution(tuple(found))
    has_value, value = read(
        graph.elements[oi_uid], "optimizer input carries no fenced JSON instance", lambda v: v
    )
    return Resolution(tuple(found), schemas[target], value, has_value)


def resolve_optimizer_inputs(
    graph: TraceGraph, ttim: TtimDefinition
) -> dict[str, Resolution]:
    """Apply the schema-link and fence rules once per optimizer input: it has
    one schema link to an element whose first fenced JSON block is a schema,
    and carries its own instance value in a fenced JSON block.

    Each schema-type body is read once: the inputs that link to it share its
    schema, and its check-2 findings are reported once, with the first of them.
    """
    schemas: dict[str, SchemaDoc | None] = {}  # schema-type uid -> schema, None if unreadable
    return {
        uid: _resolve(graph, ttim, uid, schemas)
        for uid in graph.by_type.get(ttim.optimizer_input_type, ())
    }


def check_internal_schema_correctness(
    graph: TraceGraph, resolutions: dict[str, Resolution]
) -> list[Diagnostic]:
    """Check 2: every optimizer input's JSON instance validates against the
    schema carried by its linked schema-type element."""
    out: list[Diagnostic] = []
    for oi_uid, resolution in resolutions.items():
        out.extend(resolution.violations)
        if not resolution.complete:
            continue
        for violation in validate_instance(resolution.schema, resolution.value):
            out.append(
                _violation(
                    CHECK_INTERNAL_SCHEMA,
                    "error",
                    graph,
                    oi_uid,
                    f"instance violates schema at {violation.pointer or '<root>'}: "
                    f"{violation.keyword}: {violation.message}",
                )
            )
    return out


def check_semantic_equivalence(
    graph: TraceGraph, config_schema: SchemaDoc, resolutions: dict[str, Resolution]
) -> list[Diagnostic]:
    """Check 3: each optimizer input's schema matches the configuration-schema
    subschema at its placement pointer, by ``equivalent``. Canonical texts are
    written only for the two sides of a mismatch, for its message.
    """
    out: list[Diagnostic] = []
    covered: set[str] = set()  # each placement and every pointer above it

    def violation(severity: str, uid: str, message: str) -> None:
        out.append(_violation(CHECK_SEMANTIC_EQUIVALENCE, severity, graph, uid, message))

    for oi_uid, resolution in resolutions.items():
        element = graph.elements[oi_uid]
        if element.placement is None:
            violation("warning", oi_uid, "optimizer input has no placement pointer")
            continue
        pointer = element.placement
        while pointer not in covered:  # a pointer in it has every pointer above it there too
            covered.add(pointer)
            pointer = pointer.rpartition("/")[0]
        try:
            config_sub = resolve_pointer(config_schema, element.placement)
        except PointerUnresolvable as exc:
            violation("error", oi_uid, str(exc))
            continue
        oi_schema = resolution.schema
        if oi_schema is None:
            continue  # checks 1/2 own that failure
        if not equivalent(config_sub, oi_schema):
            violation("error", oi_uid, f"schema mismatch at placement {element.placement}: "
                      f"configuration has {canonical_text(config_sub)} "
                      f"but requirement has {canonical_text(oi_schema)}")
    for pointer in collect_property_paths(config_schema):
        if pointer not in covered:  # no placement is the property's pointer or lies below it
            out.append(
                Diagnostic(
                    severity="warning",
                    message=f"configuration property {pointer} not derived from requirements",
                    check_id=CHECK_SEMANTIC_EQUIVALENCE,
                )
            )
    return out


def run_all_checks(
    graph: TraceGraph,
    ttim: TtimDefinition,
    config_schema: SchemaDoc,
    resolutions: dict[str, Resolution],
) -> CheckReport:
    """Run the three checks in order and aggregate a sorted report;
    ``resolutions`` is ``resolve_optimizer_inputs(graph, ttim)``."""
    violations = (
        check_metamodel_consistency(graph, ttim)
        + check_internal_schema_correctness(graph, resolutions)
        + check_semantic_equivalence(graph, config_schema, resolutions)
    )
    violations.sort(
        key=lambda v: (
            CHECK_ORDER.index(v.check_id),
            v.file or "",
            v.line or 0,
            v.subject_uid or "",
            v.message,
        )
    )
    tally = Counter((v.check_id, v.severity) for v in violations)
    counts = {check_id: (tally[check_id, "error"], tally[check_id, "warning"]) for check_id in CHECK_ORDER}
    passed = all(errors == 0 for errors, _ in counts.values())
    return CheckReport(violations=violations, counts=counts, passed=passed)


def report_to_yaml(report: CheckReport) -> str:
    """Serialize a report for the --report flag."""
    data = {
        "passed": report.passed,
        "counts": {
            check_id: {"errors": errors, "warnings": warnings}
            for check_id, (errors, warnings) in report.counts.items()
        },
        "violations": [
            {
                "check_id": v.check_id,
                "severity": v.severity,
                "subject_uid": v.subject_uid,
                "message": v.message,
                "file": v.file,
                "line": v.line,
            }
            for v in report.violations
        ],
    }
    return dump_yaml(data, allow_unicode=False)
