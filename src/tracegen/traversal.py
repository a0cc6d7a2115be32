"""Framework traversal: every simple path from a runtime scenario down to an
optimizer input, plus the records that feed the emitters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from tracegen.elements import ParseDiagnostic
from tracegen.errors import TracegenError
from tracegen.graph import TraceGraph, find_by_type
from tracegen.schema import SchemaDoc
from tracegen.ttim import TtimDefinition

if TYPE_CHECKING:
    from tracegen.checks import Resolution

DEFAULT_MAX_PATHS = 10000


@dataclass(frozen=True)
class TracePath:
    """Chain of uids from an optimizer input (first) up to the scenario (last).

    link_types[i] labels the graph edge from nodes[i+1] to nodes[i].
    """

    nodes: tuple[str, ...]
    link_types: tuple[str, ...]


@dataclass
class ScenarioResult:
    scenario_uid: str
    paths: list[TracePath]
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class OptimizerInputRecord:
    """One discovered optimizer input on one trace path, ready for emission."""

    file_name: str
    label: str | None
    placement: str | None
    treqs_type: str
    uid: str
    trace_nodes: tuple[tuple[str, str], ...]  # (uid, element_type), input first
    trace_links: tuple[str, ...]
    schema: SchemaDoc
    value: object

    @property
    def scenario_uid(self) -> str:
        return self.trace_nodes[-1][0]


def find_runtime_scenarios(graph: TraceGraph, ttim: TtimDefinition) -> list[str]:
    return find_by_type(graph, ttim.scenario_type)


def traverse_from_scenario(
    graph: TraceGraph,
    ttim: TtimDefinition,
    scenario: str,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> ScenarioResult:
    """Depth-first enumeration of all simple paths from ``scenario`` to any
    optimizer-input element, following every link type except the schema link.

    Neighbors are visited in (link_type, target) order; revisiting a node on
    the current path is pruned with one warning per offending edge, so the
    search terminates on cyclic graphs too.
    """
    if scenario not in graph.elements or graph.element_type(scenario) != ttim.scenario_type:
        raise TracegenError(f"{scenario!r} is not an element of type {ttim.scenario_type!r}")

    paths: list[TracePath] = []
    diagnostics: list[ParseDiagnostic] = []
    warned_edges: set[tuple[str, str, str]] = set()
    path: list[str] = [scenario]
    links: list[str] = []
    on_path: set[str] = {scenario}

    def record() -> None:
        if len(paths) >= max_paths:
            raise TracegenError(
                f"scenario {scenario!r} exceeds {max_paths} trace paths"
            )
        paths.append(
            TracePath(nodes=tuple(reversed(path)), link_types=tuple(reversed(links)))
        )

    if ttim.scenario_type == ttim.optimizer_input_type:
        record()  # a meta-model may give both roles one type
    # an explicit stack of neighbour iterators, one per node on the path, so
    # the depth is not bounded by the recursion limit
    stack = [iter(graph.outgoing(scenario))]
    while stack:
        for link_type, target in stack[-1]:
            if link_type == ttim.schema_link:
                continue
            if target in on_path:
                node = path[-1]
                edge = (node, link_type, target)
                if edge not in warned_edges:
                    warned_edges.add(edge)
                    element = graph.elements[node]
                    diagnostics.append(
                        ParseDiagnostic(
                            "warning",
                            f"cycle edge {node} -{link_type}-> {target} pruned during traversal",
                            element.file,
                            element.line,
                        )
                    )
                continue
            on_path.add(target)
            path.append(target)
            links.append(link_type)
            if graph.element_type(target) == ttim.optimizer_input_type:
                record()
            stack.append(iter(graph.outgoing(target)))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
            if links:
                links.pop()

    paths.sort(key=lambda p: (p.nodes[0], p.nodes, p.link_types))
    return ScenarioResult(scenario_uid=scenario, paths=paths, diagnostics=diagnostics)


def collect_optimizer_inputs(
    results: list[ScenarioResult],
    graph: TraceGraph,
    ttim: TtimDefinition,
    resolutions: dict[str, Resolution],
) -> list[OptimizerInputRecord]:
    """One record per (scenario, path) pair, sorted deterministically.

    The records of one input share the schema and value in its resolution.
    Once the checks passed, an input can only lack them because the
    meta-model lets it go without a schema link, which raises.
    """
    records: list[OptimizerInputRecord] = []
    for result in results:
        for trace_path in result.paths:
            oi_uid = trace_path.nodes[0]
            resolution = resolutions[oi_uid]
            if not resolution.complete:
                raise TracegenError(f"{oi_uid!r} has no {ttim.schema_link!r} link")
            element = graph.elements[oi_uid]
            records.append(
                OptimizerInputRecord(
                    file_name=element.file,
                    label=element.label,
                    placement=element.placement,
                    treqs_type=element.element_type,
                    uid=oi_uid,
                    trace_nodes=tuple(
                        (uid, graph.element_type(uid)) for uid in trace_path.nodes
                    ),
                    trace_links=trace_path.link_types,
                    schema=resolution.schema,
                    value=resolution.value,
                )
            )
    records.sort(key=lambda r: (r.scenario_uid, r.uid, r.trace_nodes))
    return records
