"""Framework traversal: every simple path from a runtime scenario down to an
optimizer input; those paths are the records that feed the emitters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from tracegen.errors import Diagnostic, TracegenError
from tracegen.graph import TraceGraph, find_by_type
from tracegen.ttim import TtimDefinition

if TYPE_CHECKING:
    from tracegen.checks import Resolution

DEFAULT_MAX_PATHS = 10000


@dataclass(frozen=True)
class TracePath:
    """Chain of uids from an optimizer input (first) up to the scenario (last),
    one record of the intermediary document.

    link_types[i] labels the graph edge from nodes[i+1] to nodes[i].
    """

    nodes: tuple[str, ...]
    link_types: tuple[str, ...]

    @property
    def uid(self) -> str:
        """The optimizer input the path reaches."""
        return self.nodes[0]


@dataclass
class ScenarioResult:
    paths: list[TracePath]
    diagnostics: list[Diagnostic] = field(default_factory=list)


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
    diagnostics: list[Diagnostic] = []
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
                        Diagnostic(
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
    return ScenarioResult(paths=paths, diagnostics=diagnostics)


def collect_optimizer_inputs(
    results: list[ScenarioResult],
    ttim: TtimDefinition,
    resolutions: dict[str, Resolution],
) -> list[TracePath]:
    """Every scenario's paths in order: the records of the intermediary document.

    Each record's schema and value are its input's resolution. Once the checks
    passed, an input can only lack them because the meta-model lets it go
    without a schema link, which raises.
    """
    paths = [path for result in results for path in result.paths]
    for path in paths:
        if not resolutions[path.uid].complete:
            raise TracegenError(f"{path.uid!r} has no {ttim.schema_link!r} link")
    return paths
