"""Framework traversal: every simple path from a runtime scenario down to an
optimizer input; those paths are the records that feed the emitters.

The summary counts and unites a scenario's paths without listing them. Take a
node that is the first of its strongly connected component (SCC) on the path:
no earlier path node is reachable from it, or it would share that component,
so the depth-first search below it is the same whatever the prefix. That
search is summarized once per such entry node. Only moves inside a
nontrivial SCC still enumerate simple paths, since counting those is
#P-complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from tracegen.errors import Diagnostic, TracegenError
from tracegen.graph import Edge, TraceGraph, find_by_type
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
    """A scenario's paths with its cycle warnings."""

    paths: list[TracePath]
    diagnostics: list[Diagnostic] = field(default_factory=list)


def find_runtime_scenarios(graph: TraceGraph, ttim: TtimDefinition) -> list[str]:
    return find_by_type(graph, ttim.scenario_type)


@dataclass(frozen=True, slots=True)
class _Entry:
    """The search below an entry node, the first of its SCC on the path."""

    count: int  # paths it records at or below the node; past the cap, a lower bound
    # in order of first occurrence: the cycle edges it prunes and the entries
    # below whose search prunes any
    events: tuple[Edge | str, ...]
    used: tuple[Edge, ...]  # edges of the paths it records: in the SCC and out of it


def _cycle_warning(graph: TraceGraph, edge: Edge) -> Diagnostic:
    node, link_type, target = edge
    element = graph.elements[node]
    return Diagnostic(
        "warning",
        f"cycle edge {node} -{link_type}-> {target} pruned during traversal",
        element.file,
        element.line,
    )


@dataclass(frozen=True)
class TraversalSummary:
    """What each scenario's depth-first search finds, without its paths.

    The search follows every link type except the schema link, visits
    neighbours in (link_type, target) order, records a path at each optimizer
    input, and prunes an edge back onto the current path. Summarizing stops at
    ``over_cap``, the first scenario with more than ``max_paths`` paths.
    """

    graph: TraceGraph
    ttim: TtimDefinition
    scenarios: list[str]
    max_paths: int
    over_cap: str | None
    _component: dict[str, str]
    _entries: dict[str, _Entry]

    def count(self, scenario: str) -> int:
        """The scenario's exact number of trace paths. Ask in scenario order:
        the scenario past the cap raises, and no later one is summarized."""
        if scenario == self.over_cap:
            raise TracegenError(f"scenario {scenario!r} exceeds {self.max_paths} trace paths")
        return self._entries[scenario].count

    def warnings(self, scenario: str) -> list[Diagnostic]:
        """One warning per cycle edge the scenario's search prunes, in the
        order it first prunes them."""
        found: list[Diagnostic] = []
        pruned: set[Edge] = set()
        expanded = {scenario}
        stack = [iter(self._entries[scenario].events)]
        while stack:
            for event in stack[-1]:
                if type(event) is str:
                    # a later visit of the same entry prunes nothing new
                    if event not in expanded:
                        expanded.add(event)
                        stack.append(iter(self._entries[event].events))
                        break
                elif event not in pruned:
                    pruned.add(event)
                    found.append(_cycle_warning(self.graph, event))
            else:
                stack.pop()
        return found

    def reached(self, scenarios: list[str]) -> tuple[set[str], set[Edge]]:
        """The nodes and edges of the given scenarios' trace paths."""
        component = self._component
        todo = [uid for uid in scenarios if self._entries[uid].count]
        nodes = set(todo)  # a scenario with a path and the entries those paths visit
        edges: set[Edge] = set()
        while todo:
            for edge in self._entries[todo.pop()].used:
                edges.add(edge)
                source, _, target = edge
                if component[target] != component[source] and target not in nodes:
                    nodes.add(target)
                    todo.append(target)
        for source, _, target in edges:
            nodes.add(source)
            nodes.add(target)
        return nodes, edges

    def require_resolved(self, resolutions: dict[str, Resolution]) -> None:
        """Raise unless every input a path reaches has its schema and value;
        the error names the first scenario's smallest such input.

        Once the checks passed, an input can only lack them because the
        meta-model lets it go without a schema link.
        """
        if all(resolution.complete for resolution in resolutions.values()):
            return
        for scenario in self.scenarios:
            nodes, _ = self.reached([scenario])
            missing = [uid for uid in nodes if uid in resolutions and not resolutions[uid].complete]
            if missing:
                raise TracegenError(f"{min(missing)!r} has no {self.ttim.schema_link!r} link")


def _search_below(
    graph: TraceGraph,
    ttim: TtimDefinition,
    entry: str,
    component: dict[str, str],
    summaries: dict[str, _Entry],
    cap: int,
) -> _Entry:
    """The search below ``entry``: simple paths inside its component are
    enumerated, and each move out of it takes the summary of the entry it
    leads to. The search stops once its count passes ``cap``."""
    own = component[entry]
    oi_type, schema_link = ttim.optimizer_input_type, ttim.schema_link
    events: list[Edge | str] = []
    noted: set[Edge | str] = set()
    used: set[Edge] = set()
    on_path = {entry}
    recorded = graph.element_type(entry) == oi_type
    count = int(recorded)
    # one frame per path node: the node, its neighbour iterator, whether a
    # path is recorded at or below it, and the edge into it
    frames = [[entry, iter(graph.outgoing(entry)), recorded, None]]
    while frames:
        if count > cap:  # whoever reaches this entry fails: its events go unused
            return _Entry(count, (), ())
        frame = frames[-1]
        node = frame[0]
        for link_type, target in frame[1]:
            if link_type == schema_link:
                continue
            edge = (node, link_type, target)
            if target in on_path:
                if edge not in noted:
                    noted.add(edge)
                    events.append(edge)
            elif component[target] != own:
                below = summaries[target]
                if below.count:
                    count += below.count
                    used.add(edge)
                    frame[2] = True
                if below.events and target not in noted:
                    noted.add(target)
                    events.append(target)
            else:
                on_path.add(target)
                recorded = graph.element_type(target) == oi_type
                count += recorded
                frames.append([target, iter(graph.outgoing(target)), recorded, edge])
                break
        else:
            frames.pop()
            on_path.discard(node)
            if frame[2] and frames:
                used.add(frame[3])
                frames[-1][2] = True
    return _Entry(count, tuple(events), tuple(used))


def summarize_traversal(
    graph: TraceGraph, ttim: TtimDefinition, max_paths: int = DEFAULT_MAX_PATHS
) -> TraversalSummary:
    """Summarize the search of each runtime scenario in order, each entry node
    once, until a scenario has more than ``max_paths`` paths (below 1: any).

    Tarjan's algorithm, with explicit stacks, finds the SCCs of the part of
    the graph the scenarios reach without the schema link. A component is
    finished after every component it reaches, so an entry is summarized as
    soon as it is known: a component's root when the component is finished,
    and any other node when an edge from a later component enters it. Either
    way Tarjan's path to it is a simple path from the current scenario on
    which it is the first of its SCC, so an entry past the cap puts that
    scenario past it too, and summarizing stops there.
    """
    scenarios = find_runtime_scenarios(graph, ttim)
    schema_link = ttim.schema_link
    cap = max(max_paths, 0)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    component: dict[str, str] = {}  # node -> its component's root
    summaries: dict[str, _Entry] = {}
    stack: list[str] = []

    def summarize(entry: str) -> bool:
        """Summarize ``entry`` once; False if it passes the cap."""
        if entry not in summaries:
            summaries[entry] = _search_below(graph, ttim, entry, component, summaries, cap)
        return summaries[entry].count <= cap

    def search(root: str) -> bool:
        """Tarjan from ``root``; False as soon as an entry passes the cap."""
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph.outgoing(root)))]
        while work:
            node, edges = work[-1]
            for link_type, target in edges:
                if link_type == schema_link:
                    continue
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    work.append((target, iter(graph.outgoing(target))))
                    break
                if target in component:  # a finished component, entered from this one
                    if not summarize(target):
                        return False
                elif index[target] < low[node]:  # on the stack: this node's component
                    low[node] = index[target]
            else:
                work.pop()
                if low[node] < index[node]:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                    continue
                member = None
                while member != node:
                    member = stack.pop()
                    component[member] = node
                if not summarize(node):
                    return False
        return True

    over_cap = None
    for root in scenarios:
        # a scenario finished while searching from an earlier one is summarized alone
        if not (summarize(root) if root in index else search(root)):
            over_cap = root
            break
    return TraversalSummary(graph, ttim, scenarios, max_paths, over_cap, component, summaries)


def traverse_from_scenario(
    graph: TraceGraph,
    ttim: TtimDefinition,
    scenario: str,
    warnings: list[Diagnostic] | None = None,
) -> ScenarioResult:
    """Depth-first enumeration of the simple paths the summary counts for
    ``scenario``, sorted by input, nodes and link types. ``warnings``, the
    scenario's cycle warnings as ``TraversalSummary.warnings`` lists them,
    ride along in the result."""
    if scenario not in graph.elements or graph.element_type(scenario) != ttim.scenario_type:
        raise TracegenError(f"{scenario!r} is not an element of type {ttim.scenario_type!r}")

    paths: list[TracePath] = []
    path: list[str] = [scenario]
    links: list[str] = []
    on_path: set[str] = {scenario}
    if ttim.scenario_type == ttim.optimizer_input_type:
        paths.append(TracePath(nodes=(scenario,), link_types=()))
    # an explicit stack of neighbour iterators, one per node on the path, so
    # the depth is not bounded by the recursion limit
    stack = [iter(graph.outgoing(scenario))]
    while stack:
        for link_type, target in stack[-1]:
            if link_type == ttim.schema_link or target in on_path:
                continue
            on_path.add(target)
            path.append(target)
            links.append(link_type)
            if graph.element_type(target) == ttim.optimizer_input_type:
                paths.append(
                    TracePath(nodes=tuple(reversed(path)), link_types=tuple(reversed(links)))
                )
            stack.append(iter(graph.outgoing(target)))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
            if links:
                links.pop()

    paths.sort(key=lambda p: (p.nodes[0], p.nodes, p.link_types))
    return ScenarioResult(paths=paths, diagnostics=list(warnings or ()))


def collect_optimizer_inputs(results: list[ScenarioResult]) -> list[TracePath]:
    """Every scenario's paths in order: the records of the intermediary document."""
    return [path for result in results for path in result.paths]
