"""Framework traversal: every simple path from a runtime scenario down to an
optimizer input; those paths are the records that feed the emitters.

Take a node that is the first of its strongly connected component (SCC) on
the path: no earlier path node is reachable from it, or it would share that
component, so the depth-first search below it is the same whatever the
prefix. That search runs once per such entry node and keeps the paths it
records as pieces, which share their common edges and end where the path
ends or leaves the SCC; below a node alone in its SCC it is one step over the
node's edges, taken in the Tarjan pass that finds the components. The PlantUML
overview unites the pieces' edges, and the YAML records are the pieces joined.
Only moves in a nontrivial SCC enumerate simple paths (#P-complete to count).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from tracegen.errors import Diagnostic, TracegenError
from tracegen.graph import Edge, TraceGraph
from tracegen.ttim import TtimDefinition

if TYPE_CHECKING:
    from tracegen.checks import Resolution

DEFAULT_MAX_PATHS = 10000


class TracePath(NamedTuple):
    """Chain of uids from an optimizer input (first) up to the scenario (last),
    one record of the intermediary document; records sort by (nodes, link_types).

    link_types[i] labels the graph edge from nodes[i+1] to nodes[i].
    """

    nodes: tuple[str, ...]
    link_types: tuple[str, ...]

    @property
    def uid(self) -> str:
        """The optimizer input the path reaches."""
        return self.nodes[0]


class ScenarioResult(NamedTuple):
    """A scenario's paths with its cycle warnings."""

    paths: list[TracePath]
    diagnostics: list[Diagnostic]


# A piece is a path the search below an entry records: its trail, then the
# entry its last edge leads to out of the SCC (None: it ends at an input). A
# trail is the last edge and the trail before it, None at the entry, so the
# pieces share their common edges and the search copies no path.
_Trail = "tuple[Edge, _Trail] | None"
_Piece = tuple[_Trail, str | None]


class _Entry(NamedTuple):
    """The search below an entry node, the first of its SCC on the path."""

    count: int  # paths it records at or below the node; past the cap, a lower bound
    # in order of first occurrence: the cycle edges it prunes and the entries
    # below whose search prunes any
    events: tuple[Edge | str, ...]
    pieces: tuple[_Piece, ...]  # in the order the search records them


def _cycle_warning(graph: TraceGraph, edge: Edge) -> Diagnostic:
    node, link_type, target = edge
    element = graph.elements[node]
    return Diagnostic(
        "warning",
        f"cycle edge {node} -{link_type}-> {target} pruned during traversal",
        element.file,
        element.line,
    )


class TraversalSummary(NamedTuple):
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
    entries: dict[str, _Entry]

    def count(self, scenario: str) -> int:
        """The scenario's exact number of trace paths. Ask in scenario order:
        the scenario past the cap raises, and no later one is summarized."""
        if scenario == self.over_cap:
            raise TracegenError(f"scenario {scenario!r} exceeds {self.max_paths} trace paths")
        return self.entries[scenario].count

    def warnings(self, scenario: str) -> list[Diagnostic]:
        """One warning per cycle edge the scenario's search prunes, in the
        order it first prunes them."""
        found: list[Diagnostic] = []
        pruned: set[Edge] = set()
        expanded = {scenario}
        stack = [iter(self.entries[scenario].events)]
        while stack:
            for event in stack[-1]:
                if type(event) is str:
                    # a later visit of the same entry prunes nothing new
                    if event not in expanded:
                        expanded.add(event)
                        stack.append(iter(self.entries[event].events))
                        break
                elif event not in pruned:
                    pruned.add(event)
                    found.append(_cycle_warning(self.graph, event))
            else:
                stack.pop()
        return found

    def reached(self, scenarios: list[str]) -> tuple[set[str], set[Edge]]:
        """The nodes and edges of the given scenarios' trace paths."""
        todo = [uid for uid in scenarios if self.entries[uid].pieces]
        nodes = set(todo)  # a scenario with a path and the entries those paths visit
        edges: set[Edge] = set()
        read: set[int] = set()  # the trails read back to their entry, by identity
        while todo:
            for trail, below in self.entries[todo.pop()].pieces:
                while trail is not None:
                    edge, trail = trail
                    edges.add(edge)
                    if id(trail) in read:  # None is read after the first piece
                        break
                    read.add(id(trail))
                if below is not None and below not in nodes:
                    nodes.add(below)
                    todo.append(below)
        # an edge starts at its entry or where the edge before it ends
        nodes.update(target for _, _, target in edges)
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
    # the path that ends at the entry, if it is an input
    pieces: list[_Piece] = [(None, None)] if graph.elements[entry].element_type == oi_type else []
    count = len(pieces)
    on_path = {entry}
    # one frame per path node: the node, its neighbour iterator and its trail
    frames = [(entry, iter(graph.outgoing(entry)), None)]
    while frames:
        if count > cap:  # whoever reaches this entry fails: its events go unused
            return _Entry(count, (), ())
        node, neighbours, trail = frames[-1]
        for edge in neighbours:
            _, link_type, target = edge
            if link_type == schema_link:
                continue
            if target in on_path:
                if edge not in noted:
                    noted.add(edge)
                    events.append(edge)
            elif component[target] != own:
                below = summaries[target]
                if below.count:
                    count += below.count
                    pieces.append(((edge, trail), target))
                if below.events and target not in noted:
                    noted.add(target)
                    events.append(target)
            else:
                on_path.add(target)
                trail = (edge, trail)
                if graph.elements[target].element_type == oi_type:
                    count += 1
                    pieces.append((trail, None))
                frames.append((target, iter(graph.outgoing(target)), trail))
                break
        else:
            frames.pop()
            on_path.discard(node)
    return _Entry(count, tuple(events), tuple(pieces))


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
    scenario past it too, and summarizing stops there. A root alone in its
    component is summarized from its own edges, whose targets are finished.
    """
    scenarios = list(graph.by_type.get(ttim.scenario_type, ()))
    elements, oi_type, schema_link = graph.elements, ttim.optimizer_input_type, ttim.schema_link
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
            for _, link_type, target in edges:
                if link_type == schema_link:
                    continue
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    work.append((target, iter(graph.outgoing(target))))
                    break
                if target in component:  # a finished component, entered from this one
                    if target not in summaries and not summarize(target):
                        return False
                elif index[target] < low[node]:  # on the stack: this node's component
                    low[node] = index[target]
            else:
                work.pop()
                if low[node] < index[node]:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                    continue
                if stack[-1] != node:
                    member = None
                    while member != node:
                        member = stack.pop()
                        component[member] = node
                    if not summarize(node):
                        return False
                    continue
                component[stack.pop()] = node  # alone in its SCC: the search below is one step
                pieces: list[_Piece] = [(None, None)] if elements[node].element_type == oi_type else []
                count = len(pieces)
                events: dict[Edge | str, None] = {}  # in order of first occurrence
                for edge in graph.outgoing(node):
                    _, link_type, target = edge
                    if link_type == schema_link:
                        continue
                    if target == node:  # a self-loop, the one edge it prunes
                        events[edge] = None
                        continue
                    below = summaries[target]
                    if below.count:
                        count += below.count
                        pieces.append(((edge, None), target))
                    if below.events:
                        events[target] = None
                summaries[node] = _Entry(count, tuple(events), tuple(pieces))
                if count > cap:
                    return False
        return True

    over_cap = None
    for root in scenarios:
        # a scenario finished while searching from an earlier one is summarized alone
        if not (summarize(root) if root in index else search(root)):
            over_cap = root
            break
    return TraversalSummary(graph, ttim, scenarios, max_paths, over_cap, summaries)


def traverse_from_scenario(
    summary: TraversalSummary, scenario: str, warnings: list[Diagnostic] | None = None
) -> ScenarioResult:
    """The trace paths the summary counts for ``scenario``, its pieces joined
    from entry to entry, in record order (see ``TracePath``). ``warnings``,
    as ``TraversalSummary.warnings`` lists them, ride along in the result."""
    paths: list[TracePath] = []
    # one frame per entry on the path: its pieces and the trail that led to it
    stack = [(iter(summary.entries[scenario].pieces), None)]
    while stack:
        for trail, below in stack[-1][0]:
            if below is not None:
                stack.append((iter(summary.entries[below].pieces), trail))
                break
            edges = []  # the path's edges, last first
            for cell in (trail, *(led for _, led in reversed(stack))):
                while cell is not None:
                    edge, cell = cell
                    edges.append(edge)
            nodes = (*(target for _, _, target in edges), scenario)
            paths.append(TracePath(nodes, tuple(link for _, link, _ in edges)))
        else:
            stack.pop()
    paths.sort()
    return ScenarioResult(paths=paths, diagnostics=list(warnings or ()))


def collect_optimizer_inputs(results: list[ScenarioResult]) -> list[TracePath]:
    """Every scenario's paths in order: the records of the intermediary document."""
    return [path for result in results for path in result.paths]
