"""Directed typed trace graph assembled from parsed elements."""

from __future__ import annotations

from dataclasses import dataclass, field

from tracegen.elements import RawElement
from tracegen.errors import Diagnostic

Edge = tuple[str, str, str]  # (source_uid, link_type, target_uid)


@dataclass(frozen=True)
class TraceGraph:
    elements: dict[str, RawElement]
    edges: tuple[Edge, ...]
    by_type: dict[str, tuple[str, ...]]
    _adjacency: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict, repr=False)

    def outgoing(self, uid: str) -> tuple[tuple[str, str], ...]:
        """Outgoing (link_type, target_uid) pairs in lexicographic order."""
        return self._adjacency.get(uid, ())


def build_graph(
    elements: list[RawElement], reverse_links: bool
) -> tuple[TraceGraph, list[Diagnostic]]:
    """Resolve links and index elements; every problem becomes a diagnostic.

    Duplicate uids keep the earliest file's (then line's) occurrence; links to
    unknown uids are dropped, and a link repeated in one element is kept once.
    ``reverse_links`` turns each edge from the link's target to its element.
    """
    diagnostics: list[Diagnostic] = []
    kept: dict[str, RawElement] = {}
    for element in sorted(elements, key=lambda e: (e.file, e.line)):
        if element.uid in kept:
            first = kept[element.uid]
            diagnostics.append(
                Diagnostic(
                    "error",
                    f"duplicate uid {element.uid!r} (first defined at {first.file}:{first.line})",
                    element.file,
                    element.line,
                )
            )
            continue
        kept[element.uid] = element

    edge_set: dict[Edge, None] = {}  # in link order, which is nearly sorted
    for element in kept.values():
        for link in element.links:
            edge = (element.uid, link.link_type, link.target_uid)
            if reverse_links:
                edge = edge[::-1]
            if link.target_uid not in kept:
                severity, problem = "error", "dangling link {!r} to unknown uid {!r}"
            elif edge in edge_set:
                severity, problem = "warning", "duplicate link {!r} to {!r}"
            else:
                edge_set[edge] = None
                continue
            message = problem.format(link.link_type, link.target_uid)
            diagnostics.append(Diagnostic(severity, message, element.file, link.line))
    edges = tuple(sorted(edge_set))
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for source, link_type, target in edges:  # in order, as the edges are sorted
        adjacency.setdefault(source, []).append((link_type, target))

    by_type: dict[str, list[str]] = {}
    for uid, element in kept.items():
        by_type.setdefault(element.element_type, []).append(uid)
    graph = TraceGraph(
        elements=kept,
        edges=edges,
        by_type={t: tuple(sorted(uids)) for t, uids in by_type.items()},
        _adjacency={uid: tuple(pairs) for uid, pairs in adjacency.items()},
    )
    return graph, diagnostics
