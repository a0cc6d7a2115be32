"""Serialization of results: the intermediary YAML document and the PlantUML
overview diagram."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import yaml

from tracegen.graph import TraceGraph
from tracegen.schema import SchemaDoc
from tracegen.traversal import TracePath

if TYPE_CHECKING:
    from tracegen.checks import Resolution


def _record_mapping(path: TracePath, graph: TraceGraph, resolution: Resolution) -> dict:
    """One record of the intermediary document: the input's element fields,
    its trace (input first) and its resolved schema and value."""
    element = graph.elements[path.uid]
    trace = [{"uid": uid, "type": graph.element_type(uid)} for uid in path.nodes]
    for entry, link_type in zip(trace, path.link_types):
        entry["link_to_next"] = link_type
    return {
        "file_name": element.file,
        "label": element.label,
        "placement": element.placement,
        "treqs_type": element.element_type,
        "uid": path.uid,
        "trace": trace,
        "schema": resolution.schema,
        "value": resolution.value,
    }


def _without_aliases(base: type) -> type:
    """A dumper that writes a shared object out in full each time, not as an alias."""
    return type("NoAlias" + base.__name__, (base,), {"ignore_aliases": lambda self, data: True})


_PY_DUMPER = _without_aliases(yaml.SafeDumper)
_C_DUMPER = _without_aliases(yaml.CSafeDumper) if yaml.__with_libyaml__ else None

# Strings for which libyaml's emitter was fuzzed to write the same bytes as
# PyYAML's. Outside them libyaml escapes astral characters, treats NEL, U+2028
# and the BOM differently, and folds multi-line double-quoted scalars at other
# points. It also writes an empty key as `'': 1` and counts the 128-character
# simple-key limit in bytes, hence the key length cap.
_LIBYAML_SAME = {
    True: re.compile(r"[\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd]*"),
    False: re.compile(r"[\x20-\x7e]*"),
}


def _libyaml_same(data, allow_unicode: bool) -> bool:
    """Whether libyaml writes `data` (dicts, lists, JSON scalars) like PyYAML."""
    strings, stack = [], [data]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            strings.append(node)
        elif isinstance(node, dict):
            if not all(0 < len(k) <= 40 for k in node if isinstance(k, str)):
                return False
            stack.extend(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return _LIBYAML_SAME[allow_unicode].fullmatch("".join(strings)) is not None


def dump_yaml(data, allow_unicode: bool) -> str:
    """Block-style YAML with sorted keys and no aliases, through libyaml when
    that gives the same bytes as the Python emitter."""
    dumper = _C_DUMPER if _C_DUMPER and _libyaml_same(data, allow_unicode) else _PY_DUMPER
    return yaml.dump(
        data, Dumper=dumper, sort_keys=True, default_flow_style=False, allow_unicode=allow_unicode
    )


def emit_yaml(
    config_schema: SchemaDoc,
    paths: list[TracePath],
    graph: TraceGraph,
    resolutions: dict[str, Resolution],
) -> str:
    """Deterministic YAML with exactly two top-level keys: the config schema
    echoed from the input and one record per trace path."""
    data = {
        "config_schema": config_schema,
        "optimizer_inputs": [_record_mapping(p, graph, resolutions[p.uid]) for p in paths],
    }
    return dump_yaml(data, allow_unicode=True)


def _aliases(uids: list[str]) -> dict[str, str]:
    """Stable PlantUML-safe aliases for arbitrary uids."""
    aliases: dict[str, str] = {}
    used: set[str] = set()
    for uid in uids:
        base = "n_" + re.sub(r"[^A-Za-z0-9]", "_", uid)
        alias = base
        counter = 2
        while alias in used:
            alias = f"{base}_{counter}"
            counter += 1
        used.add(alias)
        aliases[uid] = alias
    return aliases


def emit_plantuml(
    paths: list[TracePath], graph: TraceGraph, resolutions: dict[str, Resolution]
) -> str:
    """Component-diagram source: one node per uid on any trace, one labeled
    arrow per distinct trace edge, and a legend of the optimizer inputs."""
    nodes: set[str] = set()
    edges: set[tuple[str, str, str]] = set()
    for path in paths:
        nodes.update(path.nodes)
        # a path runs input-first; graph direction runs the other way
        edges.update(zip(path.nodes[1:], path.link_types, path.nodes))

    uids = sorted(nodes)
    aliases = _aliases(uids)
    lines = ["@startuml"]
    for uid in uids:
        element = graph.elements[uid]
        parts = [uid, element.element_type]
        if element.label:
            parts.append(element.label)
        label = "\\n".join(parts)
        lines.append(f'component "{label}" as {aliases[uid]}')
    for source, link_type, target in sorted(edges):
        lines.append(f"{aliases[source]} --> {aliases[target]} : {link_type}")
    lines.append("legend")
    for uid in sorted({path.uid for path in paths}):
        placement = graph.elements[uid].placement
        if placement is None:
            placement = "(no placement)"
        type_kw = resolutions[uid].schema.get("type", "(untyped)")
        lines.append(f"  {uid}: {placement} ({type_kw})")
    lines.append("endlegend")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"
