"""Serialization of results: the intermediary YAML document and the PlantUML
overview diagram."""

from __future__ import annotations

import re
from dataclasses import dataclass

import yaml

from tracegen.graph import TraceGraph
from tracegen.schema import SchemaDoc
from tracegen.traversal import OptimizerInputRecord


@dataclass
class IntermediaryDocument:
    """config_schema echoed from the input plus one record per trace path."""

    config_schema: SchemaDoc
    optimizer_inputs: list[OptimizerInputRecord]


def _record_mapping(record: OptimizerInputRecord) -> dict:
    trace = []
    for i, (uid, element_type) in enumerate(record.trace_nodes):
        entry = {"uid": uid, "type": element_type}
        if i < len(record.trace_links):
            entry["link_to_next"] = record.trace_links[i]
        trace.append(entry)
    return {
        "file_name": record.file_name,
        "label": record.label,
        "placement": record.placement,
        "treqs_type": record.treqs_type,
        "uid": record.uid,
        "trace": trace,
        "schema": record.schema,
        "value": record.value,
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


def emit_yaml(doc: IntermediaryDocument) -> str:
    """Deterministic YAML with exactly two top-level keys."""
    data = {
        "config_schema": doc.config_schema,
        "optimizer_inputs": [_record_mapping(r) for r in doc.optimizer_inputs],
    }
    return dump_yaml(data, allow_unicode=True)


def load_intermediary(text: str) -> IntermediaryDocument:
    """Parse YAML produced by emit_yaml back into a structurally equal document."""
    data = yaml.safe_load(text)
    records = []
    for entry in data["optimizer_inputs"]:
        trace = entry["trace"]
        records.append(
            OptimizerInputRecord(
                file_name=entry["file_name"],
                label=entry["label"],
                placement=entry["placement"],
                treqs_type=entry["treqs_type"],
                uid=entry["uid"],
                trace_nodes=tuple((t["uid"], t["type"]) for t in trace),
                trace_links=tuple(t["link_to_next"] for t in trace if "link_to_next" in t),
                schema=entry["schema"],
                value=entry["value"],
            )
        )
    return IntermediaryDocument(config_schema=data["config_schema"], optimizer_inputs=records)


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


def emit_plantuml(doc: IntermediaryDocument, graph: TraceGraph) -> str:
    """Component-diagram source: one node per uid on any trace, one labeled
    arrow per distinct trace edge, and a legend of the optimizer inputs."""
    node_types: dict[str, str] = {}
    edges: set[tuple[str, str, str]] = set()
    for record in doc.optimizer_inputs:
        for uid, element_type in record.trace_nodes:
            node_types[uid] = element_type
        # trace is stored input-first; graph direction runs the other way
        for i, link_type in enumerate(record.trace_links):
            source = record.trace_nodes[i + 1][0]
            target = record.trace_nodes[i][0]
            edges.add((source, link_type, target))

    uids = sorted(node_types)
    aliases = _aliases(uids)
    lines = ["@startuml"]
    for uid in uids:
        parts = [uid, node_types[uid]]
        element = graph.elements.get(uid)
        if element is not None and element.label:
            parts.append(element.label)
        label = "\\n".join(parts)
        lines.append(f'component "{label}" as {aliases[uid]}')
    for source, link_type, target in sorted(edges):
        lines.append(f"{aliases[source]} --> {aliases[target]} : {link_type}")
    lines.append("legend")
    by_uid = {}
    for record in doc.optimizer_inputs:
        by_uid.setdefault(record.uid, record)
    for uid in sorted(by_uid):
        record = by_uid[uid]
        placement = record.placement if record.placement is not None else "(no placement)"
        type_kw = record.schema.get("type", "(untyped)")
        lines.append(f"  {uid}: {placement} ({type_kw})")
    lines.append("endlegend")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"
