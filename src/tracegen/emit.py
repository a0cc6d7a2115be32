"""Serialization of results: the intermediary YAML document and the PlantUML
overview diagram."""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING

import yaml

from tracegen.graph import Edge, TraceGraph
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


class _Fallback(Exception):
    """A value the block writer does not promise to write as PyYAML does."""


# Strings PyYAML writes unescaped: printable, no line break or BOM; ASCII unless
# allow_unicode. The patterns compile on first use, not when the CLI starts.
_QUOTABLE = {False: "[\x20-\x7e]*",
             True: "[\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd\U00010000-\U0010fffe]*"}
# Of those, the ones Emitter.analyze_scalar refuses as plain in block context.
_NOT_PLAIN = r"---|\.\.\.|[-?:](?: |\Z)|[ #,\[\]{}&*!|>'\"%@`]|.*(?:: | #|[: ]\Z)"
_IMPLICIT = _PY_DUMPER.yaml_implicit_resolvers


@functools.lru_cache(maxsize=4096)
def _str_text(value: str, allow_unicode: bool) -> str:
    """A string before folding: plain, or single-quoted where YAML 1.1 would misread it."""
    if not re.fullmatch(_QUOTABLE[allow_unicode], value):
        raise _Fallback
    if re.match(_NOT_PLAIN, value) or any(r.match(value) for _, r in _IMPLICIT.get(value[:1], ())):
        return "'" + value.replace("'", "''") + "'"
    return value


def _scalar_text(value, allow_unicode: bool) -> str:
    """A leaf or an empty collection as PyYAML writes it before folding."""
    kind = type(value)
    if kind is str:
        return _str_text(value, allow_unicode)
    if value is None or kind in (bool, int, dict, list):  # the collections are empty here
        return "null" if value is None else str(value).lower()
    if kind is not float:
        raise _Fallback
    text = re.sub(r"^(-?\d+)e", r"\1.0e", repr(value).lower())  # "1e-05" is written "1.0e-05"
    return {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}.get(text, text)


def _fold(text: str, column: int, indent: int) -> str:
    """`text` from `column`: a lone space past column 80 breaks to `indent`, unless by a quote."""
    quote = "'" if text[0] == "'" else ""
    pieces = re.split("( +)", text[len(quote) : len(text) - len(quote)])
    column += len(quote)
    for i in range(1, len(pieces), 2):
        column += len(pieces[i - 1])
        if pieces[i] == " " and column > 80 and pieces[i - 1] and pieces[i + 1]:
            pieces[i], column = "\n" + " " * indent, indent
        else:
            column += len(pieces[i])
    return quote + "".join(pieces) + quote


def _entries(node):
    """(key, value) pairs of a mapping in key order, (None, item) of a sequence."""
    if type(node) is list:
        return ((None, item) for item in node)
    # PyYAML writes an empty key, or one of 128 characters with "!!str", as "? key"
    if not all(type(key) is str and 0 < len(key) < 123 for key in node):
        raise _Fallback
    return iter(sorted(node.items()))


def _write_block(data, allow_unicode: bool) -> str:
    """dump_yaml's bytes for a non-empty dict or list, with no recursion and no PyYAML."""
    if type(data) not in (dict, list) or not data:
        raise _Fallback
    out: list[str] = []
    stack = [(_entries(data), 0)]
    compact = False  # the next entry goes on the line of a "- "
    while stack:
        entries, indent = stack[-1]
        for key, value in entries:
            head = "-" if key is None else _str_text(key, allow_unicode) + ":"
            out.append((" " if compact else "\n" + " " * indent) + head)
            kind, compact = type(value), False
            if (kind is dict or kind is list) and value:
                # a sequence under a key is not indented
                stack.append((_entries(value), indent if key and kind is list else indent + 2))
                compact = key is None
                break
            text, start = _scalar_text(value, allow_unicode), indent + len(head) + 1
            if start + len(text) > 80 and " " in text:
                text = _fold(text, start, indent + 2)
            out.append(" " + text)
        else:
            stack.pop()
    return "".join(out)[1:] + "\n"


def dump_yaml(data, allow_unicode: bool) -> str:
    """Block-style YAML with sorted keys and no aliases, as PyYAML's Python emitter
    writes it; PyYAML writes the documents that the block writer does not cover."""
    try:
        return _write_block(data, allow_unicode)
    except _Fallback:
        return yaml.dump(data, Dumper=_PY_DUMPER, sort_keys=True, default_flow_style=False,
                         allow_unicode=allow_unicode)


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


_LINE_BREAKS = str.maketrans("\t\r\n", "   ")


def one_line(text: str) -> str:
    """``text`` for a one-line display field: each tab, CR and LF becomes a space."""
    return text.translate(_LINE_BREAKS)


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
    nodes: set[str], edges: set[Edge], graph: TraceGraph, resolutions: dict[str, Resolution]
) -> str:
    """Component-diagram source: one node per uid on any trace, one labeled
    arrow per distinct trace edge, and a legend of the optimizer inputs among
    the nodes."""
    uids = sorted(nodes)
    aliases = _aliases(uids)
    lines = ["@startuml"]
    for uid in uids:
        element = graph.elements[uid]
        parts = [uid, element.element_type]
        if element.label:
            parts.append(element.label)
        label = one_line("\\n".join(parts))
        lines.append(f'component "{label}" as {aliases[uid]}')
    for source, link_type, target in sorted(edges):
        lines.append(f"{aliases[source]} --> {aliases[target]} : {link_type}")
    lines.append("legend")
    for uid in (uid for uid in uids if uid in resolutions):
        placement = graph.elements[uid].placement
        if placement is None:
            placement = "(no placement)"
        type_kw = resolutions[uid].schema.get("type", "(untyped)")
        lines.append(f"  {uid}: {one_line(placement)} ({type_kw})")
    lines.append("endlegend")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"
