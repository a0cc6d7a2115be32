"""Serialization of results: the intermediary YAML document and the PlantUML
overview diagram."""

from __future__ import annotations

import functools
import io
import re
from itertools import zip_longest
from typing import TYPE_CHECKING

from tracegen.graph import Edge, TraceGraph
from tracegen.schema import SchemaDoc
from tracegen.traversal import TracePath

if TYPE_CHECKING:
    from tracegen.checks import Resolution


def _step(graph: TraceGraph, uid: str, link_type: str | None) -> dict:
    """One entry of a record's trace; the last, the scenario, has no link."""
    step = {"uid": uid, "type": graph.element_type(uid)}
    return step if link_type is None else step | {"link_to_next": link_type}


def _record_mapping(path: TracePath, graph: TraceGraph, resolution: Resolution,
                    trace: list) -> dict:
    """One record of the intermediary document: the input's element fields,
    the given trace (its `_step`s, input first) and its resolved schema and value."""
    element = graph.elements[path.uid]
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


# Strings PyYAML writes unescaped: printable, no line break or BOM; ASCII unless
# allow_unicode. The patterns compile on first use, not when the CLI starts.
_QUOTABLE = {False: "[\x20-\x7e]*",
             True: "[\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd\U00010000-\U0010fffe]*"}
# Of those, the ones Emitter.analyze_scalar refuses as plain in block context.
_NOT_PLAIN = r"---|\.\.\.|[-?:](?: |\Z)|[ #,\[\]{}&*!|>'\"%@`]|.*(?:: | #|[: ]\Z)"


@functools.cache
def _implicit() -> dict:  # PyYAML's resolvers by first character; it loads only for YAML
    import yaml
    return yaml.SafeDumper.yaml_implicit_resolvers


@functools.lru_cache(maxsize=4096)
def _str_text(value: str, allow_unicode: bool) -> str | None:
    """A string before folding: plain, or single-quoted where YAML 1.1 would misread
    it; None where PyYAML would escape it or fold it at a line break."""
    if not re.fullmatch(_QUOTABLE[allow_unicode], value):
        return None
    if re.match(_NOT_PLAIN, value) or any(r.match(value) for _, r in _implicit().get(value[:1], ())):
        return "'" + value.replace("'", "''") + "'"
    return value


def _emitted(value: str, allow_unicode: bool, column: int, indent: int, simple_key: bool) -> str:
    """`value` as PyYAML's own scalar writer writes it from `column`, after a space."""
    import yaml
    emitter = yaml.SafeDumper(io.StringIO(), allow_unicode=allow_unicode)
    emitter.column, emitter.indent, emitter.whitespace = column, indent, False
    emitter.simple_key_context = simple_key
    implicit = emitter.resolve(yaml.ScalarNode, value, (True, False)) == emitter.DEFAULT_SCALAR_TAG
    emitter.event = yaml.ScalarEvent(None, emitter.DEFAULT_SCALAR_TAG, (implicit, True), value)
    emitter.process_scalar()
    return emitter.stream.getvalue()


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


def _leaf(value, allow_unicode: bool, column: int, indent: int) -> str:
    """A leaf or an empty collection as PyYAML writes it from `column`, after a space."""
    kind = type(value)
    if kind is str:
        text = _str_text(value, allow_unicode)
        if text is None:
            return _emitted(value, allow_unicode, column, indent, False)
        if column + 1 + len(text) > 80 and " " in text:
            text = _fold(text, column + 1, indent)
    elif value is None or kind in (bool, int, dict, list):  # the collections are empty here
        text = "null" if value is None else str(value).lower()
    else:
        text = re.sub(r"^(-?\d+)e", r"\1.0e", repr(value).lower())  # "1e-05" is written "1.0e-05"
        text = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}.get(text, text)
    return " " + text


@functools.lru_cache(maxsize=4096)
def _key_head(key: str, allow_unicode: bool) -> str | None:
    """`key:` as PyYAML writes a simple key; None for a key it writes as `? key`: one
    that is empty, holds a line break or, with "!!str", reaches 128 characters."""
    if not 0 < len(key) < 123 or re.search("[\n\x85\u2028\u2029]", key):
        return None
    text = _str_text(key, allow_unicode)
    return (text if text is not None else _emitted(key, allow_unicode, 0, 2, True)[1:]) + ":"


def _entries(node):
    """(key, value) pairs of a mapping in key order, (None, item) of a sequence."""
    return ((None, item) for item in node) if type(node) is list else iter(sorted(node.items()))


def _block(data, allow_unicode: bool, indent: int) -> str:
    """The entries of a non-empty dict or list of JSON values as PyYAML's Python emitter
    writes them from `indent`, each on a new line, with sorted keys and no aliases."""
    out: list[str] = []
    stack, compact = [(_entries(data), indent)], False
    while stack:
        entries, indent = stack[-1]
        for key, value in entries:
            line = " " if compact else "\n" + " " * indent
            indented = key is None
            head = "-" if indented else _key_head(key, allow_unicode)
            if head is None:  # "? key", then ":" and the value on the next line
                out.append(line + "?" + _leaf(key, allow_unicode, indent + 1, indent + 2))
                line, head, indented = "\n" + " " * indent, ":", True
            out.append(line + head)
            kind, compact = type(value), False
            if (kind is dict or kind is list) and value:
                # a sequence under a simple key is not indented
                stack.append((_entries(value), indent + 2 if indented or kind is dict else indent))
                compact = indented  # the next entry goes on the line of a "- " or a "? key"'s ":"
                break
            out.append(_leaf(value, allow_unicode, indent + len(head), indent + 2))
        else:
            stack.pop()
    return "".join(out)


def dump_yaml(data, allow_unicode: bool) -> str:
    """Block-style YAML of a non-empty dict or list of JSON values, at any depth."""
    return _block(data, allow_unicode, 0)[1:] + "\n"


def emit_yaml(
    config_schema: SchemaDoc,
    paths: list[TracePath],
    graph: TraceGraph,
    resolutions: dict[str, Resolution],
) -> str:
    """Deterministic YAML with exactly two top-level keys: the config schema echoed
    from the input and one record per trace path. A record's fields but its trace depend
    only on its input, and a step only on its uid and link: each is written once."""
    out = [dump_yaml({"config_schema": config_schema}, True),
           "optimizer_inputs:" if paths else "optimizer_inputs: []"]
    inputs: dict[str, tuple[str, str]] = {}  # the fields written before and after the trace
    steps: dict[tuple[str, str | None], str] = {}
    for path in paths:
        if path.uid not in inputs:
            record = _record_mapping(path, graph, resolutions[path.uid], [])
            before = {key: value for key, value in record.items() if key < "trace"}
            after = {key: value for key, value in record.items() if key > "trace"}
            inputs[path.uid] = (_block([before], True, 0) + "\n  trace:", _block(after, True, 2))
        head, tail = inputs[path.uid]
        out.append(head)
        for step in zip_longest(path.nodes, path.link_types):
            if step not in steps:
                steps[step] = _block([_step(graph, *step)], True, 2)
            out.append(steps[step])
        out.append(tail)
    return "".join(out) + "\n"


def one_line(text: str) -> str:
    """``text`` for a one-line display field: each tab, CR and LF becomes a space."""
    return text.replace("\t", " ").replace("\r", " ").replace("\n", " ")


_ALIAS_UNSAFE = re.compile(r"[^A-Za-z0-9\n]")


def _aliases(uids: list[str]) -> dict[str, str]:
    """Stable PlantUML-safe aliases for uids, which hold no whitespace."""
    aliases: dict[str, str] = {}
    used: set[str] = set()
    # one substitution over all uids, split back at the line breaks between them
    for uid, base in zip(uids, _ALIAS_UNSAFE.sub("_", "\n".join(uids)).split("\n")):
        alias = base = "n_" + base
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
    arrow per distinct trace edge (``edges`` are some of ``graph.edges``, which
    are sorted), and a legend of the optimizer inputs among the nodes."""
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
    for source, link_type, target in (edge for edge in graph.edges if edge in edges):
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
