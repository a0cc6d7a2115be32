"""Independent brute-force oracles; intentionally naive and kept separate
from the implementations they double-check."""

import json
import re
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple

import yaml

from tracegen import elements as _elements
from tracegen.elements import MAX_NESTING, RawElement, RawLink, SourceFile
from tracegen.emit import one_line
from tracegen.errors import Diagnostic, InvalidJson, TracegenError
from tracegen.graph import TraceGraph
from tracegen.traversal import DEFAULT_MAX_PATHS, ScenarioResult, TracePath
from tracegen.ttim import TtimDefinition

RECORD_FIELDS = {
    "file_name", "label", "placement", "treqs_type", "uid", "trace", "schema", "value",
}


def naive_valid(schema, instance):
    """Recursive yes/no validator over the supported keyword subset."""
    is_num = isinstance(instance, (int, float)) and not isinstance(instance, bool)

    def type_of(x):
        if x is None:
            return "null"
        if isinstance(x, bool):
            return "boolean"
        if isinstance(x, (int, float)):
            return "number"
        if isinstance(x, str):
            return "string"
        if isinstance(x, list):
            return "array"
        return "object"

    def eq(a, b):
        if isinstance(a, bool) != isinstance(b, bool):
            return False
        ta, tb = type_of(a), type_of(b)
        if ta != tb:
            return False
        if ta == "object":
            return set(a) == set(b) and all(eq(a[k], b[k]) for k in a)
        if ta == "array":
            return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
        return a == b

    if "type" in schema:
        declared = schema["type"]
        actual = type_of(instance)
        if declared == "integer":
            if not (actual == "number" and float(instance) == int(instance)):
                return False
        elif actual != declared:
            return False
    if "enum" in schema and not any(eq(instance, m) for m in schema["enum"]):
        return False
    if "const" in schema and not eq(instance, schema["const"]):
        return False
    if is_num:
        if "minimum" in schema and instance < schema["minimum"]:
            return False
        if "maximum" in schema and instance > schema["maximum"]:
            return False
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            return False
        if "exclusiveMaximum" in schema and instance >= schema["exclusiveMaximum"]:
            return False
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                return False
        for name, sub in schema.get("properties", {}).items():
            if name in instance and not naive_valid(sub, instance[name]):
                return False
    if isinstance(instance, list) and "items" in schema:
        if not all(naive_valid(schema["items"], item) for item in instance):
            return False
    return True


def brute_force_paths(edges, types, scenario, target_type, excluded_link):
    """All simple paths from scenario ending at a target-typed node.

    edges: list of (source, link_type, target). Returns a set of
    (node_tuple, link_tuple) pairs with nodes in scenario-first order.
    """
    found = set()
    frontier = [((scenario,), ())]
    while frontier:
        nodes, links = frontier.pop()
        if len(nodes) > 1 and types[nodes[-1]] == target_type:
            found.add((nodes, links))
        elif len(nodes) == 1 and types[scenario] == target_type:
            found.add((nodes, links))
        for source, link_type, target in edges:
            if source != nodes[-1] or link_type == excluded_link:
                continue
            if target in nodes:
                continue
            frontier.append((nodes + (target,), links + (link_type,)))
    return found


def outgoing_pairs(graph: TraceGraph) -> dict[str, list[tuple[str, str]]]:
    """Each source's (link_type, target) pairs in edge order, built from
    ``graph.edges`` alone: the references do not read the graph's own index."""
    pairs: dict[str, list[tuple[str, str]]] = {}
    for source, link_type, target in graph.edges:
        pairs.setdefault(source, []).append((link_type, target))
    return pairs


# The enumerator as it was before the traversal summary: the reference for
# the summary's counts, unions, cycle warnings and listed paths, and for the
# cap.
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
    if scenario not in graph.elements or graph.elements[scenario].element_type != ttim.scenario_type:
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
    outgoing = outgoing_pairs(graph)
    stack = [iter(outgoing.get(scenario, ()))]
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
            if graph.elements[target].element_type == ttim.optimizer_input_type:
                record()
            stack.append(iter(outgoing.get(target, ())))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
            if links:
                links.pop()

    paths.sort(key=lambda p: (p.nodes[0], p.nodes, p.link_types))
    return ScenarioResult(paths=paths, diagnostics=diagnostics)


def recursive_property_paths(schema):
    """Plain recursive enumeration of /properties/... chains."""
    def esc(token):
        return token.replace("~", "~0").replace("/", "~1")

    results = []

    def walk(prefix, node):
        props = node.get("properties", {})
        for name in props:
            ptr = prefix + "/properties/" + esc(name)
            results.append(ptr)
            walk(ptr, props[name])

    walk("", schema)
    return sorted(results) if results else [""]


def untargeted_properties(pointers, placements):
    """Property pointers that no placement equals or lies beneath: the plain
    scan of every placement for every property, as check 3 first did it."""
    return [
        p for p in pointers
        if p != "" and not (p in placements or any(q.startswith(p + "/") for q in placements))
    ]


class NoAliasDumper(yaml.SafeDumper):
    def ignore_aliases(self, data):
        return True


def dump_reference(data, allow_unicode):
    """PyYAML's pure-Python emitter with tracegen.emit.dump_yaml's settings."""
    return yaml.dump(data, Dumper=NoAliasDumper, sort_keys=True, default_flow_style=False,
                     allow_unicode=allow_unicode)


def record_reference(path, graph, resolution):
    """One record's mapping with its whole trace: a step per node, input first,
    each with the link to the next node but the last, the scenario."""
    trace = []
    for uid, link in zip_longest(path.nodes, path.link_types):
        step = {"uid": uid, "type": graph.elements[uid].element_type}
        if link is not None:
            step["link_to_next"] = link
        trace.append(step)
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


def intermediary_reference(config_schema, paths, graph, resolutions):
    """The whole intermediary document as PyYAML's Python emitter writes it:
    one full record mapping per trace path, with nothing written once and
    shared."""
    records = [record_reference(path, graph, resolutions[path.uid]) for path in paths]
    return dump_reference({"config_schema": config_schema, "optimizer_inputs": records}, True)


def load_intermediary(text):
    """Read an intermediary YAML document with the plain safe loader into its
    config schema and one tuple of fields per record, the trace split into
    (uid, type) nodes and links."""
    data = yaml.safe_load(text)
    assert set(data) == {"config_schema", "optimizer_inputs"}
    records = []
    for entry in data["optimizer_inputs"]:
        assert set(entry) == RECORD_FIELDS
        trace = entry["trace"]
        assert all("link_to_next" in t for t in trace[:-1])
        assert "link_to_next" not in trace[-1]
        records.append((
            entry["file_name"],
            entry["label"],
            entry["placement"],
            entry["treqs_type"],
            entry["uid"],
            tuple((t["uid"], t["type"]) for t in trace),
            tuple(t["link_to_next"] for t in trace[:-1]),
            entry["schema"],
            entry["value"],
        ))
    return data["config_schema"], records


def expected_records(paths, graph, resolutions):
    """The fields load_intermediary should read back for each trace path: the
    reached input's element, the trace's node types and its resolution."""
    records = []
    for path in paths:
        uid = path.nodes[0]
        element = graph.elements[uid]
        resolution = resolutions[uid]
        records.append((
            element.file,
            element.label,
            element.placement,
            element.element_type,
            uid,
            tuple((node, graph.elements[node].element_type) for node in path.nodes),
            path.link_types,
            resolution.schema,
            resolution.value,
        ))
    return records


# RFC 6901 as one capture group per character, as tracegen.schema matched
# it before: the reference for tracegen.schema.is_valid_pointer.
_POINTER_RE = re.compile(r"(/([^/~]|~[01])*)*")


def is_valid_pointer(text: str) -> bool:
    return _POINTER_RE.fullmatch(text) is not None


# The element parser as it was before the tag scan read the documented link
# and opening-tag forms in their own branches: every tag goes through
# _parse_attrs. Kept verbatim, apart from the pointer check above, as the
# reference for tracegen.elements.parse_file.
_TAG_RE = re.compile(
    r"<treqs-element\b([^<>]*)>|</treqs-element>|<treqs-link\b([^<>]*?)/>"
)
_ATTR_RE = re.compile(r'\s*([A-Za-z_][\w.-]*)="([^"]*)"')


@dataclass
class _Frame:
    attrs: dict[str, str] | None  # None when the opening tag was malformed
    line: int
    body_parts: list[str] = field(default_factory=list)
    links: list[RawLink] = field(default_factory=list)


def _parse_attrs(raw: str) -> tuple[dict[str, str] | None, str | None]:
    """Parse an attribute region into ``(attrs, None)`` or ``(None, problem)``."""
    attrs: dict[str, str] = {}
    pos = 0
    while match := _ATTR_RE.match(raw, pos):
        name, value = match.groups()
        if name in attrs:
            return None, f"duplicate attribute {name!r}"
        attrs[name] = value
        pos = match.end()
    if rest := raw[pos:].strip():
        return None, f"malformed attribute syntax near {rest[:30]!r}"
    return attrs, None


def _validate_open(raw: str) -> tuple[dict[str, str] | None, str | None]:
    """An opening tag's attributes as ``(attrs, None)`` or ``(None, problem)``."""
    attrs, problem = _parse_attrs(raw)
    if problem:
        return None, problem
    problems = []
    if "id" not in attrs:
        problems.append("missing id attribute")
    elif not attrs["id"] or any(c.isspace() for c in attrs["id"]):
        problems.append("id must be non-empty and contain no whitespace")
    if "type" not in attrs or not attrs["type"]:
        problems.append("missing type attribute")
    if "placement" in attrs and not is_valid_pointer(attrs["placement"]):
        problems.append(f"placement is not a valid JSON Pointer: {attrs['placement']!r}")
    return (None, "; ".join(problems)) if problems else (attrs, None)


def parse_file(file: SourceFile) -> tuple[list[RawElement], list[Diagnostic]]:
    """Extract all element blocks from one file.

    Total for any input: malformed blocks become error diagnostics and are
    skipped, everything outside element blocks is ignored. A tag's line is
    the line its ``<`` is on.
    """
    content, path = file.content, file.path
    elements: list[RawElement] = []
    diagnostics: list[Diagnostic] = []
    stack: list[_Frame] = []
    line, counted, body_from = 1, 0, 0  # the line of offset `counted`
    for match in _TAG_RE.finditer(content):
        start = match.start()
        line += content.count("\n", counted, start)
        if stack:
            stack[-1].body_parts.append(content[body_from:start])
        counted, body_from = start, match.end()
        open_attrs, link_attrs = match.group(1, 2)
        severity, problem = "error", None
        if open_attrs is not None:
            attrs, problem = _validate_open(open_attrs)
            stack.append(_Frame(attrs=attrs, line=line))
        elif link_attrs is not None:
            attrs, problem = _parse_attrs(link_attrs)
            if problem is None:
                if not attrs.get("type") or not attrs.get("target"):
                    problem = "link tag requires type and target attributes"
                elif not stack:
                    severity, problem = "warning", "link outside any element block ignored"
                else:  # a malformed block drops its links when it closes
                    stack[-1].links.append(RawLink(attrs["type"], attrs["target"], line))
        elif not stack:
            problem = "closing tag without matching opening tag"
        elif (frame := stack.pop()).attrs is not None:
            elements.append(
                RawElement(
                    uid=frame.attrs["id"],
                    element_type=frame.attrs["type"],
                    label=frame.attrs.get("label"),
                    placement=frame.attrs.get("placement"),
                    body="".join(frame.body_parts),
                    links=tuple(frame.links),
                    file=path,
                    line=frame.line,
                )
            )
        if problem:
            diagnostics.append(Diagnostic(severity, problem, path, line))
    for frame in stack:
        diagnostics.append(Diagnostic("error", "unclosed element block", path, frame.line))
    elements.sort(key=lambda e: e.line)
    return elements, diagnostics


# tracegen.elements.parse_file as it was before it built its records with
# tuple.__new__: each record through its NamedTuple constructor, and each open
# block as a _Frame NamedTuple. Kept verbatim, with the module's own tag
# pattern and attribute helpers, as the reference for the records' types.
class _NamedFrame(NamedTuple):
    head: tuple | None  # RawElement's first four fields; None when the tag was malformed
    line: int
    body_parts: list[str]
    links: list[RawLink]


def parse_file_with_frames(file: SourceFile) -> tuple[list[RawElement], list[Diagnostic]]:
    content, path = file.content, file.path
    elements: list[RawElement] = []
    diagnostics: list[Diagnostic] = []
    stack: list[_NamedFrame] = []
    line, counted, body_from = 1, 0, 0  # the line of offset `counted`
    for match in _elements._TAG_RE.finditer(content):
        start = match.start()
        line += content.count("\n", counted, start)
        if stack:
            stack[-1].body_parts.append(content[body_from:start])
        counted, body_from = start, match.end()
        link_type, target, uid, element_type, label, placement, open_attrs, link_attrs = (
            match.groups())
        severity, problem = "error", None
        if uid is not None or open_attrs is not None:
            if uid is None:  # not the documented form
                attrs, problem = _elements._validate_open(open_attrs)
                if problem is None:
                    uid, element_type = attrs["id"], attrs["type"]
                    label, placement = attrs.get("label"), attrs.get("placement")
            elif placement is not None and not _elements.is_valid_pointer(placement):
                problem = _elements._BAD_PLACEMENT.format(placement)
            head = None if problem else (uid, element_type, label, placement)
            stack.append(_NamedFrame(head, line, [], []))
        elif link_type is not None or link_attrs is not None:
            if link_type is None:  # not the documented form
                attrs, problem = _elements._parse_attrs(link_attrs)
                if problem is None:
                    link_type, target = attrs.get("type"), attrs.get("target")
                    if not link_type or not target:
                        problem = "link tag requires type and target attributes"
            if problem is None:
                if not stack:
                    severity, problem = "warning", "link outside any element block ignored"
                else:  # a malformed block drops its links when it closes
                    stack[-1].links.append(RawLink(link_type, target, line))
        elif not stack:
            problem = "closing tag without matching opening tag"
        elif (frame := stack.pop()).head is not None:
            elements.append(RawElement(*frame.head, "".join(frame.body_parts),
                                       tuple(frame.links), path, frame.line))
        if problem:
            diagnostics.append(Diagnostic(severity, problem, path, line))
    for frame in stack:
        diagnostics.append(Diagnostic("error", "unclosed element block", path, frame.line))
    elements.sort(key=lambda e: e.line)
    return elements, diagnostics


# The fence search as it was before it started the pattern only at a "```":
# ^-anchored finditer, tried at every offset. Kept verbatim as the reference
# for tracegen.elements.first_json_fence.
_FENCE_RE = re.compile(
    r"^```(?:json)?[ \t]*\r?\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL
)


def first_json_fence(element: RawElement) -> tuple[str | None, bool]:
    fences = _FENCE_RE.finditer(element.body)
    first = next(fences, None)
    return (first.group(1) if first else None), next(fences, None) is not None


# parse_json as it was while json.loads, given the same hooks, built a new
# decoder on every call: the reference for tracegen.elements.parse_json.
_TOO_DEEP = f"arrays and objects nested more than {MAX_NESTING} deep"


def parse_json(text: str):
    try:
        value = json.loads(text, parse_float=_elements._finite_float,
                           parse_constant=_elements._reject_constant,
                           object_pairs_hook=_elements._shared_strings)
    except json.JSONDecodeError as exc:
        raise InvalidJson(exc.msg) from exc
    except (ValueError, RecursionError) as exc:
        raise InvalidJson(_TOO_DEEP if type(exc) is RecursionError else str(exc)) from exc
    if len(text) > 2 * MAX_NESTING and text.count("[") + text.count("{") > MAX_NESTING:
        level = [value] if type(value) in (list, dict) else []
        for _ in range(MAX_NESTING):
            level = [inner for outer in level
                     for inner in (outer.values() if type(outer) is dict else outer)
                     if type(inner) is dict or type(inner) is list]
        if level:
            raise InvalidJson(_TOO_DEEP)
    return value

def check_metamodel_consistency(graph: TraceGraph, ttim: TtimDefinition) -> list[Diagnostic]:
    """Check 1 as it was before it walked the type index: every uid sorted,
    then sorted again per required link type, link types found by a linear
    scan. The reference for tracegen.checks.check_metamodel_consistency."""
    out: list[Diagnostic] = []

    def violation(uid, message):
        element = graph.elements[uid]
        out.append(Diagnostic("error", message, element.file, element.line,
                               check_id="metamodel", subject_uid=uid))

    for uid in sorted(graph.elements):
        element_type = graph.elements[uid].element_type
        if element_type not in ttim.node_types:
            violation(uid, f"element type {element_type!r} is not declared in the meta-model")
    for source, link_type, target in graph.edges:
        link_def = next((lt for lt in ttim.link_types if lt.name == link_type), None)
        if link_def is None:
            violation(source, f"link type {link_type!r} is not declared in the meta-model")
            continue
        source_type = graph.elements[source].element_type
        target_type = graph.elements[target].element_type
        if source_type not in link_def.source_types:
            violation(source, f"link {link_type!r} may not start from a {source_type!r} element")
        if target_type not in link_def.target_types:
            violation(
                source,
                f"link {link_type!r} may not point at a {target_type!r} element ({target})",
            )
    outgoing = outgoing_pairs(graph)
    for link_def in ttim.link_types:
        if not link_def.required:
            continue
        for uid in sorted(graph.elements):
            if graph.elements[uid].element_type not in link_def.source_types:
                continue
            if not any(lt == link_def.name for lt, _ in outgoing.get(uid, ())):
                violation(uid, f"missing required outgoing link of type {link_def.name!r}")
    return out


# tracegen.emit's overview writer as it was before it walked graph.edges and
# wrote the aliases from one substitution: it sorts the reached edges and
# substitutes uid by uid. Kept verbatim as the reference for emit_plantuml.
_ALIAS_UNSAFE = re.compile(r"[^A-Za-z0-9]")


def aliases_reference(uids: list[str]) -> dict[str, str]:
    """Stable PlantUML-safe aliases for arbitrary uids."""
    aliases: dict[str, str] = {}
    used: set[str] = set()
    for uid in uids:
        base = "n_" + _ALIAS_UNSAFE.sub("_", uid)
        alias = base
        counter = 2
        while alias in used:
            alias = f"{base}_{counter}"
            counter += 1
        used.add(alias)
        aliases[uid] = alias
    return aliases


def plantuml_reference(nodes, edges, graph: TraceGraph, resolutions) -> str:
    uids = sorted(nodes)
    aliases = aliases_reference(uids)
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
