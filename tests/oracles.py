"""Independent brute-force oracles; intentionally naive and kept separate
from the implementations they double-check."""

import yaml

from tracegen.errors import Diagnostic, TracegenError
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


# The enumerator as it was before the traversal summary: the reference for
# the summary's counts, unions and cycle warnings, and for the cap.
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
