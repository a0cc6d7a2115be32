"""Independent brute-force oracles; intentionally naive and kept separate
from the implementations they double-check."""


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
