import copy
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen.elements import MAX_NESTING
from tracegen.errors import PointerUnresolvable, SchemaError
from tracegen.schema import (
    canonical_text,
    canonicalize,
    collect_property_paths,
    equivalent,
    is_valid_pointer,
    parse_schema,
    resolve_pointer,
    validate_instance,
)

from conftest import nested
import oracles
from oracles import naive_valid, recursive_property_paths


class TestParseSchema:
    def test_valid_number_schema(self):
        doc = {"type": "number", "minimum": 0}
        assert parse_schema(doc) is doc

    def test_unknown_keyword_rejected(self):
        with pytest.raises(SchemaError, match="unsupported keyword 'oneOf'"):
            parse_schema({"type": "number", "oneOf": []})

    @pytest.mark.parametrize("declared", [["number"], {"a": 1}])
    def test_non_string_type_rejected(self, declared):
        with pytest.raises(SchemaError, match="invalid type"):
            parse_schema({"type": declared})

    def test_required_names_unknown_property(self):
        with pytest.raises(SchemaError, match="required names unknown property"):
            parse_schema({"type": "object", "required": ["x"]})

    def test_bad_type_value(self):
        with pytest.raises(SchemaError, match="invalid type 'float'"):
            parse_schema({"type": "float"})

    def test_min_above_max(self):
        with pytest.raises(SchemaError, match="minimum exceeds maximum"):
            parse_schema({"minimum": 5, "maximum": 1})

    def test_nested_error_carries_pointer(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_schema({"properties": {"x": {"bogus": 1}}})
        assert str(excinfo.value) == "unsupported keyword 'bogus' (at /properties/x)"

    @pytest.mark.parametrize("doc, message", [
        ([], "schema must be a JSON object (at <root>)"),
        ({"properties": {"a": 5}}, "schema must be a JSON object (at /properties/a)"),
        ({"properties": []}, "properties must be an object (at <root>)"),
        ({"required": [1]}, "required must be a list of strings (at <root>)"),
        ({"enum": []}, "enum must be a non-empty list (at <root>)"),
        ({"minimum": True}, "minimum must be a number (at <root>)"),
        ({"items": {"maximum": "5"}}, "maximum must be a number (at /items)"),
        ({"unit": ["ms"]}, "unit must be a string (at <root>)"),
    ])
    def test_malformed_keyword_value_message(self, doc, message):
        with pytest.raises(SchemaError) as excinfo:
            parse_schema(doc)
        assert str(excinfo.value) == message


class TestValidateInstance:
    SCHEMA = {
        "type": "object",
        "properties": {"value": {"type": "number"}},
        "required": ["value"],
    }

    def test_conforming_instance(self):
        assert validate_instance(self.SCHEMA, {"value": 100}) == []

    def test_type_mismatch_located(self):
        (v,) = validate_instance(self.SCHEMA, {"value": "fast"})
        assert v.pointer == "/value"
        assert v.keyword == "type"

    def test_integer_rejects_fraction(self):
        assert validate_instance({"type": "integer"}, 2.5)
        assert validate_instance({"type": "integer"}, 2.0) == []

    def test_bool_is_not_a_number(self):
        assert validate_instance({"type": "number"}, True)
        assert validate_instance({"enum": [1]}, True)

    def test_integer_is_a_number_of_integral_value(self):
        assert validate_instance({"type": "integer"}, True)
        assert validate_instance({"type": "integer"}, 1.0) == []

    def test_unit_never_fails(self):
        assert validate_instance({"type": "number", "unit": "ms"}, 3) == []

    @pytest.mark.parametrize("depth", [350, 500])
    @pytest.mark.parametrize("keyword", ["const", "enum"])
    def test_deep_const_and_enum_member(self, keyword, depth):
        schema = {keyword: nested(depth) if keyword == "const" else [0, nested(depth)]}
        assert validate_instance(schema, nested(depth)) == []
        for other in (nested(depth, leaf=2), nested(depth, leaf=True), nested(depth - 1)):
            (v,) = validate_instance(schema, other)
            assert v.keyword == keyword


class TestPointer:
    SCHEMA = {
        "type": "object",
        "properties": {
            "x": {"type": "number", "minimum": 0, "const": {"items": 3}, "enum": [{}]},
            "list": {"type": "array", "items": {"type": "object", "properties": {"y": {}}}},
        },
        "required": ["x"],
    }

    def test_simple_path(self):
        x = self.SCHEMA["properties"]["x"]
        assert resolve_pointer(self.SCHEMA, "/properties/x") is x
        y = self.SCHEMA["properties"]["list"]["items"]["properties"]["y"]
        assert resolve_pointer(self.SCHEMA, "/properties/list/items/properties/y") is y

    def test_empty_pointer_is_identity(self):
        doc = {"a": 1}
        assert resolve_pointer(doc, "") is doc

    def test_unresolvable_names_segment(self):
        with pytest.raises(PointerUnresolvable) as excinfo:
            resolve_pointer({"properties": {"a": {}}}, "/properties/z")
        assert str(excinfo.value) == "pointer '/properties/z' unresolvable at segment 'z'"

    def test_escapes(self):
        schema = {"properties": {"a/b": {"properties": {"~c": {"type": "null"}}}}}
        assert resolve_pointer(schema, "/properties/a~1b/properties/~0c") == {"type": "null"}

    @pytest.mark.parametrize("pointer, segment", [
        ("/type", "type"),
        ("/required", "required"),
        ("/required/0", "required"),
        ("/properties", "properties"),
        ("/properties/x/minimum", "minimum"),
        ("/properties/x/const", "const"),
        ("/properties/x/const/items", "const"),
        ("/properties/x/enum/0", "enum"),
        ("/properties/list/items/0", "0"),
        ("/properties/x/items", "items"),
    ])
    def test_array_indices_and_keyword_values_are_unresolvable(self, pointer, segment):
        with pytest.raises(PointerUnresolvable) as excinfo:
            resolve_pointer(self.SCHEMA, pointer)
        assert str(excinfo.value) == f"pointer {pointer!r} unresolvable at segment {segment!r}"

    @pytest.mark.parametrize("text", ["\n", "/a\n/b~", "/a~2", "x/a", " /a", "no-leading-slash"])
    def test_is_valid_pointer_rejects_what_is_not_a_pointer_as_a_whole(self, text):
        assert not is_valid_pointer(text)

    def test_a_token_may_end_in_a_line_break(self):
        # RFC 6901 lets a reference token hold any character but '/' and a bare '~'
        assert is_valid_pointer("/properties/x\n") and is_valid_pointer("")
        assert resolve_pointer({"properties": {"x\n": {}}}, "/properties/x\n") == {}

    def test_is_valid_pointer_matches_the_reference_on_every_short_text(self):
        for n in range(7):
            for chars in itertools.product("/~01a\n", repeat=n):
                text = "".join(chars)
                assert is_valid_pointer(text) == oracles.is_valid_pointer(text), text

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="/~01a\n", max_size=40) | st.text(max_size=40))
    def test_is_valid_pointer_matches_the_reference(self, text):
        assert is_valid_pointer(text) == oracles.is_valid_pointer(text)


class TestCanonicalize:
    def test_description_dropped_at_depth(self):
        schema = {
            "description": "x",
            "type": "object",
            "properties": {"a": {"description": "y", "type": "number"}},
        }
        canon = canonicalize(schema)
        assert "description" not in canon
        assert "description" not in canon["properties"]["a"]

    def test_required_and_enum_sorted(self):
        schema = {
            "type": "object",
            "properties": {"a": {}, "b": {}},
            "required": ["b", "a"],
            "enum": [{"z": 1}, {"a": 2}],
        }
        canon = canonicalize(schema)
        assert canon["required"] == ["a", "b"]
        assert canon["enum"] == [{"a": 2}, {"z": 1}]

    def test_unit_survives(self):
        assert canonicalize({"type": "number", "unit": "ms"})["unit"] == "ms"


class TestEquivalence:
    def test_annotations_and_order_ignored(self):
        a = {"minimum": 0, "type": "number", "description": "latency"}
        b = {"type": "number", "minimum": 0}
        assert canonical_text(a) == canonical_text(b)

    def test_constraint_difference_detected(self):
        assert canonical_text({"type": "number", "minimum": 0}) != canonical_text({"type": "number"})

    @pytest.mark.parametrize(
        "a, b, same",
        [
            ({"properties": {"a": {"type": "number", "description": "x"}}, "description": "p"},
             {"properties": {"a": {"type": "number", "description": "y"}}}, True),
            ({"properties": {"a": {"items": {"minimum": 1, "description": "x"}}}},
             {"properties": {"a": {"items": {"minimum": 2, "description": "x"}}}}, False),
            ({"properties": {"a": {}, "b": {}}, "required": ["a", "b"]},
             {"properties": {"a": {}, "b": {}}, "required": ["b", "a"]}, True),
            ({"enum": [1, "x", None, [2]]}, {"enum": [[2], None, 1, "x"]}, True),
            ({"enum": [1, 1, 2]}, {"enum": [1, 2, 2]}, False),
            ({"enum": [1, 2]}, {"enum": [1, 2, 2]}, False),
            ({"required": ["a", "a", "b"]}, {"required": ["a", "b", "b"]}, False),
            ({"minimum": 0}, {"minimum": 0.0}, True),
            ({"minimum": 0}, {"minimum": -0.0}, True),
            ({"const": [0.0]}, {"const": [-0.0]}, True),
            ({"const": True}, {"const": 1}, False),
            ({"enum": [True]}, {"enum": [1]}, False),
            ({"const": {"a": False}}, {"const": {"a": 0}}, False),
            ({"maximum": 2**53 + 1}, {"maximum": 2.0**53}, False),
            ({"maximum": 2**53}, {"maximum": 2.0**53}, True),
            ({"maximum": 1e22}, {"maximum": 10**22}, True),
            ({"maximum": 1e23}, {"maximum": 10**23}, False),
            ({"const": {"a": 1.0, "b": [2.0, {"c": 3.0}]}},
             {"const": {"b": [2, {"c": 3}], "a": 1}}, True),
            ({"enum": [{"a": 1.0}, {"a": 2}]}, {"enum": [{"a": 2.0}, {"a": 1}]}, True),
            ({"enum": [{"a": 1.5}]}, {"enum": [{"a": 1}]}, False),
            ({"properties": {"description": {"type": "string"}}}, {"properties": {}}, False),
            ({"properties": {"description": {"type": "string"}}},
             {"properties": {"description": {"type": "string", "description": "d"}}}, True),
            ({"properties": {"a": {}}}, {"properties": {"b": {}}}, False),
            ({"unit": "ms"}, {"unit": "s"}, False),
            ({"items": {}}, {}, False),
        ],
        ids=["nested-description", "nested-minimum", "required-order", "enum-order",
             "enum-duplicates", "enum-one-duplicate", "required-duplicates", "zero-float",
             "negative-zero", "negative-zero-inside", "true-vs-1", "enum-true-vs-1",
             "false-vs-0-inside", "2**53+1-vs-float", "2**53-vs-float", "1e22", "1e23",
             "const-integral-floats", "enum-integral-floats", "enum-fraction",
             "property-named-description", "property-named-description-annotated",
             "property-renamed", "unit", "items-missing"],
    )
    def test_equivalent_is_canonical_text_equality(self, a, b, same):
        assert (canonical_text(a) == canonical_text(b)) is same
        assert equivalent(a, b) is same
        assert equivalent(b, a) is same

    def test_items_chain_max_nesting_deep(self):
        def chain(leaf):
            schema = {"type": "number", "minimum": leaf}
            for _ in range(MAX_NESTING - 1):
                schema = {"items": schema, "description": "level"}
            return schema

        a, b, c = chain(0), chain(0.0), chain(1)
        expected = canonical_text(a) == canonical_text(b), canonical_text(a) == canonical_text(c)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            verdicts = equivalent(a, b), equivalent(a, c)
        finally:
            sys.setrecursionlimit(limit)
        assert verdicts == expected == (True, False)


class TestCollectPropertyPaths:
    def test_two_top_level_properties(self):
        schema = {
            "type": "object",
            "properties": {
                "ethernet_latency": {"type": "number"},
                "model_latency": {"type": "number"},
            },
        }
        pointers = collect_property_paths(schema)
        assert pointers == ["/properties/ethernet_latency", "/properties/model_latency"]

    def test_scalar_schema_has_no_property_paths(self):
        assert collect_property_paths({"type": "number"}) == []

    def test_nested_matches_recursive_oracle(self):
        schema = {
            "type": "object",
            "properties": {
                "a": {
                    "type": "object",
                    "properties": {
                        "b": {"type": "object", "properties": {"c": {"type": "number"}}}
                    },
                },
                "d": {"type": "string"},
            },
        }
        assert collect_property_paths(schema) == recursive_property_paths(schema)

    def test_every_pointer_resolves(self):
        schema = {
            "type": "object",
            "properties": {"x/y": {"type": "object", "properties": {"~z": {}}}},
        }
        outer = schema["properties"]["x/y"]
        assert [resolve_pointer(schema, p) for p in collect_property_paths(schema)] == [
            outer, outer["properties"]["~z"]]


# ---------------------------------------------------------------------------
# randomized fuzz against the naive oracle
# ---------------------------------------------------------------------------

TYPES = ["object", "array", "string", "number", "integer", "boolean", "null"]
SCALARS = [None, True, False, 0, 1, -3, 2.5, 7.0, "", "fast", "x"]


def random_schema(rng, depth):
    kind = rng.choice(TYPES) if rng.random() < 0.8 else None
    schema = {}
    if kind:
        schema["type"] = kind
    if rng.random() < 0.15:
        schema["enum"] = [random_value(rng, 1) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.1:
        schema["const"] = random_value(rng, 1)
    if rng.random() < 0.4:
        lo = rng.randint(-5, 5)
        schema["minimum"] = lo
        if rng.random() < 0.5:
            schema["maximum"] = lo + rng.randint(0, 6)
    if rng.random() < 0.2:
        schema["exclusiveMinimum"] = rng.randint(-5, 5)
    if rng.random() < 0.2:
        schema["exclusiveMaximum"] = rng.randint(-5, 5)
    if rng.random() < 0.3:
        schema["description"] = "fuzz"
    if rng.random() < 0.2:
        schema["unit"] = "ms"
    if depth > 0 and (kind == "object" or rng.random() < 0.3):
        names = [f"p{i}" for i in range(rng.randint(1, 3))]
        schema["properties"] = {n: random_schema(rng, depth - 1) for n in names}
        if rng.random() < 0.5:
            schema["required"] = rng.sample(names, rng.randint(0, len(names)))
    if depth > 0 and (kind == "array" or rng.random() < 0.2):
        schema["items"] = random_schema(rng, depth - 1)
    return schema


def random_value(rng, depth):
    if depth == 0 or rng.random() < 0.6:
        return rng.choice(SCALARS)
    if rng.random() < 0.5:
        return [random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {f"p{i}": random_value(rng, depth - 1) for i in range(rng.randint(0, 3))}


def fuzz_pairs(count=1000, seed=20240817):
    rng = random.Random(seed)
    for _ in range(count):
        schema = parse_schema(random_schema(rng, 3))
        instance = random_value(rng, 3)
        yield schema, instance


class TestFuzz:
    def test_validator_matches_naive_oracle(self):
        disagreements = 0
        for schema, instance in fuzz_pairs(1000):
            mine = not validate_instance(schema, instance)
            oracle = naive_valid(schema, instance)
            if mine != oracle:
                disagreements += 1
        assert disagreements == 0

    def test_canonicalize_idempotent(self):
        for schema, _ in fuzz_pairs(300, seed=5):
            canon = canonicalize(schema)
            assert canonicalize(canon) == canon

    def test_canonicalize_preserves_validation_semantics(self):
        for schema, instance in fuzz_pairs(500, seed=9):
            before = not validate_instance(schema, instance)
            after = not validate_instance(canonicalize(schema), instance)
            assert before == after

    def test_canonical_text_ignores_order_and_annotations(self):
        def reordered(schema):
            # every key order reversed, a description added at every level
            out = {"description": "reordered"}
            for key in reversed(list(schema)):
                value = schema[key]
                if key == "properties":
                    value = {name: reordered(value[name]) for name in reversed(list(value))}
                elif key == "items":
                    value = reordered(value)
                elif key in ("required", "enum"):
                    value = list(reversed(value))
                out[key] = value
            return out

        for schema, _ in fuzz_pairs(300, seed=13):
            assert canonical_text(reordered(schema)) == canonical_text(schema)
            assert canonical_text(canonicalize(schema)) == canonical_text(schema)


# ---------------------------------------------------------------------------
# equivalent against canonical_text equality, on near-miss pairs
# ---------------------------------------------------------------------------

# numbers and booleans whose canonical texts tie (0, 0.0, -0.0) or only nearly do
NUMBERS = [0, 0.0, -0.0, 1, 1.0, True, False, 2.5, -3, -3.0,
           2**53 + 1, 2.0**53, 2**53, 1e22, 10**22, 1e23, 10**23]
# strings whose JSON texts sort apart from their code points, and one that a number's text spells
STRINGS = ["", "x", '"', "\\", "\u00e9", "1"]


def equivalence_value(rng, depth):
    if depth == 0 or rng.random() < 0.6:
        return rng.choice(NUMBERS + STRINGS + [None])
    if rng.random() < 0.5:
        return [equivalence_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice("ab"): equivalence_value(rng, depth - 1) for _ in range(rng.randint(0, 2))}


def equivalence_schema(rng, depth):
    schema = {}
    if rng.random() < 0.6:
        schema["type"] = rng.choice(TYPES)
    for keyword in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if rng.random() < 0.2:
            schema[keyword] = rng.choice(NUMBERS)
    if rng.random() < 0.25:
        schema["const"] = equivalence_value(rng, 2)
    if rng.random() < 0.3:
        strings = rng.random() < 0.4  # enums of strings only take their own path in equivalent
        schema["enum"] = [rng.choice(STRINGS) if strings else equivalence_value(rng, 2)
                          for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        schema["description"] = rng.choice("xy")
    if rng.random() < 0.2:
        schema["unit"] = rng.choice(["ms", "s"])
    if depth > 0 and rng.random() < 0.5:
        names = rng.sample(["a", "b", "description"], rng.randint(1, 3))
        schema["properties"] = {name: equivalence_schema(rng, depth - 1) for name in names}
        if rng.random() < 0.6:  # duplicates included
            schema["required"] = [rng.choice(names) for _ in range(rng.randint(1, 3))]
    if depth > 0 and rng.random() < 0.3:
        schema["items"] = equivalence_schema(rng, depth - 1)
    return schema


def subschemas(schema):
    found, pending = [], [schema]
    while pending:
        node = pending.pop()
        found.append(node)
        pending.extend(node.get("properties", {}).values())
        if "items" in node:
            pending.append(node["items"])
    return found


def scalar_slots(value):
    """(container, key) of each scalar inside a JSON value."""
    found, pending = [], [value]
    while pending:
        node = pending.pop()
        for key in (node if isinstance(node, dict) else range(len(node))):
            if isinstance(node[key], (dict, list)):
                pending.append(node[key])
            else:
                found.append((node, key))
    return found


def edit(rng, node):
    """One random change to a subschema; some leave its canonical text as it was."""
    choice = rng.randrange(9)
    if choice == 0:  # annotation only
        if "description" in node and rng.random() < 0.5:
            del node["description"]
        else:
            node["description"] = rng.choice("xyz")
    elif choice == 1:  # key order only
        items = list(node.items())
        rng.shuffle(items)
        node.clear()
        node.update(items)
    elif choice == 2 and node.get("required") or choice == 3 and node.get("enum"):
        members = node["required" if choice == 2 else "enum"]
        if rng.random() < 0.5:
            rng.shuffle(members)  # order only
        elif rng.random() < 0.5:
            members.append(rng.choice(members))  # the set stays, the multiset changes
        else:
            members[rng.randrange(len(members))] = rng.choice(members)
    elif choice == 4 and node.get("properties"):
        name = rng.choice(list(node["properties"]))
        node["properties"][name + "'" if rng.random() < 0.5 else "description"] = (
            node["properties"].pop(name))
    elif choice == 5:
        keys = [key for key in node if key != "description"]
        if keys:
            del node[rng.choice(keys)]
    elif choice == 6:
        node[rng.choice(["minimum", "maximum", "unit", "type"])] = rng.choice(NUMBERS + ["ms"])
    else:  # one scalar inside a constraint value
        slots = []
        for key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum", "const", "enum"):
            if isinstance(node.get(key), (dict, list)):
                slots += scalar_slots(node[key])
            elif key in node:
                slots.append((node, key))
        if slots:
            container, key = rng.choice(slots)
            container[key] = rng.choice(NUMBERS + STRINGS + [None])


def near_miss_pairs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        a = equivalence_schema(rng, 3)
        b = copy.deepcopy(a)
        for _ in range(rng.randint(1, 2)):
            edit(rng, rng.choice(subschemas(b)))
        yield (a, b) if rng.random() < 0.5 else (b, a)


class TestEquivalentDifferential:
    def test_equivalent_is_canonical_text_equality(self):
        verdicts = {True: 0, False: 0}
        for a, b in near_miss_pairs(2500, seed=16):
            same = canonical_text(a) == canonical_text(b)
            assert equivalent(a, b) is same, (a, b)
            verdicts[same] += 1
        assert min(verdicts.values()) >= 500, verdicts

    @pytest.mark.parametrize("a, b", [
        ({"enum": ["1"]}, {"enum": [1]}),
        ({"enum": [True]}, {"enum": [1]}),
        ({"enum": ["a", "a", "b"]}, {"enum": ["a", "b", "b"]}),
        ({"enum": ['"', "\\", "\u00e9", "a"]}, {"enum": ["a", "\u00e9", "\\", '"']}),
        ({"enum": ['"', "\u00e9"]}, {"enum": ["\u00e9", "\\"]}),
        ({"enum": ["1", 1]}, {"enum": [1, "1"]}),
        ({"enum": ["1", 1]}, {"enum": ["1", "1"]}),
        ({"const": 1}, {"const": True}),
        ({"const": 0}, {"const": False}),
        ({"const": 1}, {"const": 1.0}),
        ({"maximum": 0}, {"maximum": False}),
        ({"unit": "1"}, {"unit": 1}),
        ({"const": [1]}, {"const": [True]}),
    ])
    def test_pairs_the_random_ones_may_miss(self, a, b):
        same = canonical_text(a) == canonical_text(b)
        assert (equivalent(a, b), equivalent(b, a)) == (same, same)
