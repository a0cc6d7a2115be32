"""JSON Schema subset, instance validation, JSON Pointers and canonical equivalence.

The supported schema vocabulary is deliberately small: type, properties,
required, items, enum, const, minimum, maximum, exclusiveMinimum,
exclusiveMaximum, description, and the domain extension keyword "unit".
Anything else is rejected loudly rather than silently ignored.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any

from tracegen.errors import PointerUnresolvable, SchemaError

SchemaDoc = dict

ALLOWED_KEYWORDS = {
    "type",
    "properties",
    "required",
    "items",
    "enum",
    "const",
    "minimum",
    "maximum",
    "exclusiveMinimum",
    "exclusiveMaximum",
    "description",
    "unit",
}

ALLOWED_TYPES = {"object", "array", "string", "number", "integer", "boolean", "null"}

# "unit" carries constraint semantics for the domain (e.g. milliseconds), so it
# survives canonicalization and participates in equivalence. "description" does not.
ANNOTATION_KEYWORDS = {"description"}
_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(..., sort_keys=True), built once

# RFC 6901, matched whole: "" or "/"-led text in which every "~" starts "~0" or "~1"
_POINTER_RE = re.compile(r"(?:/[^~]*(?:~[01][^~]*)*)?")


@dataclass(frozen=True)
class SchemaViolation:
    """One failed keyword check for a concrete instance."""

    pointer: str
    keyword: str
    message: str


def parse_schema(doc: Any, pointer: str = "") -> SchemaDoc:
    """Validate ``doc`` against the supported keyword subset.

    Returns the document unchanged when valid; raises a SchemaError
    naming the offending keyword and its location otherwise.
    """
    if not isinstance(doc, dict):
        raise SchemaError("schema must be a JSON object", pointer)

    for key in doc:
        if key not in ALLOWED_KEYWORDS:
            raise SchemaError(f"unsupported keyword {key!r}", pointer)

    if "type" in doc:
        if not isinstance(doc["type"], str) or doc["type"] not in ALLOWED_TYPES:
            raise SchemaError(f"invalid type {doc['type']!r}", pointer)
    if "properties" in doc:
        props = doc["properties"]
        if not isinstance(props, dict):
            raise SchemaError("properties must be an object", pointer)
        for name, sub in props.items():
            parse_schema(sub, f"{pointer}/properties/{escape_token(name)}")
    if "required" in doc:
        req = doc["required"]
        if not isinstance(req, list) or not all(isinstance(r, str) for r in req):
            raise SchemaError("required must be a list of strings", pointer)
        known = doc.get("properties", {})
        for name in req:
            if name not in known:
                raise SchemaError(f"required names unknown property {name!r}", pointer)
    if "items" in doc:
        parse_schema(doc["items"], f"{pointer}/items")
    if "enum" in doc:
        if not isinstance(doc["enum"], list) or not doc["enum"]:
            raise SchemaError("enum must be a non-empty list", pointer)
    for kw in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if kw in doc and _json_type(doc[kw]) != "number":
            raise SchemaError(f"{kw} must be a number", pointer)
    if "minimum" in doc and "maximum" in doc and doc["minimum"] > doc["maximum"]:
        raise SchemaError("minimum exceeds maximum", pointer)
    for kw in ("description", "unit"):
        if kw in doc and not isinstance(doc[kw], str):
            raise SchemaError(f"{kw} must be a string", pointer)
    return doc


def _json_type(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    return "object"


def _matches_type(value: Any, declared: str) -> bool:
    actual = _json_type(value)
    if declared == "integer":
        return actual == "number" and (isinstance(value, int) or value.is_integer())
    return actual == declared


def json_equal(a: Any, b: Any) -> bool:
    """JSON-value equality that keeps booleans distinct from numbers.

    Pairs of containers wait on an explicit stack, so that depth costs no
    Python frames.
    """
    if not isinstance(a, (dict, list)):
        return _scalar_equal(a, b)
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if isinstance(a, dict):
            if not isinstance(b, dict) or a.keys() != b.keys():
                return False
            pending.extend((a[k], b[k]) for k in a)
        elif isinstance(a, list):
            if not isinstance(b, list) or len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif not _scalar_equal(a, b):
            return False
    return True


def _scalar_equal(a: Any, b: Any) -> bool:
    return _json_type(a) == _json_type(b) and a == b


def validate_instance(schema: SchemaDoc, instance: Any) -> list[SchemaViolation]:
    """Check ``instance`` against a valid schema; empty result means valid.

    Keyword semantics follow standard JSON Schema: applicators only fire on
    instances of the matching JSON type, "unit" never fails validation.
    """
    out: list[SchemaViolation] = []
    _validate(schema, instance, "", out)
    return out


def _validate(schema: SchemaDoc, instance: Any, ptr: str, out: list[SchemaViolation]) -> None:
    if "type" in schema and not _matches_type(instance, schema["type"]):
        out.append(
            SchemaViolation(ptr, "type", f"expected {schema['type']}, got {_json_type(instance)}")
        )
    if "enum" in schema and not any(json_equal(instance, m) for m in schema["enum"]):
        out.append(SchemaViolation(ptr, "enum", "value not among enum members"))
    if "const" in schema and not json_equal(instance, schema["const"]):
        out.append(SchemaViolation(ptr, "const", "value differs from const"))
    if _json_type(instance) == "number":
        if "minimum" in schema and instance < schema["minimum"]:
            out.append(SchemaViolation(ptr, "minimum", f"{instance} < {schema['minimum']}"))
        if "maximum" in schema and instance > schema["maximum"]:
            out.append(SchemaViolation(ptr, "maximum", f"{instance} > {schema['maximum']}"))
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            out.append(
                SchemaViolation(ptr, "exclusiveMinimum", f"{instance} <= {schema['exclusiveMinimum']}")
            )
        if "exclusiveMaximum" in schema and instance >= schema["exclusiveMaximum"]:
            out.append(
                SchemaViolation(ptr, "exclusiveMaximum", f"{instance} >= {schema['exclusiveMaximum']}")
            )
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                out.append(SchemaViolation(ptr, "required", f"missing property {name!r}"))
        for name, sub in schema.get("properties", {}).items():
            if name in instance:
                _validate(sub, instance[name], f"{ptr}/{escape_token(name)}", out)
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            _validate(schema["items"], item, f"{ptr}/{i}", out)


def escape_token(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


def unescape_token(token: str) -> str:
    return token.replace("~1", "/").replace("~0", "~")


def is_valid_pointer(text: str) -> bool:
    return _POINTER_RE.fullmatch(text) is not None


def resolve_pointer(schema: SchemaDoc, pointer: str) -> SchemaDoc:
    """The subschema that a valid JSON Pointer names in a parsed schema.

    Each step enters a subschema through object keys, ``properties/<name>``
    or ``items``; an array index or any other keyword's value is unresolvable.
    """
    current = schema
    tokens = (unescape_token(token) for token in pointer.split("/")[1:])
    for token in tokens:
        if token == "items" and token in current:
            current = current["items"]
        elif token == "properties" and token in current:
            name = next(tokens, None)
            if name not in current["properties"]:
                raise PointerUnresolvable(token if name is None else name, pointer)
            current = current["properties"][name]
        else:
            raise PointerUnresolvable(token, pointer)
    return current


def canonicalize(schema: SchemaDoc) -> SchemaDoc:
    """Normalize a schema for comparison.

    Drops annotation keywords at every level, sorts object keys, sorts the
    required list, writes each integral float as an int (numbers compare by
    value, as in ``json_equal``), and sorts enum members by their canonical
    JSON text. Idempotent by construction.
    """
    out: dict[str, Any] = {}
    for key in sorted(schema):
        if key in ANNOTATION_KEYWORDS:
            continue
        value = schema[key]
        if key == "properties":
            out[key] = {name: canonicalize(value[name]) for name in sorted(value)}
        elif key == "items":
            out[key] = canonicalize(value)
        elif key == "required":
            out[key] = sorted(value)
        elif key == "enum":
            out[key] = sorted(map(_by_value, value), key=_ENCODER.encode)
        else:
            out[key] = _by_value(value)
    return out


def _by_value(value: Any) -> Any:
    """``value`` with each integral float written as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (dict, list)):  # through json, so that depth costs no Python frames
        return json.loads(json.dumps(value), parse_float=lambda text: _by_value(float(text)))
    return value


def canonical_text(schema: SchemaDoc) -> str:
    """The canonical JSON text of a schema: check 3 prints it for both sides
    of a mismatch. ``equivalent`` decides equality of these texts."""
    return _ENCODER.encode(canonicalize(schema))


def equivalent(a: SchemaDoc, b: SchemaDoc) -> bool:
    """``canonical_text(a) == canonical_text(b)``, without writing either text.
    Pairs of subschemas wait on an explicit stack, as in ``json_equal``."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        keys = a.keys() - ANNOTATION_KEYWORDS
        if keys != b.keys() - ANNOTATION_KEYWORDS:
            return False
        for key in keys:
            x, y = a[key], b[key]
            if key == "properties":
                if x.keys() != y.keys():
                    return False
                pending.extend((x[name], y[name]) for name in x)
            elif key == "items":
                pending.append((x, y))
            elif key == "required":
                if sorted(x) != sorted(y):
                    return False
            elif key == "enum":
                if _enum_texts(x) != _enum_texts(y):
                    return False
            elif not json_equal(x, y):
                return False
    return True


def _enum_texts(members: list) -> list[str]:
    return sorted(_ENCODER.encode(_by_value(member)) for member in members)


def collect_property_paths(schema: SchemaDoc) -> list[str]:
    """Pointers of the form /properties/x/properties/y to every subschema
    reachable through ``properties`` chains, sorted by pointer text."""
    found: list[str] = []

    def walk(prefix: str, node: SchemaDoc) -> None:
        for name, sub in node.get("properties", {}).items():
            ptr = f"{prefix}/properties/{escape_token(name)}"
            found.append(ptr)
            if isinstance(sub, dict):
                walk(ptr, sub)

    walk("", schema)
    return sorted(found)
