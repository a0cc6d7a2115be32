"""The Type-and-Trace Information Model: which element and link types are legal."""

from __future__ import annotations

from typing import NamedTuple

from tracegen.errors import TracegenError


class LinkTypeDef(NamedTuple):
    name: str
    source_types: frozenset[str]
    target_types: frozenset[str]
    required: bool = False  # when true, every source-typed element needs >=1 such link


class TtimDefinition(NamedTuple):
    node_types: tuple[str, ...]
    link_types: tuple[LinkTypeDef, ...]
    scenario_type: str = "runtime-scenario"
    optimizer_input_type: str = "OptimizerInput"
    schema_type_name: str = "schema-type"
    schema_link: str = "describedBy"


def _validate(defn: TtimDefinition) -> TtimDefinition:
    declared = set(defn.node_types)
    if len(declared) != len(defn.node_types):
        raise TracegenError("duplicate node type name")
    link_names = [lt.name for lt in defn.link_types]
    if len(set(link_names)) != len(link_names):
        raise TracegenError("duplicate link type name")
    for lt in defn.link_types:
        for ref in sorted(lt.source_types | lt.target_types):
            if ref not in declared:
                raise TracegenError(
                    f"link type {lt.name!r} references undeclared node type {ref!r}"
                )
    for special in (defn.scenario_type, defn.optimizer_input_type, defn.schema_type_name):
        if special not in declared:
            raise TracegenError(f"special node type {special!r} not declared")
    schema_link = next((lt for lt in defn.link_types if lt.name == defn.schema_link), None)
    if schema_link is None:
        raise TracegenError(f"schema link type {defn.schema_link!r} not declared")
    if defn.optimizer_input_type not in schema_link.source_types:
        raise TracegenError(
            f"schema link {defn.schema_link!r} must accept {defn.optimizer_input_type!r} sources"
        )
    if defn.schema_type_name not in schema_link.target_types:
        raise TracegenError(
            f"schema link {defn.schema_link!r} must accept {defn.schema_type_name!r} targets"
        )
    return defn


def _as_name_set(value) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset([value])
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return frozenset(value)
    raise TracegenError(f"expected a type name or list of type names, got {value!r}")


def _name(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise TracegenError(f"{what} must be a non-empty string, got {value!r}")
    return value


def parse_ttim(text: str) -> TtimDefinition:
    import yaml  # only a --ttim file needs PyYAML
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # str(exc) spans several lines; the diagnostic must fit on one
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise TracegenError(f"TTIM file is not valid YAML{where}: {detail}") from exc
    except RecursionError as exc:  # PyYAML's composer recurses once per nesting level
        raise TracegenError("TTIM file is nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise TracegenError("TTIM file must be a YAML mapping")
    unknown = set(data) - {"node_types", "link_types", "special"}
    if unknown:
        raise TracegenError(f"unknown top-level key(s): {sorted(unknown, key=str)}")
    for key in ("node_types", "link_types", "special"):
        if key not in data:
            raise TracegenError(f"missing required key {key!r}")
    for key in ("node_types", "link_types"):
        if not isinstance(data[key], list):
            raise TracegenError(f"{key} must be a list")

    node_types = []
    for entry in data["node_types"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise TracegenError(f"bad node type entry: {entry!r}")
        extra = set(entry) - {"name", "description"}
        if extra:
            raise TracegenError(f"unknown node type key(s): {sorted(extra, key=str)}")
        node_types.append(_name(entry["name"], "node type name"))  # a description is ignored

    link_types = []
    for entry in data["link_types"]:
        if not isinstance(entry, dict):
            raise TracegenError(f"bad link type entry: {entry!r}")
        extra = set(entry) - {"name", "source", "target", "required"}
        if extra:
            raise TracegenError(f"unknown link type key(s): {sorted(extra, key=str)}")
        for key in ("name", "source", "target"):
            if key not in entry:
                raise TracegenError(f"link type entry missing {key!r}: {entry!r}")
        name = _name(entry["name"], "link type name")
        required = entry.get("required", False)
        if not isinstance(required, bool):
            raise TracegenError(
                f"link type {name!r}: required must be true or false, got {required!r}"
            )
        link_types.append(
            LinkTypeDef(
                name=name,
                source_types=_as_name_set(entry["source"]),
                target_types=_as_name_set(entry["target"]),
                required=required,
            )
        )

    special = data["special"]
    if not isinstance(special, dict):
        raise TracegenError("special must be a mapping")
    extra = set(special) - {"scenario", "optimizer_input", "schema_type", "schema_link"}
    if extra:
        raise TracegenError(f"unknown special key(s): {sorted(extra, key=str)}")
    for key in ("scenario", "optimizer_input", "schema_type", "schema_link"):
        if key not in special:
            raise TracegenError(f"special map missing {key!r}")

    return _validate(
        TtimDefinition(
            node_types=tuple(node_types),
            link_types=tuple(link_types),
            scenario_type=_name(special["scenario"], "special 'scenario'"),
            optimizer_input_type=_name(special["optimizer_input"], "special 'optimizer_input'"),
            schema_type_name=_name(special["schema_type"], "special 'schema_type'"),
            schema_link=_name(special["schema_link"], "special 'schema_link'"),
        )
    )


def default_extended_framework() -> TtimDefinition:
    """Built-in meta-model: scenarios scope abstraction levels, which contain
    requirements that realize optimizer inputs described by schema types."""
    nodes = (
        "runtime-scenario",
        "abstraction-level",
        "requirement",
        "design-decision",
        "OptimizerInput",
        "schema-type",
    )
    links = (
        LinkTypeDef("refines", frozenset(["requirement"]), frozenset(["requirement"])),
        LinkTypeDef("addresses", frozenset(["requirement"]), frozenset(["abstraction-level"])),
        LinkTypeDef("scopes", frozenset(["runtime-scenario"]), frozenset(["abstraction-level"])),
        LinkTypeDef("contains", frozenset(["abstraction-level"]), frozenset(["requirement"])),
        LinkTypeDef("realizes", frozenset(["requirement"]), frozenset(["OptimizerInput"])),
        LinkTypeDef(
            "describedBy",
            frozenset(["OptimizerInput"]),
            frozenset(["schema-type"]),
            required=True,
        ),
    )
    return _validate(TtimDefinition(node_types=nodes, link_types=links))
