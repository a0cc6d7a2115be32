"""The Type-and-Trace Information Model: which element and link types are legal."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from tracegen.errors import (
    DanglingTypeName,
    MalformedTtim,
    MissingSpecialType,
)


@dataclass(frozen=True)
class NodeTypeDef:
    name: str
    description: str | None = None


@dataclass(frozen=True)
class LinkTypeDef:
    name: str
    source_types: frozenset[str]
    target_types: frozenset[str]
    required: bool = False  # when true, every source-typed element needs >=1 such link


@dataclass(frozen=True)
class TtimDefinition:
    node_types: tuple[NodeTypeDef, ...]
    link_types: tuple[LinkTypeDef, ...]
    scenario_type: str = "runtime-scenario"
    optimizer_input_type: str = "OptimizerInput"
    schema_type_name: str = "schema-type"
    schema_link: str = "describedBy"

    def node_type_names(self) -> set[str]:
        return {n.name for n in self.node_types}

    def link_type(self, name: str) -> LinkTypeDef | None:
        for lt in self.link_types:
            if lt.name == name:
                return lt
        return None


def _validate(defn: TtimDefinition) -> TtimDefinition:
    names = [n.name for n in defn.node_types]
    if len(set(names)) != len(names):
        raise MalformedTtim("duplicate node type name")
    declared = set(names)
    link_names = [lt.name for lt in defn.link_types]
    if len(set(link_names)) != len(link_names):
        raise MalformedTtim("duplicate link type name")
    for lt in defn.link_types:
        if not lt.source_types or not lt.target_types:
            raise MalformedTtim(f"link type {lt.name!r} needs source and target types")
        for ref in sorted(lt.source_types | lt.target_types):
            if ref not in declared:
                raise DanglingTypeName(
                    f"link type {lt.name!r} references undeclared node type {ref!r}"
                )
    for special in (defn.scenario_type, defn.optimizer_input_type, defn.schema_type_name):
        if special not in declared:
            raise MissingSpecialType(f"special node type {special!r} not declared")
    schema_link = defn.link_type(defn.schema_link)
    if schema_link is None:
        raise MissingSpecialType(f"schema link type {defn.schema_link!r} not declared")
    if defn.optimizer_input_type not in schema_link.source_types:
        raise MalformedTtim(
            f"schema link {defn.schema_link!r} must accept {defn.optimizer_input_type!r} sources"
        )
    if defn.schema_type_name not in schema_link.target_types:
        raise MalformedTtim(
            f"schema link {defn.schema_link!r} must accept {defn.schema_type_name!r} targets"
        )
    return defn


def _as_name_set(value) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset([value])
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return frozenset(value)
    raise MalformedTtim(f"expected a type name or list of type names, got {value!r}")


def load_ttim(path: str | Path) -> TtimDefinition:
    """Load and validate a TTIM definition from its YAML layout."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedTtim(f"TTIM file is not UTF-8: {exc}") from exc
    return parse_ttim(text)


def parse_ttim(text: str) -> TtimDefinition:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # str(exc) spans several lines; the diagnostic must fit on one
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise MalformedTtim(f"TTIM file is not valid YAML{where}: {detail}") from exc
    if not isinstance(data, dict):
        raise MalformedTtim("TTIM file must be a YAML mapping")
    unknown = set(data) - {"node_types", "link_types", "special"}
    if unknown:
        raise MalformedTtim(f"unknown top-level key(s): {sorted(unknown)}")
    for key in ("node_types", "link_types", "special"):
        if key not in data:
            raise MalformedTtim(f"missing required key {key!r}")

    node_types = []
    for entry in data["node_types"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise MalformedTtim(f"bad node type entry: {entry!r}")
        extra = set(entry) - {"name", "description"}
        if extra:
            raise MalformedTtim(f"unknown node type key(s): {sorted(extra)}")
        node_types.append(NodeTypeDef(name=entry["name"], description=entry.get("description")))

    link_types = []
    for entry in data["link_types"]:
        if not isinstance(entry, dict):
            raise MalformedTtim(f"bad link type entry: {entry!r}")
        extra = set(entry) - {"name", "source", "target", "required"}
        if extra:
            raise MalformedTtim(f"unknown link type key(s): {sorted(extra)}")
        for key in ("name", "source", "target"):
            if key not in entry:
                raise MalformedTtim(f"link type entry missing {key!r}: {entry!r}")
        link_types.append(
            LinkTypeDef(
                name=entry["name"],
                source_types=_as_name_set(entry["source"]),
                target_types=_as_name_set(entry["target"]),
                required=bool(entry.get("required", False)),
            )
        )

    special = data["special"]
    if not isinstance(special, dict):
        raise MalformedTtim("special must be a mapping")
    extra = set(special) - {"scenario", "optimizer_input", "schema_type", "schema_link"}
    if extra:
        raise MalformedTtim(f"unknown special key(s): {sorted(extra)}")
    for key in ("scenario", "optimizer_input", "schema_type", "schema_link"):
        if key not in special:
            raise MalformedTtim(f"special map missing {key!r}")

    return _validate(
        TtimDefinition(
            node_types=tuple(node_types),
            link_types=tuple(link_types),
            scenario_type=special["scenario"],
            optimizer_input_type=special["optimizer_input"],
            schema_type_name=special["schema_type"],
            schema_link=special["schema_link"],
        )
    )


def write_ttim(defn: TtimDefinition) -> str:
    """Serialize a definition back to the YAML layout accepted by load_ttim."""
    data = {
        "node_types": [
            {"name": n.name, **({"description": n.description} if n.description else {})}
            for n in defn.node_types
        ],
        "link_types": [
            {
                "name": lt.name,
                "source": sorted(lt.source_types),
                "target": sorted(lt.target_types),
                "required": lt.required,
            }
            for lt in defn.link_types
        ],
        "special": {
            "scenario": defn.scenario_type,
            "optimizer_input": defn.optimizer_input_type,
            "schema_type": defn.schema_type_name,
            "schema_link": defn.schema_link,
        },
    }
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)


def default_extended_framework() -> TtimDefinition:
    """Built-in meta-model: scenarios scope abstraction levels, which contain
    requirements that realize optimizer inputs described by schema types."""
    nodes = tuple(
        NodeTypeDef(name)
        for name in (
            "runtime-scenario",
            "abstraction-level",
            "requirement",
            "design-decision",
            "OptimizerInput",
            "schema-type",
        )
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
