"""Seeded generator of synthetic requirement repositories, one per workload.

Each call writes a repository of ``<treqs-element>`` blocks, the matching
configuration schema and an answer file. The answer file is computed from
the structure the generator built (its own element list, link list and
simple-path enumeration), never from tracegen's output, so the harness can
judge every artifact against it.

The element counts depend only on the workload and ``scale``; the seed
changes names, prose, values and which abstraction levels each scenario
scopes, never how much work the tool has to do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("corpus-check", "fanout-yaml", "fanout-plantuml")

_WORDS = (
    "camera frame latency budget detector model node pipeline sensor fusion "
    "night highway rain urban rural deployment inference throughput memory "
    "power thermal accuracy recall precision threshold window buffer queue "
    "network ethernet bus scheduler priority deadline jitter calibration "
    "lidar radar tracking planner controller actuator fallback redundancy "
    "quantized compact baseline variant operator safety margin envelope "
    "vehicle pedestrian cyclist obstacle lane signal weather visibility"
).split()

_VERBS = "shall must should keeps bounds limits selects adapts reports monitors".split()

# Scalar schema types of the fan-out repositories, paired with a value maker.
_SCALAR_TYPES = (
    ({"type": "number", "minimum": 0, "maximum": 1000, "unit": "milliseconds"},
     lambda rng: round(rng.uniform(0, 1000), 2)),
    ({"type": "integer", "minimum": 1, "maximum": 64},
     lambda rng: rng.randint(1, 64)),
    ({"type": "boolean"}, lambda rng: rng.random() < 0.5),
    ({"type": "string", "enum": ["fast", "safe", "eco"]},
     lambda rng: rng.choice(["fast", "safe", "eco"])),
    ({"type": "number", "exclusiveMinimum": 0, "maximum": 1, "unit": "ratio"},
     lambda rng: round(rng.uniform(0.01, 1), 3)),
)

# Field sets of the nested-object schemas of the corpus repository.
_FIELD_SETS = (
    ("limit_ms", "retries", "mode"),
    ("budget_ms", "workers", "profile"),
    ("window_ms", "depth", "policy"),
)


def _object_schema(fields: tuple[str, str, str], retries_type: str = "integer") -> dict:
    timing, count, choice = fields
    return {
        "type": "object",
        "properties": {
            timing: {"type": "number", "minimum": 0, "unit": "milliseconds"},
            count: {"type": retries_type, "minimum": 0, "maximum": 16},
            choice: {"type": "string", "enum": ["fast", "safe", "eco"]},
        },
        "required": [timing, count, choice],
    }


@dataclass
class _Element:
    uid: str
    type: str
    label: str
    placement: str | None = None
    fences: list[str] = field(default_factory=list)  # JSON texts, first one counts
    links: list[tuple[str, str]] = field(default_factory=list)  # (type, target)
    prose: str = ""


class _Builder:
    """Collects elements, their files and the expected outcome."""

    def __init__(self, seed: int, prose_sentences: int) -> None:
        self.rng = random.Random(seed)
        self.elements: dict[str, _Element] = {}
        self.files: dict[str, list[str]] = {}  # path -> element uids in order
        self.values: dict[str, object] = {}  # optimizer input uid -> value
        self.schemas: dict[str, dict] = {}  # optimizer input uid -> its schema
        self.prose_sentences = prose_sentences
        self.sentences = [self._sentence() for _ in range(400)]

    def _sentence(self) -> str:
        words = self.rng.choices(_WORDS, k=self.rng.randint(6, 14))
        words.insert(2, self.rng.choice(_VERBS))
        return " ".join(words).capitalize() + "."

    def prose(self, sentences: int) -> str:
        if sentences <= 0:
            return ""
        return " ".join(self.rng.choices(self.sentences, k=sentences))

    def label(self, kind: str, number: int) -> str:
        return f"{kind} {number} {self.rng.choice(_WORDS)} {self.rng.choice(_WORDS)}"

    def add(self, path: str, element: _Element) -> _Element:
        if self.prose_sentences:
            element.prose = self.prose(self.rng.randint(self.prose_sentences // 2,
                                                        self.prose_sentences * 3 // 2))
        self.elements[element.uid] = element
        self.files.setdefault(path, []).append(element.uid)
        return element

    def render(self, root: Path, between_sentences: int) -> None:
        """Write every file, with ``between_sentences`` of prose before each block."""
        for path, uids in self.files.items():
            parts = [f"# {Path(path).stem.replace('_', ' ')}\n\n"]
            for uid in uids:
                if between_sentences:
                    parts.append(self.prose(between_sentences) + "\n\n")
                parts.append(_render_element(self.elements[uid]) + "\n\n")
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("".join(parts), encoding="utf-8")


def _render_element(e: _Element) -> str:
    attrs = f'id="{e.uid}" type="{e.type}" label="{e.label}"'
    if e.placement is not None:
        attrs += f' placement="{e.placement}"'
    lines = [f"<treqs-element {attrs}>"]
    if e.prose:
        lines.append(e.prose)
    for text in e.fences:
        lines.extend(["```json", text, "```"])
    lines.extend(f'<treqs-link type="{lt}" target="{t}" />' for lt, t in e.links)
    lines.append("</treqs-element>")
    return "\n".join(lines)


def _simple_paths(builder: _Builder, scenario: str) -> list[list[str]]:
    """Every simple path from ``scenario`` to an optimizer input, following all
    links except ``describedBy``; returned input-first."""
    out: list[list[str]] = []
    path = [scenario]

    def walk(uid: str) -> None:
        if builder.elements[uid].type == "OptimizerInput":
            out.append(path[::-1])
        for link_type, target in builder.elements[uid].links:
            if link_type == "describedBy" or target in path:
                continue
            path.append(target)
            walk(target)
            path.pop()

    walk(scenario)
    return out


def _config_pointers(schema: dict, prefix: str = "") -> list[str]:
    out = []
    for name, sub in schema.get("properties", {}).items():
        pointer = f"{prefix}/properties/{name}"
        out.append(pointer)
        out.extend(_config_pointers(sub, pointer))
    return out


def _answer(builder: _Builder, config: dict, expect_check: dict) -> dict:
    """Expected outcome of every artifact, derived from the built structure."""
    elements = builder.elements
    files = {uid: path for path, uids in builder.files.items() for uid in uids}
    scenarios = sorted(u for u, e in elements.items() if e.type == "runtime-scenario")
    records = []
    for scenario in scenarios:
        records.extend([scenario, p[0], p] for p in _simple_paths(builder, scenario))
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    edge_types = {(s, t): lt for s, e in elements.items() for lt, t in e.links}
    nodes = sorted({uid for r in records for uid in r[2]})
    edges = sorted({(r[2][i + 1], edge_types[(r[2][i + 1], r[2][i])], r[2][i])
                    for r in records for i in range(len(r[2]) - 1)})
    inputs = sorted({r[1] for r in records})
    return {
        "elements": len(elements),
        "records": records,
        "nodes": {u: [elements[u].type, elements[u].label] for u in nodes},
        "edges": [list(e) for e in edges],
        "legend": [[u, elements[u].placement, builder.schemas[u].get("type", "(untyped)")]
                   for u in inputs],
        "inputs": {
            u: {
                "file": files[u],
                "label": elements[u].label,
                "placement": elements[u].placement,
                "value": builder.values[u],
                "schema": builder.schemas[u],
            }
            for u in inputs
        },
        "config_schema": config,
        "check": expect_check,
    }


def _untargeted(config: dict, placements: set[str]) -> list[str]:
    """Config pointers that no placement equals or lies beneath."""
    covered = set()
    for placement in placements:
        tokens = placement.split("/")
        covered.update("/".join(tokens[:i]) for i in range(2, len(tokens) + 1))
    return sorted(p for p in _config_pointers(config) if p not in covered)


def _expected_check(builder: _Builder, config: dict, planted: list[tuple[str, str, str]]) -> dict:
    placements = {e.placement for e in builder.elements.values()
                  if e.type == "OptimizerInput" and e.placement is not None}
    untargeted = _untargeted(config, placements)
    violations = sorted(planted + [("semantic_equivalence", "warning", None)] * len(untargeted),
                        key=lambda v: (v[0], v[1], v[2] or ""))
    counts = {}
    for check_id in ("metamodel", "internal_schema", "semantic_equivalence"):
        errors = sum(1 for v in violations if v[0] == check_id and v[1] == "error")
        warnings = sum(1 for v in violations if v[0] == check_id and v[1] == "warning")
        counts[check_id] = {"errors": errors, "warnings": warnings}
    passed = all(c["errors"] == 0 for c in counts.values())
    return {"passed": passed, "counts": counts,
            "violations": [list(v) for v in violations], "untargeted": untargeted}


def _corpus(builder: _Builder, scale: float) -> tuple[dict, list[tuple[str, str, str]]]:
    """Prose-heavy repository: one trace path per input (scenario, level, two
    requirements), nested object schemas, a large config schema, and a few
    planted defects for each check.

    Each input's config property is an array whose ``items`` is the input's
    object schema, and the placement points at ``items``. Check 3's loop over
    config properties then scans the placements for every property: until it
    meets the one beneath an input's array, and in full for each of the
    ``platform`` properties no placement targets (each one also a warning).
    That loop costs config properties times placements."""
    rng = builder.rng
    n_inputs = max(14, round(2400 * scale))
    n_groups = max(2, round(40 * scale))
    n_scen = max(2, round(8 * scale))
    per_level = 30
    config_groups: dict[str, dict] = {}
    planted: list[tuple[str, str, str]] = []
    # two inputs of each planted defect kind, at seeded positions
    kinds = ("no-schema-link", "bad-value", "no-schema-body", "two-fences",
             "bad-placement", "mismatch", "no-placement") * 2
    defects = dict(zip(rng.sample(range(n_inputs), len(kinds)), kinds))

    scenarios = [builder.add(f"scenarios/scenarios_{s // 4:02d}.md",
                             _Element(f"RS_{s:04d}", "runtime-scenario", builder.label("Scenario", s)))
                 for s in range(n_scen)]
    level = None
    for i in range(n_inputs):
        spec = i // 6
        doc = f"docs/area_{spec % 12:02d}/chapter_{spec // 12 % 3}/spec_{spec:03d}.md"
        if i % per_level == 0:
            level = builder.add(doc, _Element(f"AL_{i // per_level:04d}", "abstraction-level",
                                              builder.label("Level", i // per_level)))
            scenarios[(i // per_level) % n_scen].links.append(("scopes", level.uid))
        oi, st = f"OI_{i:05d}", f"ST_{i:05d}"
        fields = _FIELD_SETS[i % len(_FIELD_SETS)]
        group = f"g{i % n_groups:02d}"
        placement = f"/properties/{group}/properties/oi_{i:05d}/items"
        schema = _object_schema(fields)
        config_sub = {"type": "array", "description": f"Profiles of {oi}",
                      "items": dict(schema, description=f"Configuration of {oi}")}
        value = {fields[0]: round(rng.uniform(0, 500), 1), fields[1]: rng.randint(0, 16),
                 fields[2]: rng.choice(["fast", "safe", "eco"])}
        st_schema = dict(schema, description=f"Requirement-side schema of {oi}")
        st_fences = [json.dumps(st_schema, indent=2)]
        oi_fences = [json.dumps(value)]
        links = [("describedBy", st)]
        defect = defects.get(i)
        if defect == "no-schema-link":  # check 1: the required describedBy is missing
            links = []
            planted.append(("metamodel", "error", oi))
        elif defect == "bad-value":  # check 2: instance breaks its schema's minimum
            value[fields[0]] = -5
            oi_fences = [json.dumps(value)]
            planted.append(("internal_schema", "error", oi))
        elif defect == "no-schema-body":  # check 2: schema-type without a fenced body
            st_fences = []
            planted.append(("internal_schema", "error", st))
        elif defect == "two-fences":  # check 2 warning: only the first fence counts
            oi_fences.append('{"ignored": true}')
            planted.append(("internal_schema", "warning", oi))
        elif defect == "bad-placement":  # check 3: a placement the config lacks
            placement = f"/properties/{group}/properties/retired_{i:05d}/items"
            config_sub = None
            planted.append(("semantic_equivalence", "error", oi))
        elif defect == "mismatch":  # check 3: integer in the config, number here
            st_fences = [json.dumps(dict(_object_schema(fields, "number"),
                                         description="loosened count"), indent=2)]
            planted.append(("semantic_equivalence", "error", oi))
        elif defect == "no-placement":  # check 3 warning
            placement, config_sub = None, None
            planted.append(("semantic_equivalence", "warning", oi))
        if config_sub is not None:
            config_groups.setdefault(group, {})[f"oi_{i:05d}"] = config_sub
        builder.add(doc, _Element(f"REQ_{i:05d}", "requirement", builder.label("Requirement", i),
                                  links=[("refines", f"SUB_{i:05d}")]))
        builder.add(doc, _Element(f"SUB_{i:05d}", "requirement", builder.label("Detail", i),
                                  links=[("realizes", oi)]))
        level.links.append(("contains", f"REQ_{i:05d}"))
        builder.add(doc, _Element(oi, "OptimizerInput", builder.label("Input", i), placement,
                                  oi_fences, links))
        if links:
            builder.add(doc, _Element(st, "schema-type", builder.label("Schema", i),
                                      fences=st_fences))
        builder.values[oi], builder.schemas[oi] = value, schema

    # check 1: undeclared element types, undeclared link types, a wrong target type
    for k in range(2):
        builder.add(f"docs/notes/stakeholders_{k}.md",
                    _Element(f"NOTE_{k}", "stakeholder-note", builder.label("Note", k)))
        planted.append(("metamodel", "error", f"NOTE_{k}"))
        builder.elements[f"REQ_{k:05d}"].links.append(("mentions", f"REQ_{k + 1:05d}"))
        planted.append(("metamodel", "error", f"REQ_{k:05d}"))
    scenarios[0].links.append(("scopes", "REQ_00002"))
    planted.append(("metamodel", "error", scenarios[0].uid))

    properties = {g: {"type": "object", "properties": config_groups[g]}
                  for g in sorted(config_groups)}
    n_platform = max(20, round(1000 * scale))
    properties["platform"] = {"type": "object", "properties": {
        f"section_{k // 20:02d}": {"type": "object", "properties": {
            f"key_{j:04d}": {"type": "number"} for j in range(k, min(k + 20, n_platform))}}
        for k in range(0, n_platform, 20)}}
    return {"type": "object", "description": "Synthetic target configuration",
            "properties": properties}, planted


def _fanout(builder: _Builder, scale: float, shape: dict) -> dict:
    """Low-prose repository whose scenarios share abstraction levels, so each
    input is reached on several trace paths; ``shape`` sets the fan-out."""
    rng = builder.rng
    n_scen, n_levels = shape["scenarios"], max(2, round(shape["levels"] * scale))
    scopes = min(shape["scopes"], n_levels)
    schema_types = []
    for t, (schema, _) in enumerate(_SCALAR_TYPES * 4):
        uid = f"ST_{t:03d}"
        builder.add("schemas/types.md", _Element(uid, "schema-type", builder.label("Schema", t),
                                                 fences=[json.dumps(schema)]))
        schema_types.append((uid, t % len(_SCALAR_TYPES)))
    config_groups: dict[str, dict] = {}
    levels = []
    n_req = n_oi = 0
    for lv in range(n_levels):
        doc = f"levels/level_{lv:03d}"
        level = builder.add(f"{doc}/overview.md", _Element(
            f"AL_{lv:03d}", "abstraction-level", builder.label("Level", lv)))
        levels.append(level)
        for u in range(shape["units"]):
            # one unit: a top requirement refined by `mid` requirements, which
            # all refine each of `leaves` leaf requirements (a diamond), each
            # leaf realizing one optimizer input
            path = f"{doc}/unit_{u // 8:02d}.md"
            top = builder.add(path, _Element(f"REQ_{n_req:05d}", "requirement",
                                             builder.label("Requirement", n_req)))
            n_req += 1
            level.links.append(("contains", top.uid))
            mids = []
            for _ in range(shape["mid"]):
                mid = builder.add(path, _Element(f"REQ_{n_req:05d}", "requirement",
                                                 builder.label("Requirement", n_req)))
                n_req += 1
                top.links.append(("refines", mid.uid))
                mids.append(mid)
            for leaf_no in range(shape["leaves"]):
                leaf = builder.add(path, _Element(f"REQ_{n_req:05d}", "requirement",
                                                  builder.label("Requirement", n_req)))
                n_req += 1
                for mid in mids:
                    mid.links.append(("refines", leaf.uid))
                if shape["back_edge_every"] and leaf_no == 0 \
                        and (lv * shape["units"] + u) % shape["back_edge_every"] == 0:
                    leaf.links.append(("refines", top.uid))  # cycle, pruned by traversal
                st_uid, kind = schema_types[rng.randrange(len(schema_types))]
                schema, make_value = _SCALAR_TYPES[kind]
                oi = f"OI_{n_oi:05d}"
                group = f"level_{lv:03d}"
                placement = f"/properties/{group}/properties/input_{n_oi:05d}"
                value = make_value(rng)
                builder.add(path, _Element(oi, "OptimizerInput", builder.label("Input", n_oi),
                                           placement, [json.dumps(value)],
                                           [("describedBy", st_uid)]))
                leaf.links.append(("realizes", oi))
                config_groups.setdefault(group, {})[f"input_{n_oi:05d}"] = dict(
                    schema, description=f"Configuration of {oi}")
                builder.values[oi], builder.schemas[oi] = value, schema
                n_oi += 1
    for s in range(n_scen):
        scenario = builder.add("scenarios.md", _Element(
            f"RS_{s:03d}", "runtime-scenario", builder.label("Scenario", s)))
        for level in rng.sample(levels, scopes):
            scenario.links.append(("scopes", level.uid))
    properties = {g: {"type": "object", "properties": config_groups[g]}
                  for g in sorted(config_groups)}
    return {"type": "object", "description": "Synthetic target configuration",
            "properties": properties}


# Fan-out shapes; records = scenarios * scopes * units * leaves * mid.
_FANOUT_YAML = {"scenarios": 19, "levels": 40, "scopes": 5, "units": 20,
                "mid": 1, "leaves": 1, "back_edge_every": 0}
_FANOUT_PLANTUML = {"scenarios": 12, "levels": 70, "scopes": 27, "units": 25,
                    "mid": 2, "leaves": 3, "back_edge_every": 150}


def generate(workload: str, seed: int, out_dir: str | Path, scale: float = 1.0) -> dict:
    """Write ``repo/``, ``config_schema.json`` and ``answer.json`` under
    ``out_dir`` and return the answer. ``scale`` shrinks the repository for
    smoke tests; the benchmark itself always uses 1.0."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out_dir)
    repo = out / "repo"
    repo.mkdir(parents=True)
    if workload == "corpus-check":
        builder = _Builder(seed, prose_sentences=5)
        config, planted = _corpus(builder, scale)
        between = 4
    else:
        builder = _Builder(seed, prose_sentences=0)
        shape = _FANOUT_YAML if workload == "fanout-yaml" else _FANOUT_PLANTUML
        config, planted = _fanout(builder, scale, shape), []
        between = 0
    builder.render(repo, between)
    if workload == "corpus-check":
        _write_unmatched(repo, builder)
    (out / "config_schema.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    answer = _answer(builder, config, _expected_check(builder, config, planted))
    answer.update(workload=workload, seed=seed, scale=scale)
    (out / "answer.json").write_text(json.dumps(answer), encoding="utf-8")
    return answer


def _write_unmatched(repo: Path, builder: _Builder) -> None:
    """Files the default globs skip. Their blocks carry an undeclared type, so
    scanning them by mistake would change the check counts."""
    for k in range(12):
        block = _render_element(_Element(f"DRAFT_{k}", "draft", f"Draft {k}"))
        text = builder.prose(40) + "\n\n" + block + "\n"
        suffix = (".rst", ".adoc", ".yaml")[k % 3]
        target = repo / "drafts" / f"draft_{k:02d}{suffix}"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
