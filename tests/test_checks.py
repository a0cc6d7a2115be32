import json
import random
import time

import pytest

from tracegen.checks import (
    CHECK_INTERNAL_SCHEMA,
    CHECK_METAMODEL,
    CHECK_SEMANTIC_EQUIVALENCE,
    check_internal_schema_correctness,
    check_metamodel_consistency,
    check_semantic_equivalence,
    report_to_yaml,
    resolve_optimizer_inputs,
    run_all_checks,
)
from tracegen.graph import build_graph
from tracegen.schema import escape_token
from tracegen.ttim import default_extended_framework, parse_ttim

import oracles
from conftest import DEFAULT_TTIM, mk_element
from oracles import recursive_property_paths, untargeted_properties
from test_traversal import fig_graph, schema_body

TTIM = default_extended_framework()

CONFIG = {
    "type": "object",
    "properties": {
        "ethernet_latency": {"type": "number"},
        "model_latency": {"type": "number"},
    },
}


def check2(graph):
    return check_internal_schema_correctness(graph, resolve_optimizer_inputs(graph, TTIM))


def check3(graph, config):
    return check_semantic_equivalence(graph, config, resolve_optimizer_inputs(graph, TTIM))


def run_all(graph, config):
    return run_all_checks(graph, TTIM, config, resolve_optimizer_inputs(graph, TTIM))


def errors(violations):
    return [v for v in violations if v.severity == "error"]


class TestMetamodel:
    def test_clean_fixture(self):
        assert check_metamodel_consistency(fig_graph(), TTIM) == []

    def test_undeclared_element_type(self):
        graph = fig_graph([mk_element("BAD", "reqirement", line=20)])
        (v,) = check_metamodel_consistency(graph, TTIM)
        assert v.subject_uid == "BAD"
        assert "reqirement" in v.message

    def test_undeclared_link_type(self):
        graph = fig_graph([mk_element("D1", "design-decision",
                                      links=[("colors", "RS1")], line=20)])
        out = check_metamodel_consistency(graph, TTIM)
        assert any("colors" in v.message for v in errors(out))

    def test_source_type_violation(self):
        # describedBy may only start from an OptimizerInput
        graph = fig_graph([mk_element("R9", "requirement",
                                      links=[("describedBy", "ST_ETH")], line=20)])
        out = check_metamodel_consistency(graph, TTIM)
        assert any("may not start" in v.message for v in errors(out))

    def test_target_type_violation(self):
        graph = fig_graph([mk_element("R9", "requirement",
                                      links=[("realizes", "REQ_ETH")], line=20)])
        out = check_metamodel_consistency(graph, TTIM)
        assert any("may not point" in v.message for v in errors(out))

    def test_missing_required_link(self):
        graph = fig_graph([mk_element("OI_LONE", "OptimizerInput",
                                      body=schema_body(1), line=20)])
        out = check_metamodel_consistency(graph, TTIM)
        assert any(v.subject_uid == "OI_LONE" and "required" in v.message for v in out)

    def test_monotonicity_of_conforming_addition(self):
        extra = [
            mk_element("REQ_NEW", "requirement", links=[("refines", "REQ_ETH")], line=20),
        ]
        assert check_metamodel_consistency(fig_graph(extra), TTIM) == []

    # two required link types share the OptimizerInput source type, and one
    # of them starts from two types
    SHARED_SOURCE_TTIM = parse_ttim(DEFAULT_TTIM.replace(
        "link_types:\n", "link_types:\n  - {name: checkedBy, source: [OptimizerInput, "
        "requirement], target: [schema-type, requirement], required: true}\n"))

    @pytest.mark.parametrize("ttim", [TTIM, SHARED_SOURCE_TTIM], ids=["default", "shared-source"])
    def test_random_graphs_match_the_reference(self, ttim):
        rng = random.Random(1305)
        types = sorted(ttim.node_types) + ["reqirement", "undeclared"]
        link_types = [lt.name for lt in ttim.link_types] + ["colors", "undeclared"]
        kinds = {"element": 0, "link": 0, "start": 0, "point": 0, "required": 0}
        for _ in range(300):
            uids = [f"E{i}" for i in range(rng.randint(1, 25))]
            graph, _ = build_graph([
                mk_element(uid, rng.choice(types), line=rng.randint(1, 9), links=[
                    (rng.choice(link_types), rng.choice(uids)) for _ in range(rng.randint(0, 4))])
                for uid in uids
            ], reverse_links=rng.random() < 0.2)
            out = check_metamodel_consistency(graph, ttim)
            assert sorted(out, key=repr) == sorted(
                oracles.check_metamodel_consistency(graph, ttim), key=repr)
            for v in out:
                kind = ("element" if v.message.startswith("element") else
                        "link" if v.message.startswith("link type") else
                        "start" if "may not start" in v.message else
                        "point" if "may not point" in v.message else "required")
                kinds[kind] += 1
        assert min(kinds.values()) > 100, kinds


class TestInternalSchema:
    def test_clean_fixture(self):
        assert check2(fig_graph()) == []

    def test_instance_violation(self):
        graph = fig_graph()
        elements = [
            mk_element("OI_ETH", "OptimizerInput", links=[("describedBy", "ST_ETH")],
                       body=schema_body("fast"), placement="/properties/ethernet_latency",
                       line=5)
            if e.uid == "OI_ETH" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        out = check2(graph)
        (v,) = errors(out)
        assert v.subject_uid == "OI_ETH"
        assert v.check_id == CHECK_INTERNAL_SCHEMA
        assert "type" in v.message

    def test_unparseable_schema_type_body(self):
        graph = fig_graph()
        elements = [
            mk_element("ST_ETH", "schema-type",
                       body=schema_body({"type": "number", "oneOf": []}), line=7)
            if e.uid == "ST_ETH" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        out = errors(check2(graph))
        assert len(out) == 1
        assert out[0].subject_uid == "ST_ETH"

    def test_schema_type_without_body(self):
        graph = fig_graph()
        elements = [
            mk_element("ST_ETH", "schema-type", body="prose only", line=7)
            if e.uid == "ST_ETH" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        out = errors(check2(graph))
        assert "no fenced JSON" in out[0].message

    def test_missing_instance_body(self):
        graph = fig_graph()
        elements = [
            mk_element("OI_ETH", "OptimizerInput", links=[("describedBy", "ST_ETH")],
                       body="", placement="/properties/ethernet_latency", line=5)
            if e.uid == "OI_ETH" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        out = errors(check2(graph))
        assert out[0].subject_uid == "OI_ETH"

    def test_shared_schema_type_read_once(self):
        # OI_MODEL links ST_ETH too: one schema object, and a broken body is
        # one finding, carried by the first input that links to it
        def shared(st_body):
            elements = dict(fig_graph().elements)
            elements["OI_MODEL"] = mk_element(
                "OI_MODEL", "OptimizerInput", links=[("describedBy", "ST_ETH")],
                body=schema_body(50), placement="/properties/model_latency", line=6)
            elements["ST_ETH"] = mk_element("ST_ETH", "schema-type", body=st_body, line=7)
            graph, _ = build_graph(list(elements.values()), reverse_links=False)
            return graph, resolve_optimizer_inputs(graph, TTIM)

        _, resolutions = shared(schema_body({"type": "number"}))
        assert resolutions["OI_ETH"].schema is resolutions["OI_MODEL"].schema
        graph, resolutions = shared(schema_body({"type": "float"}))
        assert [len(resolutions[uid].violations) for uid in ("OI_ETH", "OI_MODEL")] == [1, 0]
        (v,) = check2(graph)
        assert (v.subject_uid, v.message) == ("ST_ETH", "invalid type 'float' (at <root>)")

    def test_ambiguous_schema_link_flagged(self):
        graph = fig_graph()
        elements = [
            mk_element("OI_ETH", "OptimizerInput",
                       links=[("describedBy", "ST_ETH"), ("describedBy", "ST_MODEL")],
                       body=schema_body(20), placement="/properties/ethernet_latency", line=5)
            if e.uid == "OI_ETH" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        out = errors(check2(graph))
        assert "ambiguous" in out[0].message


class TestSemanticEquivalence:
    def test_clean_fixture(self):
        out = check3(fig_graph(), CONFIG)
        assert errors(out) == []

    def test_equivalent_despite_annotations(self):
        config = {
            "type": "object",
            "properties": {
                "ethernet_latency": {"description": "net budget", "type": "number"},
                "model_latency": {"type": "number", "description": "model budget"},
            },
        }
        assert errors(check3(fig_graph(), config)) == []

    def test_constraint_mismatch(self):
        config = {
            "type": "object",
            "properties": {
                "ethernet_latency": {"type": "number", "minimum": 0},
                "model_latency": {"type": "number"},
            },
        }
        out = errors(check3(fig_graph(), config))
        assert len(out) == 1
        assert out[0].subject_uid == "OI_ETH"
        assert "minimum" in out[0].message  # quotes both canonical forms

    def test_unresolvable_placement(self):
        config = {"type": "object", "properties": {"model_latency": {"type": "number"}}}
        out = errors(check3(fig_graph(), config))
        assert len(out) == 1
        assert "unresolvable" in out[0].message

    @pytest.mark.parametrize(
        "configured, required, equal",
        [
            ({"minimum": 0.0}, {"minimum": 0}, True),
            ({"enum": [1, 2]}, {"enum": [2.0, 1]}, True),
            ({"const": {"a": [1e20, -0.0]}}, {"const": {"a": [10 ** 20, 0]}}, True),
            ({"minimum": 0.5}, {"minimum": 0}, False),
            ({"const": True}, {"const": 1}, False),
        ],
        ids=["minimum", "enum", "nested-const", "fraction", "bool"],
    )
    def test_numbers_compare_by_value(self, configured, required, equal):
        elements = [
            mk_element("ST_ETH", "schema-type", body=schema_body({"type": "number", **required}),
                       line=7)
            if e.uid == "ST_ETH" else e
            for e in fig_graph().elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        config = json.loads(json.dumps(CONFIG))
        config["properties"]["ethernet_latency"].update(configured)
        assert (errors(check3(graph, config)) == []) == equal

    def test_missing_placement_warns(self):
        graph = fig_graph()
        elements = [
            mk_element("OI_ETH", "OptimizerInput", links=[("describedBy", "ST_ETH")],
                       body=schema_body(20), line=5)
            if e.uid == "OI_ETH" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        out = check3(graph, CONFIG)
        warnings = [v for v in out if v.severity == "warning"]
        assert any(v.subject_uid == "OI_ETH" and "placement" in v.message for v in warnings)

    def test_unreferenced_config_property_warns(self):
        config = {
            "type": "object",
            "properties": {
                "ethernet_latency": {"type": "number"},
                "model_latency": {"type": "number"},
                "gpu_memory": {"type": "number"},
            },
        }
        out = check3(fig_graph(), config)
        warnings = [v for v in out if v.severity == "warning"]
        assert any("gpu_memory" in v.message for v in warnings)
        assert errors(out) == []

    # Names whose escaped tokens hold ~0 and ~1, and characters that sort
    # before "/" ("!", "-", ".") next to prefix pairs such as a / ab.
    NAMES = ["a", "ab", "a!", "a-", "a.", "a b", "a~", "a/", "~", "/", "~1", "b", "b.c"]

    def random_config(self, rng, depth=0):
        names = rng.sample(self.NAMES, rng.randint(0, 4 if depth < 3 else 0))
        return {"type": "object",
                "properties": {n: self.random_config(rng, depth + 1) for n in names}}

    def untargeted_warnings(self, config, placements):
        graph, _ = build_graph([
            mk_element(f"OI{i}", "OptimizerInput", placement=p, line=i + 1)
            for i, p in enumerate(placements)
        ], reverse_links=False)
        return [v.message for v in check3(graph, config) if v.subject_uid is None]

    def test_untargeted_properties_match_the_quadratic_scan(self):
        rng = random.Random(20241)
        for _ in range(400):
            config = self.random_config(rng)
            pointers = recursive_property_paths(config)
            placements = set()
            for _ in range(rng.randint(0, 6)):
                if pointers != [""] and rng.random() < 0.5:
                    base = rng.choice(pointers)
                else:  # a pointer the config schema may not hold
                    base = "".join("/properties/" + escape_token(rng.choice(self.NAMES))
                                   for _ in range(rng.randint(1, 3)))
                # "/" ends the placement in an empty token
                placements.add(base + rng.choice(["", "", "/type", "/properties", "/items", "/"]))
            expected = [
                f"configuration property {p} not derived from requirements"
                for p in untargeted_properties(pointers, placements)
            ]
            assert self.untargeted_warnings(config, sorted(placements)) == expected

    def test_untargeted_property_scan_is_not_quadratic(self):
        # 20,200 properties and 20,000 placements: the quadratic scan makes
        # 10,000 x 20,000 prefix tests here and takes over a minute
        config = {"type": "object", "properties": {
            f"g{i}": {"type": "object", "properties": {
                f"p{j}": {"type": "number"} for j in range(100)}}
            for i in range(200)
        }}
        placements = [
            f"/properties/g{i}/properties/p{j}/type" if j % 2 == 0
            else f"/properties/g{i}/properties/q{j}"
            for i in range(200) for j in range(100)
        ]
        start = time.perf_counter()
        warnings = self.untargeted_warnings(config, placements)
        assert time.perf_counter() - start < 10
        assert warnings == sorted(
            f"configuration property /properties/g{i}/properties/p{j} not derived from requirements"
            for i in range(200) for j in range(1, 100, 2)
        )


class TestRunAll:
    def test_clean_report(self):
        report = run_all(fig_graph(), CONFIG)
        assert report.passed
        assert all(count == (0, 0) for count in report.counts.values())

    def test_one_violation_per_check(self):
        graph = fig_graph([mk_element("BAD", "reqirement", line=20)])
        elements = [
            mk_element("OI_MODEL", "OptimizerInput", links=[("describedBy", "ST_MODEL")],
                       body=schema_body("slow"), placement="/properties/model_latency", line=6)
            if e.uid == "OI_MODEL" else e
            for e in graph.elements.values()
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        config = json.loads(json.dumps(CONFIG))
        config["properties"]["ethernet_latency"]["minimum"] = 0
        report = run_all(graph, config)
        assert not report.passed
        assert report.counts[CHECK_METAMODEL][0] == 1
        assert report.counts[CHECK_INTERNAL_SCHEMA][0] == 1
        assert report.counts[CHECK_SEMANTIC_EQUIVALENCE][0] == 1

    def test_sorting_stable(self):
        graph = fig_graph([mk_element("BAD", "reqirement", line=20)])
        a = run_all(graph, CONFIG)
        b = run_all(graph, CONFIG)
        assert a.violations == b.violations

    def test_check_independence(self):
        # a metamodel failure elsewhere leaves checks 2 and 3 untouched
        dirty = fig_graph([mk_element("BAD", "reqirement", line=20)])
        clean = fig_graph()
        assert check2(dirty) == check2(clean)
        assert check3(dirty, CONFIG) == check3(clean, CONFIG)

    def test_report_yaml_serializes(self):
        report = run_all(fig_graph(), CONFIG)
        text = report_to_yaml(report)
        assert "passed: true" in text
