import json
import random

import pytest
import yaml

from tracegen.checks import CHECK_INTERNAL_SCHEMA, resolve_optimizer_inputs
from tracegen.emit import emit_yaml
from tracegen.errors import TracegenError
from tracegen.graph import build_graph
from tracegen.traversal import (
    collect_optimizer_inputs,
    summarize_traversal,
    traverse_from_scenario,
)
from tracegen.ttim import default_extended_framework

from conftest import mk_element
from oracles import brute_force_paths, record_reference

TTIM = default_extended_framework()


def schema_body(schema):
    return "```json\n" + json.dumps(schema) + "\n```\n"


def fig_graph(extra_elements=()):
    """One scenario, two branches down to ethernet/model optimizer inputs."""
    elements = [
        mk_element("RS1", "runtime-scenario", links=[("scopes", "AL1")], label="Night driving"),
        mk_element("AL1", "abstraction-level",
                   links=[("contains", "REQ_ETH"), ("contains", "REQ_MODEL")], line=2),
        mk_element("REQ_ETH", "requirement", links=[("realizes", "OI_ETH")], line=3),
        mk_element("REQ_MODEL", "requirement", links=[("realizes", "OI_MODEL")], line=4),
        mk_element("OI_ETH", "OptimizerInput", links=[("describedBy", "ST_ETH")],
                   body=schema_body(20), placement="/properties/ethernet_latency",
                   label="Ethernet latency", line=5),
        mk_element("OI_MODEL", "OptimizerInput", links=[("describedBy", "ST_MODEL")],
                   body=schema_body(50), placement="/properties/model_latency",
                   label="Model latency", line=6),
        mk_element("ST_ETH", "schema-type", body=schema_body({"type": "number"}), line=7),
        mk_element("ST_MODEL", "schema-type", body=schema_body({"type": "number"}), line=8),
    ]
    elements.extend(extra_elements)
    graph, diagnostics = build_graph(elements, reverse_links=False)
    assert diagnostics == []
    return graph


class TestFindScenarios:
    def test_fixture_scenarios(self):
        graph, _ = build_graph(
            [mk_element("RS2", "runtime-scenario"), mk_element("RS1", "runtime-scenario", line=2)],
            reverse_links=False,
        )
        assert summarize_traversal(graph, TTIM).scenarios == ["RS1", "RS2"]

    def test_no_scenarios(self):
        graph, _ = build_graph([mk_element("R1", "requirement")], reverse_links=False)
        assert summarize_traversal(graph, TTIM).scenarios == []

    def test_exact_type_name_match(self):
        graph, _ = build_graph([mk_element("X", "runtime_scenario")], reverse_links=False)
        assert summarize_traversal(graph, TTIM).scenarios == []


def diamond_graph():
    """Two scenarios reaching the same optimizer input through one level."""
    elements = [
        mk_element("RS1", "runtime-scenario", links=[("scopes", "AL1")]),
        mk_element("RS2", "runtime-scenario", links=[("scopes", "AL1")], line=2),
        mk_element("AL1", "abstraction-level", links=[("contains", "REQ1")], line=3),
        mk_element("REQ1", "requirement", links=[("realizes", "OI1")], line=4),
        mk_element("OI1", "OptimizerInput", links=[("describedBy", "ST1")],
                   body=schema_body(1), line=5),
        mk_element("ST1", "schema-type", body=schema_body({"type": "number"}), line=6),
    ]
    return build_graph(elements, reverse_links=False)[0]


def listed(graph, scenario="RS1"):
    """The scenario's paths as `generate --format yaml` lists them."""
    return traverse_from_scenario(summarize_traversal(graph, TTIM), scenario)


class TestTraverse:
    def test_two_branches(self):
        result = listed(fig_graph())
        assert len(result.paths) == 2
        assert {p.nodes[0] for p in result.paths} == {"OI_ETH", "OI_MODEL"}
        for path in result.paths:
            assert path.nodes[-1] == "RS1"
            assert len(path.link_types) == len(path.nodes) - 1

    def test_schema_link_excluded_from_paths(self):
        result = listed(fig_graph())
        for path in result.paths:
            assert "describedBy" not in path.link_types

    def test_scenario_without_edges(self):
        graph, _ = build_graph([mk_element("RS1", "runtime-scenario")], reverse_links=False)
        assert listed(graph).paths == []

    def test_path_edges_exist_in_graph(self):
        graph = fig_graph()
        edge_set = set(graph.edges)
        result = listed(graph)
        for path in result.paths:
            for i, link_type in enumerate(path.link_types):
                assert (path.nodes[i + 1], link_type, path.nodes[i]) in edge_set

    def test_cycle_pruned_with_warning(self):
        extra = [
            mk_element("REQ_CYC", "requirement", links=[("refines", "REQ_ETH")], line=9),
        ]
        graph = fig_graph(extra)
        # patch a back edge REQ_ETH -> REQ_CYC by rebuilding
        elements = list(graph.elements.values())
        elements = [
            mk_element("REQ_ETH", "requirement",
                       links=[("realizes", "OI_ETH"), ("refines", "REQ_CYC")], line=3)
            if e.uid == "REQ_ETH" else e
            for e in elements
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        assert len(listed(graph).paths) == 2
        warnings = summarize_traversal(graph, TTIM).warnings("RS1")
        assert any("cycle edge" in d.message for d in warnings)

    def test_path_limit(self):
        assert summarize_traversal(fig_graph(), TTIM, 2).count("RS1") == 2
        with pytest.raises(TracegenError, match="'RS1' exceeds 1 trace paths"):
            summarize_traversal(fig_graph(), TTIM, 1).count("RS1")

    def test_determinism(self):
        graph = fig_graph()
        first = listed(graph)
        second = listed(graph)
        assert first.paths == second.paths


LINK_TYPES = ["refines", "contains", "scopes", "realizes", "addresses"]
NODE_TYPES = ["runtime-scenario", "requirement", "OptimizerInput", "abstraction-level"]


def random_dag(rng, n, repeat=0.0):
    """Random DAG over a random topological order; node N00 is the scenario.
    Each link is written twice with probability `repeat`."""
    order = [f"N{i:02d}" for i in range(n)]
    rng.shuffle(order)
    types = {uid: rng.choice(NODE_TYPES) for uid in order}
    types[order[0]] = "runtime-scenario"
    links = {uid: [] for uid in order}
    repeats = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                links[order[i]].append((rng.choice(LINK_TYPES), order[j]))
                if repeat and rng.random() < repeat:
                    links[order[i]].append(links[order[i]][-1])
                    repeats += 1
    elements = [
        mk_element(uid, types[uid], links=links[uid], line=k + 1)
        for k, uid in enumerate(order)
    ]
    graph, diagnostics = build_graph(elements, reverse_links=False)
    assert len(diagnostics) == repeats
    assert all(d.message.startswith("duplicate link") for d in diagnostics)
    return graph, types, order[0]


class TestOracleEquivalence:
    def test_random_dags_match_brute_force(self):
        rng = random.Random(123)
        for _ in range(200):
            graph, types, scenario = random_dag(rng, rng.randint(2, 12), repeat=0.1)
            result = listed(graph, scenario)
            paths = [(tuple(reversed(p.nodes)), tuple(reversed(p.link_types)))
                     for p in result.paths]
            # the oracle returns a set, which would hide a path found twice
            assert len(set(paths)) == len(paths)
            mine = set(paths)
            oracle = brute_force_paths(
                graph.edges, types, scenario, "OptimizerInput", TTIM.schema_link
            )
            assert mine == oracle


class TestCollect:
    def test_records_resolve_schema(self):
        graph = fig_graph()
        results = [listed(graph)]
        resolutions = resolve_optimizer_inputs(graph, TTIM)
        records = collect_optimizer_inputs(results)
        assert [r.uid for r in records] == ["OI_ETH", "OI_MODEL"]
        record = record_reference(records[0], graph, resolutions["OI_ETH"])
        assert record["schema"] == {"type": "number"}
        assert record["value"] == 20
        assert record["trace"][0] == {
            "uid": "OI_ETH", "type": "OptimizerInput", "link_to_next": "realizes"}
        assert record["trace"][-1] == {"uid": "RS1", "type": "runtime-scenario"}

    def test_ambiguous_schema_link(self):
        extra_link_oi = mk_element(
            "OI_ETH", "OptimizerInput",
            links=[("describedBy", "ST_ETH"), ("describedBy", "ST_MODEL")],
            body=schema_body(20), line=5,
        )
        graph = fig_graph()
        elements = [extra_link_oi if e.uid == "OI_ETH" else e for e in graph.elements.values()]
        graph, _ = build_graph(elements, reverse_links=False)
        resolution = resolve_optimizer_inputs(graph, TTIM)["OI_ETH"]
        assert not resolution.complete
        assert resolution.schema is None
        (violation,) = resolution.violations
        assert violation.check_id == CHECK_INTERNAL_SCHEMA
        assert violation.severity == "error"
        assert violation.subject_uid == "OI_ETH"
        assert violation.message == "ambiguous schema link: 2 'describedBy' edges"
        with pytest.raises(TracegenError, match="'OI_ETH' has no 'describedBy' link"):
            summarize_traversal(graph, TTIM).require_resolved(
                resolve_optimizer_inputs(graph, TTIM))

    def test_diamond_yields_two_records_for_one_input(self):
        graph = diamond_graph()
        results = [listed(graph, uid) for uid in ("RS1", "RS2")]
        resolutions = resolve_optimizer_inputs(graph, TTIM)
        records = collect_optimizer_inputs(results)
        assert [r.uid for r in records] == ["OI1", "OI1"]
        assert records[0].nodes[-1] == "RS1"
        assert records[1].nodes[-1] == "RS2"
        # both records share the one resolved schema and value
        first, second = (record_reference(r, graph, resolutions[r.uid]) for r in records)
        assert first["schema"] is second["schema"]

    def test_document_order_is_scenario_then_path_order(self):
        # REQ1 reaches OI1 by two link types, so two paths share every node
        # and differ only in their link types
        elements = [
            mk_element("RS2", "runtime-scenario", links=[("scopes", "AL1")]),
            mk_element("RS1", "runtime-scenario", links=[("scopes", "AL1")], line=2),
            mk_element("AL1", "abstraction-level",
                       links=[("contains", "REQ1"), ("contains", "REQ2")], line=3),
            mk_element("REQ1", "requirement",
                       links=[("refines", "OI1"), ("realizes", "OI1")], line=4),
            mk_element("REQ2", "requirement", links=[("realizes", "OI0")], line=5),
            mk_element("OI1", "OptimizerInput", links=[("describedBy", "ST1")],
                       body=schema_body(1), line=6),
            mk_element("OI0", "OptimizerInput", links=[("describedBy", "ST1")],
                       body=schema_body(0), line=7),
            mk_element("ST1", "schema-type", body=schema_body({"type": "number"}), line=8),
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        summary = summarize_traversal(graph, TTIM)
        results = [traverse_from_scenario(summary, uid) for uid in summary.scenarios]
        resolutions = resolve_optimizer_inputs(graph, TTIM)
        records = collect_optimizer_inputs(results)
        assert records == [path for result in results for path in result.paths]
        expected = [
            (scenario, uid, link)
            for scenario in ("RS1", "RS2")
            for uid, link in (("OI0", "realizes"), ("OI1", "realizes"), ("OI1", "refines"))
        ]
        assert [(r.nodes[-1], r.uid, r.link_types[0]) for r in records] == expected
        document = yaml.safe_load(emit_yaml({}, records, graph, resolutions))
        assert [
            (r["trace"][-1]["uid"], r["uid"], r["trace"][0]["link_to_next"])
            for r in document["optimizer_inputs"]
        ] == expected


class TestDeepChain:
    def test_chain_past_the_recursion_limit(self):
        depth = 1500
        elements = [
            mk_element("RS1", "runtime-scenario", links=[("scopes", "AL1")]),
            mk_element("AL1", "abstraction-level", links=[("contains", "R0000")], line=2),
        ]
        for i in range(depth):
            nxt = ("refines", f"R{i + 1:04d}") if i + 1 < depth else ("realizes", "OI1")
            # a back edge on every requirement: each is pruned once, in DFS order
            links = [nxt, ("refines", "R0000")] if i else [nxt]
            elements.append(mk_element(f"R{i:04d}", "requirement", links=links, line=3 + i))
        elements.append(mk_element("OI1", "OptimizerInput", line=depth + 3))
        graph, _ = build_graph(elements, reverse_links=False)
        result = listed(graph)
        (path,) = result.paths
        assert len(path.nodes) == depth + 3
        assert path.nodes[0] == "OI1" and path.nodes[-1] == "RS1"
        assert [d.message for d in summarize_traversal(graph, TTIM).warnings("RS1")] == [
            f"cycle edge R{i:04d} -refines-> R0000 pruned during traversal"
            for i in range(1, depth)
        ]
