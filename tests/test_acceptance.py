"""End-to-end acceptance criteria. Each test prints one PASS line; a failed
assertion marks the criterion failed."""

import json
import random
import time

import yaml
from click.testing import CliRunner

from tracegen.checks import (
    CHECK_INTERNAL_SCHEMA,
    CHECK_METAMODEL,
    CHECK_SEMANTIC_EQUIVALENCE,
    resolve_optimizer_inputs,
    run_all_checks,
)
from tracegen.cli import cli
from tracegen.elements import parse_file, scan_repository
from tracegen.emit import emit_plantuml, emit_yaml
from tracegen.graph import build_graph
from tracegen.schema import canonicalize, parse_schema, validate_instance
from tracegen.traversal import (
    collect_optimizer_inputs,
    summarize_traversal,
    traverse_from_scenario,
)
from tracegen.ttim import default_extended_framework

from conftest import CONFIG_SCHEMA, repo_files, write_repo
from oracles import brute_force_paths, expected_records, load_intermediary, naive_valid
from test_schema import fuzz_pairs
from test_traversal import listed, random_dag

TTIM = default_extended_framework()


def announce(number, description):
    print(f"PASS  criterion {number}: {description}")


def load_graph(repo):
    files, _ = scan_repository(repo)
    elements = []
    for file in files:
        parsed, diagnostics = parse_file(file)
        assert not any(d.severity == "error" for d in diagnostics)
        elements.extend(parsed)
    graph, diagnostics = build_graph(elements, reverse_links=False)
    assert diagnostics == []
    return graph


def run_cli(*args):
    return CliRunner().invoke(cli, [str(a) for a in args])


def cyclic_repo_files():
    """Fixture repo plus a two-requirement cycle reachable from the scenario."""
    files = repo_files(
        extra_requirements="""
<treqs-element id="REQ_CYC" type="requirement">
<treqs-link type="refines" target="REQ_ETH" />
</treqs-element>
"""
    )
    files["requirements.md"] = files["requirements.md"].replace(
        '<treqs-link type="realizes" target="OI_ETH" />',
        '<treqs-link type="realizes" target="OI_ETH" />\n'
        '<treqs-link type="refines" target="REQ_CYC" />',
    )
    return files


def test_criterion_1_fixture_reproduction(tmp_path):
    start = time.perf_counter()
    repo, schema_path = write_repo(tmp_path, repo_files())
    graph = load_graph(repo)
    summary = summarize_traversal(graph, TTIM)
    resolutions = resolve_optimizer_inputs(graph, TTIM)
    records = collect_optimizer_inputs([traverse_from_scenario(summary, "RS1")])
    assert len(records) == 2
    for record in records:
        assert graph.elements[record.uid].element_type == "OptimizerInput"
        assert record.nodes[-1] == "RS1"
        assert graph.elements[record.nodes[-1]].element_type == "runtime-scenario"
    uml = emit_plantuml(*summary.reached(["RS1"]), graph, resolutions)
    node_uids = {
        line.split('"')[1].split("\\n")[0]
        for line in uml.splitlines()
        if line.startswith("component ")
    }
    assert node_uids == {"RS1", "AL1", "REQ_ETH", "REQ_MODEL", "OI_ETH", "OI_MODEL"}
    legend = uml.split("\nlegend\n")[1].split("\nendlegend")[0]
    assert len(legend.strip().splitlines()) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"scenario with two branches yields 2 records and a 2-entry legend ({elapsed:.3f}s)")


def _single_error_in(report, check_id):
    for cid, (errors, _) in report.counts.items():
        expected = 1 if cid == check_id else 0
        assert errors == expected, f"{cid}: {errors} errors, expected {expected}"


def test_criterion_2a_metamodel_failure(tmp_path):
    extra = '\n<treqs-element id="BAD" type="reqirement">\n</treqs-element>\n'
    repo, schema_path = write_repo(tmp_path, repo_files(extra_requirements=extra))
    graph = load_graph(repo)
    report = run_all_checks(graph, TTIM, CONFIG_SCHEMA, resolve_optimizer_inputs(graph, TTIM))
    _single_error_in(report, CHECK_METAMODEL)
    assert run_cli("check", repo, "--config-schema", schema_path).exit_code == 1
    announce(2, "(a) undeclared element type: exactly one metamodel error, exit 1")


def test_criterion_2b_internal_schema_failure(tmp_path):
    repo, schema_path = write_repo(tmp_path, repo_files(oi_eth_value='"fast"'))
    graph = load_graph(repo)
    report = run_all_checks(graph, TTIM, CONFIG_SCHEMA, resolve_optimizer_inputs(graph, TTIM))
    _single_error_in(report, CHECK_INTERNAL_SCHEMA)
    assert run_cli("check", repo, "--config-schema", schema_path).exit_code == 1
    announce(2, "(b) schema-violating instance: exactly one internal_schema error, exit 1")


def test_criterion_2c_semantic_equivalence_failure(tmp_path):
    config = json.loads(json.dumps(CONFIG_SCHEMA))
    del config["properties"]["ethernet_latency"]["minimum"]
    repo, schema_path = write_repo(tmp_path, repo_files(), config)
    graph = load_graph(repo)
    report = run_all_checks(graph, TTIM, config, resolve_optimizer_inputs(graph, TTIM))
    _single_error_in(report, CHECK_SEMANTIC_EQUIVALENCE)
    assert run_cli("check", repo, "--config-schema", schema_path).exit_code == 1
    announce(2, "(c) diverging config subschema: exactly one semantic_equivalence error, exit 1")


def test_criterion_3_traversal_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240818)
    for _ in range(200):
        graph, types, scenario = random_dag(rng, rng.randint(2, 12))
        mine = {
            (tuple(reversed(p.nodes)), tuple(reversed(p.link_types)))
            for p in listed(graph, scenario).paths
        }
        oracle = brute_force_paths(
            graph.edges, types, scenario, "OptimizerInput", TTIM.schema_link
        )
        assert mine == oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(3, f"200 random DAGs match the brute-force enumerator exactly ({elapsed:.2f}s)")


def test_criterion_4_validator_oracle_equivalence():
    disagreements = 0
    for schema, instance in fuzz_pairs(1000):
        if (not validate_instance(schema, instance)) != naive_valid(schema, instance):
            disagreements += 1
    assert disagreements == 0
    announce(4, "1000 randomized schema/instance pairs: zero oracle disagreements")


def test_criterion_5_generate_determinism(tmp_path):
    repo, schema_path = write_repo(tmp_path, repo_files())
    yaml_runs = [
        run_cli("generate", repo, "--config-schema", schema_path, "--format", "yaml")
        for _ in range(2)
    ]
    uml_runs = [
        run_cli("generate", repo, "--config-schema", schema_path, "--format", "plantuml")
        for _ in range(2)
    ]
    assert all(r.exit_code == 0 for r in yaml_runs + uml_runs)
    assert yaml_runs[0].stdout_bytes == yaml_runs[1].stdout_bytes
    assert uml_runs[0].stdout_bytes == uml_runs[1].stdout_bytes
    announce(5, "consecutive generate runs are byte-identical for YAML and PlantUML")


def test_criterion_6_cyclic_graph_termination(tmp_path):
    repo, schema_path = write_repo(tmp_path, cyclic_repo_files())
    graph = load_graph(repo)
    start = time.perf_counter()
    summary = summarize_traversal(graph, TTIM)
    result = traverse_from_scenario(summary, "RS1")
    warnings = summary.warnings("RS1")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert any("cycle edge" in d.message for d in warnings)
    types = {uid: element.element_type for uid, element in graph.elements.items()}
    oracle = brute_force_paths(graph.edges, types, "RS1", "OptimizerInput", TTIM.schema_link)
    mine = {
        (tuple(reversed(p.nodes)), tuple(reversed(p.link_types))) for p in result.paths
    }
    assert mine == oracle
    assert {p.nodes[0] for p in result.paths} == {"OI_ETH", "OI_MODEL"}
    announce(6, f"requirement cycle: warned, terminated in {elapsed:.3f}s, all simple paths kept")


def test_criterion_7_yaml_round_trip(tmp_path):
    fixtures = [repo_files(), cyclic_repo_files()]
    for i, files in enumerate(fixtures):
        repo, _ = write_repo(tmp_path / f"fix{i}", files)
        graph = load_graph(repo)
        result = listed(graph)
        resolutions = resolve_optimizer_inputs(graph, TTIM)
        records = collect_optimizer_inputs([result])
        text = emit_yaml(CONFIG_SCHEMA, records, graph, resolutions)
        assert load_intermediary(text) == (
            CONFIG_SCHEMA, expected_records(records, graph, resolutions))
    assert load_intermediary(emit_yaml(CONFIG_SCHEMA, [], graph, {})) == (CONFIG_SCHEMA, [])
    announce(7, "emitted YAML reads back into every record's element, trace, schema and value")


def test_criterion_8_config_schema_echo(tmp_path):
    repo, schema_path = write_repo(tmp_path, repo_files())
    result = run_cli("generate", repo, "--config-schema", schema_path, "--format", "yaml")
    assert result.exit_code == 0
    emitted = yaml.safe_load(result.stdout)["config_schema"]
    original = parse_schema(json.loads(schema_path.read_text()))
    assert canonicalize(emitted) == canonicalize(original)
    announce(8, "output config_schema section is canonically equal to the input schema file")
