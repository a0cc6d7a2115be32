import dataclasses
import random

import pytest
import yaml

from tracegen import emit
from tracegen.checks import report_to_yaml, resolve_optimizer_inputs, run_all_checks
from tracegen.emit import dump_yaml, emit_plantuml, emit_yaml
from tracegen.traversal import collect_optimizer_inputs, traverse_from_scenario
from tracegen.ttim import default_extended_framework

from oracles import expected_records, load_intermediary
from test_traversal import fig_graph

TTIM = default_extended_framework()

CONFIG = {
    "type": "object",
    "properties": {
        "ethernet_latency": {"type": "number"},
        "model_latency": {"type": "number"},
    },
}


def fig_document():
    """The fixture's records with what the emitters read them against:
    (paths, graph, resolutions)."""
    graph = fig_graph()
    results = [traverse_from_scenario(graph, TTIM, "RS1")]
    resolutions = resolve_optimizer_inputs(graph, TTIM)
    return collect_optimizer_inputs(results, TTIM, resolutions), graph, resolutions


class TestYaml:
    def test_empty_inputs(self):
        data = yaml.safe_load(emit_yaml(CONFIG, [], fig_graph(), {}))
        assert set(data) == {"config_schema", "optimizer_inputs"}
        assert data["optimizer_inputs"] == []
        assert data["config_schema"] == CONFIG

    def test_fixture_has_two_records_with_traces(self):
        data = yaml.safe_load(emit_yaml(CONFIG, *fig_document()))
        records = data["optimizer_inputs"]
        assert len(records) == 2
        for record in records:
            assert record["trace"][0]["uid"] == record["uid"]
            assert record["trace"][-1]["uid"] == "RS1"
            assert all("link_to_next" in hop for hop in record["trace"][:-1])
            assert "link_to_next" not in record["trace"][-1]

    def test_record_fields_present(self):
        data = yaml.safe_load(emit_yaml(CONFIG, *fig_document()))
        record = data["optimizer_inputs"][0]
        assert set(record) == {
            "file_name", "label", "placement", "treqs_type", "uid",
            "trace", "schema", "value",
        }

    def test_round_trip(self):
        paths, graph, resolutions = fig_document()
        assert len(paths) == 2
        assert load_intermediary(emit_yaml(CONFIG, paths, graph, resolutions)) == (
            CONFIG, expected_records(paths, graph, resolutions))

    def test_round_trip_empty(self):
        assert load_intermediary(emit_yaml(CONFIG, [], fig_graph(), {})) == (CONFIG, [])

    def test_byte_identical_across_runs(self):
        assert emit_yaml(CONFIG, *fig_document()) == emit_yaml(CONFIG, *fig_document())


def dump_with(dumper, data, allow_unicode):
    """One emitter with dump_yaml's settings; the pure-Python one is the reference."""
    return yaml.dump(
        data, Dumper=dumper, sort_keys=True, default_flow_style=False, allow_unicode=allow_unicode
    )


ASCII = [chr(c) for c in range(0x20, 0x7F)]
BMP = list("\xa0\xe9\xdf\u4e2d\u2027\u202a\ud7ff\ue000\ufefe\uff00\ufffd")
SPECIAL = list("\t\n\r\x00\x1b\x7f\x85\x9f\u2028\u2029\ufeff\U0001f600")
# Fragments the YAML resolver or emitter treat specially.
WORDS = [
    "null", "true", "No", "~", "-", "- a", ": ", " #", "'", '"', "0x1F", "1e3", "0o17",
    "<<", "=", "&a", "*a", "!t", "%", "@", "`", "---", "...", "? ", "[", "]", "{", "}",
    ",", " ", "  ", "\\", "|", ">",
]


def random_string(rng, alphabet, max_len):
    parts = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.15:
            parts.append(rng.choice(WORDS))
        else:
            parts.append(rng.choice(alphabet))
    return "".join(parts)[:max_len]


def random_scalar(rng, alphabet):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-(10**20), 10**20)
    if kind == 1:
        return rng.choice([0.5, -0.0, 1e300, float("inf"), rng.random()])
    if kind == 2:
        return rng.choice([True, False, None])
    return random_string(rng, alphabet, rng.choice([8, 30, 130]))


def random_document(rng, alphabet, depth=0):
    kind = rng.randrange(3) if depth < 3 else 2
    if kind == 0:
        return {
            random_string(rng, alphabet, rng.choice([3, 20, 50, 130])): random_document(
                rng, alphabet, depth + 1
            )
            for _ in range(rng.randint(1, 4))
        }
    if kind == 1:
        return [random_document(rng, alphabet, depth + 1) for _ in range(rng.randint(0, 3))]
    return random_scalar(rng, alphabet)


class TestDumpYaml:
    def test_same_bytes_as_python_emitter_on_random_documents(self):
        rng = random.Random(20240427)
        alphabets = [ASCII, ASCII + BMP, ASCII + BMP + SPECIAL]
        through_libyaml = 0
        for _ in range(1000):
            doc = {"root": random_document(rng, rng.choice(alphabets))}
            for allow_unicode in (True, False):
                expected = dump_with(emit._PY_DUMPER, doc, allow_unicode)
                assert dump_yaml(doc, allow_unicode) == expected, doc
                through_libyaml += emit._libyaml_same(doc, allow_unicode)
        # the comparison is only worth something if libyaml wrote a good share
        assert through_libyaml > 400

    @pytest.mark.parametrize(
        "data, allow_unicode",
        [
            pytest.param({"k": "a\U0001f600"}, True, id="astral"),
            pytest.param({"k": "a\x85b"}, True, id="nel"),
            pytest.param({"k": "ab " * 30 + "\u2028"}, True, id="u2028"),
            pytest.param({"k": "\ufeff" + "ab " * 30}, True, id="bom"),
            pytest.param({"k": "word\t " * 30}, True, id="tab-fold"),
            pytest.param({"k": "word \n" * 30}, True, id="newline-fold"),
            pytest.param({"k": "word\x01 " * 30}, True, id="control-fold"),
            pytest.param({"k": "caf\xe9 " * 30}, False, id="non-ascii-fold"),
            pytest.param({"": 1}, True, id="empty-key"),
            pytest.param({"k" * 125: 1}, True, id="long-key"),
            pytest.param({"\u4e2d" * 43: 1}, True, id="long-bmp-key"),
        ],
    )
    def test_counterexamples_fall_back(self, data, allow_unicode):
        expected = dump_with(emit._PY_DUMPER, data, allow_unicode)
        assert dump_yaml(data, allow_unicode) == expected
        if emit._C_DUMPER is not None:
            assert dump_with(emit._C_DUMPER, data, allow_unicode) != expected

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="libyaml not available")
    def test_libyaml_chosen_for_plain_documents(self, monkeypatch):
        chosen = []
        real_dump = yaml.dump

        def spy(data, **kwargs):
            chosen.append(kwargs["Dumper"])
            return real_dump(data, **kwargs)

        monkeypatch.setattr(yaml, "dump", spy)
        paths, graph, resolutions = fig_document()
        emit_yaml(CONFIG, paths, graph, resolutions)
        report_to_yaml(run_all_checks(graph, TTIM, CONFIG, resolve_optimizer_inputs(graph, TTIM)))
        rng = random.Random(7)
        generated = {
            f"key {i}": [random_string(rng, ASCII, 130) for _ in range(5)] for i in range(50)
        }
        dump_yaml(generated, allow_unicode=False)
        assert chosen == [emit._C_DUMPER] * 3

    def test_python_emitter_without_libyaml(self, monkeypatch):
        doc = fig_document()
        expected = emit_yaml(CONFIG, *doc)
        monkeypatch.setattr(emit, "_C_DUMPER", None)
        assert emit_yaml(CONFIG, *doc) == expected

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_shared_dict_written_without_aliases(self, monkeypatch, libyaml):
        if not libyaml:
            monkeypatch.setattr(emit, "_C_DUMPER", None)
        paths, graph, resolutions = fig_document()
        shared = {"type": "number"}
        resolutions = {uid: dataclasses.replace(r, schema=shared) for uid, r in resolutions.items()}
        text = emit_yaml(CONFIG, paths, graph, resolutions)
        assert "&id" not in text and "*id" not in text
        assert text.count("type: number") >= 2


class TestPlantuml:
    def test_fixture_diagram(self):
        text = emit_plantuml(*fig_document())
        assert text.startswith("@startuml")
        assert text.rstrip().endswith("@enduml")
        # one scenario node, two optimizer-input leaves
        assert text.count('"RS1\\n') == 1
        assert 'component "OI_ETH\\nOptimizerInput\\nEthernet latency"' in text
        assert 'component "OI_MODEL\\nOptimizerInput\\nModel latency"' in text
        legend = text.split("legend")[1].split("endlegend")[0]
        assert legend.count("/properties/") == 2
        assert "(number)" in legend

    def test_node_count_matches_trace_uids(self):
        paths, graph, resolutions = fig_document()
        text = emit_plantuml(paths, graph, resolutions)
        distinct_uids = {uid for path in paths for uid in path.nodes}
        assert text.count("component ") == len(distinct_uids)

    def test_no_orphan_nodes(self):
        paths, graph, resolutions = fig_document()
        text = emit_plantuml(paths, graph, resolutions)
        trace_uids = {uid for path in paths for uid in path.nodes}
        for line in text.splitlines():
            if line.startswith("component "):
                uid = line.split('"')[1].split("\\n")[0]
                assert uid in trace_uids

    def test_empty_document(self):
        text = emit_plantuml([], fig_graph(), {})
        lines = text.strip().splitlines()
        assert lines[0] == "@startuml"
        assert lines[-1] == "@enduml"
        assert "component" not in text
        assert "legend" in text

    def test_edges_labeled_and_deduplicated(self):
        text = emit_plantuml(*fig_document())
        arrows = [l for l in text.splitlines() if " --> " in l]
        assert len(arrows) == len(set(arrows))
        # shared scenario->abstraction edge appears once despite two paths
        assert sum(1 for l in arrows if ": scopes" in l) == 1
        assert all(" : " in l for l in arrows)

    def test_determinism(self):
        doc = fig_document()
        assert emit_plantuml(*doc) == emit_plantuml(*doc)
