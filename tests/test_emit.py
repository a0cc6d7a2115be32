import random
import re
from itertools import zip_longest

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen import emit
from tracegen.checks import (
    CheckReport, Resolution, report_to_yaml, resolve_optimizer_inputs, run_all_checks,
)
from tracegen.emit import dump_yaml, emit_plantuml, emit_yaml, one_line
from tracegen.errors import Diagnostic
from tracegen.graph import TraceGraph
from tracegen.traversal import TracePath, collect_optimizer_inputs, summarize_traversal
from tracegen.ttim import default_extended_framework

from conftest import mk_element
from oracles import dump_reference, expected_records, intermediary_reference, load_intermediary
from test_traversal import diamond_graph, fig_graph, listed

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
    results = [listed(graph)]
    resolutions = resolve_optimizer_inputs(graph, TTIM)
    return collect_optimizer_inputs(results), graph, resolutions


def fig_overview():
    """What the PlantUML emitter reads for the fixture: (nodes, edges, graph,
    resolutions), the nodes and edges united by the traversal summary."""
    graph = fig_graph()
    summary = summarize_traversal(graph, TTIM)
    return (*summary.reached(summary.scenarios), graph, resolve_optimizer_inputs(graph, TTIM))


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


# Strings on each edge of what the writer's fast path covers; it writes each of
# them (the non-ASCII ones only with allow_unicode).
EDGE_STRINGS = [
    *["null", "Null", "NULL", "true", "True", "TRUE", "false", "False", "FALSE"],
    *["yes", "Yes", "YES", "no", "No", "NO", "on", "On", "ON", "off", "Off", "OFF", "y", "n"],
    *["1e3", "1.0e+3", "0x1F", "0o17", "1_000", "1:20", "2001-12-14", ".inf", "-.Inf", ".nan"],
    *["~", "=", "<<", "-", "- ", "- a", "-a", "? ", "?a", ": ", ":a", "'a", '"a', "--- a", "...a"],
    *["a'b", "it's a", "a: b", "a:b", "a #b", "a#b", "a:", "a '", "a  b", " a", "a ", "  ", ""],
    *["#a", ",a", "[a", "]a", "{a", "}a", "&a", "*a", "!a", "|a", ">a", "%a", "@a", "`a"],
    "caf\xe9 \u4e2d a\U0001f600",
    "\u4e2d" * 43,
    # after "k: ", a first word that ends at columns 79-82, plain and single-quoted
    *[f"{'a' * (end - 3)} bc" for end in range(79, 83)],
    *[f"{'a' * (end - 4)} b: c" for end in range(79, 83)],
    *["ab " * n + "c" for n in (26, 27, 40)],
    *["it's " * n + "a: b" for n in (15, 16, 30)],
    *["x  " * 30, " " + "ab " * 30, "ab " * 30 + " ", "'" + " ab" * 30 + " '"],
]


PIECES = st.sampled_from(ASCII + BMP + SPECIAL + WORDS)
TEXT = st.lists(PIECES, max_size=40).map("".join)
# keys PyYAML writes as "? key": empty, of 123 characters or more, or holding a line break
KEY = st.one_of(
    TEXT,
    st.just(""),
    st.lists(PIECES, min_size=123, max_size=200).map("".join),
    st.tuples(TEXT, st.sampled_from("\n\x85\u2028\u2029"), TEXT).map("".join),
)


class TestDumpYaml:
    def test_same_bytes_as_python_emitter_on_random_documents(self):
        rng = random.Random(20240427)
        alphabets = [ASCII, ASCII + BMP, ASCII + BMP + SPECIAL]
        for _ in range(1000):
            doc = {"root": random_document(rng, rng.choice(alphabets))}
            for allow_unicode in (True, False):
                assert dump_yaml(doc, allow_unicode) == dump_reference(doc, allow_unicode), doc

    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_edge_strings_written_like_python_emitter(self, text):
        # the same string at several start columns and indents, and as a key
        doc = {"k": text, "seq": [text, [text]], "deep": {"a" * 20: {"b": [{"c": text}]}},
               text: [text]}
        for allow_unicode in (True, False):
            assert dump_yaml(doc, allow_unicode) == dump_reference(doc, allow_unicode)

    @pytest.mark.parametrize("length", [99, 100, 122, 123, 128])
    def test_key_lengths(self, length):
        # PyYAML writes keys of 123 characters or more as "? key"
        doc = {"k" * length: "v", "x" * length: {"y": 1}, "y" * length: [[1], {"z": []}]}
        assert dump_yaml(doc, False) == dump_reference(doc, False)
        assert ("\n? " in dump_yaml(doc, False)) == (length >= 123)

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            KEY,
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
                lambda children: st.lists(children, max_size=4)
                | st.dictionaries(KEY, children, max_size=4),
                max_leaves=20,
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_same_bytes_as_python_emitter_on_json_shaped_documents(self, doc, allow_unicode):
        assert dump_yaml(doc, allow_unicode) == dump_reference(doc, allow_unicode)

    @pytest.mark.parametrize(
        "data, allow_unicode",
        [
            pytest.param({"k": "a\U0001f600"}, False, id="astral"),
            pytest.param({"k": "a\x85b"}, True, id="nel"),
            pytest.param({"k": "ab " * 30 + "\u2028"}, True, id="u2028"),
            pytest.param({"k": "\ufeff" + "ab " * 30}, True, id="bom"),
            pytest.param({"k": "word\t " * 30}, True, id="tab-fold"),
            pytest.param({"k": "word \n" * 30}, True, id="newline-fold"),
            pytest.param({"k": "word\x01 " * 30}, True, id="control-fold"),
            pytest.param({"k": "caf\xe9 " * 30}, False, id="non-ascii-fold"),
            pytest.param({"": 1}, True, id="empty-key"),
            pytest.param({"k" * 123: 1}, True, id="long-key"),
            pytest.param({"\u4e2d" * 123: 1}, True, id="long-bmp-key"),
            pytest.param({"a\nb": 1, "c\x85": [1, [2]], "\u2028": {"d": {}}}, True,
                         id="multi-line-keys"),
            pytest.param([{"": [], "k" * 130: {"x": [1, 2]}}, {"a b " * 40: "v " * 40}], False,
                         id="complex-keys-in-a-sequence"),
            pytest.param({"a\tb": {"c\td": "e\tf", "\xe9": ["\xe9 " * 30]}}, False,
                         id="double-quoted-keys"),
        ],
    )
    def test_escapes_line_breaks_and_complex_keys(self, data, allow_unicode):
        # strings PyYAML escapes, folds at line breaks or writes as "? key"
        assert dump_yaml(data, allow_unicode) == dump_reference(data, allow_unicode)

    def test_every_string_through_the_scalar_writer(self, monkeypatch):
        # every key and value needs PyYAML's own scalar writer
        text = "tab\there, caf\xe9 " * 8
        doc = {"a\tb": text, "c\x85d": [text, {"\xe9": [text, "\u2028"]}], "x\ny": "\ufeff"}
        calls = []
        real = emit._emitted
        monkeypatch.setattr(emit, "_emitted",
                            lambda value, *args: calls.append(value) or real(value, *args))
        emit._key_head.cache_clear()
        assert dump_yaml(doc, False) == dump_reference(doc, False)
        assert set(calls) == {"a\tb", text, "c\x85d", "\xe9", "\u2028", "x\ny", "\ufeff"}

    def test_tool_documents_never_need_the_scalar_writer(self, monkeypatch):
        calls = []
        monkeypatch.setattr(emit, "_emitted", lambda *args: calls.append(args))
        emit._key_head.cache_clear()
        paths, graph, resolutions = fig_document()
        emit_yaml(CONFIG, paths, graph, resolutions)
        report_to_yaml(run_all_checks(graph, TTIM, CONFIG, resolve_optimizer_inputs(graph, TTIM)))
        message = "placement '/properties/x' targets {'type': 'number'}: " + "it's #1, " * 20
        violations = [Diagnostic("warning", message, "a.md", 3, "semantic_equivalence", "OI_X")]
        text = report_to_yaml(CheckReport(violations, {"semantic_equivalence": (0, 1)}))
        assert "  message: 'placement ''/properties/x''" in text  # single-quoted
        assert "\n    it''s #1, it''s" in text  # and folded
        assert calls == []

    def test_fixture_document_written_like_python_emitter(self):
        doc = fig_document()
        assert emit_yaml(CONFIG, *doc) == intermediary_reference(CONFIG, *doc)

    @pytest.mark.parametrize("writer", [True, False])
    def test_shared_dict_written_without_aliases(self, writer):
        paths, graph, resolutions = fig_document()
        shared = {"type": "number"}
        resolutions = {uid: r._replace(schema=shared) for uid, r in resolutions.items()}
        text = (emit_yaml if writer else intermediary_reference)(CONFIG, paths, graph, resolutions)
        assert "&id" not in text and "*id" not in text
        assert text.count("type: number") >= 2


def random_intermediary(rng):
    """An intermediary document's inputs where inputs recur across paths and
    scenarios and paths share steps: (config_schema, paths, graph, resolutions)."""
    alphabet = rng.choice([ASCII, ASCII + BMP, ASCII + BMP + SPECIAL])

    def text(max_len):
        return random_string(rng, alphabet, max_len)

    def label():
        # long enough, at times, to fold past column 80 after "  label: "
        kind = rng.randrange(4)
        if kind == 0:
            return None
        if kind == 1:
            return " ".join(text(12) for _ in range(rng.randint(6, 14)))
        return text(rng.choice([10, 40, 130]))

    uids = list(dict.fromkeys(text(rng.choice([4, 20])) for _ in range(rng.randint(3, 12))))
    types, links = [text(12) for _ in range(3)], [text(12) for _ in range(3)]
    elements = {
        uid: mk_element(uid, rng.choice(types), label=label(),
                        placement=rng.choice([None, text(60)]), file=text(rng.choice([8, 90])))
        for uid in uids
    }
    inputs = rng.sample(uids, rng.randint(1, min(3, len(uids))))
    resolutions = {
        uid: Resolution((), schema=random_document(rng, alphabet),
                        value=random_document(rng, alphabet))
        for uid in inputs
    }
    paths = []
    for _ in range(rng.choice([0, rng.randint(1, 12)])):
        nodes = [rng.choice(inputs)] + rng.sample(uids, rng.randint(0, min(4, len(uids))))
        paths.append(TracePath(tuple(nodes), tuple(rng.choice(links) for _ in nodes[1:])))
    config_schema = rng.choice(
        [{}, {"type": "object", "properties": random_document(rng, alphabet)}])
    graph = TraceGraph(elements=elements, edges=(), by_type={}, adjacency={})
    return config_schema, paths, graph, resolutions


class TestSharedRecords:
    def test_same_bytes_as_python_emitter(self):
        rng = random.Random(20261019)
        shapes = set()
        for _ in range(300):
            doc = random_intermediary(rng)
            assert emit_yaml(*doc) == intermediary_reference(*doc), doc
            config_schema, paths, _, _ = doc
            shapes.add((bool(paths), bool(config_schema), len(paths) > len({p.uid for p in paths})))
        # with and without paths, an empty config schema, and recurring inputs
        assert shapes >= {(False, False, False), (True, False, True), (True, True, True)}

    @pytest.mark.parametrize("document", ["recurring-input", "shared-schema"])
    def test_each_input_step_and_schema_written_once(self, monkeypatch, document):
        if document == "recurring-input":  # one input that two scenarios reach through one level
            graph = diamond_graph()
            paths = collect_optimizer_inputs([listed(graph, uid) for uid in ("RS1", "RS2")])
            resolutions = resolve_optimizer_inputs(graph, TTIM)
        else:  # two inputs that link to one schema element, and so share its object
            paths, graph, resolutions = fig_document()
            shared = {"type": "number"}
            resolutions = {uid: r._replace(schema=shared) for uid, r in resolutions.items()}
        blocks, leaves, inside = [], [], []
        real_block, real_leaf = emit._block, emit._leaf

        def block(data, *args):
            blocks.append(data)
            inside.append(data)
            try:
                return real_block(data, *args)
            finally:
                inside.pop()

        def leaf(value, *args):
            if not inside:  # a field on its own key line, not a leaf of a nested block
                leaves.append(value)
            return real_leaf(value, *args)

        monkeypatch.setattr(emit, "_block", block)
        monkeypatch.setattr(emit, "_leaf", leaf)
        text = emit_yaml(CONFIG, paths, graph, resolutions)
        inputs = {path.uid for path in paths}
        schemas = {id(resolutions[uid].schema): resolutions[uid].schema for uid in inputs}
        distinct = {step for path in paths for step in zip_longest(path.nodes, path.link_types)}
        assert len(distinct) < sum(len(path.nodes) for path in paths) or len(schemas) < len(inputs)
        # the header and each distinct schema object: one block each; each distinct input's six
        # scalar fields and each distinct (uid, link) step's fields: one leaf each, and no
        # trace built to be discarded
        assert blocks == [{"config_schema": CONFIG}, *({"schema": s} for s in schemas.values())]
        assert len(leaves) == 6 * len(inputs) + sum(2 + (link is not None) for _, link in distinct)
        assert text == intermediary_reference(CONFIG, paths, graph, resolutions)

    @pytest.mark.parametrize("element, resolution", [
        pytest.param({"label": None}, {}, id="no-label"),
        pytest.param({"placement": None}, {}, id="no-placement"),
        pytest.param({}, {"schema": {}}, id="empty-schema"),
        pytest.param({}, {"value": {"b": [1, {"c": None}], "a": "x: y", "": {}}}, id="dict-value"),
        pytest.param({}, {"value": [1, "two", {"x": []}, [True, 0.5]]}, id="list-value"),
        pytest.param({}, {"value": {}}, id="empty-dict-value"),
        pytest.param({}, {"value": []}, id="empty-list-value"),
        pytest.param({}, {"value": None}, id="null-value"),
        pytest.param({"label": "yes"}, {}, id="quoted-label"),
        pytest.param({"label": "word " * 20 + "end"}, {}, id="folded-label"),
        pytest.param({"label": "it's: " + "word " * 20 + "end"}, {}, id="quoted-folded-label"),
        pytest.param({"label": "a line\nbreak"}, {}, id="line-break-label"),
        pytest.param({"file": "docs/" + "long name " * 10 + ".md"}, {}, id="folded-file-name"),
    ])
    def test_record_fields_written_like_python_emitter(self, element, resolution):
        paths, graph, resolutions = fig_document()
        graph = graph._replace(elements={
            **graph.elements, "OI_ETH": graph.elements["OI_ETH"]._replace(**element)})
        resolutions = {**resolutions, "OI_ETH": resolutions["OI_ETH"]._replace(**resolution)}
        assert emit_yaml(CONFIG, paths, graph, resolutions) == intermediary_reference(
            CONFIG, paths, graph, resolutions)


# Fragments of the strings PyYAML's resolvers read as a bool, null, merge key, value,
# int, float or timestamp, and the first characters its table is keyed on. No line
# break: a string with one never reaches the pattern, and "$" would match before it.
RESOLVER_PIECES = [
    *"0123456789_.:-+eEbxoabcdfABCDF TtZ~<=!&*\t",
    *["yes", "Yes", "YES", "yEs", "no", "No", "NO", "nO", "true", "True", "TRUE", "tRUE"],
    *["false", "False", "FALSE", "on", "On", "ON", "oN", "off", "Off", "OFF", "oFf"],
    *["null", "Null", "NULL", "nULL", "<<", "0b", "0x", "0o", "1_000", "0777", "0b1_0"],
    *[".inf", ".Inf", ".INF", ".iNF", ".nan", ".NaN", ".NAN", ".nAn", "e+3", "e3", "E-12"],
    *["1:20", ":59", ":60", ":5", "2001-12-14", "2001-1-4", "T21:59:43", " 21:59:43.10"],
    *["-05:00", " -5", "Z", ".10"],
]


def near_miss(rng):
    """A few resolver pieces, one of them at times replaced by another piece."""
    text = "".join(rng.choice(RESOLVER_PIECES) for _ in range(rng.randint(0, 6)))
    if text and rng.random() < 0.5:
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice(RESOLVER_PIECES) + text[i + 1:]
    return text


class TestImplicitResolvers:
    def test_same_answers_as_pyyaml_on_near_misses(self):
        table = yaml.SafeDumper.yaml_implicit_resolvers
        implicit, quoted = re.compile(emit._IMPLICIT), emit._patterns(False)[1]
        rng = random.Random(20261020)
        answers, tags_seen = {}, set()
        for _ in range(100_000):
            text = near_miss(rng)
            tags = {tag for tag, regexp in table.get(text[:1], ()) if regexp.match(text)}
            tags_seen |= tags
            # the yaml tag's "!", "&" and "*" are never plain: they fall under _NOT_PLAIN
            expected = bool(tags - {"tag:yaml.org,2002:yaml"})
            assert bool(implicit.fullmatch(text)) == expected, text
            assert bool(quoted(text)) == (expected or bool(re.match(emit._NOT_PLAIN, text))), text
            answers.setdefault(text[:1], set()).add(expected)
        # every first character the table is keyed on, each read both ways but "" (a null)
        # and "!", "&" and "*" (never implicit)
        assert set(table) <= set(answers)
        assert all(answers[c] == {False, True} for c in table if c not in ("", "!", "&", "*"))
        assert tags_seen == {tag for regexps in table.values() for tag, _ in regexps}
        assert all(quoted(c) for c in "!&*")


# The characters PyYAML writes unescaped, as the writer once matched them
UNESCAPED = {False: "[\x20-\x7e]",
             True: "[\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd\U00010000-\U0010fffe]"}


class TestEscaped:
    @pytest.mark.parametrize("allow_unicode, count", [(False, 0x110000 - 95), (True, 2_119)])
    def test_the_complement_of_the_unescaped_characters(self, allow_unicode, count):
        # every code point, matched in runs by each form: the two split them apart
        everything = "".join(map(chr, range(0x110000)))
        kept = "".join(re.findall(UNESCAPED[allow_unicode] + "+", everything))
        escaped = "".join(re.findall(emit._ESCAPED[allow_unicode] + "+", everything))
        assert len(escaped) == count and len(kept) + len(escaped) == len(everything)
        assert not re.search(emit._ESCAPED[allow_unicode], kept)


class TestOneLine:
    def test_only_tab_cr_and_lf_become_spaces(self):
        assert one_line("a\tb\rc\nd\r\n") == "a b c d  "
        kept = "\x0b\x0c\x85\xa0\u2028\u2029"
        assert one_line(kept) == kept

    def test_same_as_a_translation_table(self):
        rng = random.Random(7)
        table = str.maketrans("\t\r\n", "   ")
        for _ in range(500):
            text = random_string(rng, ASCII + BMP + SPECIAL + ["\x0b", "\x0c"], 80)
            assert one_line(text) == text.translate(table)


class TestPlantuml:
    def test_fixture_diagram(self):
        text = emit_plantuml(*fig_overview())
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
        paths, _, _ = fig_document()
        text = emit_plantuml(*fig_overview())
        distinct_uids = {uid for path in paths for uid in path.nodes}
        assert text.count("component ") == len(distinct_uids)

    def test_no_orphan_nodes(self):
        paths, _, _ = fig_document()
        text = emit_plantuml(*fig_overview())
        trace_uids = {uid for path in paths for uid in path.nodes}
        for line in text.splitlines():
            if line.startswith("component "):
                uid = line.split('"')[1].split("\\n")[0]
                assert uid in trace_uids

    def test_empty_document(self):
        text = emit_plantuml(set(), set(), fig_graph(), {})
        lines = text.strip().splitlines()
        assert lines[0] == "@startuml"
        assert lines[-1] == "@enduml"
        assert "component" not in text
        assert "legend" in text

    def test_edges_labeled_and_deduplicated(self):
        text = emit_plantuml(*fig_overview())
        arrows = [l for l in text.splitlines() if " --> " in l]
        assert len(arrows) == len(set(arrows))
        # shared scenario->abstraction edge appears once despite two paths
        assert sum(1 for l in arrows if ": scopes" in l) == 1
        assert all(" : " in l for l in arrows)

    def test_determinism(self):
        assert emit_plantuml(*fig_overview()) == emit_plantuml(*fig_overview())
