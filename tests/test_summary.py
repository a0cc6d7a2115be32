"""The traversal summary against the enumerator it replaced (oracles.py), and
the CLI behaviour that rests on it: the path cap, exact counts, the PlantUML
overview, and depth past the recursion limit."""

import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from click.testing import CliRunner

from tracegen import traversal
from tracegen.cli import cli
from tracegen.errors import TracegenError
from tracegen.graph import build_graph
from tracegen.traversal import summarize_traversal, traverse_from_scenario
from tracegen.ttim import default_extended_framework

import oracles
from conftest import DEFAULT_TTIM, mk_element, repo_files, write_repo
from test_traversal import LINK_TYPES, NODE_TYPES, random_dag

TTIM = default_extended_framework()
# a meta-model whose scenarios are optimizer inputs too
SCENARIO_INPUTS = TTIM._replace(optimizer_input_type=TTIM.scenario_type)
UNLIMITED = 10**9


def run(*args):
    return CliRunner().invoke(cli, [str(a) for a in args])


def assert_matches_reference(graph, ttim):
    """Each scenario's count, nodes, edges, inputs and warnings equal what the
    reference enumerator's paths give; the enumerator lists the same paths."""
    summary = summarize_traversal(graph, ttim, UNLIMITED)
    assert summary.scenarios == list(graph.by_type.get(ttim.scenario_type, ()))
    all_nodes, all_edges = set(), set()
    for scenario in summary.scenarios:
        reference = oracles.traverse_from_scenario(graph, ttim, scenario, max_paths=UNLIMITED)
        nodes = {uid for path in reference.paths for uid in path.nodes}
        edges = {
            edge for path in reference.paths
            for edge in zip(path.nodes[1:], path.link_types, path.nodes)
        }
        assert summary.count(scenario) == len(reference.paths)
        assert summary.reached([scenario]) == (nodes, edges)
        inputs = {uid for uid in nodes if graph.elements[uid].element_type == ttim.optimizer_input_type}
        assert inputs == {path.uid for path in reference.paths}
        assert summary.warnings(scenario) == reference.diagnostics
        assert traverse_from_scenario(summary, scenario).paths == reference.paths
        all_nodes |= nodes
        all_edges |= edges
    assert summary.reached(summary.scenarios) == (all_nodes, all_edges)
    return summary


def assert_capped_like_reference(graph, ttim, cap):
    """Under ``cap`` the summary counts the scenarios in order up to the first
    with more paths, and that one raises the reference's error."""
    summary = summarize_traversal(graph, ttim, cap)
    for scenario in summary.scenarios:
        try:
            expected = len(oracles.traverse_from_scenario(graph, ttim, scenario, cap).paths)
        except TracegenError as exc:
            with pytest.raises(TracegenError) as raised:
                summary.count(scenario)
            assert str(raised.value) == str(exc)
            assert summary.over_cap == scenario
            return summary
        assert summary.count(scenario) == expected
    assert summary.over_cap is None
    return summary


def alone_in_their_components(graph, ttim):
    """The nodes that share their SCC with no other node, schema links aside,
    worked out from ``graph.edges`` alone."""
    reach = {}
    for uid in graph.elements:
        found, todo = set(), [uid]
        while todo:
            node = todo.pop()
            for source, link_type, target in graph.edges:
                if source == node and link_type != ttim.schema_link and target not in found:
                    found.add(target)
                    todo.append(target)
        reach[uid] = found
    return {uid for uid, found in reach.items() if not any(uid in reach[v] for v in found - {uid})}


def random_cyclic_graph(rng, n, seen, forward_only=False):
    """Random digraph on ``n`` nodes, self-loops included; a linked pair gets
    two link types now and then, and the schema link is one of the types.
    ``forward_only`` drops each link back to the same or an earlier node but a
    self-loop, which leaves every node alone in its SCC."""
    uids = [f"N{i:02d}" for i in range(n)]
    types = {uid: rng.choice(NODE_TYPES) for uid in uids}
    types[uids[0]] = "runtime-scenario"
    density = rng.uniform(0.12, 0.35)
    links = {uid: [] for uid in uids}
    for source in uids:
        for target in uids:
            if rng.random() < density and (source <= target or not forward_only):
                kinds = rng.sample(LINK_TYPES + [TTIM.schema_link], rng.choice((1, 1, 1, 2)))
                links[source].extend((kind, target) for kind in kinds)
                seen["self-loop"] += source == target
                seen["two link types"] += len(kinds) == 2
                seen["schema link"] += TTIM.schema_link in kinds
    elements = [
        mk_element(uid, types[uid], links=links[uid], line=k + 1) for k, uid in enumerate(uids)
    ]
    graph, diagnostics = build_graph(elements, reverse_links=False)
    assert diagnostics == []
    return graph


class TestDifferential:
    def test_random_dags(self):
        rng = random.Random(123)
        for _ in range(200):
            graph, _, _ = random_dag(rng, rng.randint(2, 12), repeat=0.1)
            assert_matches_reference(graph, TTIM)

    @pytest.mark.parametrize("ttim", [TTIM, SCENARIO_INPUTS], ids=["default", "scenario-inputs"])
    def test_random_cyclic_graphs(self, ttim):
        rng = random.Random(2024)
        seen = Counter()
        # 400 graphs of any shape, then 1,000 whose every node is alone in its SCC
        for forward_only in [False] * 400 + [True] * 1000:
            graph = random_cyclic_graph(rng, rng.randint(2, 11), seen, forward_only)
            summary = assert_matches_reference(graph, ttim)
            counts = {uid: summary.count(uid) for uid in summary.scenarios}
            cap = rng.randint(-1, 6)
            capped = assert_capped_like_reference(graph, ttim, cap)
            seen["over the cap"] += capped.over_cap is not None
            # an entry alone in its SCC is summarized in one step over its edges
            alone = alone_in_their_components(graph, ttim)
            loops = {source for source, link_type, target in graph.edges
                     if source == target and link_type != ttim.schema_link}
            seen["alone with a self-loop and paths below"] += any(
                uid in alone & loops and any(below for _, below in entry.pieces)
                for uid, entry in summary.entries.items())
            seen["alone past the cap"] += any(
                uid in alone and entry.count > max(cap, 0) for uid, entry in capped.entries.items())
            seen["paths"] += any(counts.values())
            # paths past pruned cycle edges; past several, as in a larger SCC
            seen["paths past a cycle"] += any(
                counts[uid] and summary.warnings(uid) for uid in summary.scenarios)
            seen["paths past cycles"] += any(
                counts[uid] and len(summary.warnings(uid)) > 3 for uid in summary.scenarios)
        # every feature the graphs are meant to exercise did occur
        assert min(seen.values()) >= 100, seen

    def test_scenario_in_a_cycle_with_itself_as_input(self):
        # RS -> A -> RS: the scenario is its own SCC's entry and its own path
        graph, _ = build_graph([
            mk_element("RS", "runtime-scenario", links=[("scopes", "A"), ("refines", "RS")]),
            mk_element("A", "abstraction-level", links=[("contains", "RS")], line=2),
        ], reverse_links=False)
        summary = assert_matches_reference(graph, SCENARIO_INPUTS)
        assert summary.count("RS") == 1
        # neighbours in (link_type, target) order: refines before scopes
        assert [d.message for d in summary.warnings("RS")] == [
            "cycle edge RS -refines-> RS pruned during traversal",
            "cycle edge A -contains-> RS pruned during traversal",
        ]


class TestOneStepBelowANodeAlone:
    """A node alone in its SCC is summarized in the Tarjan pass from its own
    edges: the general search runs only below the entries of a component with
    two or more nodes."""

    @staticmethod
    def searched(monkeypatch):
        """The entries that _search_below is called for, in call order."""
        entries = []
        search_below = traversal._search_below

        def counted(graph, ttim, entry, *rest):
            entries.append(entry)
            return search_below(graph, ttim, entry, *rest)

        monkeypatch.setattr(traversal, "_search_below", counted)
        return entries

    def test_no_search_on_a_dag(self, monkeypatch):
        entries = self.searched(monkeypatch)
        rng = random.Random(5)
        for _ in range(100):
            graph, _, _ = random_dag(rng, rng.randint(2, 12), repeat=0.1)
            assert_matches_reference(graph, TTIM)
        assert entries == []

    def test_a_search_per_entry_of_the_one_cycle(self, monkeypatch):
        # A -> B -> C -> A, entered at A from RS and at B from X
        graph, _ = build_graph([
            mk_element("RS", "runtime-scenario", links=[("scopes", "A"), ("scopes", "X")]),
            mk_element("X", "abstraction-level", links=[("contains", "B")], line=2),
            mk_element("A", "requirement", links=[("refines", "B")], line=3),
            mk_element("B", "requirement", links=[("refines", "C")], line=4),
            mk_element("C", "requirement", links=[("refines", "A"), ("realizes", "OI")], line=5),
            mk_element("OI", "OptimizerInput", line=6),
        ], reverse_links=False)
        entries = self.searched(monkeypatch)
        summary = assert_matches_reference(graph, TTIM)
        assert entries == ["A", "B"]
        assert summary.count("RS") == 2


# RS0 reaches no input, RS1 has 2 paths and RS2 3; both warn about one cycle
CYCLE = """
<treqs-element id="REQ_CYC" type="requirement" label="Cycle">
<treqs-link type="refines" target="REQ_ETH" />
</treqs-element>
"""


def capped_repo(tmp_path):
    files = repo_files(extra_requirements=CYCLE)
    files["requirements.md"] = files["requirements.md"].replace(
        '<treqs-link type="realizes" target="OI_ETH" />',
        '<treqs-link type="realizes" target="OI_ETH" />\n'
        '<treqs-link type="refines" target="REQ_CYC" />',
    )
    files["scenarios.md"] += """
<treqs-element id="RS0" type="runtime-scenario" label="Parked">
</treqs-element>

<treqs-element id="RS2" type="runtime-scenario" label="Day driving">
<treqs-link type="scopes" target="AL1" />
<treqs-link type="scopes" target="AL2" />
</treqs-element>
"""
    files["architecture.md"] += """
<treqs-element id="AL2" type="abstraction-level" label="Model view">
<treqs-link type="contains" target="REQ_MODEL" />
</treqs-element>
"""
    return write_repo(tmp_path, files)


COUNTS = {"RS0": 0, "RS1": 2, "RS2": 3}
LABELS = {"RS0": "Parked", "RS1": "Night driving", "RS2": "Day driving"}
WARNING = ("warning: requirements.md:14: cycle edge REQ_CYC -refines-> REQ_ETH "
           "pruned during traversal\n")


class TestCap:
    """A scenario fails iff its count exceeds max(n, 0): scenarios run in uid
    order, list-scenarios prints the lines before the failing one, and a
    tripped cap in generate prints no cycle warning."""

    @pytest.mark.parametrize("cap", [0, -1, 3, 2])
    def test_list_scenarios(self, tmp_path, cap):
        repo, schema = capped_repo(tmp_path)
        result = run("list-scenarios", repo, "--config-schema", schema,
                     "--max-paths-per-scenario", cap)
        printed, failed = "", None
        for uid, count in COUNTS.items():
            if count > max(cap, 0):
                failed = uid
                break
            printed += f"{uid}\t{LABELS[uid]}\t{count}\n"
        assert result.stdout == printed
        if failed:
            assert (result.exit_code, result.stderr) == (
                1, f"error: scenario {failed!r} exceeds {cap} trace paths\n")
        else:
            assert (result.exit_code, result.stderr) == (0, "")

    @pytest.mark.parametrize("output_format", ["yaml", "plantuml"])
    @pytest.mark.parametrize("cap", [0, -1, 3, 2])
    def test_generate(self, tmp_path, cap, output_format):
        repo, schema = capped_repo(tmp_path)
        result = run("generate", repo, "--config-schema", schema, "--format", output_format,
                     "--max-paths-per-scenario", cap)
        failed = next((uid for uid, count in COUNTS.items() if count > max(cap, 0)), None)
        if failed:
            assert (result.exit_code, result.stdout, result.stderr) == (
                1, "", f"error: scenario {failed!r} exceeds {cap} trace paths\n")
        else:
            # RS1 and RS2 each prune the cycle edge once
            assert (result.exit_code, result.stderr) == (0, WARNING * 2)
            assert result.stdout


def ladder_repo(tmp_path, diamonds):
    """The fixture with AL1 containing only the top of a ladder of
    ``diamonds`` diamonds whose bottom realizes OI_ETH: 2**diamonds paths."""
    ladder = []
    for i in range(diamonds):
        ladder.append(
            f'<treqs-element id="D{i}" type="requirement">\n'
            f'<treqs-link type="refines" target="L{i}" />\n'
            f'<treqs-link type="refines" target="R{i}" />\n</treqs-element>\n')
        for side in "LR":
            ladder.append(
                f'<treqs-element id="{side}{i}" type="requirement">\n'
                f'<treqs-link type="refines" target="D{i + 1}" />\n</treqs-element>\n')
    ladder.append(
        f'<treqs-element id="D{diamonds}" type="requirement">\n'
        '<treqs-link type="realizes" target="OI_ETH" />\n</treqs-element>\n')
    files = repo_files()
    files["ladder.md"] = "".join(ladder)
    files["architecture.md"] = files["architecture.md"].replace(
        '<treqs-link type="contains" target="REQ_ETH" />\n'
        '<treqs-link type="contains" target="REQ_MODEL" />',
        '<treqs-link type="contains" target="D0" />',
    )
    return write_repo(tmp_path, files)


def requirements_repo(tmp_path, links, contained):
    """The fixture with AL1 containing only ``contained``, and the
    requirements whose (link type, target) lists ``links`` maps."""
    files = repo_files()
    files["extra.md"] = "".join(
        f'<treqs-element id="{uid}" type="requirement">\n'
        + "".join(f'<treqs-link type="{lt}" target="{t}" />\n' for lt, t in targets)
        + "</treqs-element>\n"
        for uid, targets in links.items())
    files["architecture.md"] = files["architecture.md"].replace(
        '<treqs-link type="contains" target="REQ_ETH" />\n'
        '<treqs-link type="contains" target="REQ_MODEL" />\n',
        "".join(f'<treqs-link type="contains" target="{uid}" />\n' for uid in contained),
    )
    return write_repo(tmp_path, files)


def chain_repo(tmp_path, depth, back_edges):
    """AL1 contains only CH0 of a ``refines`` chain of ``depth`` requirements
    whose last one realizes OI_ETH; with ``back_edges`` each requirement after
    CH0 also refines CH0, so the chain is one SCC."""
    links = {}
    for i in range(depth):
        target = ("refines", f"CH{i + 1}") if i + 1 < depth else ("realizes", "OI_ETH")
        links[f"CH{i}"] = [target] + ([("refines", "CH0")] if back_edges and i else [])
    return requirements_repo(tmp_path, links, ["CH0"])


def clique(prefix, size):
    """``size`` requirements that all refine each other."""
    uids = [f"{prefix}{i:02d}" for i in range(size)]
    return {uid: [("refines", other) for other in uids if other != uid] for uid in uids}


@pytest.mark.parametrize("command", [
    ("list-scenarios",), ("generate", "--format", "yaml"), ("generate", "--format", "plantuml"),
], ids=["list-scenarios", "generate-yaml", "generate-plantuml"])
def test_dense_component_fails_at_the_cap(tmp_path, command):
    """In a clique of 12 requirements of which the last realizes an input,
    nearly every simple path is a trace path: millions. The cap stops the
    search soon after the 10,000th, as it stopped the enumerator."""
    links = clique("CQ", 12)
    links["CQ11"].append(("realizes", "OI_ETH"))
    repo, schema = requirements_repo(tmp_path, links, ["CQ00"])
    start = time.perf_counter()
    result = run(*command[:1], repo, "--config-schema", schema, *command[1:])
    assert time.perf_counter() - start < 1
    assert (result.exit_code, result.stdout, result.stderr) == (
        1, "", "error: scenario 'RS1' exceeds 10000 trace paths\n")


def test_cap_stops_before_a_later_component(tmp_path):
    """The enumerator failed before it reached a component later in its
    order; so does the summary, even when the entry past the cap is not the
    first of its component to be summarized.

    AL1 contains P, Q00 and Z00. P, the 8-clique Q and the edge Q03 -> P
    form one component, found from P: P's only path is its own input. Entered
    at Q00, paths through Q03 and P pass the cap of 100. Z is a 10-clique
    without an input, a million simple paths from Z00 that the enumerator
    never listed."""
    links = {"P": [("realizes", "OI_ETH"), ("refines", "Q00")], **clique("Q", 8), **clique("Z", 10)}
    links["Q03"].append(("refines", "P"))
    repo, schema = requirements_repo(tmp_path, links, ["P", "Q00", "Z00"])
    start = time.perf_counter()
    result = run("list-scenarios", repo, "--config-schema", schema,
                 "--max-paths-per-scenario", 100)
    assert time.perf_counter() - start < 2
    assert (result.exit_code, result.stdout, result.stderr) == (
        1, "", "error: scenario 'RS1' exceeds 100 trace paths\n")


def test_paths_through_a_long_cycle_share_their_edges():
    """A cycle of 5,000 requirements, each of which realizes OI: the 5,000
    paths hold 12.5 million edges between them, but the summary keeps each
    edge it walks once, shared by every path through it."""
    n = 5_000
    elements = [
        mk_element("RS1", "runtime-scenario", links=[("scopes", "AL1")]),
        mk_element("AL1", "abstraction-level", links=[("contains", "CH0")], line=2),
        mk_element("OI", "OptimizerInput", line=3),
    ]
    for i in range(n):
        # a refines chain, and each requirement after CH0 also refines CH0
        links = [("realizes", "OI")] + [("refines", f"CH{i + 1}")] * (i + 1 < n)
        links += [("refines", "CH0")] * (i > 0)
        elements.append(mk_element(f"CH{i}", "requirement", links=links, line=4 + i))
    graph, diagnostics = build_graph(elements, reverse_links=False)
    assert diagnostics == []
    tracemalloc.start()
    try:
        summary = summarize_traversal(graph, TTIM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.count("RS1") == n
    # scopes, contains, the chain and every realizes: the back edges are pruned
    assert len(summary.reached(["RS1"])[1]) == 2 + (n - 1) + n
    assert peak < 20 * 2**20  # about 4 MB; a copy of each path takes about 100 MB


class TestExactCounts:
    def test_ladder_of_64_diamonds(self, tmp_path):
        repo, schema = ladder_repo(tmp_path, 64)
        cap = ("--max-paths-per-scenario", 10**30)
        listing = run("list-scenarios", repo, "--config-schema", schema, *cap)
        assert (listing.exit_code, listing.stdout) == (0, "RS1\tNight driving\t18446744073709551616\n")
        start = time.perf_counter()
        overview = run("generate", repo, "--config-schema", schema, "--format", "plantuml", *cap)
        assert time.perf_counter() - start < 10
        assert (overview.exit_code, overview.stderr) == (0, "")
        lines = overview.stdout.splitlines()
        # RS1, AL1, OI_ETH and the ladder's 3 * 64 + 1 requirements; 4 arrows
        # per diamond plus scopes, contains and realizes
        assert sum(line.startswith("component ") for line in lines) == 3 + 3 * 64 + 1
        assert sum(" --> " in line for line in lines) == 4 * 64 + 3
        assert "n_L63 --> n_D64 : refines" in lines
        # the cap still holds the count
        capped = run("list-scenarios", repo, "--config-schema", schema,
                     "--max-paths-per-scenario", 2**64 - 1)
        assert (capped.exit_code, capped.stderr) == (
            1, f"error: scenario 'RS1' exceeds {2**64 - 1} trace paths\n")

    @pytest.mark.parametrize("back_edges", [False, True], ids=["chain", "cycle"])
    def test_20000_deep_without_recursion(self, tmp_path, back_edges):
        repo, schema = chain_repo(tmp_path, 20_000, back_edges)
        listing = run("list-scenarios", repo, "--config-schema", schema)
        assert (listing.exit_code, listing.stdout) == (0, "RS1\tNight driving\t1\n")
        overview = run("generate", repo, "--config-schema", schema, "--format", "plantuml")
        assert overview.exit_code == 0, overview.exception
        assert overview.stderr.count("\n") == (19_999 if back_edges else 0)
        # the chain's links, then realizes, scopes and contains
        assert overview.stdout.count(" --> ") == 19_999 + 3
        start = time.perf_counter()
        document = run("generate", repo, "--config-schema", schema, "--format", "yaml")
        assert time.perf_counter() - start < 10
        assert document.exit_code == 0, document.exception
        assert document.stderr == overview.stderr
        # one record, whose trace is OI_ETH, the chain from its end, AL1 and
        # RS1 (read from the block layout: a YAML loader takes seconds here)
        assert document.stdout.count("\n- ") == 1
        trace = re.findall(r"^    uid: (.*)$", document.stdout, re.MULTILINE)
        assert trace == ["OI_ETH", *(f"CH{i}" for i in reversed(range(20_000))), "AL1", "RS1"]


def test_unresolved_input_named_after_every_warning(tmp_path):
    """Under a meta-model with an optional schema link, the error names the
    first scenario's smallest input without one, not the smallest overall."""
    ttim_path = tmp_path / "ttim.yaml"
    ttim_path.write_text(DEFAULT_TTIM.replace("required: true", "required: false"))
    repo, schema = capped_repo(tmp_path)
    extra = ""
    for uid in ("OI_A", "OI_Y", "OI_Z"):
        extra += f'<treqs-element id="{uid}" type="OptimizerInput">\n</treqs-element>\n'
    with open(repo / "optimizer.md", "a", encoding="utf-8") as out:
        out.write(extra)
    # RS1 and RS2 reach REQ_ETH, which realizes OI_Z, and REQ_MODEL, which
    # realizes OI_Y; only RS2 reaches REQ_A, which realizes OI_A
    text = (repo / "requirements.md").read_text()
    for requirement_input, extra_input in (("OI_ETH", "OI_Z"), ("OI_MODEL", "OI_Y")):
        link = f'<treqs-link type="realizes" target="{requirement_input}" />'
        text = text.replace(link, f'{link}\n<treqs-link type="realizes" target="{extra_input}" />')
    (repo / "requirements.md").write_text(text)
    al2 = (repo / "architecture.md").read_text().replace(
        '<treqs-element id="AL2" type="abstraction-level" label="Model view">\n'
        '<treqs-link type="contains" target="REQ_MODEL" />',
        '<treqs-element id="AL2" type="abstraction-level" label="Model view">\n'
        '<treqs-link type="contains" target="REQ_A" />')
    (repo / "architecture.md").write_text(
        al2 + '<treqs-element id="REQ_A" type="requirement">\n'
              '<treqs-link type="realizes" target="OI_A" />\n</treqs-element>\n')
    outputs = []
    for output_format in ("yaml", "plantuml"):
        result = run("generate", repo, "--config-schema", schema, "--ttim", ttim_path,
                     "--format", output_format)
        outputs.append((result.exit_code, result.stdout, result.stderr))
    warning = WARNING.replace(":14:", ":16:")
    assert outputs == [(1, "", warning * 2 + "error: 'OI_Y' has no 'describedBy' link\n")] * 2
