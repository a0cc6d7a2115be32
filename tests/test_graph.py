import random

from tracegen.graph import build_graph

from conftest import mk_element


class TestBuildGraph:
    def test_two_nodes_one_edge(self):
        graph, diagnostics = build_graph(
            [
                mk_element("A", "requirement", links=[("refines", "B")]),
                mk_element("B", "requirement", line=5),
            ],
            reverse_links=False,
        )
        assert diagnostics == []
        assert set(graph.elements) == {"A", "B"}
        assert graph.edges == (("A", "refines", "B"),)

    def test_dangling_link_dropped(self):
        graph, diagnostics = build_graph(
            [mk_element("A", "requirement", links=[("refines", "X")])], reverse_links=False
        )
        assert set(graph.elements) == {"A"}
        assert graph.edges == ()
        assert "dangling" in diagnostics[0].message

    def test_repeated_link_kept_once_with_a_warning(self):
        graph, diagnostics = build_graph(
            [
                mk_element("A", "t", links=[("l", "B"), ("l", "B"), ("m", "B"), ("l", "B")]),
                mk_element("B", "t", line=2),
            ],
            reverse_links=False,
        )
        assert graph.edges == (("A", "l", "B"), ("A", "m", "B"))
        assert graph.outgoing("A") == (("l", "B"), ("m", "B"))
        assert [str(d) for d in diagnostics] == ["warning: mem.md:1: duplicate link 'l' to 'B'"] * 2

    def test_duplicate_uid_keeps_earliest_file(self):
        graph, diagnostics = build_graph(
            [
                mk_element("A", "requirement", file="f2.md"),
                mk_element("A", "design-decision", file="f1.md"),
            ],
            reverse_links=False,
        )
        assert graph.elements["A"].file == "f1.md"
        assert "duplicate uid" in diagnostics[0].message

    def test_duplicate_uid_line_tiebreak(self):
        graph, _ = build_graph(
            [
                mk_element("A", "requirement", file="f.md", line=9),
                mk_element("A", "design-decision", file="f.md", line=2),
            ],
            reverse_links=False,
        )
        assert graph.elements["A"].line == 2

    def test_idempotent_rebuild(self):
        graph, _ = build_graph(
            [
                mk_element("A", "t", links=[("l", "B")]),
                mk_element("B", "t", line=2),
            ],
            reverse_links=False,
        )
        rebuilt, diagnostics = build_graph(list(graph.elements.values()), reverse_links=False)
        assert diagnostics == []
        assert rebuilt.edges == graph.edges
        assert rebuilt.by_type == graph.by_type

    def test_reverse_links_flip_every_edge(self):
        # a random graph with repeated and dangling links: the flipped build
        # has the same diagnostics, each edge turned round, in sorted order
        rng = random.Random(11)
        uids = [f"N{i}" for i in range(12)]
        elements = [
            mk_element(uid, "t", line=i + 1, links=[
                (rng.choice("lm"), rng.choice(uids + ["GONE"])) for _ in range(rng.randint(0, 4))])
            for i, uid in enumerate(uids)
        ]
        graph, diagnostics = build_graph(elements, reverse_links=False)
        flipped, flipped_diagnostics = build_graph(elements, reverse_links=True)
        assert flipped_diagnostics == diagnostics
        assert flipped.edges == tuple(sorted(edge[::-1] for edge in graph.edges))
        for uid in uids:
            assert flipped.outgoing(uid) == tuple(
                (lt, target) for source, lt, target in flipped.edges if source == uid)

    def test_edge_count_bound(self):
        elements = [
            mk_element("A", "t", links=[("l", "B"), ("l", "Z")]),
            mk_element("B", "t", line=2),
        ]
        graph, diagnostics = build_graph(elements, reverse_links=False)
        total_links = sum(len(e.links) for e in elements)
        assert len(graph.edges) <= total_links
        assert (len(graph.edges) == total_links) == (not diagnostics)


class TestFindByType:
    def test_matching_uids(self):
        graph, _ = build_graph(
            [
                mk_element("RS2", "runtime-scenario"),
                mk_element("RS1", "runtime-scenario", line=2),
                mk_element("R1", "requirement", line=3),
            ],
            reverse_links=False,
        )
        assert graph.by_type["runtime-scenario"] == ("RS1", "RS2")

    def test_unknown_type_empty(self):
        graph, _ = build_graph([mk_element("A", "t")], reverse_links=False)
        assert graph.by_type == {"t": ("A",)}

    def test_matches_linear_scan_and_partitions(self):
        rng = random.Random(7)
        elements = [
            mk_element(f"N{i}", rng.choice(["a", "b", "c"]), line=i + 1) for i in range(30)
        ]
        graph, _ = build_graph(elements, reverse_links=False)
        all_uids = set()
        for type_name in ["a", "b", "c"]:
            expected = sorted(e.uid for e in elements if e.element_type == type_name)
            got = list(graph.by_type.get(type_name, ()))
            assert got == expected
            assert not all_uids & set(got)
            all_uids |= set(got)
        assert all_uids == set(graph.elements)

