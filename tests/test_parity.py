"""The overview writer and the tag loop against their references in
tests/oracles.py: emit_plantuml walks graph.edges and substitutes all aliases
in one pass, and parse_file builds its records with tuple.__new__, with the
same output and record types as the forms they replaced."""

import importlib.util
import sys
from pathlib import Path

import pytest

from tracegen.checks import resolve_optimizer_inputs
from tracegen.elements import RawElement, RawLink, parse_file, scan_repository
from tracegen.emit import _aliases, emit_plantuml
from tracegen.graph import build_graph
from tracegen.traversal import summarize_traversal
from tracegen.ttim import default_extended_framework

import oracles
from conftest import mk_element, repo_files, write_repo

TTIM = default_extended_framework()
COLLIDING = ["A-B", "A_B", "A.B", "A_B_2", "Ö-東京", "A_B_2_2", "n_A_B", "_"]


def pipeline(repo, reverse_links=False):
    """The parsed records, then what the overview writer reads for ``repo``."""
    files, _ = scan_repository(repo)
    parsed = [parse_file(file) for file in files]
    for file, result in zip(files, parsed):
        assert result == oracles.parse_file(file) == oracles.parse_file_with_frames(file)
    graph, _ = build_graph([e for elements, _ in parsed for e in elements], reverse_links)
    summary = summarize_traversal(graph, TTIM)
    # the CLI writes an overview only once the checks pass, when every input resolves
    resolutions = {uid: r for uid, r in resolve_optimizer_inputs(graph, TTIM).items()
                   if r.complete}
    overview = (*summary.reached(summary.scenarios), graph, resolutions)
    return [e for elements, _ in parsed for e in elements], overview


def assert_record_types(elements):
    assert elements
    for element in elements:
        assert type(element) is RawElement
        assert all(type(link) is RawLink for link in element.links)


def load_gen_repo():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen_repo.py"
    spec = importlib.util.spec_from_file_location("gen_repo", path)
    gen_repo = sys.modules.setdefault("gen_repo", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen_repo)  # its dataclasses look their module up by name
    return gen_repo


@pytest.mark.parametrize("reverse_links", [False, True], ids=["links", "reversed"])
def test_fixture(tmp_path, reverse_links):
    repo, _ = write_repo(tmp_path, repo_files())
    elements, overview = pipeline(repo, reverse_links)
    assert_record_types(elements)
    text = emit_plantuml(*overview)
    assert text == oracles.plantuml_reference(*overview)
    assert (" --> " in text) is not reverse_links  # reversed, the scenario reaches nothing


def test_colliding_and_non_ascii_uids():
    uids = sorted(COLLIDING)
    assert _aliases(uids) == oracles.aliases_reference(uids)
    assert len(set(_aliases(uids).values())) == len(uids)
    assert _aliases([]) == {}
    # one scenario scopes a level that contains every colliding requirement,
    # each realizing its own input
    elements = [mk_element("RS", "runtime-scenario", links=[("scopes", "AL")]),
                mk_element("AL", "abstraction-level", links=[("contains", u) for u in COLLIDING])]
    for k, uid in enumerate(COLLIDING):
        elements.append(mk_element(uid, "requirement", links=[("realizes", f"OI{k}")],
                                   label=f"Label {uid}"))
        elements.append(mk_element(f"OI{k}", "OptimizerInput", links=[("describedBy", "ST")],
                                   body="```json\n1\n```", placement=f"/properties/p{k}"))
    elements.append(mk_element("ST", "schema-type", body='```json\n{"type": "number"}\n```'))
    graph, diagnostics = build_graph(elements, False)
    assert diagnostics == []
    summary = summarize_traversal(graph, TTIM)
    overview = (*summary.reached(summary.scenarios), graph, resolve_optimizer_inputs(graph, TTIM))
    text = emit_plantuml(*overview)
    assert text == oracles.plantuml_reference(*overview)
    assert text.count(" --> ") == 1 + 2 * len(COLLIDING)  # no schema link is on a trace


@pytest.mark.parametrize("workload", ["corpus-check", "fanout-yaml", "fanout-plantuml"])
def test_generated_repository(tmp_path, workload):
    load_gen_repo().generate(workload, 5, tmp_path, scale=0.02)
    elements, overview = pipeline(tmp_path / "repo")
    assert_record_types(elements)
    assert emit_plantuml(*overview) == oracles.plantuml_reference(*overview)
