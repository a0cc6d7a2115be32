"""The traced benchmark run (perfbench/tracer.py) still patches every layer
call the CLI makes: a renamed or moved function fails here, not only when the
benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FRONT = {"cli.main", "elements.scan", "elements.parse", "graph.build", "schema.config_parse"}
CHECKS = {"checks.metamodel", "checks.internal_schema", "checks.semantic_equivalence"}
# the tracer counts the listed paths and pruned cycle edges, then the
# collected records and the inputs they reach (r.uid)
COLLECTED = {"traversal.paths": 2, "traversal.pruned_edges": 0,
             "traversal.records": 2, "traversal.inputs": 2}


@pytest.mark.parametrize(
    "command, spans, counts",
    [
        # list-scenarios and the PlantUML overview read the traversal summary,
        # which lists no paths, so no traversal span wraps them
        (["list-scenarios"], FRONT, {}),
        (["generate", "--report", "{tmp}/r.yaml"], FRONT | CHECKS | {
            "checks.report", "traversal.traverse", "traversal.collect", "emit.yaml"}, COLLECTED),
        (["generate", "--format", "plantuml"], FRONT | CHECKS | {"emit.plantuml"}, {}),
    ],
    ids=["list-scenarios", "generate-yaml", "generate-plantuml"],
)
def test_traced_run_has_a_span_per_layer(fig_repo, tmp_path, command, spans, counts):
    repo, schema = fig_repo
    spans_path = tmp_path / "spans.json"
    args = [command[0], str(repo), "--config-schema", str(schema)]
    args += [a.format(tmp=tmp_path) for a in command[1:]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), "--", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(spans_path.read_text())
    assert traced["exit_code"] == 0
    assert {span["name"] for span in traced["spans"]} == spans
    assert traced["counts"]["elements.files"] == 4
    for name, expected in counts.items():
        assert traced["counts"][name] == expected
