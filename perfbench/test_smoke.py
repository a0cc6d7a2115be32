"""Smoke test: the whole harness on tiny repositories, plus the oracles'
ability to reject a wrong artifact.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gen_repo
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = 0.05


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen_repo.WORKLOADS)
def test_harness_reports_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_workload_names_match_benchmark_file():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(gen_repo.WORKLOADS)


def test_same_seed_same_repository(tmp_path):
    first = gen_repo.generate("fanout-yaml", 3, tmp_path / "a", SCALE)
    second = gen_repo.generate("fanout-yaml", 3, tmp_path / "b", SCALE)
    assert first == second
    for path in (tmp_path / "a").rglob("*"):
        if path.is_file():
            twin = tmp_path / "b" / path.relative_to(tmp_path / "a")
            assert twin.read_bytes() == path.read_bytes()


# One small corruption per workload that a correct oracle must notice.
MUTATIONS = {
    "corpus-check": lambda text: text.replace("subject_uid: NOTE_1", "subject_uid: NOTE_9", 1),
    "fanout-yaml": lambda text: re.sub(r"(?m)^  value: .*$", "  value: null", text, count=1),
    "fanout-plantuml": lambda text: re.sub(r"(?m)^\S+ --> .*\n", "", text, count=1),
}


@pytest.mark.parametrize("workload", gen_repo.WORKLOADS)
def test_oracle_accepts_the_cli_artifact_and_rejects_a_corrupted_one(workload, tmp_path):
    answer = gen_repo.generate(workload, 5, tmp_path, SCALE)
    cli_args, artifact, judge = run.WORKLOADS[workload]
    argv = [sys.executable, "-m", "tracegen.cli"] + [a.format(artifact=artifact) for a in cli_args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    text = run.run_process(argv, tmp_path, env, artifact=artifact).artifact.decode("utf-8")
    assert judge(text, answer) == []
    corrupted = MUTATIONS[workload](text)
    assert corrupted != text
    assert judge(corrupted, answer)
