"""Benchmark harness: time the tracegen CLI on one generated repository.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-check --seed 1 --seconds 40 --trace 0

One closed-loop client starts the next CLI process only after the previous
one has exited, for ``--seconds`` seconds. Each round also runs
perfbench/reference.py, whose time scales the end-to-end times to the
reference host's speed. ``--trace 1`` alternates the untraced invocations
with traced ones (perfbench/tracer.py) and reports the per-layer metrics
instead of the end-to-end ones. Every artifact is judged
against the generator's answer file and its sha256 digest; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

import gen_repo
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
MIN_SAMPLES = 3
# Mean wall time of reference.py on the reference host (see README.md,
# "Host speed"). End-to-end times are scaled by REFERENCE_S over the run's own
# mean reference time, so they read as seconds on the reference host.
REFERENCE_S = 1.2

# Per workload: CLI arguments (run inside the work directory), the artifact
# file, and the oracle that judges it.
WORKLOADS = {
    "corpus-check": (
        ["check", "repo", "--config-schema", "config_schema.json", "--report", "{artifact}"],
        "report.yaml", oracle.check_report),
    "fanout-yaml": (
        ["generate", "repo", "--config-schema", "config_schema.json", "--format", "yaml"],
        "stdout.txt", oracle.check_yaml),
    "fanout-plantuml": (
        ["generate", "repo", "--config-schema", "config_schema.json", "--format", "plantuml"],
        "stdout.txt", oracle.check_plantuml),
}

PER_LAYER_SPANS = (
    "elements.scan", "elements.parse", "graph.build", "checks.metamodel",
    "checks.internal_schema", "checks.semantic_equivalence", "checks.report",
    "traversal.traverse", "traversal.collect", "emit.yaml", "emit.plantuml",
    "schema.config_parse",
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    artifact: bytes


def run_process(argv: list[str], workdir: Path, env: dict, prefix: str = "",
                artifact: str = "stdout.txt") -> Sample:
    """Run one process to completion; resource use comes from wait4. Its
    standard output goes to ``prefix + "stdout.txt"``."""
    target = workdir / (prefix + artifact)
    target.unlink(missing_ok=True)
    with open(workdir / (prefix + "stdout.txt"), "wb") as out, \
            open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = target.read_bytes() if target.exists() else b""
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, data)


def span_totals(spans_file: Path) -> tuple[dict[str, float], dict[str, float], int]:
    data = json.loads(spans_file.read_text(encoding="utf-8"))
    totals = dict.fromkeys(PER_LAYER_SPANS, 0.0)
    for span in data["spans"]:
        if span["name"] in totals:
            totals[span["name"]] += span["end"] - span["start"]
    return totals, data["counts"], data["exit_code"]


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "platform": platform.platform(),
    }


def reference_digest(workload: str, seed: int, scale: float) -> str | None:
    if scale != 1.0:
        return None
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return digests.get(workload, {}).get(str(seed))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the generated repository (smoke tests only)")
    args = parser.parse_args()

    if not (SRC / "tracegen" / "cli.py").is_file():
        print(f"error: tracegen sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, workdir: Path) -> dict:
    cli_args, artifact, judge = WORKLOADS[args.workload]
    generate_start = time.perf_counter()
    answer = gen_repo.generate(args.workload, args.seed, workdir, args.scale)
    generate_s = time.perf_counter() - generate_start
    expected_exit = 0 if answer["check"]["passed"] else 1

    env = dict(os.environ, PYTHONPATH=str(SRC))
    python = [sys.executable]
    untraced = python + ["-m", "tracegen.cli"] + [a.format(artifact=artifact) for a in cli_args]
    traced = python + [str(HERE / "tracer.py"), "spans.json", "--"] + [
        a.format(artifact="traced_" + artifact) for a in cli_args]

    no_work = python + ["-m", "tracegen.cli", "--help"]
    help_run = run_process(no_work, workdir, env)
    if help_run.exit_code != 0 or b"Usage" not in help_run.artifact:
        raise SystemExit(f"error: tracegen --help failed with exit code {help_run.exit_code}")
    reference = python + ["-I", str(HERE / "reference.py")]

    # The first invocation also warms the bytecode cache; its artifact is
    # judged in full, and every later one must repeat its digest exactly.
    first = run_process(untraced, workdir, env, artifact=artifact)
    try:
        problems = judge(first.artifact.decode("utf-8"), answer)
    except Exception as exc:  # an unreadable artifact is a wrong answer, not a harness fault
        problems = [f"artifact unreadable: {exc!r}"]
    if first.exit_code != expected_exit:
        problems.append(f"exit code {first.exit_code}, expected {expected_exit}")
    digest = hashlib.sha256(first.artifact).hexdigest()
    recorded = reference_digest(args.workload, args.seed, args.scale)
    if recorded is not None and digest != recorded:
        problems.append(f"digest {digest} differs from the recorded {recorded}")
    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)

    # Each round runs the workload, a no-work invocation for setup_s, the
    # reference program, and with --trace 1 a traced invocation, so all of
    # them see the same machine.
    samples: list[Sample] = []
    setup: list[Sample] = []
    host: list[Sample] = []
    failed = 1 if problems else 0
    traced_samples: list[Sample] = []
    layer_runs: list[dict[str, float]] = []
    counts: dict[str, float] = {}
    # A round starts only if it can end within --seconds, judged by the last
    # round's length, so a run measures about --seconds and never much more.
    start = time.perf_counter()
    round_s = 0.0
    while time.perf_counter() - start + round_s < args.seconds or len(samples) < MIN_SAMPLES:
        round_start = time.perf_counter()
        sample = run_process(untraced, workdir, env, artifact=artifact)
        samples.append(sample)
        wrong = sample.exit_code != expected_exit or sample.artifact != first.artifact
        failed += 1 if problems or wrong else 0
        setup.append(run_process(no_work, workdir, env))
        host.append(run_process(reference, workdir, env))
        if host[-1].exit_code != 0 or host[-1].artifact != host[0].artifact:
            raise SystemExit("error: reference.py failed or printed something else than before")
        if args.trace:
            sample = run_process(traced, workdir, env, "traced_", artifact)
            totals, counts, exit_code = span_totals(workdir / "spans.json")
            if exit_code != expected_exit or sample.artifact != first.artifact:
                raise SystemExit("error: the traced run's artifact differs from the CLI's")
            traced_samples.append(sample)
            layer_runs.append(totals)
        round_s = time.perf_counter() - round_start

    attempted = 1 + len(samples)
    wall = statistics.median(s.wall_s for s in samples)
    # The mean, not the median: every reference run is the same work, and
    # the mean averages the host's second-to-second swings over the whole run.
    reference_s = statistics.fmean(s.wall_s for s in host)
    scale = REFERENCE_S / reference_s
    summary = {
        "workload": args.workload, "seed": args.seed, "samples": len(samples),
        "elements": answer["elements"], "generate_s": round(generate_s, 3),
        "fail_ratio": failed / attempted, "sha256": digest,
        "wall_s_samples": [round(s.wall_s, 4) for s in samples],
        "reference_s_samples": [round(s.wall_s, 4) for s in host],
        "reference_s": reference_s, "host_scale": scale, "raw_wall_s": wall,
        "raw_setup_s": statistics.median(s.wall_s for s in setup),
        "context": machine_context(),
    }
    print(json.dumps(summary))
    if args.trace:
        metrics = per_layer(layer_runs, counts, wall, traced_samples)
    else:
        metrics = {
            "wall_s": (wall * scale, "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in samples) * scale, "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
            "setup_s": (statistics.median(s.wall_s for s in setup) * scale, "s"),
            "elements_per_s": (answer["elements"] / (wall * scale), "1/s"),
            "output_bytes": (len(first.artifact), "bytes"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def per_layer(layer_runs: list[dict[str, float]], counts: dict[str, float], wall: float,
              traced_samples: list[Sample]) -> dict[str, tuple[float, str]]:
    spans = {name: statistics.median(run[name] for run in layer_runs) for name in PER_LAYER_SPANS}
    records = counts.get("traversal.records", 0)
    input_bytes = counts.get("elements.input_bytes", 0)
    metrics = {
        "elements.scan_s": (spans["elements.scan"], "s"),
        "elements.parse_s": (spans["elements.parse"], "s"),
        "elements.files": (counts.get("elements.files", 0), "count"),
        "elements.input_mb": (input_bytes / 1e6, "MB"),
        "elements.count": (counts.get("elements.count", 0), "count"),
        "elements.tagged_share": (counts.get("elements.tagged_bytes", 0) / input_bytes
                                  if input_bytes else 0.0, "ratio"),
        "graph.build_s": (spans["graph.build"], "s"),
        "graph.edges": (counts.get("graph.edges", 0), "count"),
        "checks.metamodel_s": (spans["checks.metamodel"], "s"),
        "checks.internal_schema_s": (spans["checks.internal_schema"], "s"),
        "checks.semantic_equivalence_s": (spans["checks.semantic_equivalence"], "s"),
        "checks.report_s": (spans["checks.report"], "s"),
        "checks.violations": (counts.get("checks.violations", 0), "count"),
        "traversal.traverse_s": (spans["traversal.traverse"], "s"),
        "traversal.paths": (counts.get("traversal.paths", 0), "count"),
        "traversal.pruned_edges": (counts.get("traversal.pruned_edges", 0), "count"),
        "traversal.collect_s": (spans["traversal.collect"], "s"),
        "traversal.records": (records, "count"),
        "traversal.records_per_input": (records / counts["traversal.inputs"]
                                        if records else 0.0, "ratio"),
        "emit.yaml_s": (spans["emit.yaml"], "s"),
        "emit.plantuml_s": (spans["emit.plantuml"], "s"),
        "emit.bytes": (counts.get("emit.bytes", 0), "bytes"),
        "schema.config_parse_s": (spans["schema.config_parse"], "s"),
        "cli.overhead_s": (wall - sum(spans.values()), "s"),
        "trace.overhead_s": (statistics.median(s.wall_s for s in traced_samples) - wall, "s"),
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
