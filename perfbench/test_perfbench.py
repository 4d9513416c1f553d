"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
a planted wrong expectation shows up as a failed operation, that per-layer
counts repeat exactly, and that layer self times add up to the traced wall
time.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("verifier.class_passes", "obstacle.sweeps", "wavecone.patches",
          "scalars.max_endpoint_bits", "synthesizer.pattern_nodes", "laminate.atoms")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^# {re.escape(name)} \S+ {re.escape(unit)}$", proc.stdout, re.M), name


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _failed(workload: str, tmp_path: Path) -> int:
    return run.run_list(workloads.WORKLOADS[workload](0, 0, tmp_path, tiny=True))["failed"]


def test_flipped_membership_label_fails(tmp_path, monkeypatch):
    flipped = workloads.expected_member
    monkeypatch.setattr(workloads, "expected_member", lambda v: not flipped(v))
    assert _failed("cone", tmp_path) > 0


def test_tightened_radial_error_bound_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RADIAL_H2_MULTIPLE", 1e-3)
    assert _failed("grid", tmp_path) == 1


def test_changed_artifact_breaks_the_rerun_check(tmp_path, monkeypatch):
    real = workloads._cli

    def cli(argv, out):
        rc = real(argv, out)
        if out.name.endswith(".again"):
            victim = next(p for p in sorted(out.iterdir()) if p.name != "manifest.json")
            victim.write_bytes(victim.read_bytes() + b"\n")
        return rc

    monkeypatch.setattr(workloads, "_cli", cli)
    assert _failed("realize-mix", tmp_path) == 1


@pytest.mark.parametrize("workload", ["cascade-deep", "grid", "cone", "realize-mix"])
def test_counts_repeat_and_self_times_add_up(workload, tmp_path):
    seen = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        ops = workloads.WORKLOADS[workload](5, 0, workdir, tiny=True)
        with tracing.Tracer() as tracer:
            wall = run.run_list(ops, tracer)["wall"]
        metrics = tracer.metrics()
        seen.append({name: metrics[name] for name in COUNTS})
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert wall * 0.99 <= self_sum <= wall
    assert seen[0] == seen[1]


def test_tracer_restores_the_program():
    before = workloads.sh.verifier.hessian_l1
    with tracing.Tracer():
        assert workloads.sh.verifier.hessian_l1 is not before
    assert workloads.sh.verifier.hessian_l1 is before
