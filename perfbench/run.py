"""Run one benchmark workload against the subhess sources in ./src.

    python3 perfbench/run.py --workload cone --seed 1 --seconds 20 --trace 0

One single-threaded caller runs the workload's operation list in a closed
loop: an operation starts when the previous one has returned. The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 (end-to-end) first starts SETUP_RUNS fresh interpreters, each
importing subhess with numpy, scipy and mpmath and doing the first-call
lazy work, and reports their median as setup_s. It then runs the list
floor(--seconds / LIST_SECONDS) times (at least once), with fresh seeded
inputs per repetition. The count depends only on --seconds, so two commits
are measured with the same number of repetitions. Timings are those of the
best repetition: other guests on a shared machine slow a whole repetition
down by up to 1.8x for seconds at a time, and the best repetition is the
one they disturbed least.

--trace 1 (per layer) runs the repetition-0 list once untraced and once
under the tracer, then the layer probes; trace.overhead_s is the difference
between the two list times. Spans go to .perfbench/traces/ when the run ends.

--tiny shrinks every list, the probes and the setup count to a few seconds
for the self-test (test_perfbench.py); no measurement uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_RUNS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
TRACE_METRICS = (
    ("cli.artifact_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.warm()
print(time.monotonic())
"""


def setup_seconds() -> float:
    """Fresh interpreter to first operation ready, read on the shared monotonic clock."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def run_list(ops, tracer=None) -> dict:
    """Runs the operations in order; an operation fails if it raises or its check fails."""
    lat, failed = [], 0
    c0, t0 = time.process_time(), time.perf_counter()
    for op_id, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if tracer is None:
                ok = op.check(op.run())
            else:
                with tracer.op(op_id, op.kind):
                    ok = op.check(op.run())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        lat.append(time.perf_counter() - start)
        if not ok:
            failed += 1
            print(f"failed: op {op_id} ({op.kind})", file=sys.stderr)
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0,
            "lat": lat, "failed": failed}


def quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def artifact_bytes(workdir: Path) -> int:
    """Report artifacts the CLI wrote; manifests are left out, their runtimes vary."""
    return sum(p.stat().st_size for p in workdir.rglob("*")
               if p.is_file() and p.name != "manifest.json")


def end_to_end(make, seed: int, repetitions: int, scratch: Path,
               tiny: bool) -> tuple[dict, dict, list]:
    setup_runs = 1 if tiny else SETUP_RUNS
    setups = [setup_seconds() for _ in range(setup_runs)]
    reps = []
    for rep in range(repetitions):
        workdir = scratch / f"rep{rep}"
        workdir.mkdir()
        reps.append(run_list(make(seed, rep, workdir, tiny)))
        shutil.rmtree(workdir)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": min(r["wall"] for r in reps),
        "cpu_s": min(r["cpu"] for r in reps),
        "op_p50_s": min(quantile(r["lat"], 50) for r in reps),
        "op_p90_s": min(quantile(r["lat"], 90) for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# repetitions {len(reps)}, operation samples {sum(len(r['lat']) for r in reps)}, "
          f"setup runs {setup_runs}")
    return metrics, dict(END_TO_END), reps


def per_layer(make, seed: int, scratch: Path, tiny: bool, name: str) -> tuple[dict, dict, list, bool]:
    import probes
    import tracing

    untraced_dir, traced_dir = scratch / "untraced", scratch / "traced"
    untraced_dir.mkdir()
    traced_dir.mkdir()
    untraced = run_list(make(seed, 0, untraced_dir, tiny))
    ops = make(seed, 0, traced_dir, tiny)
    with tracing.Tracer() as tracer:
        traced = run_list(ops, tracer)
    tracer.dump(SCRATCH / "traces" / f"{name}-seed{seed}.json", workload=name, seed=seed)
    metrics = tracer.metrics()
    metrics.update({
        "cli.artifact_bytes": artifact_bytes(traced_dir),
        "trace.wall_s": traced["wall"],
        "trace.overhead_s": traced["wall"] - untraced["wall"],
    })
    probe_metrics, probes_ok = probes.run(seed, tiny)
    metrics.update(probe_metrics)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print(f"# traced wall {traced['wall']:.4f} s = layer self times {self_sum:.4f} s"
          f" + time between operations {traced['wall'] - self_sum:.4f} s;"
          f" untraced wall {untraced['wall']:.4f} s")
    units = dict(tracing.METRICS + probes.METRICS + TRACE_METRICS)
    return metrics, units, [untraced, traced], probes_ok


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "subhess" / "__init__.py").is_file():
        print(f"perfbench: no subhess package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workloads.warm()
    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.trace:
            metrics, units, reps, extra_ok = per_layer(make, args.seed, scratch, args.tiny,
                                                       args.workload)
        else:
            repetitions = max(1, int(args.seconds // workloads.LIST_SECONDS[args.workload]))
            metrics, units, reps = end_to_end(make, args.seed, repetitions, scratch, args.tiny)
            extra_ok = True
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(r["lat"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"# workload {args.workload}, seed {args.seed}, src lines {src_lines()}")
    print(f"# failed_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"# {name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and extra_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
