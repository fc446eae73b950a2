"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] \\
        [--trace 0|1]

Without --workload it runs every workload in BENCHMARK.json.  For each
workload and every end-to-end metric (or per-layer metric with
``--trace 1``) it prints the unit, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, next to a third of the
metric's bound.  With ``--trace 0`` it also pools every run's per-point
latencies and gives the highest percentile with at least ten samples
beyond it.  Each run's own record stays in ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, ten_beyond  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(workload: str, seeds, trace: int, seconds: int,
              declared: list[dict]) -> list[dict]:
    runs, latencies = [], []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / "results" / (
            f"{workload}-seed{seed}-trace{trace}.json")).read_text())
        latencies += record.get("latencies_s", [])
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"\n{workload}, {len(runs)} runs of {seconds} s, trace {trace}")
    print(f"{'metric':38s} {'unit':>8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        third = f"{metric['bound'] / 3:8.4f}" if "bound" in metric else ""
        print(f"{name:38s} {metric['unit']:>8s} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {third}")
    if len(latencies) >= 21:
        value, pct = ten_beyond(latencies)
        print(f"pooled point tail: {value:.6g} s at p{pct:.2f} of "
              f"{len(latencies)} points (10 beyond)")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=None)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = [r for w in workloads
            for r in summarise(w, args.seeds, args.trace, seconds, declared)]
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
