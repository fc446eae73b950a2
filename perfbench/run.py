"""scissorlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sampled-default --seed 1 \\
        --seconds 45 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it give the environment and every metric
with its unit.  A JSON record of the run (environment, per-point
latencies, and with ``--trace 1`` the spans) goes to
``perfbench/out/results/``.  README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# numpy is imported only after main() has pinned the BLAS threads
from tracing import LAYERS, POVM_BUILD, Tracer, aggregate
from workloads import WORKLOADS, clear

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: one BLAS thread: the box has two cores, and a single thread keeps the
#: timings steady and the MaxLik iteration counts reproducible
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters started per run; setup_s is their median
COLD_STARTS = 7
CHILD_TIMEOUT_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "scissorlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# set-up cost

def cold_start(config: Path, speed) -> tuple[float, float]:
    """(start, end) from spawning a fresh interpreter to its first result,
    between two marks of the box's speed."""
    cmd = [sys.executable, str(HERE / "child.py"), str(config)]
    speed.mark()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            killer.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start exited {proc.returncode}: {line!r}")
    speed.mark()
    return start, start + elapsed


# ---------------------------------------------------------------------------
# passes

class Runner:
    """Runs and checks points, keeping the counts the result reports."""

    def __init__(self, workload, work: Path, tracer=None, speed=None):
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        self.fidelities: list[float] = []
        self.pass_bytes: dict[int, int] = {}

    def run(self, pass_no: int, idx: int):
        """Time one point; returns ((start, end), out_dir, written) or None."""
        point = self.workload.points[idx]
        out_dir = self.work / "points" / f"{pass_no}-{idx}"
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.point = (pass_no, idx)
        start = time.perf_counter()
        try:
            written = point.run(out_dir)
        except Exception as exc:  # a failing point is counted, not fatal
            self._fail(point, exc)
            clear(out_dir)
            return None
        finally:
            if self.tracer is not None:
                self.tracer.point = None
        return (start, time.perf_counter()), out_dir, written

    def check(self, pass_no: int, idx: int, done):
        """Check a point run by ``run``; returns its (start, end) if it
        passed, else None."""
        if done is None:
            return None
        span, out_dir, written = done
        point = self.workload.points[idx]
        try:
            fid = point.check(out_dir, written)
            size = sum(os.path.getsize(p) for p in written)
        except Exception as exc:  # includes CheckFailed
            self._fail(point, exc)
            return None
        finally:
            clear(out_dir)
        if fid is not None:
            self.fidelities.append(fid)
        self.pass_bytes[pass_no] = self.pass_bytes.get(pass_no, 0) + size
        return span

    def one_pass(self, pass_no: int) -> list[tuple[float, float] | None]:
        """Run and check every point.  A speed mark, when one is due and
        always after the last point, comes right after a point's run and
        before its check, so that it follows the point directly."""
        spans = []
        last = len(self.workload.points) - 1
        for i in range(last + 1):
            done = self.run(pass_no, i)
            if self.speed is not None:
                if i == last:
                    self.speed.mark()
                else:
                    self.speed.mark_if_due()
            spans.append(self.check(pass_no, i, done))
        return spans

    def _fail(self, point, exc: Exception) -> None:
        message = f"{point.name}: {type(exc).__name__}: {exc}"
        self.failures.append(message)
        print(f"point failed: {message}", file=sys.stderr)


def _more(elapsed: float, rounds: int, seconds: float) -> bool:
    """Start another round only if it would end nearer the target."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure(runner: Runner, seconds: float):
    passes = []
    runner.speed.mark()
    start = time.perf_counter()
    while True:
        passes.append(runner.one_pass(len(passes) + 1))
        if not _more(time.perf_counter() - start, len(passes), seconds):
            return passes


def measure_traced(runner: Runner, tracer, seconds: float):
    """Alternate an untraced and a traced pass over the same points."""
    pairs = []
    start = time.perf_counter()
    while True:
        pass_no = 2 * len(pairs) + 1
        plain = runner.one_pass(pass_no)
        tracer.install()
        try:
            traced = runner.one_pass(pass_no + 1)
        finally:
            tracer.uninstall()
        pairs.append((pass_no, plain, pass_no + 1, traced))
        if not _more(time.perf_counter() - start, len(pairs), seconds):
            return pairs


# ---------------------------------------------------------------------------
# metrics

def ten_beyond(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it: the
    11th-largest value, and which percentile that is."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def tail_rule(points: int) -> str:
    """How point_tail_s reads one pass of a workload with this many points.

    The rule depends only on the workload, never on how many passes fit
    in a run, so a faster change reports the same statistic as its parent.
    Below 21 points the ten-beyond percentile is not above the median.
    """
    if points >= 21:
        return (f"p{100.0 * (points - 10) / points:.2f} of each {points}-point "
                f"pass (10 beyond), mean over passes")
    return f"slowest of each {points}-point pass, mean over passes"


def point_times(passes) -> dict:
    """points_per_s, point_p50_s and point_tail_s from per-pass lists of
    point latencies (None where a point failed)."""
    latencies = [t for p in passes for t in p if t is not None]
    done = [[t for t in p if t is not None] for p in passes]
    many = len(passes[0]) >= 21
    per_point = [[t for t in ts if t is not None] for ts in zip(*passes)]
    return {
        "points_per_s": len(latencies) / sum(latencies),
        # each point at its mean over the passes: the box runs faster and
        # slower for stretches of seconds, and a median over a few passes
        # jumps between those speeds where a mean moves smoothly
        "point_p50_s": statistics.median(
            statistics.fmean(ts) for ts in per_point if ts),
        "point_tail_s": statistics.fmean(
            ten_beyond(p)[0] if many else max(p) for p in done if p),
    }


def end_to_end(runner: Runner, passes, setup) -> tuple[dict, dict]:
    """The end-to-end metrics from the (start, end) spans of the points
    and the cold starts.  Times are scaled by the box's speed around each
    span (speed.py); the wall-clock figures go into the detail."""
    speed = runner.speed

    def wall(span):
        return None if span is None else span[1] - span[0]

    def scaled(span):
        return None if span is None else wall(span) * speed.scale(*span)

    scaled_passes = [[scaled(s) for s in p] for p in passes]
    metrics = {
        "setup_s": statistics.median(scaled(s) for s in setup),
        **point_times(scaled_passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "artifact_mb": runner.pass_bytes.get(1, 0) / 1e6,
        # the circuit workload reconstructs nothing; its artifacts describe
        # the circuit state itself, which is the truth
        "recon_fidelity_min": min(runner.fidelities, default=1.0),
    }
    detail = {
        "latencies_s": [t for p in scaled_passes for t in p if t is not None],
        "wall_metrics": {
            "setup_s": statistics.median(wall(s) for s in setup),
            **point_times([[wall(s) for s in p] for p in passes])},
        "tail_rule": tail_rule(len(runner.workload.points)),
        "setup_spans": setup, "point_spans": passes,
        "speed_marks": {"ref_s": speed.REF_S, "times": speed.times,
                        "kernel_s": speed.kernels},
        "passes": len(passes)}
    return metrics, detail


def per_layer(tracer, pairs, first_simulate_s: float,
              wrapper_cost_s: float) -> dict:
    traced = [(no, spans) for _, _, no, spans in pairs]
    n = len(traced)
    points = [(no, i) for no, spans in traced for i in range(len(spans))]
    agg = aggregate(tracer.spans, points)
    incl, calls, extra = agg["name_incl"], agg["name_calls"], agg["extra"]

    def per_pass(value):
        return value / n

    iterations = extra["tomography.maxlik_reconstruct"]["iterations"]
    maxlik_s = incl["tomography.maxlik_reconstruct"]
    reconstructions = calls["tomography.maxlik_reconstruct"]

    def pass_wall(spans):
        return sum(s[1] - s[0] for s in spans if s is not None)

    wall = [pass_wall(spans) for _, spans in traced]
    plain_wall = [pass_wall(spans) for _, spans, _, _ in pairs]
    m = {f"{layer}.self_s": per_pass(agg["layer_self"][layer])
         for layer in LAYERS}
    m.update({
        "cli.validate_config_s": per_pass(incl["cli.validate_config"]),
        "amplifier.simulate_s": per_pass(incl["amplifier.simulate"]),
        "amplifier.simulate_calls": per_pass(calls["amplifier.simulate"]),
        "amplifier.simulate_first_s": first_simulate_s,
        "optics.apply_loss_s": per_pass(incl["optics.apply_loss"]),
        "optics.apply_beamsplitter_s": per_pass(incl["optics.apply_beamsplitter"]),
        "optics.apply_beamsplitter_calls":
            per_pass(calls["optics.apply_beamsplitter"]),
        "fock.calls": per_pass(agg["layer_calls"]["fock"]),
        "measurement.sample_homodyne_self_s":
            per_pass(agg["name_self"]["measurement.sample_homodyne"]),
        "measurement.quadrature_pdf_s": per_pass(incl["measurement.quadrature_pdf"]),
        "measurement.quadrature_pdf_calls":
            per_pass(calls["measurement.quadrature_pdf"]),
        "measurement.samples_drawn":
            per_pass(extra["measurement.sample_homodyne"]["samples"]),
        "measurement.write_samples_csv_s":
            per_pass(incl["measurement.write_samples_csv"]),
        "measurement.samples_csv_bytes":
            per_pass(extra["measurement.write_samples_csv"]["bytes"]),
        "tomography.bin_samples_s": per_pass(incl["tomography.bin_samples"]),
        "tomography.povm_build_s": per_pass(incl[POVM_BUILD]),
        "tomography.povm_elements": per_pass(extra[POVM_BUILD]["elements"]),
        "tomography.maxlik_s": per_pass(maxlik_s),
        "tomography.maxlik_iterations": per_pass(iterations),
        "tomography.maxlik_s_per_iter": maxlik_s / iterations if iterations else 0.0,
        "tomography.maxlik_bytes_per_iter":
            extra["tomography.maxlik_reconstruct"]["bytes"] / iterations
            if iterations else 0.0,
        "tomography.converged_ratio":
            extra["tomography.maxlik_reconstruct"]["converged"] / reconstructions
            if reconstructions else 0.0,
        "tomography.floored_bins":
            per_pass(extra["tomography.maxlik_reconstruct"]["floored_bins"]),
        "metrics.wigner_s": per_pass(incl["metrics.wigner"]),
        "metrics.wigner_points": per_pass(extra["metrics.wigner"]["points"]),
        "metrics.write_wigner_csv_s": per_pass(incl["metrics.write_wigner_csv"]),
        "metrics.wigner_csv_bytes":
            per_pass(extra["metrics.write_wigner_csv"]["bytes"]),
        "metrics.build_metrics_report_s":
            per_pass(incl["metrics.build_metrics_report"]),
        "trace.wall_s": per_pass(sum(wall)),
        "trace.remainder_s": per_pass(sum(wall) - agg["covered"]),
        "trace.overhead_s": per_pass(sum(wall) - sum(plain_wall)),
        "trace.overhead_est_s":
            per_pass(sum(agg["layer_calls"].values())) * wrapper_cost_s,
        "trace.spans": per_pass(sum(agg["layer_calls"].values())),
    })
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    if not (SRC / "scissorlab" / "__init__.py").is_file():
        print(f"error: no scissorlab package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import scissorlab
    from speed import Speed

    if Path(scissorlab.__file__).resolve().parent != SRC / "scissorlab":
        print(f"error: imported scissorlab from {scissorlab.__file__}",
              file=sys.stderr)
        return 2
    env = environment(args)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    clear(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        # only the untraced run reports setup_s, and only it scales its
        # times by the box's speed
        speed = None if args.trace else Speed()
        setup = [cold_start(workload.cold_config, speed)
                 for _ in range(0 if args.trace else COLD_STARTS)]
        tracer = Tracer() if args.trace else None
        runner = Runner(workload, work, tracer, speed)

        # warm-up: the first point fills the program's caches; with
        # --trace 1 it is traced, for the cold simulate call
        if tracer is not None:
            tracer.install()
        try:
            warm = runner.run(0, 0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.compute_truth()
        runner.check(0, 0, warm)

        if tracer is None:
            passes = measure(runner, args.seconds)
            if not any(s is not None for p in passes for s in p):
                print("error: no point succeeded", file=sys.stderr)
                return 1
            metrics, detail = end_to_end(runner, passes, setup)
        else:
            pairs = measure_traced(runner, tracer, args.seconds)
            first = next((s.end - s.start for s in tracer.spans
                          if s.name == "amplifier.simulate"), 0.0)
            cost = tracer.wrapper_cost_s()
            metrics = per_layer(tracer, pairs, first, cost)
            detail = {"pairs": len(pairs), "wrapper_cost_s": cost}
    finally:
        clear(work)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are "
              f"not both measured and declared", file=sys.stderr)
        return 1

    attempted = runner.attempted
    failed = len(runner.failures)
    record = {"env": env, "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed,
              "failures": runner.failures, **detail}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": list(tracer.spans[0]._fields) if tracer.spans else [],
             "spans": [list(s) for s in tracer.spans]}) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    for name, value in detail.get("wall_metrics", {}).items():
        print(f"{'wall-clock ' + name:40s} {value:16.6g} {units[name]}")
    print(f"{'point_fail_ratio':40s} {failed:>8d} / {attempted} points")
    if "tail_rule" in detail:
        print(f"point_tail_s is the {detail['tail_rule']} "
              f"({detail['passes']} passes)")
    if "wrapper_cost_s" in detail:
        print(f"trace.overhead_est_s is trace.spans times "
              f"{detail['wrapper_cost_s'] * 1e6:.3f} us, the cost of one "
              f"span timed on a no-op call; trace.overhead_s, traced minus "
              f"untraced pass, cannot resolve less than the box's "
              f"pass-to-pass noise")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[kind]}


if __name__ == "__main__":
    sys.exit(main())
