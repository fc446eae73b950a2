"""Command-line sweep harness.

Verbs:
  run     sweep the configured alpha grid, writing per-alpha artifacts
          (metrics JSON, Wigner CSV, samples/reconstruction when sampling)
          plus a summary CSV
  check   validate a config file and report violations with key paths
  wigner  write one state's Wigner grid as CSV
  tomo    reconstruct a density matrix from a sample CSV

Config files are JSON with nested sections (see _SCHEMA for every key,
its default and its rule, and README for prose).  Determinism: the
master seed and each alpha derive a per-alpha substream as
SeedSequence([seed, round(alpha * 10^4)]), so adding or removing one alpha
never perturbs the draws of the others.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import sys
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .amplifier import (AmplifierConfig, HeraldedOutput, SourceModel,
                        _check_working_size, ideal_output, simulate)
from .csvtext import _CSV_CHUNK_ROWS
from .measurement import (
    _HomodyneDraws,
    _check_draw_size,
    _check_sample_count,
    _write_sample_rows,
    default_phase_grid,
    read_samples_csv,
)
from .metrics import (
    _check_coefficient_size,
    _check_grid_size,
    build_metrics_report,
    phase_space_axes,
    wigner,
    write_metrics_json,
    write_wigner_csv,
)
from .numerics import DIMENSION_CAP
from .optics import LossChannel, apply_loss
from .tomography import (
    ReconstructionResult,
    TomographyProblem,
    _bin_edges,
    _check_histogram_size,
    _check_phase_size,
    _check_reconstruction_size,
    bin_samples,
    maxlik_reconstruct,
    read_density_json,
    write_density_json,
)

SCHEMA_VERSION = 1
STAGES = ("analytic", "circuit", "sampled")

SUMMARY_HEADER = "alpha,g_eff,ein_min,ein_avg,ein_max,p_success,reference_ein"

#: rows drawn per block handed to the samples.csv writer: six of its
#: chunks, so the child starts on an eighth of the default 200000 draws
_BLOCK_ROWS = 6 * _CSV_CHUNK_ROWS


def _is_number(value) -> bool:
    """A finite JSON number that a double holds; true/false, NaN, Infinity
    and integers beyond float range are not."""
    # compared, not converted: float() of such an integer overflows
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer_from(low: int):
    return lambda v: _is_integer(v) and v >= low


def _is_phases(value) -> bool:
    """A phase count, or a non-empty list of distinct finite angles (a
    repeated angle would take two shares of the draws and count twice in
    the phase-averaged noise)."""
    if isinstance(value, list):
        return (bool(value) and all(map(_is_number, value))
                and len(set(value)) == len(value))
    return _is_integer(value) and value >= 1


# (accepts(value), rule) pairs that several keys share
_NUMBER = (_is_number, "must be a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0,
             "must be a finite positive number")
_FLAG = (lambda v: isinstance(v, bool), "must be true or false")
_POSITIVE_INTEGER = (_integer_from(1), "must be a positive integer")
_NON_NEGATIVE_INTEGER = (_integer_from(0), "must be a non-negative integer")

#: The whole config schema: dotted key -> (default, accepts(value), rule).
#: A rejected value is reported as "<key>: <rule>, got <value>".
_SCHEMA = {
    "schema_version": (SCHEMA_VERSION,
                       lambda v: _is_integer(v) and v == SCHEMA_VERSION,
                       f"expected {SCHEMA_VERSION}"),
    "amplifier.gain": (2.0, *_NUMBER),
    "amplifier.detector_mu": (1.0, *_NUMBER),
    "amplifier.use_d2_veto": (False, *_FLAG),
    "amplifier.accept_both_heralds": (False, *_FLAG),
    "amplifier.n_max": (12, _is_integer, "must be an integer"),
    "amplifier.source.weight_vacuum": (0.0, *_NUMBER),
    "amplifier.source.weight_two_photon": (0.0, *_NUMBER),
    "amplifier.source.mode_overlap": (1.0, *_NUMBER),
    "sweep.alphas": ([0.1, 0.25, 0.5, 1.0],
                     lambda v: isinstance(v, list) and all(
                         _is_number(a) and a >= 0 for a in v),
                     "must be a list of finite non-negative numbers"),
    "sweep.stage": ("circuit", lambda v: v in STAGES,
                    f"must be one of {STAGES}"),
    "sweep.phases": (12, _is_phases, "must be a positive phase count or a "
                     "list of distinct angles"),
    "sweep.samples_per_state": (200000, *_NON_NEGATIVE_INTEGER),
    "sweep.eta_hd": (0.68, *_NUMBER),
    "sweep.seed": (1, *_NON_NEGATIVE_INTEGER),
    "sweep.output_dir": ("sweep_out", lambda v: isinstance(v, str),
                         "must be a string path"),
    "tomography.bin_count": (100, *_POSITIVE_INTEGER),
    "tomography.bin_range": ([-6.0, 6.0],
                             lambda v: isinstance(v, list) and len(v) == 2
                             and all(map(_is_number, v)) and v[0] < v[1],
                             "must be [lo, hi], finite, with lo < hi"),
    "tomography.n_max": (10, *_POSITIVE_INTEGER),
    "tomography.max_iter": (2000, *_POSITIVE_INTEGER),
    "tomography.tol": (1e-10, *_POSITIVE),
    "wigner.extent": (6.0, *_POSITIVE),
    "wigner.points": (201, _integer_from(2), "must be an integer >= 2"),
}
_SECTIONS = {key.rpartition(".")[0] for key in _SCHEMA} - {""}


def _nest(flat: dict) -> dict:
    """Dotted keys back into nested sections, lists copied (the defaults'
    own lists are shared by every call)."""
    out: dict = {}
    for key, value in flat.items():
        *sections, leaf = key.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = list(value) if isinstance(value, list) else value
    return out


def default_config_dict() -> dict:
    """A complete, valid configuration with the package defaults."""
    return _nest({key: default for key, (default, _, _) in _SCHEMA.items()})


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep settings ready for run_sweep, with each alpha's
    stage output already prepared (none for wigner and tomo, which
    read none of them)."""

    amplifier: AmplifierConfig     # at alpha 0
    alphas: tuple[float, ...]
    stage: str
    phases: tuple[float, ...]
    samples_per_state: int
    eta_hd: float
    seed: int
    output_dir: str
    tomography: dict
    wigner_axes: np.ndarray        # both axes of every Wigner grid
    outputs: dict[float, HeraldedOutput]    # by alpha

    def amplifier_config(self, alpha: float) -> AmplifierConfig:
        return replace(self.amplifier, alpha=alpha)


def _report(problems: list[str], key: str, check, *args) -> bool:
    """Run a library rule check(*args), reporting its ValueError under key;
    whether the rule held."""
    try:
        check(*args)
    except ValueError as exc:
        problems.append(f"{key}: {exc}")
        return False
    return True


def _flatten(node: dict, prefix: str, flat: dict, problems: list[str]) -> dict:
    """Collect a parsed config's values under their dotted keys, reporting
    unknown keys and sections that are not objects."""
    for key, value in node.items():
        path = prefix + key
        if path in _SECTIONS:
            if isinstance(value, dict):
                _flatten(value, path + ".", flat, problems)
            else:
                problems.append(f"{path}: must be a JSON object")
        elif path in _SCHEMA:
            flat[path] = value
        else:
            problems.append(f"{path}: unknown key")
    return flat


def _build_config(flat: dict, problems: list[str],
                  prepare: bool = True) -> RunConfig | None:
    values = {key: flat.get(key, default)
              for key, (default, _, _) in _SCHEMA.items()}
    # never defaulted: a file must say which schema it follows
    values["schema_version"] = flat.get("schema_version")
    bad = set()
    for key, (_, accepts, rule) in _SCHEMA.items():
        if not accepts(values[key]):
            bad.add(key)
            problems.append(f"{key}: {rule}, got {values[key]!r}")
    sections = _nest(values)
    amp, sweep = sections["amplifier"], sections["sweep"]
    tomo = sections["tomography"]
    amplifier = None    # the section as the pipeline runs it, at alpha 0
    if not any(key.startswith("amplifier.") for key in bad):
        where = "amplifier.source"
        try:
            source = SourceModel(**amp.pop("source"))
            where = "amplifier"
            config = AmplifierConfig(alpha=0.0, source=source, **amp)
            if sweep["stage"] in ("circuit", "sampled"):
                where = "amplifier.n_max"
                _check_working_size(config.n_max, source)
            amplifier = config
        except ValueError as exc:
            problems.append(f"{where}: {exc}")

    alphas = [] if "sweep.alphas" in bad else sweep["alphas"]
    # each alpha's key names its output directory and its seed
    keyed = [a for a in alphas
             if _report(problems, "sweep.alphas", _alpha_key, a)]
    keys = [_alpha_key(a) for a in keyed]
    clashes = [a for a, k in zip(keyed, keys) if keys.count(k) > 1]
    if clashes:
        problems.append(f"sweep.alphas: {clashes} coincide at 4 decimals "
                        f"(output directory and seed)")
    if "sweep.eta_hd" not in bad:
        _report(problems, "sweep.eta_hd", LossChannel, sweep["eta_hd"])

    phases = sweep["phases"]
    count = len(phases) if isinstance(phases, list) else phases
    if "sweep.phases" in bad:
        phases = ()
    elif count > DIMENSION_CAP:
        problems.append(f"sweep.phases: {count} phases exceed the cap "
                        f"{DIMENSION_CAP}")
        phases = ()
    elif isinstance(phases, list):
        phases = tuple(float(t) for t in phases)
    else:
        phases = tuple(default_phase_grid(phases))
    # the capacity rule first: it bounds the bin count before any edges
    tomography_fits = not {"tomography.bin_count", "tomography.n_max"} & bad \
        and _report(problems, "tomography.n_max", _check_reconstruction_size,
                    tomo["bin_count"], tomo["n_max"])
    # settings valid alone but not for tomography
    if sweep["stage"] == "sampled":
        n_samples = (None if "sweep.samples_per_state" in bad
                     else sweep["samples_per_state"])
        if n_samples == 0:
            problems.append("sweep.samples_per_state: must be positive at "
                            "stage sampled (tomography cannot reconstruct "
                            "from no samples)")
        elif n_samples is not None:
            # the sampler's own rule, met here before the circuit runs
            _report(problems, "sweep.samples_per_state", _check_sample_count,
                    n_samples)
        if len(phases) == 1:
            problems.append("sweep.phases: must give at least two distinct "
                            "angles at stage sampled (tomography cannot "
                            "reconstruct from one)")
        _report(problems, "sweep.phases", _check_draw_size, len(phases))
        if "tomography.bin_count" not in bad and tomo["bin_count"] < 2:
            problems.append("tomography.bin_count: must be at least 2 at "
                            "stage sampled (one bin carries no phase "
                            "information)")
        if tomography_fits:
            # the count table binds above about 20,400 bins at 49 phases
            _report(problems, "tomography.bin_count", _check_histogram_size,
                    len(phases), tomo["bin_count"])
            _report(problems, "tomography.n_max", _check_phase_size,
                    len(phases), tomo["n_max"])
            if "tomography.bin_range" not in bad:
                _report(problems, "tomography.bin_range", _bin_edges,
                        tomo["bin_count"], tuple(tomo["bin_range"]))
        if "tomography.n_max" not in bad:
            # the reconstruction's Wigner grid is mapped at this cutoff
            _report(problems, "tomography.n_max", _check_coefficient_size,
                    tomo["n_max"] + 1)
    if "wigner.points" not in bad:
        points = sections["wigner"]["points"]
        _report(problems, "wigner.points", _check_grid_size, points, points)
    if "wigner.extent" not in bad:
        _report(problems, "wigner.extent", phase_space_axes,
                sections["wigner"]["extent"])
    outputs = {}    # each alpha prepared as run runs it
    if prepare and amplifier is not None and "sweep.stage" not in bad:
        for alpha in alphas:
            try:
                outputs[float(alpha)] = _stage_output(amplifier, sweep["stage"],
                                                      alpha)
            except ValueError as exc:   # the input's fit, or the herald floor
                why = (f"does not fit amplifier.n_max = {amplifier.n_max}"
                       if str(exc).startswith("coherent state") else
                       f"is not heralded at amplifier.gain = {amplifier.gain!r}"
                       if sweep["stage"] == "analytic" else "is not heralded")
                problems.append(f"sweep.alphas: alpha {alpha!r} {why} ({exc})")

    if problems:
        return None
    # the sweep section's keys are RunConfig's remaining fields
    sweep.update(alphas=tuple(map(float, alphas)), phases=phases,
                 eta_hd=float(sweep["eta_hd"]))
    return RunConfig(amplifier=amplifier, tomography=tomo,
                     wigner_axes=phase_space_axes(**sections["wigner"]),
                     outputs=outputs, **sweep)


def validate_config(path) -> tuple[RunConfig | None, list[str]]:
    """Parse and invariant-check a config file.

    Returns (config, []) when valid, else (None, violations); violations
    carry dotted key paths, and parse failures name the line.
    """
    return _check_file(path, {})


def _check_file(path, overrides: dict,
                prepare: bool = True) -> tuple[RunConfig | None, list[str]]:
    """validate_config with dotted keys set over the file's values, or
    over the package defaults when path is None; without `prepare`, no
    alpha's stage output is built (nor checked), and the config's
    outputs are empty."""
    raw = {"schema_version": SCHEMA_VERSION}    # every other key defaulted
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            return None, [f"parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}"]
    if not isinstance(raw, dict):
        return None, ["config root must be a JSON object"]
    problems: list[str] = []
    flat = {**_flatten(raw, "", {}, problems), **overrides}
    return _build_config(flat, problems, prepare), problems


def _alpha_key(alpha: float) -> int:
    """The documented stable rule: alphas keyed at 4-decimal resolution;
    the key names the alpha's seed, output directory and summary row.
    ValueError for an alpha whose key no double holds, and for a nonzero
    alpha whose key is 0, the vacuum input's."""
    scaled = float(alpha) * 10_000
    if not math.isfinite(scaled):
        raise ValueError(f"alpha {alpha!r} is too large to key at 4 "
                         f"decimals (alpha * 10^4 overflows a double)")
    key = int(round(scaled))
    if key == 0 and alpha != 0:
        raise ValueError(f"alpha {alpha!r} is not 0 but rounds to 0 at 4 "
                         f"decimals, the key of the vacuum input")
    return key


def _alpha_seed(seed: int, alpha: float) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _alpha_key(alpha)])


def _alpha_text(alpha: float) -> str:
    """The key of a non-negative alpha as a 4-decimal number."""
    whole, fraction = divmod(_alpha_key(alpha), 10_000)
    return f"{whole}.{fraction:04d}"


def _stage_output(amplifier: AmplifierConfig, stage: str,
                  alpha: float) -> HeraldedOutput:
    """One alpha's output: the closed form at stage analytic, else the circuit."""
    if stage == "analytic":
        return ideal_output(alpha, amplifier.gain, amplifier.accept_both_heralds)
    return simulate(replace(amplifier, alpha=alpha))


def _reconstruct(samples, tomo: dict, path) -> ReconstructionResult:
    """Bin and reconstruct the samples as the tomography section says and
    write the result's rho JSON to path; ValueError, before anything is
    written, if the fit did not converge."""
    hists = bin_samples(samples, bin_count=tomo["bin_count"],
                        value_range=tuple(tomo["bin_range"]))
    result = maxlik_reconstruct(TomographyProblem(hists, n_max=tomo["n_max"]),
                                max_iter=tomo["max_iter"], tol=tomo["tol"])
    if not result.converged:
        raise ValueError(
            f"maximum-likelihood fit did not converge: certified gap "
            f"{result.gap:.3e} per count after {result.iterations} "
            f"iterations, above tomography.tol = {tomo['tol']:g}")
    write_density_json(result.rho, path)
    return result


class _DrawsAbandoned(Exception):
    """The parent stopped drawing before the last block: it is raising,
    and its exception is the one reported."""


def _announced(fd: int, stops: list[int]):
    """Yield each stop once its block's byte has arrived on the pipe fd."""
    for stop in stops:
        if not os.read(fd, 1):
            raise _DrawsAbandoned
        yield stop


@contextmanager
def _samples_streamed_to_child(draws: _HomodyneDraws, path: Path):
    """Draw the batch here, a block of _BLOCK_ROWS rows at a time, into
    memory shared with a forked child that writes each block to path as
    CSV once it is announced; yield the drawn batch to the with-body.

    The draws land in an anonymous shared mmap, and each finished block
    is announced by one byte on a pipe.  The child only formats and
    writes (no BLAS) and leaves through os._exit, printing its traceback
    if the write fails; if the pipe closes before the last block, the
    parent is raising and the child deletes its partial file and leaves
    quietly.  Leaving the body
    always waits for the child; a failed child then raises OSError,
    unless the draws or the body are already raising, whose exception
    wins.
    """
    n = len(draws)
    stops = [*range(_BLOCK_ROWS, n, _BLOCK_ROWS), n]
    # one byte at least: mmap refuses an empty map
    x = np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), dtype=float, count=n)
    listen, announce = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        os.close(listen)
        os.close(announce)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(announce)
            _write_sample_rows(path, draws.phases, draws.phase_index, x,
                               _announced(listen, stops))
            code = 0
        except _DrawsAbandoned:
            os.unlink(path)     # a partial file would read as a short batch
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(listen)
    try:
        start = 0
        for stop in stops:
            draws.fill(start, x[start:stop])
            start = stop
            try:
                os.write(announce, b"\0")
            except BrokenPipeError:
                pass    # the child has failed; its exit status says so
        os.close(announce)
        announce = None
        samples = draws.batch(x)
        # the body needs the batch alone: free the lookup tables (about
        # 1.5 MB at the defaults) before it runs
        del draws
        yield samples
    finally:
        if announce is not None:
            os.close(announce)
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise OSError(f"writing {path} failed in its child process "
                      f"(exit status {code})")


def _run_single(cfg: RunConfig, alpha: float, out_dir: Path) -> tuple[dict, list[Path]]:
    """Produce one alpha's artifacts under out_dir, which exists; returns
    its summary row and paths.

    At stage sampled, samples.csv is written by a forked child while the
    draws, the reconstruction, metrics and Wigner grid run here.
    """
    written: list[Path] = []
    out = cfg.outputs[alpha]
    state_for_metrics = out.state
    eta_for_metrics = 1.0
    alpha_dir = out_dir / f"alpha_{_alpha_text(alpha)}"
    alpha_dir.mkdir(exist_ok=True)

    with ExitStack() as children:
        if cfg.stage == "sampled":
            sample_path = alpha_dir / "samples.csv"
            samples = children.enter_context(_samples_streamed_to_child(
                _HomodyneDraws(apply_loss(out.state, LossChannel(cfg.eta_hd)),
                               cfg.phases, cfg.samples_per_state,
                               seed=_alpha_seed(cfg.seed, alpha)),
                sample_path))
            written.append(sample_path)
            rho_path = alpha_dir / "rho.json"
            recon = _reconstruct(samples, cfg.tomography, rho_path)
            written.append(rho_path)
            state_for_metrics = recon.rho
            eta_for_metrics = cfg.eta_hd

        report = build_metrics_report(state_for_metrics, alpha,
                                      out.success_probability, cfg.phases,
                                      eta_hd=eta_for_metrics)
        metrics_path = alpha_dir / "metrics.json"
        write_metrics_json(report, metrics_path)
        written.append(metrics_path)

        wigner_path = alpha_dir / "wigner.csv"
        axes = cfg.wigner_axes
        write_wigner_csv(wigner(state_for_metrics, axes, axes), wigner_path)
        written.append(wigner_path)

    row = {
        "alpha": alpha,
        "g_eff": report.g_eff,
        "ein_min": report.ein_min,
        "ein_avg": report.ein_avg,
        "ein_max": report.ein_max,
        "p_success": report.success_probability,
        "reference_ein": report.reference_ein,
    }
    return row, written


def run_sweep(cfg: RunConfig, out_dir=None) -> list[Path]:
    """Run the alpha sweep; returns every artifact path written.

    The summary CSV is assembled in memory and written last, ordered by
    increasing alpha, so a failing alpha never leaves a partial summary.
    """
    out_dir = Path(cfg.output_dir if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    written: list[Path] = []
    for alpha in sorted(cfg.alphas):
        row, paths = _run_single(cfg, alpha, out_dir)
        rows.append(row)
        written.extend(paths)
    summary = out_dir / "summary.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in rows:
            fields = [f"{row[key]:.12g}" for key in SUMMARY_HEADER.split(",")[1:]]
            fh.write(",".join([_alpha_text(row["alpha"]), *fields]) + "\n")
    written.append(summary)
    return written


# ---------------------------------------------------------------------------
# verbs

def _load_config_or_fail(path, overrides: dict,
                         prepare: bool = True) -> RunConfig:
    """validate_config, with the dotted keys in overrides that are given
    (not None) set over the file's values, or over the package defaults
    when path is None, so that ``run --seed``, ``tomo --n-max`` and the
    like meet the same rules; SystemExit listing the problems if any.
    A verb that reads no alpha's output passes prepare=False."""
    given = {key: value for key, value in overrides.items() if value is not None}
    cfg, problems = _check_file(path, given, prepare)
    if problems:
        raise SystemExit("invalid config:\n" + "\n".join(
            f"  - {p}" for p in problems))
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config_or_fail(args.config, {"sweep.seed": args.seed,
                                             "sweep.stage": args.stage,
                                             "sweep.output_dir": args.out})
    written = run_sweep(cfg)
    print(f"wrote {len(written)} artifacts under {cfg.output_dir}")
    return 0


def _cmd_check(args) -> int:
    cfg, problems = validate_config(args.config)
    if cfg is None:
        print("invalid config:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"ok: {len(cfg.alphas)} alphas, stage={cfg.stage}, "
          f"seed={cfg.seed}, output_dir={cfg.output_dir}")
    return 0


def _cmd_wigner(args) -> int:
    cfg = _load_config_or_fail(args.config, {"sweep.stage": args.stage},
                               prepare=False)
    if args.rho is not None:
        state = read_density_json(args.rho)
    else:
        if args.alpha is None:
            raise SystemExit("wigner needs --alpha (or --rho FILE)")
        state = _stage_output(cfg.amplifier, cfg.stage, args.alpha).state
    write_wigner_csv(wigner(state, cfg.wigner_axes, cfg.wigner_axes), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_tomo(args) -> int:
    cfg = _load_config_or_fail(args.config, {"tomography.n_max": args.n_max},
                               prepare=False)
    result = _reconstruct(read_samples_csv(args.samples), cfg.tomography,
                          args.out)
    print(f"wrote {args.out} (converged after {result.iterations} "
          f"iterations, certified gap {result.gap:.3e} per count)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scissorlab",
        description="heralded noiseless-amplifier simulation sweeps",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run the configured alpha sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--stage", choices=STAGES, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="validate a config file")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_wig = sub.add_parser("wigner", help="write one state's Wigner CSV")
    p_wig.add_argument("--config", required=True)
    p_wig.add_argument("--alpha", type=float, default=None)
    p_wig.add_argument("--rho", default=None,
                       help="density-matrix JSON to map instead of --alpha")
    p_wig.add_argument("--out", required=True)
    p_wig.add_argument("--stage", choices=("analytic", "circuit"), default=None)
    p_wig.set_defaults(func=_cmd_wigner)

    p_tomo = sub.add_parser("tomo", help="reconstruct from a sample CSV")
    p_tomo.add_argument("--samples", required=True)
    p_tomo.add_argument("--out", required=True)
    p_tomo.add_argument("--config", default=None)
    p_tomo.add_argument("--n-max", type=int, default=None)
    p_tomo.set_defaults(func=_cmd_tomo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
