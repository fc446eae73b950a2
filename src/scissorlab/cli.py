"""Command-line sweep harness.

Verbs:
  run     sweep the configured alpha grid, writing per-alpha artifacts
          (metrics JSON, Wigner CSV, samples/reconstruction when sampling)
          plus a summary CSV
  check   validate a config file and report violations with key paths
  wigner  write one state's Wigner grid as CSV
  tomo    reconstruct a density matrix from a sample CSV

Config files are JSON with nested sections (see default_config_dict for
the full schema, and README for prose).  Determinism: the master seed and
each alpha derive a per-alpha substream as
SeedSequence([seed, round(alpha * 10^4)]), so adding or removing one alpha
never perturbs the draws of the others.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .amplifier import (AmplifierConfig, HeraldedOutput, SourceModel,
                        ideal_output, simulate)
from .fock import DensityOperator
from .measurement import (
    default_phase_grid,
    read_samples_csv,
    sample_homodyne,
    write_samples_csv,
)
from .metrics import (
    MetricsReport,
    build_metrics_report,
    phase_space_axes,
    wigner,
    write_metrics_json,
    write_wigner_csv,
)
from .tomography import (
    TomographyProblem,
    bin_samples,
    maxlik_reconstruct,
    read_density_json,
    write_density_json,
)

SCHEMA_VERSION = 1
STAGES = ("analytic", "circuit", "sampled")

SUMMARY_HEADER = "alpha,g_eff,ein_min,ein_avg,ein_max,p_success,reference_ein"


def default_config_dict() -> dict:
    """A complete, valid configuration with the package defaults."""
    return {
        "schema_version": SCHEMA_VERSION,
        "amplifier": {
            "gain": 2.0,
            "detector_mu": 1.0,
            "use_d2_veto": False,
            "accept_both_heralds": False,
            "n_max": 12,
            "source": {
                "weight_vacuum": 0.0,
                "weight_two_photon": 0.0,
                "mode_overlap": 1.0,
            },
        },
        "sweep": {
            "alphas": [0.1, 0.25, 0.5, 1.0],
            "stage": "circuit",
            "phases": 12,
            "samples_per_state": 200000,
            "eta_hd": 0.68,
            "seed": 1,
            "output_dir": "sweep_out",
        },
        "tomography": {
            "bin_count": 100,
            "bin_range": [-6.0, 6.0],
            "n_max": 10,
            "max_iter": 2000,
            "tol": 1e-10,
        },
        "wigner": {"extent": 6.0, "points": 201},
    }


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep settings ready for run_sweep."""

    amplifier: dict
    alphas: tuple[float, ...]
    stage: str
    phases: tuple[float, ...]
    samples_per_state: int
    eta_hd: float
    seed: int
    output_dir: str
    tomography: dict
    wigner: dict

    def amplifier_config(self, alpha: float) -> AmplifierConfig:
        amp = dict(self.amplifier)
        source = SourceModel(**amp.pop("source"))
        return AmplifierConfig(alpha=alpha, source=source, **amp)


def _is_number(value) -> bool:
    """A finite JSON number; true/false, NaN and Infinity are not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(section: dict, allowed: set[str], prefix: str,
                problems: list[str]) -> None:
    for key in section:
        if key not in allowed:
            problems.append(f"{prefix}{key}: unknown key")


def _build_config(raw: dict, problems: list[str]) -> RunConfig | None:
    if not isinstance(raw, dict):
        problems.append("config root must be a JSON object")
        return None
    _check_keys(raw, {"schema_version", "amplifier", "sweep", "tomography",
                      "wigner"}, "", problems)
    if raw.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version: expected {SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )

    defaults = default_config_dict()
    amp = {**defaults["amplifier"], **raw.get("amplifier", {})}
    _check_keys(raw.get("amplifier", {}),
                {"gain", "reflectivity", "detector_mu", "use_d2_veto",
                 "accept_both_heralds", "n_max", "source"},
                "amplifier.", problems)
    if "reflectivity" in amp and "gain" in amp:
        if raw.get("amplifier", {}).get("reflectivity") is not None \
                and raw.get("amplifier", {}).get("gain") is not None:
            problems.append(
                "amplifier: gain and reflectivity are both set; they are "
                "tied by g = sqrt(1 - r^2)/r, so give exactly one"
            )
        elif "reflectivity" in raw.get("amplifier", {}):
            amp.pop("gain", None)
    source_raw = {**defaults["amplifier"]["source"], **amp.get("source", {})}
    _check_keys(amp.get("source", {}),
                {"weight_vacuum", "weight_two_photon", "mode_overlap"},
                "amplifier.source.", problems)
    amp["source"] = source_raw
    typed = [f"amplifier.source.{key}: must be a finite number, got "
             f"{source_raw[key]!r}"
             for key in defaults["amplifier"]["source"]
             if not _is_number(source_raw[key])]
    typed += [f"amplifier.{key}: must be a finite number, got {amp[key]!r}"
              for key in ("gain", "reflectivity", "detector_mu")
              if amp.get(key) is not None and not _is_number(amp[key])]
    if not _is_integer(amp.get("n_max")):
        typed.append(f"amplifier.n_max: must be an integer, got "
                     f"{amp.get('n_max')!r}")
    typed += [f"amplifier.{key}: must be true or false, got {amp[key]!r}"
              for key in ("use_d2_veto", "accept_both_heralds")
              if not isinstance(amp.get(key), bool)]
    problems.extend(typed)
    if not typed:
        try:
            SourceModel(**source_raw)
        except (TypeError, ValueError) as exc:
            problems.append(f"amplifier.source: {exc}")
        try:
            test_amp = dict(amp)
            src = SourceModel(**test_amp.pop("source"))
            AmplifierConfig(alpha=0.1, source=src, **test_amp)
        except (TypeError, ValueError) as exc:
            problems.append(f"amplifier: {exc}")

    sweep = {**defaults["sweep"], **raw.get("sweep", {})}
    _check_keys(raw.get("sweep", {}),
                {"alphas", "stage", "phases", "samples_per_state", "eta_hd",
                 "seed", "output_dir"}, "sweep.", problems)
    alphas = sweep.get("alphas", [])
    if not isinstance(alphas, list) or any(
            not _is_number(a) or a < 0 for a in alphas):
        problems.append(
            "sweep.alphas: must be a list of finite non-negative numbers")
        alphas = []
    # each alpha owns an output directory and a seed, both keyed at 4
    # decimals but rounded differently (0.12345 -> alpha_0.1235/, key 1234)
    dirs = [_alpha_dir_name(a) for a in alphas]
    keys = [_alpha_key(a) for a in alphas]
    clashes = [a for a, d, k in zip(alphas, dirs, keys)
               if dirs.count(d) > 1 or keys.count(k) > 1]
    if clashes:
        problems.append(f"sweep.alphas: {clashes} coincide at 4 decimals "
                        f"(output directory or seed)")
    if sweep.get("stage") not in STAGES:
        problems.append(
            f"sweep.stage: must be one of {STAGES}, got {sweep.get('stage')!r}"
        )
    phases_raw = sweep.get("phases")
    phases: tuple[float, ...] = ()
    if _is_integer(phases_raw) and phases_raw >= 1:
        phases = tuple(default_phase_grid(phases_raw))
    elif isinstance(phases_raw, list) and phases_raw and all(
            _is_number(t) for t in phases_raw):
        phases = tuple(float(t) for t in phases_raw)
    else:
        problems.append(
            "sweep.phases: must be a positive phase count or a list of angles"
        )
    samples = sweep.get("samples_per_state")
    if not _is_integer(samples) or samples < 0:
        problems.append("sweep.samples_per_state: must be a non-negative integer")
        samples = 0
    else:
        problems.extend(_stage_problems(sweep.get("stage"), samples))
    eta = sweep.get("eta_hd")
    if not _is_number(eta) or not 0.0 < eta <= 1.0:
        problems.append(f"sweep.eta_hd: must lie in (0, 1], got {eta!r}")
        eta = 1.0
    problems.extend(_seed_problems(sweep.get("seed")))
    if not isinstance(sweep.get("output_dir"), str):
        problems.append("sweep.output_dir: must be a string path")

    tomo = {**defaults["tomography"], **raw.get("tomography", {})}
    _check_keys(raw.get("tomography", {}),
                {"bin_count", "bin_range", "n_max", "max_iter", "tol"},
                "tomography.", problems)
    if not (_is_integer(tomo.get("bin_count")) and tomo["bin_count"] >= 1):
        problems.append("tomography.bin_count: must be a positive integer")
    rng_pair = tomo.get("bin_range")
    if not (isinstance(rng_pair, list) and len(rng_pair) == 2
            and all(_is_number(v) for v in rng_pair)
            and rng_pair[0] < rng_pair[1]):
        problems.append("tomography.bin_range: must be [lo, hi], finite, "
                        "with lo < hi")
    if not (_is_integer(tomo.get("n_max")) and tomo["n_max"] >= 1):
        problems.append("tomography.n_max: must be a positive integer")
    if not (_is_integer(tomo.get("max_iter")) and tomo["max_iter"] >= 1):
        problems.append("tomography.max_iter: must be a positive integer")
    if not (_is_number(tomo.get("tol")) and tomo["tol"] > 0):
        problems.append("tomography.tol: must be a finite positive number")

    wig = {**defaults["wigner"], **raw.get("wigner", {})}
    _check_keys(raw.get("wigner", {}), {"extent", "points"}, "wigner.", problems)
    if not (_is_number(wig.get("extent")) and wig["extent"] > 0):
        problems.append("wigner.extent: must be a finite positive number")
    if not (_is_integer(wig.get("points")) and wig["points"] >= 2):
        problems.append("wigner.points: must be an integer >= 2")

    if problems:
        return None
    return RunConfig(
        amplifier=amp,
        alphas=tuple(float(a) for a in alphas),
        stage=sweep["stage"],
        phases=phases,
        samples_per_state=samples,
        eta_hd=float(eta),
        seed=sweep["seed"],
        output_dir=sweep["output_dir"],
        tomography=tomo,
        wigner=wig,
    )


def _seed_problems(seed) -> list[str]:
    """The master seed rule, shared by the config and ``run --seed``."""
    if not _is_integer(seed) or seed < 0:
        return [f"sweep.seed: must be a non-negative integer, got {seed!r}"]
    return []


def _stage_problems(stage, samples_per_state: int) -> list[str]:
    """Settings valid alone but not at this stage (``run --stage`` can
    change the stage after the config passed)."""
    if stage == "sampled" and samples_per_state == 0:
        return ["sweep.samples_per_state: must be positive at stage sampled "
                "(tomography cannot reconstruct from no samples)"]
    return []


def validate_config(path) -> tuple[RunConfig | None, list[str]]:
    """Parse and invariant-check a config file.

    Returns (config, []) when valid, else (None, violations); violations
    carry dotted key paths, and parse failures name the line.
    """
    problems: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        return None, [f"parse error at line {exc.lineno}, column {exc.colno}: "
                      f"{exc.msg}"]
    cfg = _build_config(raw, problems)
    return cfg, problems


def _alpha_key(alpha: float) -> int:
    # documented stable rule: alphas keyed at 4-decimal resolution
    return int(round(alpha * 10_000))


def _alpha_seed(seed: int, alpha: float) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _alpha_key(alpha)])


def _alpha_dir_name(alpha: float) -> str:
    return f"alpha_{alpha:.4f}"


def _stage_output(cfg: RunConfig, alpha: float, stage: str) -> HeraldedOutput:
    """One alpha's output: the closed form at stage analytic, else the circuit."""
    amp_cfg = cfg.amplifier_config(alpha)
    if stage == "analytic":
        return ideal_output(alpha, amp_cfg.g, amp_cfg.n_max,
                            amp_cfg.accept_both_heralds)
    return simulate(amp_cfg)


def _run_single(cfg: RunConfig, alpha: float, out_dir: Path) -> tuple[dict, list[Path]]:
    """Produce one alpha's artifacts; returns its summary row and paths."""
    written: list[Path] = []
    out = _stage_output(cfg, alpha, cfg.stage)
    state_for_metrics = out.state
    eta_for_metrics = 1.0
    alpha_dir = out_dir / _alpha_dir_name(alpha)
    alpha_dir.mkdir(parents=True, exist_ok=True)

    if cfg.stage == "sampled":
        samples = sample_homodyne(out.state, cfg.phases, cfg.samples_per_state,
                                  eta_hd=cfg.eta_hd,
                                  seed=_alpha_seed(cfg.seed, alpha))
        sample_path = alpha_dir / "samples.csv"
        write_samples_csv(samples, sample_path)
        written.append(sample_path)
        hists = bin_samples(samples, cfg.phases,
                            bin_count=cfg.tomography["bin_count"],
                            value_range=tuple(cfg.tomography["bin_range"]))
        problem = TomographyProblem(hists, n_max=cfg.tomography["n_max"])
        recon = maxlik_reconstruct(problem,
                                   max_iter=cfg.tomography["max_iter"],
                                   tol=cfg.tomography["tol"])
        rho_path = alpha_dir / "rho.json"
        write_density_json(recon.rho, rho_path)
        written.append(rho_path)
        state_for_metrics = recon.rho
        eta_for_metrics = cfg.eta_hd

    report = build_metrics_report(state_for_metrics, alpha,
                                  out.success_probability, cfg.phases,
                                  eta_hd=eta_for_metrics)
    metrics_path = alpha_dir / "metrics.json"
    write_metrics_json(report, metrics_path)
    written.append(metrics_path)

    axes = phase_space_axes(cfg.wigner["extent"], cfg.wigner["points"])
    grid = wigner(state_for_metrics, axes, axes)
    wigner_path = alpha_dir / "wigner.csv"
    write_wigner_csv(grid, wigner_path)
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
    rows: list[dict] = []
    written: list[Path] = []
    for alpha in sorted(cfg.alphas):
        row, paths = _run_single(cfg, alpha, out_dir)
        rows.append(row)
        written.extend(paths)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir / "summary.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in rows:
            fields = [f"{row[key]:.12g}" for key in SUMMARY_HEADER.split(",")[1:]]
            fh.write(",".join([f"{row['alpha']:.4f}", *fields]) + "\n")
    written.append(summary)
    return written


# ---------------------------------------------------------------------------
# verbs

def _fail_on(problems: list[str]) -> None:
    if problems:
        raise SystemExit("invalid config:\n" + "\n".join(
            f"  - {p}" for p in problems))


def _load_config_or_fail(path) -> RunConfig:
    cfg, problems = validate_config(path)
    _fail_on(problems)
    return cfg


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    from dataclasses import replace

    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "stage", None) is not None:
        updates["stage"] = args.stage
    if getattr(args, "out", None) is not None:
        updates["output_dir"] = str(args.out)
    cfg = replace(cfg, **updates) if updates else cfg
    _fail_on(_seed_problems(cfg.seed)
             + _stage_problems(cfg.stage, cfg.samples_per_state))
    return cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(_load_config_or_fail(args.config), args)
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
    cfg = _load_config_or_fail(args.config)
    if args.rho is not None:
        state = read_density_json(args.rho)
    else:
        if args.alpha is None:
            raise SystemExit("wigner needs --alpha (or --rho FILE)")
        state = _stage_output(cfg, args.alpha, args.stage or cfg.stage).state
    axes = phase_space_axes(cfg.wigner["extent"], cfg.wigner["points"])
    grid = wigner(state, axes, axes)
    write_wigner_csv(grid, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_tomo(args) -> int:
    cfg = _load_config_or_fail(args.config) if args.config else None
    tomo = cfg.tomography if cfg else default_config_dict()["tomography"]
    samples = read_samples_csv(args.samples)
    phases = np.unique(samples.theta)
    hists = bin_samples(samples, phases, bin_count=tomo["bin_count"],
                        value_range=tuple(tomo["bin_range"]))
    n_max = args.n_max if args.n_max is not None else tomo["n_max"]
    problem = TomographyProblem(hists, n_max=n_max)
    result = maxlik_reconstruct(problem, max_iter=tomo["max_iter"],
                                tol=tomo["tol"])
    write_density_json(result.rho, args.out)
    status = "converged" if result.converged else "hit iteration cap"
    print(f"wrote {args.out} ({status} after {result.iterations} iterations)")
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
