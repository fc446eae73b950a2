"""The benchmark's workloads: generated inputs, the points of one pass,
and the correctness check every point passes.

A *point* is one alpha's full artifact set from ``run_sweep``, called
with a one-alpha config so that each point can be timed on its own.  A
*pass* is every point of the workload once, in a fixed order.  The
program only ever sees the config files written here.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

#: the documented default sweep (README, "Config file"), kept here verbatim
#: so that a later change of the package defaults does not change the
#: workload; stage and seed are set per workload
DEFAULT_CONFIG = {
    "schema_version": 1,
    "amplifier": {
        "gain": 2.0,
        "detector_mu": 1.0,
        "use_d2_veto": False,
        "accept_both_heralds": False,
        "n_max": 12,
        "source": {"weight_vacuum": 0.0, "weight_two_photon": 0.0,
                   "mode_overlap": 1.0},
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
    "tomography": {"bin_count": 100, "bin_range": [-6.0, 6.0], "n_max": 10,
                   "max_iter": 2000, "tol": 1e-10},
    "wigner": {"extent": 6.0, "points": 201},
}

#: EXPERIMENT_PRESET and EXPERIMENT_PRESET_MU, written out as config values
PRESET_SOURCE = {"weight_vacuum": 0.08, "weight_two_photon": 0.04,
                 "mode_overlap": 0.92}
PRESET_MU = 0.07

#: a reconstruction from 200k samples must come this close to the
#: loss-degraded truth (criterion 4 asks 0.995 at alpha = 0.25)
MIN_RECON_FIDELITY = 0.99

#: circuit-stage outputs of every sweep point (p_success, and g_eff for
#: circuit-scan) from the package the benchmark was defined on, keyed by
#: workload and alpha; the in-process truth is computed by the code under
#: test, so only these catch a change to the circuit physics
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
#: relative tolerance against REFERENCE; summary.csv keeps 12 digits
REL_TOL = 1e-9


class CheckFailed(Exception):
    """A point's outputs are wrong."""


@dataclass
class Point:
    """One unit of work: ``run(out_dir)`` produces it, ``check`` verifies it.

    ``run`` returns the artifact paths it wrote.  ``check`` raises
    CheckFailed on a wrong output; it returns the reconstruction's
    fidelity to the truth, or None when the point reconstructs nothing.
    """

    name: str
    run: Callable[[Path], list[Path]]
    check: Callable[[Path, list[Path]], float | None]


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def _config(stage: str, seed: int, alphas, **sections) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["sweep"].update(stage=stage, seed=seed, alphas=list(alphas))
    for section, values in sections.items():
        cfg[section].update(values)
    return cfg


# ---------------------------------------------------------------------------
# checks shared by the sweep workloads

def _summary_row(path: Path, alpha: float) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 2:
        raise CheckFailed(f"{path}: {len(lines) - 1} rows for one alpha")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    if row.get("alpha") != f"{alpha:.4f}":
        raise CheckFailed(f"{path}: row alpha {row.get('alpha')} != {alpha:.4f}")
    p = float(row["p_success"])
    if not 0.0 < p <= 1.0:
        raise CheckFailed(f"{path}: p_success {p} outside (0, 1]")
    g = float(row["g_eff"])
    if not (math.isfinite(g) and g > 0.0):
        raise CheckFailed(f"{path}: g_eff {g} is not a positive number")
    return {"p_success": p, "g_eff": g}


def _check_close(what: str, got: float, want: float) -> None:
    if abs(got - want) > REL_TOL * abs(want):
        raise CheckFailed(f"{what} {got!r} differs from {want!r}")


def _check_wigner(path: Path, points: int) -> None:
    """The map covers the grid, has unit mass and obeys |W| <= 1/pi."""
    import numpy as np

    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (points * points, 3):
        raise CheckFailed(f"{path}: shape {table.shape}, want {points ** 2} rows")
    x = np.unique(table[:, 0])
    step = x[1] - x[0]
    mass = table[:, 2].sum() * step * step
    if abs(mass - 1.0) > 0.02:
        raise CheckFailed(f"{path}: Wigner mass {mass:.4f} is not 1")
    if np.abs(table[:, 2]).max() > 1.0 / math.pi + 1e-9:
        raise CheckFailed(f"{path}: Wigner value beyond 1/pi")


def _check_state(rho, truth) -> float:
    """Validate a reconstruction and return its fidelity to the truth."""
    from scissorlab import fidelity, resize_mode

    try:
        rho.validate()
    except ValueError as exc:
        raise CheckFailed(f"reconstruction is not a state: {exc}") from exc
    fid = fidelity(rho, resize_mode(truth, 0, rho.dim))
    if fid < MIN_RECON_FIDELITY:
        raise CheckFailed(f"fidelity {fid:.5f} below {MIN_RECON_FIDELITY}")
    return fid


def _circuit_truth(config_path: Path, alpha: float, degrade: bool):
    """simulate(...) and, when asked, apply_loss(state, eta_hd), which is
    criterion 4's truth for a reconstruction."""
    from scissorlab import LossChannel, apply_loss, simulate
    from scissorlab.cli import validate_config

    cfg, problems = validate_config(config_path)
    if cfg is None:
        raise CheckFailed(f"{config_path}: {problems}")
    out = simulate(cfg.amplifier_config(alpha))
    if not degrade:
        return out, None
    return out, apply_loss(out.state, LossChannel(cfg.eta_hd))


# ---------------------------------------------------------------------------
# workloads

class SweepWorkload:
    """``run_sweep`` once per alpha, each from its own one-alpha config."""

    def __init__(self, work: Path, seed: int, name: str, stage: str, alphas,
                 sections):
        self.stage = stage
        self.reference = REFERENCE[name]
        self.wigner_points = sections.get("wigner", {}).get(
            "points", DEFAULT_CONFIG["wigner"]["points"])
        self.samples = DEFAULT_CONFIG["sweep"]["samples_per_state"]
        cfg_dir = work / "configs"
        cfg_dir.mkdir(parents=True)
        self.configs = {
            a: _write_json(cfg_dir / f"alpha_{a:.4f}.json",
                           _config(stage, seed, [a], **sections))
            for a in alphas
        }
        self.cold_config = next(iter(self.configs.values()))
        self.truth: dict[float, tuple] = {}
        self.points = [Point(f"alpha_{a:.4f}", self._runner(a), self._checker(a))
                       for a in alphas]

    def compute_truth(self) -> None:
        for alpha, path in self.configs.items():
            self.truth[alpha] = _circuit_truth(path, alpha,
                                               self.stage == "sampled")

    def _runner(self, alpha: float):
        # names are looked up on the module at call time, so that the
        # traced run sees its wrappers
        from scissorlab import cli

        path = self.configs[alpha]

        def run(out_dir: Path) -> list[Path]:
            cfg, problems = cli.validate_config(path)
            if cfg is None:
                raise CheckFailed(f"{path} rejected: {problems}")
            return cli.run_sweep(cfg, out_dir=out_dir)
        return run

    def _checker(self, alpha: float):
        from scissorlab import effective_gain, read_density_json

        def check(out_dir: Path, written: list[Path]) -> float | None:
            circuit, truth = self.truth[alpha]
            for p in written:
                if not p.is_file():
                    raise CheckFailed(f"run_sweep listed {p}, which is missing")
            row = _summary_row(out_dir / "summary.csv", alpha)
            alpha_dir = out_dir / f"alpha_{alpha:.4f}"
            json.loads((alpha_dir / "metrics.json").read_text(encoding="utf-8"))
            _check_wigner(alpha_dir / "wigner.csv", self.wigner_points)
            reference = self.reference[f"{alpha:.4f}"]
            _check_close("p_success", row["p_success"], reference[0])
            # the same quantity from this process, so that a run which
            # does not repeat itself fails too
            _check_close("p_success", row["p_success"],
                         circuit.success_probability)
            if self.stage != "sampled":
                _check_close("g_eff", row["g_eff"], reference[1])
                _check_close("g_eff", row["g_eff"],
                             effective_gain(circuit.state, alpha))
                return None
            with open(alpha_dir / "samples.csv", "rb") as fh:
                rows = sum(chunk.count(b"\n") for chunk in iter(
                    lambda: fh.read(1 << 20), b"")) - 1
            if rows != self.samples:
                raise CheckFailed(f"samples.csv holds {rows} draws, "
                                  f"want {self.samples}")
            return _check_state(read_density_json(alpha_dir / "rho.json"), truth)
        return check


WORKLOADS = {
    # the ROADMAP north-star sweep: POVM build, MaxLik, sample objects and
    # the CSV writers do the work; simulate is under 0.1%
    "sampled-default": lambda work, seed: SweepWorkload(
        work, seed, "sampled-default", "sampled",
        DEFAULT_CONFIG["sweep"]["alphas"], {}),
    # criterion 9's dense gain curve: simulate (companion modes) and the
    # Wigner writer do the work; sampling and tomography are bypassed
    "circuit-scan": lambda work, seed: SweepWorkload(
        work, seed, "circuit-scan", "circuit",
        [k / 400 for k in range(1, 401)],
        {"amplifier": {"detector_mu": PRESET_MU, "accept_both_heralds": True,
                       "source": PRESET_SOURCE},
         "wigner": {"points": 41}}),
}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
