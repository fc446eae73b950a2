"""Config validation, sweep artifacts, and the command-line verbs."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scissorlab
from scissorlab import (AmplifierConfig, CapacityError, LossChannel,
                        SourceModel, apply_loss, cli, read_density_json,
                        read_samples_csv, sample_homodyne, vacuum_state,
                        wigner, write_samples_csv)
from scissorlab.cli import (
    SUMMARY_HEADER,
    default_config_dict,
    main,
    run_sweep,
    validate_config,
)
from scissorlab.numerics import SAMPLE_CAP


def write_config(tmp_path, name="config.json", **changes):
    cfg = default_config_dict()
    for path, value in changes.items():
        section, _, key = path.partition(".")
        if key:
            cfg.setdefault(section, {})[key] = value
        else:
            cfg[section] = value
    out = tmp_path / name
    out.write_text(json.dumps(cfg, indent=1))
    return out


def small_sampled_config(tmp_path, **extra):
    changes = {
        "sweep.alphas": [0.25],
        "sweep.stage": "sampled",
        "sweep.phases": 6,
        "sweep.samples_per_state": 6000,
        "sweep.output_dir": str(tmp_path / "out"),
        "tomography.max_iter": 300,
    }
    changes.update(extra)
    return write_config(tmp_path, **changes)


def test_default_config_validates(tmp_path):
    path = write_config(tmp_path)
    cfg, problems = validate_config(path)
    assert problems == []
    assert cfg is not None
    assert cfg.stage == "circuit"
    assert cfg.alphas == (0.1, 0.25, 0.5, 1.0)
    assert len(cfg.phases) == 12
    assert cfg.phases[1] == pytest.approx(math.pi / 12)


def test_readme_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Config file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_config_dict()


def test_unknown_key_flagged(tmp_path):
    path = write_config(tmp_path, **{"sweep.eta_hc": 0.5})
    cfg, problems = validate_config(path)
    assert cfg is None or problems
    assert any("eta_hc" in p for p in problems)


def test_reflectivity_key_is_unknown(tmp_path, capsys):
    # the gain is the amplifier's one parameter; r is not a second spelling
    path = write_config(tmp_path, **{"amplifier.reflectivity": 0.3})
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().out == (
        "invalid config:\n  - amplifier.reflectivity: unknown key\n")


def test_amplifier_section_validated_once(tmp_path):
    # the config holds the validated AmplifierConfig; each alpha's is a copy
    path = write_config(tmp_path, **{"amplifier.gain": 3.0,
                                     "amplifier.n_max": 14,
                                     "amplifier.source": {"mode_overlap": 0.9}})
    cfg, problems = validate_config(path)
    assert problems == []
    expected = AmplifierConfig(alpha=0.0, gain=3.0, n_max=14,
                               source=SourceModel(mode_overlap=0.9))
    assert cfg.amplifier == expected
    assert cfg.amplifier_config(0.25) == replace(expected, alpha=0.25)


@pytest.mark.parametrize("alphas, clash", [
    ([0.25, 0.1, 0.10001], "[0.1, 0.10001]"),
    ([0.1234, 0.12345, 0.5], "[0.1234, 0.12345]"),
], ids=["same-directory-and-seed", "rounding-tie"])
def test_colliding_alphas_flagged(tmp_path, alphas, clash):
    path = write_config(tmp_path, **{"sweep.alphas": alphas})
    cfg, problems = validate_config(path)
    assert cfg is None
    assert any(p.startswith(f"sweep.alphas: {clash} coincide")
               for p in problems)


@pytest.mark.parametrize("alpha, name", [(0.12345, "0.1234"),
                                         (-0.0, "0.0000")],
                         ids=["rounding-tie", "negative-zero"])
def test_alpha_key_names_directory_and_summary_row(tmp_path, alpha, name):
    # one rounding, the seed's: 0.12345 * 10^4 rounds half to even, and
    # -0.0 keys to 0 (a %.4f format would give 0.1235 and -0.0000)
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.alphas": [alpha],
                                     "sweep.stage": "analytic",
                                     "sweep.output_dir": str(out_dir),
                                     "wigner.points": 3})
    assert cli._alpha_key(alpha) == int(name.replace(".", ""))
    assert main(["run", "--config", str(path)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [f"alpha_{name}",
                                                          "summary.csv"]
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == name


@pytest.mark.parametrize("key, value", [
    ("sweep.alphas", [math.inf]),
    ("sweep.alphas", [math.nan]),
    ("wigner.extent", math.inf),
    ("tomography.bin_range", [-math.inf, 6.0]),
    ("amplifier.gain", math.nan),
    ("amplifier.detector_mu", True),
    ("amplifier.n_max", 12.5),
    ("amplifier.use_d2_veto", "no"),
    ("amplifier.source", {"weight_vacuum": math.nan}),
    ("sweep.seed", True),
    ("sweep.phases", True),
    ("sweep.samples_per_state", True),
    # sections that are not objects
    ("amplifier", 5),
    ("sweep", []),
    ("tomography", "x"),
    ("amplifier.source", 5),
    # a repeated angle would take two shares of the draws and count twice
    # in the phase-averaged noise
    ("sweep.phases", [0.0, 0.0, 1.0]),
    # integers no double holds: float() of them overflows
    ("amplifier.gain", 10**400),
    ("sweep.eta_hd", 10**400),
])
def test_non_finite_and_boolean_values_flagged(tmp_path, capsys, monkeypatch,
                                               key, value):
    # Python's json reads NaN, Infinity and true; none is a valid number here
    monkeypatch.chdir(tmp_path)  # where a replaced sweep section would write
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.output_dir": str(out_dir),
                                     key: value})
    path_key = key + ".weight_vacuum" if isinstance(value, dict) else key
    assert main(["check", "--config", str(path)]) == 1
    assert f"  - {path_key}: " in capsys.readouterr().out
    assert main(["run", "--config", str(path)]) == 1
    assert f"  - {path_key}: " in capsys.readouterr().err
    assert not out_dir.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_wigner_verb_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    path = write_config(tmp_path)
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(path), "--alpha", alpha,
                 "--out", str(out)]) == 1
    assert f"error: alpha must be finite, got {alpha}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("sweep.samples_per_state", 0),
    # run would ask for 8 TB of uniforms: refused before anything is drawn
    ("sweep.samples_per_state", 10**12),
    ("sweep.phases", 1),
    ("sweep.phases", [0.5]),
    ("tomography.bin_count", 1),
    # bin_samples would refuse bins narrower than double precision resolves
    # only after the circuit ran and samples.csv was written
    ("tomography.bin_range", [1e15, 1e15 + 1.0]),
    ("tomography.bin_range", [-1e-320, 1e-320]),
], ids=["zero-samples", "too-many-samples", "one-phase", "one-angle",
        "one-bin", "unresolved-bins", "subnormal-bins"])
def test_stage_sampled_needs_samples_and_phases(tmp_path, capsys, key, value):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.stage": "sampled", key: value})
    cfg, problems = validate_config(path)
    assert cfg is None
    assert any(p.startswith(f"{key}:") for p in problems)
    # the circuit stage needs no tomography, but --stage sampled does
    path = write_config(tmp_path, **{"sweep.alphas": [0.25], key: value,
                                     "sweep.output_dir": str(out_dir)})
    assert main(["check", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--stage", "sampled"]) == 1
    assert f"{key}:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("gain", [10**300, 1e300],
                         ids=["integer", "float"])
def test_gain_whose_square_overflows_rejected(tmp_path, capsys, gain):
    # r = 1 / sqrt(1 + g^2) would overflow (integer) or round to 0 (float)
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"amplifier.gain": gain,
                                     "sweep.output_dir": str(out_dir)})
    message = ("  - amplifier: gain must be below about 1.34e154, where its "
               f"square overflows a double, got {gain}")
    assert main(["check", "--config", str(path)]) == 1
    assert message in capsys.readouterr().out.splitlines()
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err.splitlines()
    assert not out_dir.exists()


def test_eta_rule_is_the_loss_channel_rule(tmp_path, capsys):
    path = write_config(tmp_path, **{"sweep.eta_hd": 1.5})
    with pytest.raises(ValueError) as rule:
        LossChannel(1.5)
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"invalid config:\n  - sweep.eta_hd: {rule.value}\n")
    assert str(rule.value) == "transmission eta must lie in (0, 1], got 1.5"


def test_sample_count_rule_is_the_sampler_rule(tmp_path, capsys):
    count = SAMPLE_CAP + 1
    path = write_config(tmp_path, **{"sweep.stage": "sampled",
                                     "sweep.samples_per_state": count})
    with pytest.raises(CapacityError) as rule:
        sample_homodyne(vacuum_state(2), [0.0, 1.0], count)
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"invalid config:\n  - sweep.samples_per_state: {rule.value}\n")
    assert str(rule.value) == "10000001 samples exceed the cap 10000000 " \
        "on one batch"


def test_bin_count_capped_before_the_edges_are_built(tmp_path, capsys,
                                                     monkeypatch):
    # 10^13 bins would be an 80 TB edge array: the capacity rule rejects
    # the count, and the edges are never built
    def no_edges(bin_count, value_range):
        raise AssertionError("the bin edges were built")

    monkeypatch.setattr(cli, "_bin_edges", no_edges)
    path = write_config(tmp_path, **{"sweep.stage": "sampled",
                                     "tomography.bin_count": 10**13})
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().out == (
        "invalid config:\n  - tomography.n_max: n_max = 10 on "
        "10000000000000 bins needs a tomography working size of "
        "1210000000000242, above the cap 1000000\n")


def test_bin_range_wider_than_a_double_rejected(tmp_path, capsys):
    # hi - lo overflows: rejected as such, with no numpy RuntimeWarning
    path = write_config(tmp_path, **{"sweep.stage": "sampled",
                                     "tomography.bin_range": [-1e308, 1e308]})
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().out == (
        "invalid config:\n  - tomography.bin_range: value range "
        "(-1e+308, 1e+308) is wider than a double holds\n")


@pytest.mark.parametrize("stage", ["circuit", "sampled"])
def test_alpha_beyond_the_cutoff_rejected(tmp_path, capsys, stage):
    # |2.5> loses 1.2e-2 of its probability above amplifier.n_max = 12
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.alphas": [0.25, 2.5],
                                     "sweep.stage": stage,
                                     "sweep.output_dir": str(out_dir)})
    message = "  - sweep.alphas: alpha 2.5 does not fit amplifier.n_max = 12"
    assert main(["check", "--config", str(path)]) == 1
    assert message in capsys.readouterr().out
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    # the closed form needs no coherent input on the cutoff
    assert main(["run", "--config", str(path), "--stage", "analytic"]) == 0
    assert (out_dir / "summary.csv").is_file()


@pytest.mark.parametrize("stage", ["circuit", "sampled"])
@pytest.mark.parametrize("n_max, overlap, size", [
    (575, 1.0, 578 * 3 * 578),
    (2000, 1.0, 2003 * 3 * 2003),
    # the companion modes multiply the working size by 27
    (109, 0.9, 112 * 3 * 112 * 27),
], ids=["575", "2000", "companion-109"])
def test_cutoff_beyond_the_capacity_rejected(tmp_path, capsys, stage, n_max,
                                             overlap, size):
    # simulate refuses a working size above numerics.DIMENSION_CAP,
    # so check must refuse that cutoff too, and run before writing anything
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"amplifier.n_max": n_max,
                                     "amplifier.source": {"mode_overlap": overlap},
                                     "sweep.stage": stage,
                                     "sweep.output_dir": str(out_dir)})
    message = (f"  - amplifier.n_max: n_max = {n_max} needs a circuit "
               f"working size of {size}, above the cap 1000000")
    assert main(["check", "--config", str(path)]) == 1
    assert message in capsys.readouterr().out
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("n_max, overlap", [(574, 1.0), (108, 0.9)])
def test_cutoff_at_the_capacity_accepted(tmp_path, n_max, overlap):
    # only check: the rule at the cap is what is under test
    path = write_config(tmp_path, **{"amplifier.n_max": n_max,
                                     "amplifier.source": {"mode_overlap": overlap}})
    cfg, problems = validate_config(path)
    assert problems == []
    assert cfg.amplifier.n_max == n_max


@pytest.mark.parametrize("n_max, accepted", [(98, True), (99, False)])
def test_reconstruction_cutoff_capped(tmp_path, capsys, n_max, accepted):
    # the overlap stack has (bin_count + 2)(n_max + 1)^2 entries: on 100
    # bins 98 fits the cap, 99 does not
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"tomography.n_max": n_max,
                                     "sweep.output_dir": str(out_dir)})
    message = ("  - tomography.n_max: n_max = 99 on 100 bins needs a "
               "tomography working size of 1020000, above the cap 1000000")
    assert main(["check", "--config", str(path)]) == (0 if accepted else 1)
    assert (message in capsys.readouterr().out) != accepted
    if not accepted:
        assert main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_tomo_cutoff_capped_before_reading(tmp_path, capsys):
    # the samples file does not exist: the cap must fail first
    out = tmp_path / "recon.json"
    assert main(["tomo", "--samples", str(tmp_path / "missing.csv"),
                 "--out", str(out), "--n-max", "1000"]) == 1
    assert capsys.readouterr().err == (
        "invalid config:\n  - tomography.n_max: n_max = 1000 on 100 bins "
        "needs a tomography working size of 102204102, above the cap "
        "1000000\n")
    assert not out.exists()


def test_tomo_cutoff_must_be_positive_before_reading(tmp_path, capsys):
    # the tomography.n_max rule, met before the samples file is opened
    out = tmp_path / "recon.json"
    assert main(["tomo", "--samples", str(tmp_path / "missing.csv"),
                 "--out", str(out), "--n-max", "0"]) == 1
    assert capsys.readouterr().err == (
        "invalid config:\n  - tomography.n_max: must be a positive integer, "
        "got 0\n")
    assert not out.exists()


@pytest.mark.parametrize("count, accepted", [(49, True), (50, False)])
def test_sampled_phase_count_capped(tmp_path, capsys, count, accepted):
    # sampling holds 20195 table entries per phase at its peak: 49 phases
    # fit the cap, 50 (1009750 entries) do not
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.stage": "sampled",
                                     "sweep.phases": count,
                                     "sweep.output_dir": str(out_dir)})
    message = ("  - sweep.phases: 50 phases need sampling tables of "
               "1009750 entries, above the cap 1000000")
    assert main(["check", "--config", str(path)]) == (0 if accepted else 1)
    assert (message in capsys.readouterr().out) != accepted
    if not accepted:
        assert main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        # the circuit stage builds no sampling table
        path = write_config(tmp_path, **{"sweep.phases": count})
        assert main(["check", "--config", str(path)]) == 0


def test_phase_count_capped_before_the_grid(tmp_path, capsys, monkeypatch):
    # 10^6 + 1 phases exceed the cap at every stage, and the grid, which
    # a count of 10^9 would make an 8 GB array, is never built
    def no_grid(count):
        raise AssertionError("the phase grid was built")

    monkeypatch.setattr(cli, "default_phase_grid", no_grid)
    path = write_config(tmp_path, **{"sweep.phases": 10**6 + 1})
    assert main(["check", "--config", str(path)]) == 1
    assert ("  - sweep.phases: 1000001 phases exceed the cap 1000000"
            in capsys.readouterr().out)


@pytest.mark.parametrize("points, accepted", [(1000, True), (1001, False)])
def test_wigner_points_capped(tmp_path, capsys, points, accepted):
    # a grid of points^2 values: 1000 fits the cap, 1001 does not
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"wigner.points": points,
                                     "sweep.output_dir": str(out_dir)})
    message = ("  - wigner.points: 1001 points need a grid of 1002001 "
               "values, above the cap 1000000")
    assert main(["check", "--config", str(path)]) == (0 if accepted else 1)
    assert (message in capsys.readouterr().out) != accepted
    if not accepted:
        assert main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert main(["wigner", "--config", str(path), "--alpha", "0.1",
                     "--out", str(out_dir / "w.csv")]) == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_negative_seed_override_rejected(tmp_path, capsys):
    # --seed bypasses the config file, so it must meet the same rule
    path = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "-1"]) == 1
    assert "  - sweep.seed: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("version", [99, True])
def test_schema_version_checked(tmp_path, version):
    # true == 1 in Python, but it is not the version number
    path = write_config(tmp_path, schema_version=version)
    _, problems = validate_config(path)
    assert any("schema_version" in p for p in problems)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "sweep": [}\n')
    cfg, problems = validate_config(path)
    assert cfg is None
    assert any("line 2" in p for p in problems)


def test_check_verb(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["check", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_check_verb_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, **{"sweep.stage": "warp"})
    assert main(["check", "--config", str(path)]) == 1
    assert "invalid config" in capsys.readouterr().out


def test_missing_config_is_reported(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_analytic_sweep_artifacts(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{
        "sweep.alphas": [0.0, 0.1],
        "sweep.stage": "analytic",
        "sweep.output_dir": str(out_dir),
    })
    assert main(["run", "--config", str(path)]) == 0
    summary = (out_dir / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 3
    # vacuum row carries NaN gain but a real success probability
    first = summary[1].split(",")
    assert first[0] == "0.0000"
    assert first[1] == "nan"
    assert float(first[5]) == pytest.approx(0.1, rel=1e-9)
    for name in ("alpha_0.0000", "alpha_0.1000"):
        assert (out_dir / name / "metrics.json").exists()
        assert (out_dir / name / "wigner.csv").exists()
    metrics = json.loads((out_dir / "alpha_0.1000" / "metrics.json")
                         .read_text())
    assert metrics["g_eff"] == pytest.approx(2.0 / 1.04, rel=1e-9)


def test_analytic_stage_ignores_the_input_cutoff(tmp_path, monkeypatch):
    # the closed form takes no coherent input, so check accepts any
    # amplifier.n_max at stage analytic, and the heralded state it maps
    # stays on mode T's three levels
    def three_level_wigner(state, x, p):
        assert state.mode_dims == (3,)
        return wigner(state, x, p)

    monkeypatch.setattr(cli, "wigner", three_level_wigner)
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"amplifier.n_max": 5000,
                                     "sweep.alphas": [0.25],
                                     "sweep.stage": "analytic",
                                     "sweep.output_dir": str(out_dir)})
    assert main(["check", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--stage", "analytic"]) == 0
    lines = (out_dir / "alpha_0.2500" / "wigner.csv").read_text().splitlines()
    assert len(lines) == 1 + 201 * 201


def test_summary_rows_sorted_by_alpha(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{
        "sweep.alphas": [0.5, 0.1, 0.25],
        "sweep.stage": "analytic",
        "sweep.output_dir": str(out_dir),
    })
    assert main(["run", "--config", str(path)]) == 0
    rows = (out_dir / "summary.csv").read_text().strip().split("\n")[1:]
    alphas = [float(r.split(",")[0]) for r in rows]
    assert alphas == [0.1, 0.25, 0.5]


def test_empty_alpha_list_gives_bare_summary(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{
        "sweep.alphas": [],
        "sweep.stage": "analytic",
        "sweep.output_dir": str(out_dir),
    })
    assert main(["run", "--config", str(path)]) == 0
    assert (out_dir / "summary.csv").read_text().strip() == SUMMARY_HEADER


def test_sweep_makes_each_directory_once(tmp_path, monkeypatch):
    made = []

    def mkdir(path, *args, **kwargs):
        made.append(os.fspath(path))
        return real_mkdir(path, *args, **kwargs)

    real_mkdir = os.mkdir
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.alphas": [0.25, 0.1],
                                     "sweep.stage": "analytic",
                                     "sweep.output_dir": str(out_dir)})
    cfg, _ = validate_config(path)
    monkeypatch.setattr(os, "mkdir", mkdir)
    # a fresh tree, then the same tree again
    for _ in range(2):
        made.clear()
        run_sweep(cfg)
        assert made == [str(out_dir), str(out_dir / "alpha_0.1000"),
                        str(out_dir / "alpha_0.2500")]
    # a missing parent is still made
    run_sweep(cfg, out_dir=tmp_path / "nested" / "out")
    assert (tmp_path / "nested" / "out" / "summary.csv").is_file()


@pytest.mark.parametrize("alphas", [[], [0.25]])
def test_output_dir_that_is_a_file_fails_the_run(tmp_path, capsys, alphas):
    blocker = tmp_path / "out"
    blocker.write_text("kept")
    for out_dir in (blocker, blocker / "below"):
        path = write_config(tmp_path, **{"sweep.alphas": alphas,
                                         "sweep.stage": "analytic",
                                         "sweep.output_dir": str(out_dir)})
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker) in err
    assert blocker.read_text() == "kept"


def test_circuit_stage_close_to_analytic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = {"sweep.alphas": [0.1], "amplifier.use_d2_veto": True}
    path = write_config(tmp_path, name="a.json",
                        **{**base, "sweep.stage": "analytic",
                           "sweep.output_dir": str(out_a)})
    assert main(["run", "--config", str(path)]) == 0
    path = write_config(tmp_path, name="b.json",
                        **{**base, "sweep.stage": "circuit",
                           "sweep.output_dir": str(out_b)})
    assert main(["run", "--config", str(path)]) == 0
    ga = json.loads((out_a / "alpha_0.1000" / "metrics.json").read_text())
    gb = json.loads((out_b / "alpha_0.1000" / "metrics.json").read_text())
    assert ga["g_eff"] == pytest.approx(gb["g_eff"], rel=1e-9)
    assert ga["success_probability"] == pytest.approx(
        gb["success_probability"], rel=1e-6)


def test_sampled_stage_writes_and_repeats(tmp_path):
    path = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    adir = out / "alpha_0.2500"
    samples_one = (adir / "samples.csv").read_bytes()
    rho_one = (adir / "rho.json").read_bytes()
    summary_one = (out / "summary.csv").read_bytes()
    assert len(read_samples_csv(adir / "samples.csv")) == 6000
    # identical request, identical bytes
    assert main(["run", "--config", str(path)]) == 0
    assert (adir / "samples.csv").read_bytes() == samples_one
    assert (adir / "rho.json").read_bytes() == rho_one
    assert (out / "summary.csv").read_bytes() == summary_one


def test_sampled_stage_samples_match_an_inline_write(tmp_path):
    # the forked writer must produce exactly what an in-process write of
    # the same seeded draws produces
    cfg, _ = validate_config(small_sampled_config(tmp_path))
    run_sweep(cfg)
    alpha = cfg.alphas[0]
    out = cli._stage_output(cfg, alpha)
    samples = sample_homodyne(apply_loss(out.state, LossChannel(cfg.eta_hd)),
                              cfg.phases, cfg.samples_per_state,
                              seed=cli._alpha_seed(cfg.seed, alpha))
    inline = tmp_path / "inline.csv"
    write_samples_csv(samples, inline)
    assert (tmp_path / "out" / "alpha_0.2500" / "samples.csv").read_bytes() \
        == inline.read_bytes()


def test_failed_sample_writer_fails_the_run(tmp_path, capsys, monkeypatch):
    def broken_writer(path, phases, phase_index, x, stops):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(cli, "_write_sample_rows", broken_writer)
    path = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples.csv" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_writer_gone_before_the_last_block_fails_the_run(tmp_path, capsys,
                                                        monkeypatch):
    # the child has exited before the parent announces its later blocks,
    # whose bytes then meet a closed pipe
    def broken_writer(path, phases, phase_index, x, stops):
        raise RuntimeError("disk gone")

    fill = cli._HomodyneDraws.fill

    def fill_once_the_child_exited(self, start, out):
        if start:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        fill(self, start, out)

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1000)
    monkeypatch.setattr(cli, "_write_sample_rows", broken_writer)
    monkeypatch.setattr(cli._HomodyneDraws, "fill", fill_once_the_child_exited)
    path = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: writing ") and err.endswith(
        "samples.csv failed in its child process (exit status 1)\n")
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_unwritable_samples_file_fails_the_run(tmp_path, capsys):
    # a real write error in the child: samples.csv is a directory
    path = small_sampled_config(tmp_path)
    blocked = tmp_path / "out" / "alpha_0.2500" / "samples.csv"
    blocked.mkdir(parents=True)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: writing {blocked} failed in its child "
                          f"process")
    assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize("calls_before_failing", [0, 1, 3])
def test_draw_error_wins_over_the_sample_writer(tmp_path, capsys, monkeypatch,
                                                calls_before_failing):
    # a parent exception while blocks are still being drawn and announced;
    # the writer child sees the pipe close and leaves (the fixture checks
    # that it was reaped)
    fill = cli._HomodyneDraws.fill
    calls = []

    def failing_fill(self, start, out):
        if len(calls) == calls_before_failing:
            raise ValueError("draw failed")
        calls.append(start)
        fill(self, start, out)

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1000)
    monkeypatch.setattr(cli._HomodyneDraws, "fill", failing_fill)
    path = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: draw failed\n"
    assert calls == [1000 * k for k in range(calls_before_failing)]
    # as when the draws fail before the fork: no partial samples.csv
    assert sorted(p.name for p in (tmp_path / "out").rglob("*")) == [
        "alpha_0.2500"]


@pytest.mark.parametrize("n_samples", [0, 3, 10, 23, 70,
                                       2 * cli._BLOCK_ROWS + 5])
@pytest.mark.parametrize("block_rows", [10, None])
def test_streamed_draws_match_sample_homodyne(tmp_path, monkeypatch,
                                              n_samples, block_rows):
    # 7 phases and blocks of 10 rows: block edges inside a round of the
    # phases, batches below one round, and sizes that are multiples of
    # neither; None keeps the sweep's own block size
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    rho = apply_loss(cli.ideal_output(0.3, 2.0).state, LossChannel(0.68))
    phases = np.arange(7) * math.pi / 7
    streamed = tmp_path / "streamed.csv"
    with cli._samples_streamed_to_child(
            cli._HomodyneDraws(rho, phases, n_samples, seed=11),
            streamed) as held:
        pass
    whole = sample_homodyne(rho, phases, n_samples, seed=11)
    assert np.array_equal(held.x.view(np.uint64), whole.x.view(np.uint64))
    assert np.array_equal(held.phase_index, whole.phase_index)
    assert np.array_equal(held.phases, whole.phases)
    inline = tmp_path / "inline.csv"
    write_samples_csv(whole, inline)
    assert streamed.read_bytes() == inline.read_bytes()


@pytest.mark.parametrize("writer_fails", [False, True])
def test_reconstruction_error_wins_over_the_sample_writer(tmp_path,
                                                          monkeypatch,
                                                          writer_fails):
    def failing(*args, **kwargs):
        raise ValueError("reconstruction failed")

    monkeypatch.setattr(cli, "maxlik_reconstruct", failing)
    if writer_fails:
        monkeypatch.setattr(cli, "_write_sample_rows", failing)
    cfg, _ = validate_config(small_sampled_config(tmp_path))
    with pytest.raises(ValueError, match="reconstruction failed"):
        run_sweep(cfg)


def test_seed_override_changes_samples(tmp_path):
    path = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    adir = tmp_path / "out" / "alpha_0.2500"
    first = (adir / "samples.csv").read_bytes()
    assert main(["run", "--config", str(path), "--seed", "2"]) == 0
    assert (adir / "samples.csv").read_bytes() != first


def test_run_sweep_returns_written_paths(tmp_path):
    path = write_config(tmp_path, **{
        "sweep.alphas": [0.1],
        "sweep.stage": "analytic",
        "sweep.output_dir": str(tmp_path / "out"),
    })
    cfg, _ = validate_config(path)
    written = run_sweep(cfg)
    names = sorted(p.name for p in written)
    assert names == ["metrics.json", "summary.csv", "wigner.csv"]
    assert all(p.exists() for p in written)


def test_wigner_verb_analytic(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(path), "--alpha", "0.3",
                 "--stage", "analytic", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,p,w"
    assert len(lines) == 1 + 201 * 201


def test_wigner_stage_meets_that_stage_rules(tmp_path, capsys):
    # --stage sets sweep.stage before the one check, as run's does: the
    # circuit's working-size rule holds at stage circuit only
    path = write_config(tmp_path, **{"amplifier.n_max": 575,
                                     "sweep.stage": "analytic"})
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(path), "--alpha", "0.3",
                 "--stage", "circuit", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invalid config:\n  - amplifier.n_max: n_max = 575 needs a circuit "
        "working size of 1002252, above the cap 1000000\n")
    assert not out.exists()
    path = write_config(tmp_path, **{"amplifier.n_max": 575,
                                     "sweep.stage": "circuit"})
    assert main(["wigner", "--config", str(path), "--alpha", "0.3",
                 "--stage", "analytic", "--out", str(out)]) == 0
    assert out.is_file()


def test_wigner_verb_requires_state(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["wigner", "--config", str(path),
                 "--out", str(tmp_path / "w.csv")]) == 1
    assert "--alpha" in capsys.readouterr().err


def test_wigner_verb_from_density_file(tmp_path):
    cfg = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    rho_path = tmp_path / "out" / "alpha_0.2500" / "rho.json"
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(cfg), "--rho", str(rho_path),
                 "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"n_max": 1, "re": [[2, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
     "negative eigenvalue"),
    ({"n_max": 1, "re": [[2, 0], [0, 2]], "im": [[0, 0], [0, 0]]},
     "trace 4.0 is not 1"),
    ({"n_max": 1, "re": [[1, 0], [0, 0]]}, "lacks key 'im'"),
    ([[1, 0], [0, 0]], "must be an object"),
    ({"n_max": None, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
     "inconsistent with n_max None"),
    # true is a Python int, but not a cutoff
    ({"n_max": True, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
     "inconsistent with n_max True"),
    ({"n_max": 1, "re": [[{}, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
     "entry is not a number"),
    ({"n_max": 1, "re": [[1, 0], [0, 0]], "im": [[0, None], [0, 0]]},
     "entry is not finite"),
], ids=["negative", "trace-4", "no-im", "list", "null-n_max", "true-n_max",
        "object-entry", "null-entry"])
def test_wigner_verb_rejects_bad_density_file(tmp_path, capsys, payload,
                                              message):
    cfg = write_config(tmp_path)
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(payload))
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(cfg), "--rho", str(rho_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_tomo_verb_roundtrip(tmp_path, capsys):
    cfg = small_sampled_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    samples_path = tmp_path / "out" / "alpha_0.2500" / "samples.csv"
    out = tmp_path / "recon.json"
    capsys.readouterr()
    assert main(["tomo", "--samples", str(samples_path),
                 "--config", str(cfg), "--out", str(out), "--n-max", "8"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"wrote {out} (converged after ")
    assert "certified gap" in printed
    rho = read_density_json(out)
    assert rho.matrix.shape == (9, 9)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-8)


def test_unconverged_fit_is_an_error(tmp_path, capsys):
    # three likelihood evaluations cannot certify the optimum: run and
    # tomo both fail before writing rho.json
    cfg = small_sampled_config(tmp_path, **{"tomography.max_iter": 3})
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: maximum-likelihood fit did not converge: "
                          "certified gap ")
    assert err.endswith(" iterations, above tomography.tol = 1e-10\n")
    alpha_dir = tmp_path / "out" / "alpha_0.2500"
    assert not (alpha_dir / "rho.json").exists()
    assert not (tmp_path / "out" / "summary.csv").exists()
    # tomo fails the same way on a good run's samples
    (tmp_path / "good").mkdir()
    good = small_sampled_config(tmp_path / "good")
    assert main(["run", "--config", str(good)]) == 0
    samples_path = tmp_path / "good" / "out" / "alpha_0.2500" / "samples.csv"
    out = tmp_path / "recon.json"
    capsys.readouterr()
    assert main(["tomo", "--samples", str(samples_path),
                 "--config", str(cfg), "--out", str(out)]) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_tomo_rejects_non_finite_draw(tmp_path, capsys):
    samples_path = tmp_path / "samples.csv"
    samples_path.write_text("theta,x\n0,0.5\n1,-0.25\n0,nan\n1,0.75\n0,1\n")
    out = tmp_path / "recon.json"
    assert main(["tomo", "--samples", str(samples_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite x" in err
    assert not out.exists()
    samples_path.write_text("theta,x\n0,0.5\n1,-0.25\nnan,1\n1,0.75\n")
    assert main(["tomo", "--samples", str(samples_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: sample 2 has a non-finite theta\n"
    assert not out.exists()


@pytest.mark.skipif(shutil.which("scissorlab") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    path = write_config(tmp_path)
    proc = subprocess.run(["scissorlab", "check", "--config", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")


def fresh_interpreter_env():
    """The environment of a subprocess that imports this checkout."""
    src = str(Path(scissorlab.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_loads_no_scipy():
    # the package needs numpy alone; importing scipy.special would cost
    # most of a cold start's time and memory
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, scissorlab, scissorlab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=fresh_interpreter_env(),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_smoke(tmp_path):
    # the real entry point in a fresh interpreter, whether or not the
    # console script is installed
    env = fresh_interpreter_env()
    path = small_sampled_config(tmp_path, **{"sweep.samples_per_state": 2000})

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "scissorlab.cli", *args,
                               "--config", str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=300)

    proc = cli("check")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok:")
    proc = cli("run", "--stage", "sampled")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
        "alpha_0.2500",
        *(f"alpha_0.2500{os.sep}{name}" for name in
          ("metrics.json", "rho.json", "samples.csv", "wigner.csv")),
        "summary.csv",
    ]
    assert len(read_samples_csv(out / "alpha_0.2500" / "samples.csv")) == 2000
    # the forked child and the parent formatted in a fresh interpreter:
    # every field must be the %.17g text of the double it parses to
    for name in ("samples.csv", "wigner.csv"):
        body = (out / "alpha_0.2500" / name).read_text().partition("\n")[2]
        assert body == "".join(
            ",".join("%.17g" % float(field) for field in line.split(","))
            + "\n" for line in body.splitlines())
