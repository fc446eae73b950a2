"""Config validation, sweep artifacts, and the command-line verbs."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import scissorlab
from scissorlab import (AmplifierConfig, DensityOperator, LossChannel,
                        QuadratureSamples, SourceModel, apply_loss, cli,
                        read_density_json, read_samples_csv, sample_homodyne,
                        simulate, tomography, vacuum_state, wigner,
                        write_density_json, write_samples_csv)
from scissorlab.cli import (
    STAGES,
    SUMMARY_HEADER,
    default_config_dict,
    main,
    run_sweep,
    validate_config,
)
from scissorlab.numerics import SAMPLE_CAP


def write_config(tmp_path, name="config.json", **changes):
    """The default config with each dotted key set (a section replaced
    whole where the key names one), written to tmp_path / name."""
    cfg = default_config_dict()
    for key, value in changes.items():
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
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


# ---------------------------------------------------------------------------
# the rules table: each rule's config, the verbs it reaches, and what each
# verb reports

@dataclass(frozen=True)
class Rule:
    """The default config at ``stage`` with ``changes``, run from its own
    directory through each verb; ``existing`` paths (a directory where
    the path ends in /) are there first.  With no problems every verb
    succeeds.  Otherwise each exits 1 and writes nothing: check prints
    "invalid config:" and the problems, and so does every other verb on
    its stderr, unless ``raised``, when it prints "error: " and the one
    problem, met after the config passed."""

    test: str           # the test function the rule is collected under
    id: str | None      # its parameter id; None for the function's one rule
    stage: str
    changes: dict
    verbs: tuple[str, ...]
    problems: tuple[str, ...] = ()
    existing: tuple[str, ...] = ()
    raised: bool = False


def rule(test, id, stage, changes, verbs, *problems, **flags) -> Rule:
    return Rule(test, id, stage, changes, tuple(verbs), problems, **flags)


#: the arguments each verb takes besides --config and the rule's own
VERB_ARGS = {"check": [], "run": [],
             "wigner": ["--alpha", "0.1", "--out", "w.csv"],
             "tomo": ["--samples", "samples.csv", "--out", "rho.json"]}
#: a sampled sweep of one alpha at small counts, which runs in milliseconds
SMALL_SWEEP = {"sweep.alphas": [0.25], "sweep.phases": 2,
               "sweep.samples_per_state": 200, "tomography.bin_count": 8,
               "tomography.n_max": 2, "wigner.points": 5}
NO_ALPHAS = {"sweep.alphas": []}
BOTH = ("check", "run")
HUGE = 10**400      # an integer no double holds: float() of it overflows
INVALID = "must be a finite number, got"
ONE_PHASE = ("sweep.phases: must give at least two distinct angles at stage "
             "sampled (tomography cannot reconstruct from one)")
AT_SAMPLED = {
    "zero-samples": ("sweep.samples_per_state", 0, "sweep.samples_per_state: "
                     "must be positive at stage sampled (tomography cannot "
                     "reconstruct from no samples)"),
    # run would ask for 8 TB of uniforms: refused before anything is drawn
    "too-many-samples": ("sweep.samples_per_state", 10**12,
                         "sweep.samples_per_state: 1000000000000 samples "
                         "exceed the cap 10000000 on one batch"),
    "one-phase": ("sweep.phases", 1, ONE_PHASE),
    "one-angle": ("sweep.phases", [0.5], ONE_PHASE),
    "one-bin": ("tomography.bin_count", 1, "tomography.bin_count: must be at "
                "least 2 at stage sampled (one bin carries no phase "
                "information)"),
    # bin_samples would refuse these only after the circuit ran and
    # samples.csv was written
    "unresolved-bins": ("tomography.bin_range", [1e15, 1e15 + 1.0],
                        "tomography.bin_range: 100 bins on "
                        "(1000000000000000.0, 1000000000000001.0) are too "
                        "narrow for double precision"),
    "subnormal-bins": ("tomography.bin_range", [-1e-320, 1e-320],
                       "tomography.bin_range: 100 bins on (-1e-320, 1e-320) "
                       "are too narrow for double precision"),
}


def not_heralded(alpha, probability="0.000e+00",
                 at=" at amplifier.gain = 2.0"):
    return (f"sweep.alphas: alpha {alpha!r} is not heralded{at} (herald "
            f"probability {probability} below conditioning floor)")


def beyond_the_circuit(n_max, size):
    return (f"amplifier.n_max: n_max = {n_max} needs a circuit working size "
            f"of {size}, above the cap 1000000")


RULES = [
    rule("test_unknown_key_flagged", None, "circuit", {"sweep.eta_hc": 0.5},
         BOTH, "sweep.eta_hc: unknown key"),
    # the gain is the amplifier's one parameter; r is not a second spelling
    rule("test_reflectivity_key_is_unknown", None, "circuit",
         {"amplifier.reflectivity": 0.3}, BOTH,
         "amplifier.reflectivity: unknown key"),
    *(rule("test_colliding_alphas_flagged", id, "circuit",
           {"sweep.alphas": alphas}, BOTH, f"sweep.alphas: {clash} coincide "
           f"at 4 decimals (output directory and seed)")
      for id, alphas, clash in [
          ("same-directory-and-seed", [0.25, 0.1, 0.10001], [0.1, 0.10001]),
          ("rounding-tie", [0.1234, 0.12345, 0.5], [0.1234, 0.12345])]),
    # Python's json reads NaN, Infinity and true; none is a valid number
    # here, and a section must be an object
    *(rule("test_non_finite_and_boolean_values_flagged", id, "circuit",
           {key: value}, BOTH, problem) for id, key, value, problem in [
        ("sweep.alphas-value0", "sweep.alphas", [math.inf], "sweep.alphas: "
         "must be a list of finite non-negative numbers, got [inf]"),
        ("sweep.alphas-value1", "sweep.alphas", [math.nan], "sweep.alphas: "
         "must be a list of finite non-negative numbers, got [nan]"),
        ("wigner.extent-inf", "wigner.extent", math.inf,
         "wigner.extent: must be a finite positive number, got inf"),
        ("tomography.bin_range-value3", "tomography.bin_range",
         [-math.inf, 6.0], "tomography.bin_range: must be [lo, hi], finite, "
         "with lo < hi, got [-inf, 6.0]"),
        ("amplifier.gain-nan", "amplifier.gain", math.nan,
         f"amplifier.gain: {INVALID} nan"),
        ("amplifier.detector_mu-True", "amplifier.detector_mu", True,
         f"amplifier.detector_mu: {INVALID} True"),
        ("amplifier.n_max-12.5", "amplifier.n_max", 12.5,
         "amplifier.n_max: must be an integer, got 12.5"),
        ("amplifier.use_d2_veto-no", "amplifier.use_d2_veto", "no",
         "amplifier.use_d2_veto: must be true or false, got 'no'"),
        ("amplifier.source-value8", "amplifier.source",
         {"weight_vacuum": math.nan},
         f"amplifier.source.weight_vacuum: {INVALID} nan"),
        ("sweep.seed-True", "sweep.seed", True,
         "sweep.seed: must be a non-negative integer, got True"),
        ("sweep.phases-True", "sweep.phases", True, "sweep.phases: must be a "
         "positive phase count or a list of distinct angles, got True"),
        ("sweep.samples_per_state-True", "sweep.samples_per_state", True,
         "sweep.samples_per_state: must be a non-negative integer, got True"),
        ("amplifier-5", "amplifier", 5, "amplifier: must be a JSON object"),
        ("sweep-value13", "sweep", [], "sweep: must be a JSON object"),
        ("tomography-x", "tomography", "x",
         "tomography: must be a JSON object"),
        ("amplifier.source-5", "amplifier.source", 5,
         "amplifier.source: must be a JSON object"),
        # a repeated angle would take two shares of the draws and count
        # twice in the phase-averaged noise
        ("sweep.phases-value16", "sweep.phases", [0.0, 0.0, 1.0],
         "sweep.phases: must be a positive phase count or a list of "
         "distinct angles, got [0.0, 0.0, 1.0]"),
        (f"amplifier.gain-{HUGE}", "amplifier.gain", HUGE,
         f"amplifier.gain: {INVALID} {HUGE}"),
        (f"sweep.eta_hd-{HUGE}", "sweep.eta_hd", HUGE,
         f"sweep.eta_hd: {INVALID} {HUGE}")]),
    # the keys the rows above leave out, so that every key has a rule
    *(rule("test_schema_rules", key.rpartition(".")[2], "circuit",
           {key: value}, BOTH, f"{key}: {problem}")
      for key, value, problem in [
          ("amplifier.accept_both_heralds", 1, "must be true or false, got 1"),
          ("amplifier.source.weight_two_photon", "0", f"{INVALID} '0'"),
          ("amplifier.source.mode_overlap", None, f"{INVALID} None"),
          ("sweep.output_dir", 5, "must be a string path, got 5"),
          ("tomography.max_iter", 0, "must be a positive integer, got 0"),
          ("tomography.tol", 0, "must be a finite positive number, got 0")]),
    *(rule("test_schema_version_checked", str(version), "circuit",
           {"schema_version": version}, BOTH,
           f"schema_version: expected 1, got {version}")
      # true == 1 in Python, but it is not the version number
      for version in (99, True)),
    rule("test_check_verb_rejects_bad_config", None, "warp", {}, BOTH,
         "sweep.stage: must be one of ('analytic', 'circuit', 'sampled'), "
         "got 'warp'"),
    # --seed bypasses the config file, so it must meet the same rule
    rule("test_negative_seed_override_rejected", None, "sampled", SMALL_SWEEP,
         ["run --seed -1"],
         "sweep.seed: must be a non-negative integer, got -1"),
    # at stage sampled, and through run's --stage; the circuit stage
    # needs no tomography
    *(rule("test_stage_sampled_needs_samples_and_phases", id, "circuit",
           {"sweep.alphas": [0.25], key: value}, ["run --stage sampled"],
           problem) for id, (key, value, problem) in AT_SAMPLED.items()),
    *(rule("test_stage_sampled_needs_samples_and_phases", f"{id}-checked",
           "sampled", {"sweep.alphas": [0.25], key: value}, ["check"],
           problem) for id, (key, value, problem) in AT_SAMPLED.items()),
    *(rule("test_circuit_stage_needs_no_tomography", id, "circuit",
           {"sweep.alphas": [0.25], key: value}, ["check"])
      for id, (key, value, _) in AT_SAMPLED.items()),
    # r = 1 / sqrt(1 + g^2) would overflow (integer) or round to 0 (float)
    *(rule("test_gain_whose_square_overflows_rejected", id, "circuit",
           {"amplifier.gain": gain}, BOTH, "amplifier: gain must be below "
           f"about 1.34e154, where its square overflows a double, got {gain}")
      for id, gain in [("integer", 10**300), ("float", 1e300)]),
    # the rule is the loss channel's own
    rule("test_eta_rule_is_the_loss_channel_rule", None, "circuit",
         {"sweep.eta_hd": 1.5}, BOTH,
         "sweep.eta_hd: transmission eta must lie in (0, 1], got 1.5"),
    rule("test_sample_count_rule_is_the_sampler_rule", None, "sampled",
         {"sweep.samples_per_state": SAMPLE_CAP + 1}, BOTH,
         "sweep.samples_per_state: 10000001 samples exceed the cap 10000000 "
         "on one batch"),
    # 49 phases, the most the sampler takes, on bin_count + 2 columns; the
    # cutoff is low enough that the reconstruction rule passes
    rule("test_count_table_rule_is_the_binning_rule", "20406-True", "sampled",
         {**NO_ALPHAS, "sweep.phases": 49, "tomography.bin_count": 20406,
          "tomography.n_max": 5}, BOTH),
    rule("test_count_table_rule_is_the_binning_rule", "20407-False",
         "sampled", {**NO_ALPHAS, "sweep.phases": 49,
                     "tomography.bin_count": 20407, "tomography.n_max": 5},
         BOTH, "tomography.bin_count: 49 phases on 20407 bins need a count "
         "table of 1000041 entries, above the cap 1000000"),
    # on two bins at n_max 201 the fit's phase matrices exceed the cap,
    # while the count table and one phase's elements fit; the Wigner
    # coefficient rule refuses this cutoff too
    rule("test_phase_matrix_rule_is_the_problem_rule", None, "sampled",
         {**NO_ALPHAS, "sweep.phases": 49, "tomography.bin_count": 2,
          "tomography.n_max": 201}, BOTH,
         "tomography.n_max: 49 phases at n_max = 201 need phase matrices of "
         "1004647 entries, above the cap 1000000",
         "tomography.n_max: a state on 0..201 photons needs 16444012 Wigner "
         "coefficients, above the cap 1000000"),
    # hi - lo overflows: refused as such, with no numpy RuntimeWarning
    rule("test_bin_range_wider_than_a_double_rejected", None, "sampled",
         {"tomography.bin_range": [-1e308, 1e308]}, BOTH,
         "tomography.bin_range: value range (-1e+308, 1e+308) is wider than "
         "a double holds"),
    # |2.5> loses 1.2e-2 of its probability above amplifier.n_max = 12; the
    # closed form needs no coherent input on the cutoff
    *(rule("test_alpha_beyond_the_cutoff_rejected", stage, stage,
           {"sweep.alphas": [0.25, 2.5]}, BOTH,
           "sweep.alphas: alpha 2.5 does not fit amplifier.n_max = 12 "
           "(coherent state |alpha|=2.5 loses 1.202e-02 probability at "
           "n_max=12 (tolerance 1.0e-08))")
      for stage in ("circuit", "sampled")),
    rule("test_alpha_beyond_the_cutoff_rejected", "analytic", "analytic",
         {"sweep.alphas": [0.25, 2.5]}, BOTH),
    # the circuit fails its herald floor at this detector efficiency
    rule("test_unheralded_alpha_rejected_by_check_and_run", None, "circuit",
         {"amplifier.detector_mu": 1e-30, "sweep.alphas": [0.25]}, BOTH,
         not_heralded(0.25, "1.312e-31", at="")),
    # alpha * 10^4 overflows a double: no seed or directory can be named
    *(rule("test_alpha_without_a_key_rejected", stage, stage,
           {"sweep.alphas": [0.25, 1e305]}, BOTH,
           "sweep.alphas: alpha 1e+305 is too large to key at 4 decimals "
           "(alpha * 10^4 overflows a double)",
           not_heralded(1e305) if stage == "analytic" else
           "sweep.alphas: alpha 1e+305 does not fit amplifier.n_max = 12 "
           "(coherent state |alpha|=1e+305 has a mean photon number "
           "|alpha|^2 beyond double range, which no cutoff holds)")
      for stage in STAGES),
    # a nonzero alpha whose 4-decimal key is 0 would be written as
    # alpha_0.0000, the vacuum input's directory, yet run as not the
    # vacuum; the vacuum itself, and the smallest alpha the key resolves,
    # stay
    *(rule("test_alpha_keyed_as_the_vacuum_rejected", f"{stage}-{id}", stage,
           {"sweep.alphas": [0.25, alpha]}, BOTH,
           f"sweep.alphas: alpha {alpha!r} is not 0 but rounds to 0 at 4 "
           f"decimals, the key of the vacuum input")
      for stage in ("circuit", "sampled")
      for id, alpha in [("1e-30", 1e-30), ("5e-324", 5e-324),
                        ("4.9e-5", 4.9e-5)]),
    *(rule("test_alpha_keyed_as_the_vacuum_rejected", f"{stage}-0-and-1e-4",
           stage, {"sweep.alphas": [0.0, 1e-4]}, ["check"])
      for stage in ("circuit", "sampled")),
    # the closed form meets the circuit's herald floor: at gain 2 its
    # probability falls below 1e-15 near alpha 6.1
    rule("test_analytic_alpha_below_the_herald_floor_rejected", "6.2",
         "analytic", {"sweep.alphas": [0.25, 6.2]}, BOTH,
         not_heralded(6.2, "3.129e-16")),
    *(rule("test_analytic_alpha_below_the_herald_floor_rejected", id,
           "analytic", {"sweep.alphas": [0.25, alpha]}, BOTH,
           *keyless, not_heralded(alpha))
      for id, alpha, keyless in [
          ("1e150", 1e150, ()), ("1e300", 1e300, ()),
          ("1e305", 1e305, ("sweep.alphas: alpha 1e+305 is too large to key "
                            "at 4 decimals (alpha * 10^4 overflows a "
                            "double)",)),
          ("10**300", 10**300, ())]),
    # simulate refuses a working size above numerics.DIMENSION_CAP; the
    # companion modes multiply it by 27
    *(rule("test_cutoff_beyond_the_capacity_rejected", f"{id}-{stage}", stage,
           {"amplifier.n_max": n_max,
            "amplifier.source.mode_overlap": overlap}, BOTH,
           beyond_the_circuit(n_max, size))
      for id, n_max, overlap, size in [("575", 575, 1.0, 578 * 3 * 578),
                                       ("2000", 2000, 1.0, 2003 * 3 * 2003),
                                       ("companion-109", 109, 0.9,
                                        112 * 3 * 112 * 27)]
      for stage in ("circuit", "sampled")),
    # no alpha to prepare: the rule at the cap is under test, not the 1.7 s
    # heralding map that a sweep at 574 builds
    *(rule("test_cutoff_at_the_capacity_accepted", f"{n_max}-{overlap}",
           "circuit", {**NO_ALPHAS, "amplifier.n_max": n_max,
                       "amplifier.source.mode_overlap": overlap}, BOTH)
      for n_max, overlap in [(574, 1.0), (108, 0.9)]),
    # the overlap stack has (bin_count + 2)(n_max + 1)^2 entries: on 100
    # bins 98 fits the cap, 99 does not, at every stage (tomo reads the
    # section at any), and tomo meets it before it reads its samples
    rule("test_reconstruction_cutoff_capped", "98-True", "circuit",
         {"tomography.n_max": 98}, ["check"]),
    rule("test_reconstruction_cutoff_capped", "99-False", "circuit",
         {"tomography.n_max": 99}, BOTH,
         "tomography.n_max: n_max = 99 on 100 bins needs a tomography "
         "working size of 1020000, above the cap 1000000"),
    rule("test_tomo_cutoff_capped_before_reading", None, "circuit", {},
         ["tomo --n-max 1000"], "tomography.n_max: n_max = 1000 on 100 bins "
         "needs a tomography working size of 102204102, above the cap "
         "1000000"),
    rule("test_tomo_cutoff_must_be_positive_before_reading", None, "circuit",
         {}, ["tomo --n-max 0"],
         "tomography.n_max: must be a positive integer, got 0"),
    # the reconstruction's Wigner map holds (2d - 1) d^2 coefficients at
    # d = n_max + 1: 78 fits the cap (979837), 79 (1017600) does not; the
    # circuit stage maps the three levels of mode T
    rule("test_sampled_wigner_cutoff_capped", "78-True", "sampled",
         {"tomography.n_max": 78}, ["check"]),
    rule("test_sampled_wigner_cutoff_capped", "79-False", "sampled",
         {"tomography.n_max": 79}, BOTH,
         "tomography.n_max: a state on 0..79 photons needs 1017600 Wigner "
         "coefficients, above the cap 1000000"),
    rule("test_sampled_wigner_cutoff_capped", "79-circuit", "circuit",
         {"tomography.n_max": 79}, ["check"]),
    # sampling holds 20195 table entries per phase at its peak: 49 phases
    # fit the cap, 50 (1009750 entries) do not; the circuit stage builds
    # no sampling table
    rule("test_sampled_phase_count_capped", "49-True", "sampled",
         {"sweep.phases": 49}, ["check"]),
    rule("test_sampled_phase_count_capped", "50-False", "sampled",
         {"sweep.phases": 50}, BOTH, "sweep.phases: 50 phases need sampling "
         "tables of 1009750 entries, above the cap 1000000"),
    rule("test_sampled_phase_count_capped", "50-circuit", "circuit",
         {"sweep.phases": 50}, ["check"]),
    # a grid of points^2 values: 1000 fits the cap, 1001 does not
    rule("test_wigner_points_capped", "1000-True", "circuit",
         {"wigner.points": 1000}, ["check"]),
    rule("test_wigner_points_capped", "1001-False", "circuit",
         {"wigner.points": 1001}, ["check", "run", "wigner"],
         "wigner.points: 1001 points need a grid of 1002001 values, above "
         "the cap 1000000"),
    # --stage sets sweep.stage before the one check, as run's does: the
    # circuit's working-size rule holds at stage circuit only
    rule("test_wigner_stage_meets_that_stage_rules", None, "analytic",
         {"amplifier.n_max": 575}, ["wigner --stage circuit"],
         beyond_the_circuit(575, 1002252)),
    rule("test_wigner_stage_analytic_skips_the_circuit_rules", None,
         "circuit", {"amplifier.n_max": 575}, ["wigner --stage analytic"]),
    *(rule("test_wigner_verb_rejects_non_finite_alpha", alpha, "circuit", {},
           [f"wigner --alpha {alpha}"], f"alpha must be finite, got {alpha}",
           raised=True) for alpha in ("nan", "inf")),
    # a sweep is never written over an earlier one's files, nor wigner's
    # and tomo's output over a file; an empty directory is written into
    *(rule("test_output_dir_taken_refused", id, "sampled", SMALL_SWEEP, BOTH,
           "sweep.output_dir: sweep_out exists and is not an empty directory",
           existing=(path,), raised=True)
      for id, path in [("file", "sweep_out"),
                       ("not-empty", "sweep_out/kept")]),
    rule("test_output_dir_taken_refused", "empty", "sampled", SMALL_SWEEP,
         BOTH, existing=("sweep_out/",)),
    *(rule("test_output_file_taken_refused", verb, "circuit", {}, [verb],
           f"--out: {path} already exists", existing=(path,), raised=True)
      for verb, path in [("wigner", "w.csv"), ("tomo", "rho.json")]),
]

#: configs check once accepted that run could not complete: the herald
#: floor, and overflows of a double in run (test_config_contract.py
#: walks them and collects these rules)
KNOWN_RULES = [
    rule("test_configs_past_the_overflows_run", "herald-floor", "circuit",
         {**SMALL_SWEEP, "amplifier.detector_mu": 1e-30}, BOTH,
         not_heralded(0.25, "1.312e-31", at="")),
    *(rule("test_configs_past_the_overflows_run", id, "sampled",
           {**SMALL_SWEEP, key: value}, BOTH) for id, key, value in [
        ("tol-400", "tomography.tol", 400),
        ("bin-range", "tomography.bin_range", [-1e300, 0]),
        ("extent", "wigner.extent", 1e300),
        ("extent-int", "wigner.extent", 10**300)]),
]


def tree(path) -> dict:
    """Every file and directory under path, with each file's bytes."""
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in path.rglob("*")}


def check_rule(rule: Rule, tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, **{"sweep.stage": rule.stage, **rule.changes})
    for path in rule.existing:
        made = tmp_path / path
        made.parent.mkdir(parents=True, exist_ok=True)
        made.mkdir() if path.endswith("/") else made.write_text("kept")
    before = tree(tmp_path)
    listed = "invalid config:\n" + "".join(f"  - {p}\n" for p in rule.problems)
    for verb in rule.verbs:
        name, *flags = verb.split()
        code = main([name, "--config", "config.json", *VERB_ARGS[name],
                     *flags])
        out = capsys.readouterr()
        if not rule.problems:
            assert code == 0, (verb, out)
            continue
        if name == "check":
            assert (code, out.out) == (1, listed)
        else:
            raised = f"error: {rule.problems[0]}\n"
            assert (code, out.err) == (1, raised if rule.raised else listed)
    if rule.problems:
        assert tree(tmp_path) == before


def rule_test(rules: list[Rule]):
    """A test function that checks each rule, parametrized by their ids
    unless it has one rule without an id."""
    if rules[0].id is None:
        def test(tmp_path, capsys, monkeypatch):
            check_rule(rules[0], tmp_path, capsys, monkeypatch)
        return test

    @pytest.mark.parametrize("case", rules, ids=[r.id for r in rules])
    def test(tmp_path, capsys, monkeypatch, case):
        check_rule(case, tmp_path, capsys, monkeypatch)
    return test


# each group of rules is collected under its own test name
for _name in dict.fromkeys(r.test for r in RULES):
    globals()[_name] = rule_test([r for r in RULES if r.test == _name])


def test_every_key_has_a_refusing_rule():
    refused = {p.partition(":")[0] for r in RULES for p in r.problems}
    assert set(cli._SCHEMA) - refused == set()


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


def test_bin_count_capped_before_the_edges_are_built(tmp_path, capsys,
                                                     monkeypatch):
    # 10^13 bins would be an 80 TB edge array: the capacity rule rejects
    # the count, and the edges are never built
    def no_edges(bin_count, value_range):
        raise AssertionError("the bin edges were built")

    monkeypatch.setattr(tomography, "_bin_edges", no_edges)
    path = write_config(tmp_path, **{"sweep.stage": "sampled",
                                     "tomography.bin_count": 10**13})
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().out == (
        "invalid config:\n  - tomography.n_max: n_max = 10 on "
        "10000000000000 bins needs a tomography working size of "
        "1210000000000242, above the cap 1000000\n")


@pytest.mark.parametrize("stage", ["circuit", "sampled"])
def test_each_alpha_simulated_once(tmp_path, monkeypatch, stage):
    # validation prepares each alpha's output, and the sweep uses it
    calls = []

    def counted(config):
        calls.append(config.alpha)
        return simulate(config)

    monkeypatch.setattr(cli, "simulate", counted)
    path = small_sampled_config(tmp_path, **{"sweep.alphas": [0.5, 0.1],
                                             "sweep.stage": stage})
    cfg, problems = validate_config(path)
    assert problems == [] and calls == [0.5, 0.1]
    run_sweep(cfg)
    assert calls == [0.5, 0.1]


def test_fit_povm_and_detected_states_built_once(tmp_path, monkeypatch):
    # validation builds the fit's POVM once per sweep and each alpha's
    # state behind eta_hd, and the sweep rebuilds neither
    stacks, losses = [], []
    overlap_stack, apply_loss = tomography._overlap_stack, cli.apply_loss
    monkeypatch.setattr(tomography, "_overlap_stack",
                        lambda *a: stacks.append(a) or overlap_stack(*a))
    monkeypatch.setattr(cli, "apply_loss",
                        lambda *a: losses.append(a) or apply_loss(*a))
    tomography._edge_stack.cache_clear()
    path = small_sampled_config(tmp_path, **{"sweep.alphas": [0.5, 0.1]})
    cfg, problems = validate_config(path)
    assert problems == [] and (len(stacks), len(losses)) == (1, 2)
    run_sweep(cfg)
    assert (len(stacks), len(losses)) == (1, 2)


#: every key whose value is a number or a list of numbers
NUMBER_KEYS = [key for key, (default, _, _) in cli._SCHEMA.items()
               if not isinstance(default, (bool, str))]


@pytest.mark.parametrize("key", NUMBER_KEYS)
@pytest.mark.parametrize("stage", STAGES)
def test_check_answers_extreme_numbers(tmp_path, capsys, stage, key):
    # at and past the edge of double range, as floats and as an integer:
    # check says ok or lists problems, and never raises
    for value in (1e300, 1e305, 10**300, -1e300):
        if isinstance(cli._SCHEMA[key][0], list):
            value = sorted([0.0, value])
        path = write_config(tmp_path, **{"sweep.stage": stage, key: value})
        code = main(["check", "--config", str(path)])
        out = capsys.readouterr().out
        assert code in (0, 1), (value, out)
        if key == "sweep.alphas":
            # no alpha this large is heralded, fits a cutoff or (1e305)
            # has a key, and none is negative
            assert code == 1 and "  - sweep.alphas: " in out


def test_wigner_rho_and_tomo_prepare_no_alpha(tmp_path, capsys, monkeypatch):
    # neither verb reads an alpha's stage output, so neither builds one: a
    # config whose alpha check rejects still serves them
    path = write_config(tmp_path, **{"sweep.alphas": [2.5]})
    assert main(["check", "--config", str(path)]) == 1
    assert "alpha 2.5 does not fit amplifier.n_max = 12" in (
        capsys.readouterr().out)
    rho_path = tmp_path / "rho.json"
    write_density_json(vacuum_state(3).to_density(), rho_path)
    samples_path = tmp_path / "samples.csv"
    write_samples_csv(sample_homodyne(vacuum_state(3).to_density(),
                                      [0.0, 1.0, 2.0], 3000, seed=1),
                      samples_path)

    def unprepared(*args):
        raise AssertionError("an alpha's stage output was built")

    monkeypatch.setattr(cli, "_stage_output", unprepared)
    assert main(["wigner", "--config", str(path), "--rho", str(rho_path),
                 "--out", str(tmp_path / "w.csv")]) == 0
    assert main(["tomo", "--samples", str(samples_path), "--config",
                 str(path), "--out", str(tmp_path / "recon.json"),
                 "--n-max", "2"]) == 0
    assert (tmp_path / "w.csv").is_file()
    assert (tmp_path / "recon.json").is_file()
    # validate_config still prepares them: run_sweep reads cfg.outputs
    with pytest.raises(AssertionError, match="stage output was built"):
        validate_config(path)


def test_wigner_alpha_builds_only_its_own_output(tmp_path, monkeypatch):
    # wigner --alpha maps the output of the alpha it is given, and builds
    # none for the config's alphas, one of which check rejects
    path = write_config(tmp_path, **{"sweep.alphas": [0.25, 2.5]})
    built, stage_output = [], cli._stage_output

    def counted(amplifier, stage, alpha):
        built.append(alpha)
        return stage_output(amplifier, stage, alpha)

    monkeypatch.setattr(cli, "_stage_output", counted)
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(path), "--alpha", "0.3",
                 "--out", str(out)]) == 0
    assert built == [0.3]
    assert out.is_file()


def test_analytic_alpha_above_the_herald_floor_runs(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, **{"sweep.alphas": [6.0],
                                     "sweep.output_dir": str(out_dir)})
    assert main(["run", "--config", str(path), "--stage", "analytic"]) == 0
    metrics = json.loads((out_dir / "alpha_6.0000" / "metrics.json")
                         .read_text())
    assert metrics["success_probability"] == 3.3633081038531755e-15


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
    # a fresh tree, then into an empty directory made beforehand
    (tmp_path / "empty").mkdir()
    for where in (out_dir, tmp_path / "empty"):
        made.clear()
        run_sweep(cfg, out_dir=where)
        assert made == [str(where), str(where / "alpha_0.1000"),
                        str(where / "alpha_0.2500")]
    # the first tree again: refused before anything is made in it
    made.clear()
    summary = (out_dir / "summary.csv").read_bytes()
    with pytest.raises(FileExistsError, match=f"^sweep.output_dir: {out_dir} "
                       f"exists and is not an empty directory$"):
        run_sweep(cfg)
    assert made == [str(out_dir)]
    assert (out_dir / "summary.csv").read_bytes() == summary
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
    # identical request, identical bytes, in a second directory: run
    # refuses to write over the first
    assert main(["run", "--config", str(path)]) == 1
    again = tmp_path / "again"
    assert main(["run", "--config", str(path), "--out", str(again)]) == 0
    assert (again / "alpha_0.2500" / "samples.csv").read_bytes() == samples_one
    assert (again / "alpha_0.2500" / "rho.json").read_bytes() == rho_one
    assert (again / "summary.csv").read_bytes() == summary_one


def test_sampled_stage_samples_match_an_inline_write(tmp_path):
    # the forked writer must produce exactly what an in-process write of
    # the same seeded draws of the detected state produces
    cfg, _ = validate_config(small_sampled_config(tmp_path))
    run_sweep(cfg)
    alpha = cfg.alphas[0]
    detected = apply_loss(simulate(cfg.amplifier_config(alpha)).state,
                          LossChannel(cfg.eta_hd))
    assert np.array_equal(cfg.outputs[alpha].state.matrix, detected.matrix)
    samples = sample_homodyne(detected, cfg.phases, cfg.samples_per_state,
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


def test_unwritable_samples_file_fails_the_run(tmp_path, capsys,
                                               monkeypatch):
    # a real write error in the child: it opens its alpha's directory
    write = cli._write_sample_rows
    monkeypatch.setattr(cli, "_write_sample_rows",
                        lambda path, *rest: write(path.parent, *rest))
    path = small_sampled_config(tmp_path)
    blocked = tmp_path / "out" / "alpha_0.2500" / "samples.csv"
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: writing {blocked} failed in its child process "
                   f"(exit status 1)\n")
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
    other = tmp_path / "other"
    assert main(["run", "--config", str(path), "--seed", "2", "--out",
                 str(other)]) == 0
    assert (other / "alpha_0.2500" / "samples.csv").read_bytes() != first


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


def test_wigner_verb_caps_a_density_file(tmp_path, capsys):
    # 99 levels need 197 * 99^2 Wigner coefficients, above the cap
    cfg = write_config(tmp_path)
    rho_path = tmp_path / "rho.json"
    write_density_json(DensityOperator(np.eye(99, dtype=complex) / 99, (99,)),
                       rho_path)
    out = tmp_path / "w.csv"
    assert main(["wigner", "--config", str(cfg), "--rho", str(rho_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: a state on 0..98 photons needs 1930797 Wigner coefficients, "
        "above the cap 1000000\n")
    assert not out.exists()


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


def phase_per_draw_samples(tmp_path):
    """A samples.csv of 20,000 draws at 20,000 distinct thetas."""
    samples_path = tmp_path / "samples.csv"
    rng = np.random.default_rng(5)
    write_samples_csv(QuadratureSamples(rng.uniform(0, math.pi, 20_000),
                                        np.arange(20_000),
                                        rng.normal(size=20_000)),
                      samples_path)
    return samples_path


def test_tomo_caps_the_count_table_of_a_phase_per_draw(tmp_path, capsys):
    # every theta of the file is a phase: 20,000 of them on 100 bins would
    # be a count table of 2,040,000 entries and phase matrices to match
    samples_path = phase_per_draw_samples(tmp_path)
    out = tmp_path / "recon.json"
    assert main(["tomo", "--samples", str(samples_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 20000 phases on 100 bins need a count table of 2040000 "
        "entries, above the cap 1000000\n")
    assert not out.exists()


def test_tomo_caps_the_phase_matrices_of_a_phase_per_draw(tmp_path, capsys):
    # on two bins the count table of 20,000 phases fits the cap, but the
    # fit's phase matrices at n_max 10 would not
    samples_path = phase_per_draw_samples(tmp_path)
    path = write_config(tmp_path, **{"tomography.bin_count": 2})
    out = tmp_path / "recon.json"
    assert main(["tomo", "--samples", str(samples_path), "--config",
                 str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 20000 phases at n_max = 10 need phase matrices of 1320000 "
        "entries, above the cap 1000000\n")
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
    # every head must be the repr, and every value the %.17g text, of the
    # double it parses to
    for name in ("samples.csv", "wigner.csv"):
        body = (out / "alpha_0.2500" / name).read_text().partition("\n")[2]
        rows = [line.split(",") for line in body.splitlines()]
        assert body == "".join(
            "".join(f"{float(head)!r}," for head in heads)
            + "%.17g\n" % float(value) for *heads, value in rows)
