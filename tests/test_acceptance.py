"""Acceptance gate: nine end-to-end criteria for the amplifier laboratory.

Each test prints exactly one ``PASS criterion-N (...)`` /
``FAIL criterion-N (...)`` line and then asserts it.  The line is routed
through pytest's terminal reporter so the scoreboard survives output
capture on green runs too.
"""

import math
import time

import numpy as np
import pytest

from scissorlab import (
    AmplifierConfig,
    EXPERIMENT_PRESET,
    EXPERIMENT_PRESET_MU,
    LossChannel,
    SourceModel,
    TomographyProblem,
    apply_loss,
    bin_samples,
    build_resource,
    click_weights,
    default_phase_grid,
    effective_gain,
    ein_statistics,
    fidelity,
    ideal_output,
    maxlik_reconstruct,
    mutual_info_bound,
    no_click_weights,
    quadrature_moments,
    quadrature_pdf,
    reference_ein,
    sample_homodyne,
    simulate,
    trace_distance,
    vacuum_state,
    wigner,
)
from oracles import marginal_p, marginal_x, phase_povm_elements

ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 1.0)


@pytest.fixture
def _report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num, name, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} criterion-{num} ({name}): {detail}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return emit


def ideal_config(alpha, **kw):
    kw.setdefault("use_d2_veto", True)
    return AmplifierConfig(alpha=alpha, gain=2.0, **kw)


def test_criterion_1_analytic_circuit_equivalence(_report):
    start = time.perf_counter()
    worst_td = 0.0
    worst_rel = 0.0
    for alpha in ALPHA_GRID:
        circuit = simulate(ideal_config(alpha, n_max=12))
        closed = ideal_output(alpha, 2.0)
        worst_td = max(worst_td, trace_distance(circuit.state, closed.state))
        rel = abs(circuit.success_probability - closed.success_probability) \
            / closed.success_probability
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    ok = worst_td <= 1e-9 and worst_rel <= 1e-6 and elapsed < 10.0
    _report(1, "analytic-circuit equivalence", ok,
            f"max trace distance {worst_td:.2e} (<=1e-9), "
            f"max P rel err {worst_rel:.2e} (<=1e-6), {elapsed:.2f}s (<10s)")


def test_criterion_2_gain_target(_report):
    small = simulate(ideal_config(0.01))
    g_small = effective_gain(small.state, 0.01)
    gains = []
    for alpha in ALPHA_GRID[1:]:
        out = simulate(ideal_config(alpha))
        gains.append(effective_gain(out.state, alpha))
    decreasing = all(a > b for a, b in zip(gains, gains[1:]))
    ok = 1.99 <= g_small <= 2.00 and decreasing
    _report(2, "gain target", ok,
            f"g_eff(0.01) = {g_small:.5f} in [1.99, 2.00], "
            f"grid gains {['%.4f' % g for g in gains]} strictly decreasing: "
            f"{decreasing}")


def test_criterion_3_noiseless_signature(_report):
    start = time.perf_counter()
    out = simulate(ideal_config(0.1))
    g_eff = effective_gain(out.state, 0.1)
    ein_min, ein_avg, _ = ein_statistics(out.state, g_eff,
                                         default_phase_grid(12))
    ref = reference_ein(g_eff)
    elapsed = time.perf_counter() - start
    ok = (ein_min < 0 and ein_avg < 0
          and ein_min <= ref - 0.5 and ein_avg <= ref - 0.5
          and elapsed < 1.0)
    _report(3, "noiseless signature", ok,
            f"EIN_min {ein_min:.4f} < 0, EIN_avg {ein_avg:.4f} < 0, "
            f"reference {ref:.4f}, both at least 0.5 below it, "
            f"{elapsed:.2f}s (<1s)")


def test_criterion_4_tomography_closure(_report):
    start = time.perf_counter()
    alpha, eta = 0.25, 0.68
    truth = ideal_output(alpha, 2.0).state
    degraded = apply_loss(truth, LossChannel(eta))
    phases = default_phase_grid(12)
    samples = sample_homodyne(degraded, phases, 200_000, seed=7)
    problem = TomographyProblem(bin_samples(samples), n_max=10)
    result = maxlik_reconstruct(problem)
    from scissorlab import resize_mode
    fid = fidelity(result.rho, resize_mode(degraded, 0, 11))
    g_direct = effective_gain(truth, alpha)
    g_recon = effective_gain(result.rho, alpha, eta_hd=eta)
    rel = abs(g_recon - g_direct) / g_direct
    elapsed = time.perf_counter() - start
    ok = fid >= 0.995 and rel <= 0.03 and elapsed < 120.0
    _report(4, "tomography closure", ok,
            f"fidelity {fid:.5f} (>=0.995), g_eff recon {g_recon:.4f} vs "
            f"direct {g_direct:.4f} ({100 * rel:.2f}% <= 3%), "
            f"{elapsed:.1f}s (<120s)")


def test_criterion_5_likelihood_monotonicity(_report):
    worst = math.inf
    for alpha, n, seed in ((0.25, 200_000, 7), (0.4, 30_000, 8),
                           (0.1, 5_000, 9)):
        truth = ideal_output(alpha, 2.0).state
        phases = default_phase_grid(12)
        samples = sample_homodyne(apply_loss(truth, LossChannel(0.68)), phases,
                                  n, seed=seed)
        problem = TomographyProblem(bin_samples(samples), n_max=10)
        result = maxlik_reconstruct(problem)
        gains = np.diff(result.loglik)
        if gains.size:
            worst = min(worst, float(gains.min()))
    ok = worst > -1e-10
    _report(5, "likelihood monotonicity", ok,
            f"smallest per-iteration gain {worst:.2e} (slack -1e-10) "
            f"across 3 datasets")


def test_criterion_6_wigner_structure(_report):
    vac = wigner(vacuum_state(10).to_density())
    i0 = np.argmin(np.abs(vac.x))
    j0 = np.argmin(np.abs(vac.p))
    peak_err = abs(vac.values[i0, j0] - 1.0 / (2 * math.pi))
    out = ideal_output(0.5, 2.0).state
    var_x = quadrature_moments(out, 0.0)[1]
    var_p = quadrature_moments(out, math.pi / 2)[1]
    grid = wigner(out)
    marg_err = max(
        np.abs(marginal_x(grid) - quadrature_pdf(out, 0.0, grid.x)).max(),
        np.abs(marginal_p(grid)
               - quadrature_pdf(out, math.pi / 2, grid.p)).max())
    ok = peak_err <= 1e-6 and var_x < var_p and marg_err <= 1e-4
    _report(6, "Wigner structure", ok,
            f"vacuum peak err {peak_err:.1e} (<=1e-6), Var(X) {var_x:.3f} < "
            f"Var(P) {var_p:.3f}, marginal err {marg_err:.1e} (<=1e-4)")


def test_criterion_7_information_bound(_report):
    violations = 0
    for g in np.linspace(1.0, 4.0, 13):
        for snr in np.logspace(-4.0, 0.0, 13):
            i_direct, bound, _ = mutual_info_bound(
                float(snr), g=float(g), accept_both_heralds=True)
            if bound > i_direct + 1e-15:
                violations += 1
    _, _, ratio = mutual_info_bound(1e-4, g=2.0, accept_both_heralds=True)
    ratio_ok = abs(ratio - 0.8) / 0.8 <= 0.01
    ok = violations == 0 and ratio_ok
    _report(7, "information bound", ok,
            f"{violations} bound violations on the g x snr grid, "
            f"ratio at snr=1e-4, g=2 both heralds = {ratio:.5f} "
            f"(0.8 within 1%)")


def test_criterion_8_physicality_suite(_report):
    states = [
        vacuum_state(10).to_density(),
        build_resource(1.0 / math.sqrt(5.0)),
        build_resource(0.5, EXPERIMENT_PRESET),
        ideal_output(0.25, 2.0).state,
        simulate(ideal_config(0.1)).state,
        simulate(ideal_config(0.5, accept_both_heralds=True)).state,
        simulate(ideal_config(0.25, detector_mu=0.4)).state,
        simulate(AmplifierConfig(alpha=0.3, gain=2.0,
                                 source=EXPERIMENT_PRESET,
                                 detector_mu=EXPERIMENT_PRESET_MU,
                                 accept_both_heralds=True)).state,
        simulate(AmplifierConfig(
            alpha=0.2, gain=2.0,
            source=SourceModel(weight_vacuum=0.2, weight_two_photon=0.1),
            use_d2_veto=True)).state,
        apply_loss(ideal_output(0.25, 2.0).state, LossChannel(0.68)),
    ]
    n_checked = 0
    for rho in states:
        rho.validate()
        n_checked += 1

    completeness_err = 0.0
    edges = np.linspace(-6.0, 6.0, 101)
    for theta in default_phase_grid(12):
        block = phase_povm_elements(theta, edges, 10)
        completeness_err = max(completeness_err, float(
            np.abs(block.sum(axis=0) - np.eye(11)).max()))
    n = np.arange(30)
    for mu in (0.07, 0.5, 1.0):
        completeness_err = max(completeness_err, float(np.abs(
            click_weights(mu, n) + no_click_weights(mu, n) - 1.0).max()))

    heis_min = math.inf
    for rho in states:
        if rho.n_modes != 1:
            continue
        var_x = quadrature_moments(rho, 0.0)[1]
        var_p = quadrature_moments(rho, math.pi / 2)[1]
        heis_min = min(heis_min, var_x * var_p)

    ok = completeness_err <= 1e-12 and heis_min >= 1.0 - 1e-9
    _report(8, "physicality suite", ok,
            f"{n_checked} states Hermitian/positive/unit-trace, POVM "
            f"completeness err {completeness_err:.1e} (<=1e-12), min "
            f"uncertainty product {heis_min:.6f} (>=1-1e-9)")


def test_criterion_9_experimental_bracketing(_report):
    def preset_run(alpha):
        return simulate(AmplifierConfig(
            alpha=alpha, gain=2.0, source=EXPERIMENT_PRESET,
            detector_mu=EXPERIMENT_PRESET_MU, accept_both_heralds=True))

    p_small = preset_run(0.1).success_probability
    p_large = preset_run(1.0).success_probability
    g_low = effective_gain(preset_run(0.05).state, 0.05)
    ok = (0.005 <= p_small <= 0.02
          and 0.03 <= p_large <= 0.12
          and g_low < 2.0)
    _report(9, "experimental bracketing", ok,
            f"P(0.1) = {100 * p_small:.2f}% in [0.5%, 2%], "
            f"P(1.0) = {100 * p_large:.2f}% in [3%, 12%], "
            f"g_eff(0.05) = {g_low:.3f} < 2")
