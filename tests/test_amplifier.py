"""Heralded amplifier circuit: resource, conditioning, imperfections."""

import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from scissorlab import (
    AmplifierConfig,
    EXPERIMENT_PRESET,
    EXPERIMENT_PRESET_MU,
    IDEAL_SOURCE,
    CapacityError,
    SourceModel,
    TruncationError,
    apply_phase,
    build_resource,
    click_weights,
    fidelity,
    fock_state,
    gain_to_reflectivity,
    ideal_output,
    no_click_weights,
    quadrature_moments,
    reflectivity_to_gain,
    simulate,
    single_photon_weights,
    trace_distance,
)
from scissorlab import amplifier
from scissorlab.amplifier import _heralding_map
from oracles import _bs_matrix


def ideal_config(alpha, g=2.0, **kw):
    kw.setdefault("use_d2_veto", True)
    return AmplifierConfig(alpha=alpha, gain=g, **kw)


def test_gain_reflectivity_roundtrip():
    assert gain_to_reflectivity(2.0) == pytest.approx(1.0 / math.sqrt(5.0))
    for g in (0.5, 1.0, 2.0, 3.7):
        assert reflectivity_to_gain(gain_to_reflectivity(g)) == pytest.approx(
            g, abs=1e-12)
    with pytest.raises(ValueError):
        gain_to_reflectivity(0.0)
    with pytest.raises(ValueError):
        reflectivity_to_gain(0.0)


def test_config_takes_the_gain_alone():
    # the reflectivity follows from the gain; it is not a second parameter
    cfg = AmplifierConfig(alpha=0.1, gain=2.0)
    assert cfg.r == gain_to_reflectivity(2.0)
    with pytest.raises(TypeError):
        AmplifierConfig(alpha=0.1)
    with pytest.raises(TypeError):
        AmplifierConfig(alpha=0.1, gain=2.0, reflectivity=0.3)
    for g in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError,
                           match="gain must be finite and positive"):
            AmplifierConfig(alpha=0.1, gain=g)


def test_gain_whose_square_overflows_rejected():
    # r = 1 / sqrt(1 + g^2), unchanged below the largest gain whose square
    # is a finite double, and an error above it instead of r = 0
    top = math.sqrt(sys.float_info.max)
    while top * top < math.inf:
        top = math.nextafter(top, math.inf)
    below = math.nextafter(top, 0.0)
    for g in (1e-3, 0.7, 2, 2.0, 1e100, below):
        assert gain_to_reflectivity(g) == 1.0 / math.sqrt(1.0 + g * g)
    assert gain_to_reflectivity(below) > 0.0
    for g in (top, 1e300, 10**300, 10**400):
        with pytest.raises(ValueError, match="square overflows a double"):
            gain_to_reflectivity(g)
        with pytest.raises(ValueError, match="square overflows a double"):
            AmplifierConfig(alpha=0.1, gain=g)


def test_ideal_resource_weights():
    # t|1,0> + r|0,1> over (T, R); reduced T carries r^2 vacuum, t^2 photon
    rho = build_resource(0.6)
    assert rho.mode_dims == (3, 3)
    red = np.einsum("trur->tu", rho.matrix.reshape(3, 3, 3, 3))
    assert red[0, 0].real == pytest.approx(0.36, abs=1e-12)
    assert red[1, 1].real == pytest.approx(0.64, abs=1e-12)


def test_resource_with_imperfect_source_is_physical():
    rho = build_resource(0.5, EXPERIMENT_PRESET)
    rho.validate()
    # four modes once the companion pair is present
    assert len(rho.mode_dims) == 4


def test_resource_all_vacuum_source():
    rho = build_resource(0.6, SourceModel(weight_vacuum=1.0))
    assert rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-14)
    assert np.abs(rho.matrix).sum() == pytest.approx(1.0, abs=1e-14)


def test_resource_photon_sector_weights():
    # the splitter conserves photon number, so the total-n distribution
    # is just the source's emission weights
    source = SourceModel(weight_vacuum=0.1, weight_two_photon=0.05,
                         mode_overlap=0.95)
    rho = build_resource(1.0 / math.sqrt(5.0), source)
    rho.validate()
    dims = rho.mode_dims
    diag = np.diag(rho.matrix).real.reshape(dims)
    sector = np.zeros(3)
    for idx in np.ndindex(dims):
        total = sum(idx)
        if total < 3:
            sector[total] += diag[idx]
    np.testing.assert_allclose(sector, [0.1, 0.85, 0.05], atol=1e-12)


def resource_from_unitary(r, source):
    """The A-BS output as the general unitary gives it: the source's
    k-photon state (m a_T^+ + mc a_Tc^+)^k / sqrt(k!) |0> over (T, Tc),
    with R and Rc in vacuum, sent through u (x) u as u @ A @ u^T."""
    m = source.mode_overlap
    mc = math.sqrt(1.0 - m * m)
    raw = ([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
           [[0, mc, 0], [m, 0, 0], [0, 0, 0]],
           [[0, 0, mc * mc], [0, math.sqrt(2.0) * m * mc, 0], [m * m, 0, 0]])
    weights = (source.weight_vacuum, source.weight_single,
               source.weight_two_photon)
    u = _bs_matrix(3, r)
    comps = []
    for weight, amp_t_tc in zip(weights, raw):
        if weight > 0.0:
            a = np.zeros((9, 9))
            a[::3, ::3] = amp_t_tc
            comps.append((weight, u @ a @ u.T))
    return comps


@pytest.mark.parametrize("source", [
    IDEAL_SOURCE, EXPERIMENT_PRESET, SourceModel(0.2, 0.1, 1.0),
    SourceModel(0.0, 0.3, 0.7)], ids=["ideal", "preset", "matched", "pairs"])
@pytest.mark.parametrize("r", [1.0 / math.sqrt(5.0), 0.3, 0.5, 0.6, 0.9,
                               1.0 / math.sqrt(2.0)])
def test_resource_closed_form_matches_unitary(r, source):
    closed = amplifier._resource_components(r, source)
    dense = resource_from_unitary(r, source)
    assert [w for w, _ in closed] == [w for w, _ in dense]
    for (_, amps), (_, expect) in zip(closed, dense):
        np.testing.assert_allclose(amps, expect, rtol=0, atol=1e-15)


def test_detector_weight_partition():
    # on/off outcomes are a complete set for any efficiency
    n = np.arange(40)
    for mu in (0.07, 0.5, 1.0):
        np.testing.assert_allclose(
            click_weights(mu, n) + no_click_weights(mu, n), np.ones(40),
            atol=1e-14)
    # unit efficiency turns the one-photon element into a projector
    np.testing.assert_allclose(single_photon_weights(1.0, n),
                               (n == 1).astype(float), atol=1e-14)


def test_single_photon_weights_dilation():
    # mu-diluted element: n mu (1-mu)^{n-1}
    mu = 0.3
    n = np.arange(8)
    expect = n * mu * (1 - mu) ** np.maximum(n - 1, 0)
    np.testing.assert_allclose(single_photon_weights(mu, n), expect,
                               atol=1e-14)


def test_ideal_output_formula():
    alpha, g = 0.1, 2.0
    out = ideal_output(alpha, g)
    r2 = 1.0 / (1.0 + g * g)
    expect_p = math.exp(-alpha ** 2) * (r2 / 2.0) * (1 + g * g * alpha ** 2)
    assert out.success_probability == pytest.approx(expect_p, rel=1e-12)
    norm = 1.0 + (g * alpha) ** 2
    assert out.state.matrix[0, 0].real == pytest.approx(1.0 / norm, abs=1e-12)
    assert out.state.matrix[1, 1].real == pytest.approx(
        (g * alpha) ** 2 / norm, abs=1e-12)
    assert out.state.matrix[0, 1].real == pytest.approx(
        g * alpha / norm, abs=1e-12)
    # mode T's three levels, nothing above the one-photon level
    assert out.state.mode_dims == (3,)
    assert not out.state.matrix[2].any() and not out.state.matrix[:, 2].any()


def test_ideal_output_meets_the_herald_floor(monkeypatch):
    # at gain 2, p = e^{-a^2} (1 + 4 a^2) / 10 crosses the floor near 6.1
    assert ideal_output(6.0, 2.0).success_probability == pytest.approx(
        3.3633081038531755e-15, rel=1e-12)
    assert ideal_output(6.0, 2.0, accept_both_heralds=True
                        ).success_probability == pytest.approx(
        2 * 3.3633081038531755e-15, rel=1e-12)

    def no_state(*args):
        raise AssertionError("the state was built")

    # checked on the single branch, as simulate does, before the state
    monkeypatch.setattr(amplifier, "FockVector", no_state)
    for alpha in (6.2, 1e5, 1e150, 1e300, 10**300, 1e305):
        with pytest.raises(TruncationError, match="below conditioning floor"):
            ideal_output(alpha, 2.0, accept_both_heralds=True)


def test_ideal_output_probability_where_g2_alpha2_overflows():
    # g^2 |alpha|^2 = 1.44e308 * 4 overflows a double, while
    # r^2 (1 + g^2 |alpha|^2) = (1 + g^2 |alpha|^2) / (1 + g^2) is near 4
    g = 1.2e154
    assert g * g * 4.0 == math.inf
    p = ideal_output(2.0, g).success_probability
    assert p == pytest.approx(math.exp(-4.0) * 4.0 / 2.0, rel=1e-12)


def test_circuit_matches_closed_form():
    out = simulate(ideal_config(0.25))
    ref = ideal_output(0.25, 2.0)
    assert trace_distance(out.state, ref.state) < 1e-12
    assert out.success_probability == pytest.approx(
        ref.success_probability, rel=1e-9)


def test_both_heralds_double_probability():
    single = simulate(ideal_config(0.3))
    both = simulate(ideal_config(0.3, accept_both_heralds=True))
    assert both.success_probability == pytest.approx(
        2.0 * single.success_probability, rel=1e-12)
    assert trace_distance(single.state, both.state) < 1e-14


def test_vacuum_input_heralds_vacuum():
    out = simulate(ideal_config(0.0))
    r2 = 1.0 / 5.0
    assert out.success_probability == pytest.approx(r2 / 2.0, rel=1e-12)
    assert trace_distance(out.state, fock_state(0, 2).to_density()) < 1e-12


def test_success_probability_grows_with_drive():
    probs = [simulate(ideal_config(a)).success_probability
             for a in (0.0, 0.1, 0.25, 0.5, 1.0)]
    assert all(0.0 < p <= 1.0 for p in probs)
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_unit_gain_circuit():
    # a balanced splitter gives g = 1: the state passes through up to the
    # usual truncation of the superposition, so <X> shrinks by 1/(1+|a|^2)
    alpha = 0.2
    out = simulate(AmplifierConfig(alpha=alpha, gain=1.0, use_d2_veto=True))
    assert trace_distance(out.state, ideal_output(alpha, 1.0).state) < 1e-9
    mean, _ = quadrature_moments(out.state, 0.0)
    assert mean / (2 * alpha) == pytest.approx(1 / (1 + alpha ** 2), rel=1e-6)


def test_inefficient_detector_shrinks_success():
    full = simulate(ideal_config(0.2))
    dim = simulate(ideal_config(0.2, detector_mu=0.5))
    dim.state.validate()
    assert dim.success_probability < full.success_probability
    # at weak drive the herald scales almost linearly with mu
    assert dim.success_probability == pytest.approx(
        0.5 * full.success_probability, rel=0.05)


def test_outcome_partition_closes(monkeypatch):
    # the four on/off outcome combinations on (D1, D2) exhaust every run:
    # built with each pair of detector elements in place of the herald's,
    # the outcome maps sum to a trace-preserving map on every |n><n'|
    n_max, mu = 12, 0.6

    def none(mu, n):
        return (1.0 - mu) ** np.asarray(n, dtype=float)

    def click(mu, n):
        return 1.0 - none(mu, n)

    companion = SourceModel(weight_vacuum=0.05, weight_two_photon=0.03,
                            mode_overlap=0.9)
    for source in (IDEAL_SOURCE, companion):
        total = 0.0
        for d1 in (click, none):
            for d2 in (click, none):
                monkeypatch.setattr(amplifier, "single_photon_weights", d1)
                monkeypatch.setattr(amplifier, "no_click_weights", d2)
                total = total + _heralding_map.__wrapped__(
                    gain_to_reflectivity(2.0), source, mu, True, n_max)
        np.testing.assert_allclose(np.trace(total, axis1=0, axis2=1),
                                   np.eye(n_max + 1), atol=1e-12)


def test_ideal_map_is_truncated_noiseless_amplifier():
    # Ralph & Lund: with an ideal source, unit efficiency and the veto the
    # circuit applies (r/sqrt 2) g^n to |n> for n <= 1 and nothing above
    g = 2.0
    r = gain_to_reflectivity(g)
    heralding = _heralding_map(r, IDEAL_SOURCE, 1.0, True, 12)
    expect = np.zeros((3, 3, 13, 13))
    for n in (0, 1):
        for m in (0, 1):
            expect[n, m, n, m] = r * r / 2.0 * g ** (n + m)
    np.testing.assert_allclose(heralding, expect, rtol=0, atol=1e-14)


def dense_heralding_map(r, source, mu, veto, n_max):
    """The map from the full S-BS table: columns of _bs_matrix(n_max + 3)
    for the inputs |n>_S |j>_R, their detector-weighted Gram u^T (w u)
    per companion output, and the resource reduced over Tc."""
    c = 3 if source.mode_overlap < 1.0 else 1
    d_sig, split = n_max + 3, 1.0 / math.sqrt(2.0)
    u = _bs_matrix(d_sig, split).reshape(d_sig ** 2, d_sig, d_sig)
    u = u[:, :n_max + 1, :3].reshape(d_sig ** 2, -1)
    uc = _bs_matrix(c, split)[:, :c]
    n = np.arange(d_sig)
    gram = 0.0
    for (sc, rc), uc_row in zip(np.ndindex(c, c), uc):
        d2 = no_click_weights(mu, n + sc) if veto else np.ones(d_sig)
        w = np.outer(d2, single_photon_weights(mu, n + rc)).reshape(-1, 1)
        gram = gram + np.multiply.outer(u.T @ (w * u), np.outer(uc_row, uc_row))
    # gram[(n, j), (n', j'), jc, jc'] -> [n, (j, jc), n', (j', jc')]
    gram = gram.reshape(n_max + 1, 3, n_max + 1, 3, c, c)
    gram = gram.transpose(0, 1, 4, 2, 3, 5).reshape(n_max + 1, 3 * c,
                                                    n_max + 1, 3 * c)
    res = 0.0
    for weight, amps in amplifier._resource_components(r, source):
        amp = amps.reshape(3, 3, 3, 3)[:, :, :c, :c]
        amp = amp.transpose(0, 2, 1, 3).reshape(3, c, -1)
        res = res + weight * np.tensordot(amp, amp.conj(), axes=(1, 1))
    return np.tensordot(res, gram, axes=([1, 3], [1, 3]))


@pytest.mark.parametrize("veto", [True, False], ids=["veto", "no-veto"])
@pytest.mark.parametrize("source", [
    IDEAL_SOURCE, SourceModel(0.05, 0.03, 0.9)], ids=["ideal", "companion"])
def test_sector_map_matches_dense_gram(source, veto):
    r, n_max = gain_to_reflectivity(2.0), 20
    heralding = _heralding_map(r, source, 0.3, veto, n_max)
    np.testing.assert_allclose(
        heralding, dense_heralding_map(r, source, 0.3, veto, n_max),
        rtol=0, atol=1e-14)


def test_heralded_state_has_three_levels():
    # mode T holds at most two photons whatever the input cutoff
    for n_max in (12, 40):
        out = simulate(ideal_config(0.5, source=EXPERIMENT_PRESET,
                                    n_max=n_max))
        assert out.state.mode_dims == (3,)
    assert ideal_output(0.5, 2.0).state.mode_dims == (3,)


def test_heralding_map_is_built_once_per_setting():
    _heralding_map.cache_clear()
    cfg = ideal_config(0.1, source=EXPERIMENT_PRESET, detector_mu=0.3)
    for alpha in (0.1, 0.25, 0.5, 1.0, 0.3 + 0.4j):
        simulate(replace(cfg, alpha=alpha))
    info = _heralding_map.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    heralding = _heralding_map(cfg.r, cfg.source, cfg.detector_mu,
                               cfg.use_d2_veto, cfg.n_max)
    assert not heralding.flags.writeable
    with pytest.raises(ValueError):
        heralding[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("source, size", [
    (IDEAL_SOURCE, 15 * 3 * 15),
    (EXPERIMENT_PRESET, 15 * 3 * 15 * 27),
], ids=["ideal", "companion"])
def test_dimension_cap_bounds_the_working_size(source, size, monkeypatch):
    cfg = ideal_config(0.2, source=source)
    monkeypatch.setattr(amplifier, "DIMENSION_CAP", size)
    simulate(cfg)
    # the map is cached now, and the cap still holds
    monkeypatch.setattr(amplifier, "DIMENSION_CAP", size - 1)
    with pytest.raises(CapacityError):
        simulate(cfg)


#: simulate's populated 3x3 block and herald probability at g = 2, from the
#: joint-state propagation this package used before the heralding map
#: (entries below 1e-18 there are written as 0)
PARENT_OUTPUTS = [
    ("preset", 0.1, 0.014114561839115447, [
        [0.9150220357581182, 0.15180003111210388, -1.1249078656746212e-05],
        [0.15180003111210388, 0.08406874229372245, 0.006426919841953135],
        [-1.1249078656746212e-05, 0.006426919841953135, 0.0009092219481593433],
    ]),
    ("preset", 0.5, 0.030349838901341138, [
        [0.6147436331595424, 0.3470888300496817, -0.00012914919410463946],
        [0.3470888300496817, 0.3747736740955652, 0.014695049545329245],
        [-0.00012914919410463946, 0.014695049545329245, 0.010482692744892412],
    ]),
    ("preset", 0.3 + 0.4j, 0.030349838901341148, [
        [0.6147436331595425, 0.20825329802980913 - 0.27767106403974545j,
         3.6161774349298815e-05 + 0.00012398322634045355j],
        [0.20825329802980913 + 0.27767106403974545j, 0.3747736740955653,
         0.00881702972719755 - 0.011756039636263402j],
        [3.6161774349298815e-05 - 0.00012398322634045355j,
         0.00881702972719755 + 0.011756039636263402j, 0.010482692744892412],
    ]),
    ("companion", 0.1, 0.04068850404135716, [
        [0.9316093848404997, 0.14852186882153715, 0.0],
        [0.14852186882153715, 0.06777388901247994, 0.004360912406931729],
        [0.0, 0.004360912406931729, 0.0006167261470203954],
    ]),
    ("companion", 0.5, 0.07699949266505687, [
        [0.617829127966006, 0.3564938141616214, 0.0],
        [0.3564938141616214, 0.3747693001917798, 0.010467403282138014],
        [0.0, 0.010467403282138014, 0.007401571842214115],
    ]),
    ("companion", 0.3 + 0.4j, 0.07699949266505689, [
        [0.6178291279660061, 0.2138962884969729 - 0.28519505132929723j, 0.0],
        [0.2138962884969729 + 0.28519505132929723j, 0.37476930019178,
         0.006280441969282809 - 0.008373922625710415j],
        [0.0, 0.006280441969282809 + 0.008373922625710415j,
         0.007401571842214115],
    ]),
]

PINNED_SETTINGS = {
    "preset": dict(source=EXPERIMENT_PRESET, detector_mu=EXPERIMENT_PRESET_MU,
                   accept_both_heralds=True, use_d2_veto=False),
    "companion": dict(source=SourceModel(0.05, 0.03, 0.9), detector_mu=0.4,
                      use_d2_veto=True),
}


@pytest.mark.parametrize("setting, alpha, p_success, block", PARENT_OUTPUTS,
                         ids=[f"{s}-{a}" for s, a, _, _ in PARENT_OUTPUTS])
def test_companion_outputs_pinned(setting, alpha, p_success, block):
    out = simulate(ideal_config(alpha, **PINNED_SETTINGS[setting]))
    assert out.state.mode_dims == (3,)
    np.testing.assert_allclose(out.state.matrix, block, rtol=1e-12, atol=1e-12)
    assert out.success_probability == pytest.approx(p_success, rel=1e-12,
                                                    abs=1e-12)


def test_phase_covariance():
    # the circuit has no phase reference: simulate(alpha e^{i theta}) is
    # simulate(alpha) rotated by theta
    base = simulate(ideal_config(0.3)).state
    for theta in (0.4, 1.1, math.pi / 2, 2.9):
        direct = simulate(ideal_config(0.3 * cmath.exp(1j * theta))).state
        assert trace_distance(direct, apply_phase(base, theta)) < 1e-9


def test_truncation_robustness():
    a = simulate(ideal_config(0.5, n_max=12)).state
    b = simulate(ideal_config(0.5, n_max=14)).state
    assert a.mode_dims == b.mode_dims == (3,)
    assert trace_distance(a, b) < 1e-10


def test_two_photon_contamination_degrades_output():
    dirty = SourceModel(weight_vacuum=0.0, weight_two_photon=0.2)
    out = simulate(ideal_config(0.2, source=dirty))
    out.state.validate()
    ref = ideal_output(0.2, 2.0)
    assert fidelity(out.state, ref.state) < 0.999
    # two-photon events push population above the scissors subspace
    assert out.state.matrix[2, 2].real > 1e-4


def test_vacuum_contamination_biases_toward_vacuum():
    dirty = SourceModel(weight_vacuum=0.3, weight_two_photon=0.0)
    out = simulate(ideal_config(0.2, source=dirty))
    ref = ideal_output(0.2, 2.0)
    assert out.state.matrix[0, 0].real > ref.state.matrix[0, 0].real


def test_companion_mode_path_is_physical():
    src = SourceModel(weight_vacuum=0.05, weight_two_photon=0.03,
                      mode_overlap=0.9)
    out = simulate(ideal_config(0.3, source=src, detector_mu=0.4,
                                accept_both_heralds=True,
                                use_d2_veto=False))
    out.state.validate()
    assert 0.0 < out.success_probability < 1.0


def test_perfect_overlap_matches_no_companion_path():
    # mode_overlap = 1 must not silently change the physics relative to
    # the plain path even when other imperfections are active
    src_a = SourceModel(weight_vacuum=0.1, weight_two_photon=0.05,
                        mode_overlap=1.0)
    src_b = SourceModel(weight_vacuum=0.1, weight_two_photon=0.05,
                        mode_overlap=1.0 - 1e-12)
    a = simulate(ideal_config(0.3, source=src_a, detector_mu=0.5))
    b = simulate(ideal_config(0.3, source=src_b, detector_mu=0.5))
    assert trace_distance(a.state, b.state) < 1e-5
    assert a.success_probability == pytest.approx(
        b.success_probability, rel=1e-5)


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel(weight_vacuum=-0.1)
    with pytest.raises(ValueError):
        SourceModel(weight_vacuum=0.7, weight_two_photon=0.4)
    with pytest.raises(ValueError):
        SourceModel(mode_overlap=1.5)
    assert 0.0 < EXPERIMENT_PRESET_MU <= 1.0


def test_zero_efficiency_cannot_herald():
    with pytest.raises(TruncationError):
        simulate(ideal_config(0.2, detector_mu=1e-300))
