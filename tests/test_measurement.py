"""Quadrature statistics and homodyne sampling.

The convention under test: X_theta = a e^{-i theta} + a^dag e^{i theta},
vacuum variance 1, so a coherent state has mean 2 Re(alpha e^{-i theta}).
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid
from scipy.special import erf, eval_hermite, gammaln, ndtr

from scissorlab import (
    CapacityError,
    DensityOperator,
    FockVector,
    LossChannel,
    QuadratureSamples,
    TruncationError,
    apply_loss,
    coherent_state,
    default_phase_grid,
    fock_state,
    ideal_output,
    quadrature_moments,
    quadrature_pdf,
    read_samples_csv,
    sample_homodyne,
    vacuum_state,
    wavefunctions,
    write_samples_csv,
)
from scissorlab import measurement
from scissorlab.csvtext import _CSV_CHUNK_ROWS
from scissorlab.measurement import (_GUIDE_BUCKETS, _SAMPLING_GRID,
                                    _HomodyneDraws, _InverseCdf,
                                    _overlap_stack, _ProbabilityMap,
                                    _sampling_stack)
from oracles import phase_povm_elements, quadrature_operator

GRID = np.linspace(-8.0, 8.0, 1601)
DENSE = np.linspace(-12.0, 12.0, 24001)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real, (dim,))


def test_default_phase_grid():
    grid = default_phase_grid()
    assert len(grid) == 12
    np.testing.assert_allclose(grid, np.arange(12) * math.pi / 12, atol=1e-15)
    assert len(default_phase_grid(6)) == 6


def test_ground_wavefunction():
    # psi_0(x) = (2 pi)^{-1/4} e^{-x^2/4}
    psi = wavefunctions(GRID, 3)
    expect = (2 * math.pi) ** -0.25 * np.exp(-GRID ** 2 / 4.0)
    np.testing.assert_allclose(psi[:, 0], expect, atol=1e-14)
    # psi_1 is odd, so it vanishes at the origin
    assert abs(wavefunctions(np.array([0.0]), 3)[0, 1]) < 1e-15


def test_wavefunctions_orthonormal():
    fine = np.linspace(-10.0, 10.0, 20001)
    psi = wavefunctions(fine, 8)
    gram = trapezoid(psi[:, :, None] * psi[:, None, :], fine, axis=0)
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-7)


def closed_form_wavefunctions(x, n_max):
    """psi_n = (2 pi)^{-1/4} (2^n n!)^{-1/2} H_n(x / sqrt 2) e^{-x^2/4}
    through scipy's Hermite values; overflows to NaN past n ~ 170 at
    |x| = 10, so it is an oracle for the lower orders only."""
    out = np.empty((x.size, n_max + 1))
    for n in range(n_max + 1):
        log_norm = (-0.25 * math.log(2.0 * math.pi)
                    - 0.5 * (n * math.log(2.0) + gammaln(n + 1)))
        out[:, n] = (math.exp(log_norm) * eval_hermite(n, x / math.sqrt(2.0))
                     * np.exp(-0.25 * x * x))
    return out


def test_wavefunctions_match_closed_form():
    # the recurrence and the closed form round differently; measured
    # worst gap 1.6e-14 (|psi| <= 0.64), bound set at ~6x that
    x = np.linspace(-10.0, 10.0, 4001)
    np.testing.assert_allclose(wavefunctions(x, 150),
                               closed_form_wavefunctions(x, 150),
                               rtol=0, atol=1e-13)


def test_wavefunctions_orthonormal_at_high_order():
    # psi_300 turns at |x| = 2 sqrt(300.5) ~ 34.7; [-48, 48] holds all of
    # it, and h = 0.02 resolves the fastest product oscillation (period
    # ~0.18) so the trapezoid sum is exact but for rounding: measured
    # 1.6e-13 over 4801 points, bound 1e-12
    fine = np.linspace(-48.0, 48.0, 4801)
    psi = wavefunctions(fine, 300)
    assert np.isfinite(psi).all()
    gram = psi.T @ psi * (fine[1] - fine[0])
    np.testing.assert_allclose(gram, np.eye(301), rtol=0, atol=1e-12)


def test_wavefunctions_refuse_underflow_where_order_is_not_negligible():
    # psi_0 underflows past |x| ~ 53.2, yet psi_1200 reaches out to its
    # turning point 2 sqrt(1200.5) ~ 69.3; zeros there cost 42% of its norm
    with pytest.raises(ValueError, match="not negligible"):
        wavefunctions(np.linspace(-70.0, 70.0, 141), 1200)


def test_wavefunctions_past_underflow_at_negligible_order():
    # psi_500 turns at ~44.7 and is below 1e-30 where psi_0 underflows, so
    # the zeros the recurrence returns there are right; h = 0.02 resolves
    # the fastest product oscillation (period ~0.14): measured 1.6e-13
    fine = np.linspace(-60.0, 60.0, 6001)
    psi = wavefunctions(fine, 500)
    assert not psi[np.abs(fine) > 55.0].any()
    gram = psi.T @ psi * (fine[1] - fine[0])
    np.testing.assert_allclose(gram, np.eye(501), rtol=0, atol=1e-12)


def test_quadrature_operator_elements():
    x = quadrature_operator(0.0, 5)
    for n in range(4):
        assert x[n, n + 1].real == pytest.approx(math.sqrt(n + 1), abs=1e-14)
    np.testing.assert_allclose(x, x.conj().T, atol=1e-15)
    # <0|X_theta|1> = e^{-i theta}, so the pi/2 quadrature carries -i
    p = quadrature_operator(math.pi / 2, 5)
    assert p[0, 1] == pytest.approx(-1j, abs=1e-14)
    assert p[1, 0] == pytest.approx(1j, abs=1e-14)


def test_vacuum_pdf_gaussian():
    rho = vacuum_state(10).to_density()
    pdf = quadrature_pdf(rho, 0.3, GRID)
    expect = np.exp(-GRID ** 2 / 2.0) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(pdf, expect, atol=1e-12)
    # unit mass (erf oracle: the [-8, 8] window loses < 1e-14)
    assert trapezoid(pdf, GRID) == pytest.approx(erf(8 / math.sqrt(2)),
                                             abs=1e-9)


def test_single_photon_pdf():
    rho = fock_state(1, 10).to_density()
    pdf = quadrature_pdf(rho, 1.2, GRID)
    expect = GRID ** 2 * np.exp(-GRID ** 2 / 2.0) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(pdf, expect, atol=1e-12)


def test_moments_pinned_values():
    assert quadrature_moments(vacuum_state(8).to_density(), 0.7) == (
        pytest.approx(0.0, abs=1e-13), pytest.approx(1.0, abs=1e-12))
    mean, var = quadrature_moments(fock_state(1, 8).to_density(), 0.0)
    assert mean == pytest.approx(0.0, abs=1e-13)
    assert var == pytest.approx(3.0, abs=1e-12)


def test_coherent_moments_rotate():
    alpha = 0.45 * np.exp(0.7j)
    rho = coherent_state(alpha, 20).to_density()
    for theta in (0.0, 0.7, 1.9):
        mean, var = quadrature_moments(rho, theta)
        assert mean == pytest.approx(
            2 * abs(alpha) * math.cos(0.7 - theta), abs=1e-9)
        assert var == pytest.approx(1.0, abs=1e-9)


def test_amplified_mean_pinned():
    # (|0> + g a |1>)/norm: <X> = 2 g a / (1 + g^2 a^2)
    rho = ideal_output(0.2, 2.0).state
    mean, _ = quadrature_moments(rho, 0.0)
    assert mean == pytest.approx(0.8 / 1.16, abs=1e-12)
    mean, _ = quadrature_moments(ideal_output(0.1, 2.0).state, 0.0)
    assert mean == pytest.approx(0.4 / 1.04, abs=1e-12)


def test_pdf_normalized_and_nonnegative():
    states = [vacuum_state(6).to_density(),
              fock_state(3, 8).to_density(),
              coherent_state(0.9, 14).to_density(),
              random_density(8, seed=2)]
    for theta in (0.0, 1.1):
        for rho in states:
            pdf = quadrature_pdf(rho, theta, DENSE)
            assert pdf.min() >= -1e-12
            assert trapezoid(pdf, DENSE) == pytest.approx(1.0, abs=1e-8)


def padded_operator_moments(rho, theta):
    """Oracle: the operator products the ladder-moment form replaced.  One
    padding level keeps the a a^dag term of <X^2> for population at the
    state's own cutoff."""
    dim = rho.dim + 1
    xop = quadrature_operator(theta, dim)
    m = np.zeros((dim, dim), dtype=complex)
    m[:rho.dim, :rho.dim] = rho.matrix
    mean = float(np.trace(m @ xop).real)
    second = float(np.trace(m @ (xop @ xop)).real)
    return mean, second - mean * mean


def test_moments_match_padded_operator_oracle():
    # random mixed states (full rank, so weight on the top Fock level),
    # the bare top level and a displaced state, d = 2..13, at scalar and
    # array theta; the two forms differ only by rounding, bounded here by
    # 1e-13 absolute on means and variances of order 1..25
    phases = np.append(default_phase_grid(12), [-2.5, 4.0, 11.0])
    for d in range(2, 14):
        states = [random_density(d, seed=d), random_density(d, seed=50 + d),
                  fock_state(d - 1, d - 1).to_density()]
        if d >= 8:
            # |0.6 - 0.4i> cut to d levels and renormalised; at d = 8 the
            # cut loses 8.4e-8, beyond what coherent_state accepts
            amps = coherent_state(0.6 - 0.4j, 30).amplitudes[:d]
            states.append(FockVector(amps, (d,)).normalized().to_density())
        for rho in states:
            expect = np.array([padded_operator_moments(rho, t)
                               for t in phases])
            mean, var = quadrature_moments(rho, phases)
            assert mean.shape == var.shape == phases.shape
            np.testing.assert_allclose(mean, expect[:, 0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(var, expect[:, 1], rtol=0, atol=1e-13)
            for k in (0, 5, 13):
                scalar = quadrature_moments(rho, phases[k])
                assert all(isinstance(v, float) for v in scalar)
                np.testing.assert_allclose(scalar, expect[k], rtol=0,
                                           atol=1e-13)


def test_moments_match_pdf_integrals():
    # two independent code paths: the state's ladder moments against
    # direct integration of the distribution
    for seed, theta in ((0, 0.0), (1, 0.4), (2, 2.2)):
        rho = random_density(8, seed=seed)
        mean, var = quadrature_moments(rho, theta)
        pdf = quadrature_pdf(rho, theta, DENSE)
        m1 = trapezoid(DENSE * pdf, DENSE)
        m2 = trapezoid((DENSE - m1) ** 2 * pdf, DENSE)
        assert m1 == pytest.approx(mean, abs=1e-6)
        assert m2 == pytest.approx(var, abs=1e-6)


def test_pdf_requires_normalized_state():
    from scissorlab import DensityOperator
    rho = DensityOperator(np.diag([0.3, 0.3]).astype(complex), (2,))
    with pytest.raises(ValueError):
        quadrature_pdf(rho, 0.0, GRID)


def test_sampling_deterministic():
    rho = ideal_output(0.25, 2.0).state
    phases = default_phase_grid(4)
    a = sample_homodyne(rho, phases, 400, seed=9)
    b = sample_homodyne(rho, phases, 400, seed=9)
    assert a.phases.tolist() == b.phases.tolist()
    assert a.phase_index.tolist() == b.phase_index.tolist()
    assert a.x.tolist() == b.x.tolist()
    c = sample_homodyne(rho, phases, 400, seed=10)
    assert a.x.tolist() != c.x.tolist()


def test_sampling_round_robin_phases():
    phases = default_phase_grid(3)
    samples = sample_homodyne(vacuum_state(6).to_density(), phases, 9, seed=0)
    # the phase list is stored once, and each draw holds its index
    assert samples.phases.tolist() == list(phases)
    assert samples.phase_index.tolist() == [0, 1, 2] * 3
    assert len(samples) == 9


def test_samples_reject_inconsistent_batches():
    phases, x = np.array([0.0, 1.0]), np.array([0.5, -0.5, 1.5])
    QuadratureSamples(phases, np.array([0, 1, 1]), x)
    with pytest.raises(ValueError, match="equal length"):
        QuadratureSamples(phases, np.array([0, 1]), x)
    with pytest.raises(ValueError, match="integer array"):
        QuadratureSamples(phases, np.array([0.0, 1.0, 1.0]), x)
    with pytest.raises(ValueError, match=r"spans 0\.\.2, outside the 2"):
        QuadratureSamples(phases, np.array([0, 1, 2]), x)
    with pytest.raises(ValueError, match=r"spans -1\.\.1, outside the 2"):
        QuadratureSamples(phases, np.array([0, -1, 1]), x)
    with pytest.raises(ValueError, match=r"spans 0\.\.0, outside the 0"):
        QuadratureSamples(np.empty(0), np.array([0, 0, 0]), x)
    with pytest.raises(ValueError, match="1-D"):
        QuadratureSamples(phases.reshape(2, 1), np.array([0, 1, 1]), x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["theta", "x"])
def test_samples_reject_non_finite_draws(column, bad):
    # a NaN x used to fall out of every histogram bin without a trace;
    # the "theta" case puts the bad value in the phase list
    arrays = {"phases": np.linspace(0.0, 2.0, 5), "x": np.linspace(-1.0, 1.0, 5)}
    arrays["phases" if column == "theta" else "x"][3] = bad
    message = {"theta": "phase 3 is not finite",
               "x": "sample 3 has a non-finite x"}[column]
    with pytest.raises(ValueError, match=message):
        QuadratureSamples(arrays["phases"], np.arange(5), arrays["x"])


def test_vacuum_samples_pass_chi_squared():
    n = 40000
    values = sample_homodyne(vacuum_state(8).to_density(), [0.0], n, seed=3).x
    # 24 cells across [-3, 3] plus two open tail cells keeps every
    # expected count above 5
    edges = np.linspace(-3.0, 3.0, 25)
    inner, _ = np.histogram(values, bins=edges)
    counts = np.concatenate([[(values < -3.0).sum()], inner,
                             [(values > 3.0).sum()]]).astype(float)
    cdf = stats.norm.cdf(edges)
    probs = np.concatenate([[cdf[0]], np.diff(cdf), [1 - cdf[-1]]])
    expected = probs * n
    assert expected.min() >= 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # dof = cells - 1; a seeded draw must not land in the 1e-4 tail
    assert chi2 < stats.chi2.ppf(1 - 1e-4, len(counts) - 1)


def test_draws_invert_exact_cdf():
    # a coherent state's quadrature is N(mu_theta, 1): each draw must be
    # its uniform pushed through the exact CDF, normalised on the grid and
    # linearly interpolated
    alpha, phases, n = 0.7 + 0.3j, [0.0, 1.1, 2.5], 30000
    samples = sample_homodyne(coherent_state(alpha, 30), phases, n, seed=7)
    u = np.random.default_rng(7).random(n)
    for k, theta in enumerate(phases):
        mu = 2 * (alpha * np.exp(-1j * theta)).real
        table = ndtr(_SAMPLING_GRID - mu)
        table = (table - table[0]) / (table[-1] - table[0])
        np.testing.assert_allclose(
            samples.x[k::3], np.interp(u[k::3], table, _SAMPLING_GRID),
            rtol=0, atol=1e-9)


def awkward_cdf_tables():
    """Non-decreasing tables from 0 to 1 that stress the guide table."""
    smooth = ndtr(np.linspace(-10.0, 10.0, 4001) - 0.3)
    smooth = (smooth - smooth[0]) / (smooth[-1] - smooth[0])
    flat = np.repeat(np.linspace(0.0, 1.0, 6), [5, 1, 40, 2, 3, 7])
    step = np.zeros(50)
    step[20:] = 1.0      # all the mass in one cell
    # many points in one bucket, then one point spanning most buckets
    crowded = np.concatenate((np.linspace(0.0, 0.5 / _GUIDE_BUCKETS, 300),
                              [1.0]))
    return {"smooth": smooth, "flat runs": flat, "one step": step,
            "two points": np.array([0.0, 1.0]), "crowded": crowded}


@pytest.mark.parametrize("name", sorted(awkward_cdf_tables()))
def test_inverse_cdf_matches_interp_bit_for_bit(name):
    table = awkward_cdf_tables()[name]
    grid = np.linspace(-3.0, 5.0, table.size)
    u = np.concatenate((
        np.random.default_rng(3).random(20000),
        [0.0, 0.5, 1.0 - 2.0 ** -53],
        np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS,   # every bucket's start
        table[table < 1.0],                            # the table's points
        np.nextafter(table[table < 1.0], 1.0),
    ))
    u = u[u < 1.0]     # the draws of rng.random
    got = _InverseCdf(table, grid)(u)
    want = np.interp(u, table, grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n_samples", [0, 4, 5, 31, 1000])
def test_draws_in_blocks_match_sample_homodyne(n_samples):
    # 5 phases; blocks that start anywhere in a round of the phases, are
    # shorter than a round, or empty
    rho = ideal_output(0.4, 2.0).state
    phases = default_phase_grid(5)
    seen = apply_loss(rho, LossChannel(0.8))
    whole = sample_homodyne(seen, phases, n_samples, seed=7)
    draws = _HomodyneDraws(seen, phases, n_samples, seed=7)
    assert len(draws) == n_samples
    rng = np.random.default_rng(n_samples)
    cuts = np.unique(np.clip(np.concatenate(
        ([0, 1, 3, n_samples], rng.integers(0, n_samples + 1, size=6))),
        0, n_samples)).tolist()
    x = np.full(n_samples, np.nan)
    draws.fill(0, x[:0])                        # an empty block
    for start, stop in zip(cuts[:-1], cuts[1:]):
        draws.fill(start, x[start:stop])
    assert np.array_equal(x.view(np.uint64), whole.x.view(np.uint64))
    batch = draws.batch(x)
    assert np.array_equal(batch.phase_index, whole.phase_index)
    assert np.array_equal(batch.phases, whole.phases)


def test_sampling_stack_is_one_read_only_entry():
    stack = _sampling_stack(4)
    assert _sampling_stack(4) is stack
    assert not stack.flags.writeable
    assert stack.shape == (4002, 15)      # the packed triangle, d = 5
    np.testing.assert_array_equal(stack, _overlap_stack(_SAMPLING_GRID, 4))
    _sampling_stack(2)
    assert _sampling_stack.cache_info().currsize == 1


def test_overlap_stack_peak_is_near_its_packed_size():
    # one full (E, d, d) array is 2d / (d + 1) = 1.95 times the packed
    # result here, so the bound admits no such temporary beside it
    tracemalloc.start()
    try:
        stack = _overlap_stack(_SAMPLING_GRID, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.shape == (4002, 41 * 42 // 2)
    assert peak <= 2.5 * stack.nbytes


@pytest.mark.parametrize("edges", [[0.0, math.nan], [0.0, math.inf],
                                   [-math.inf, 0.0]])
def test_overlap_stack_rejects_non_finite_edges(edges):
    # else a NaN edge gives NaN elements silently, an infinite one NaN
    # after RuntimeWarnings
    bad = int(np.flatnonzero(~np.isfinite(edges))[0])
    with pytest.raises(ValueError, match=f"bin edge {bad} is not finite"):
        _overlap_stack(edges, 3)
    with pytest.raises(ValueError, match=f"bin edge {bad} is not finite"):
        phase_povm_elements(0.0, edges, 3)


def test_probability_map_adjoint_and_full_oracle():
    edges, n_max = np.linspace(-5.0, 5.0, 41), 7
    phases = [0.0, 0.4, 1.3, 2.9]
    povm = _ProbabilityMap(phases, _overlap_stack(edges, n_max))
    rng = np.random.default_rng(5)
    for seed in range(3):
        # Re Tr(R(w) rho) = sum w p on any Hermitian rho, positive or not
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = a + a.conj().T
        w = rng.normal(size=(len(phases), edges.size + 1))
        r_op = povm.adjoint(w)
        np.testing.assert_array_equal(r_op, r_op.conj().T)
        assert np.trace(r_op @ herm).real == pytest.approx(
            (w * povm.probabilities(herm)).sum(), rel=0, abs=1e-13)
        # p against the einsum over each phase's full elements
        rho = random_density(8, seed).matrix
        p = povm.probabilities(rho)
        for k, theta in enumerate(phases):
            oracle = np.einsum("jmn,nm->j",
                               phase_povm_elements(theta, edges, n_max), rho)
            np.testing.assert_allclose(p[k], oracle.real, rtol=0, atol=1e-15)


def test_sampling_masses_match_full_oracle():
    # the grid masses sample_homodyne draws from, against Tr(Pi rho)
    rho, phases = random_density(7, 4).matrix, [0.0, 0.8, 2.3]
    masses = _ProbabilityMap(phases, _sampling_stack(6)).probabilities(rho)
    for k, theta in enumerate(phases):
        oracle = np.einsum("jmn,nm->j",
                           phase_povm_elements(theta, _SAMPLING_GRID, 6), rho)
        np.testing.assert_allclose(masses[k], oracle.real, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sampling_rejects_non_finite_phases(bad):
    # else a NaN phase reaches the mass check as an off-grid TruncationError
    with pytest.raises(ValueError, match="phase 1 is not finite"):
        sample_homodyne(coherent_state(0.5, 8), [0.0, bad], 10)


def test_sampling_refuses_a_batch_above_the_cap(monkeypatch):
    # 10^12 draws would take 8 TB of uniforms; the cap is checked first,
    # and any path past the check fails here before a draw is allocated
    def past_the_check(rho, what):
        raise AssertionError("sample_homodyne passed the cap check")

    monkeypatch.setattr(measurement, "_single_mode", past_the_check)
    with pytest.raises(CapacityError,
                       match="1000000000000 samples exceed the cap 10000000"):
        sample_homodyne(coherent_state(0.5, 8), [0.0, 1.0], 10**12)


def test_sampling_caps_the_phase_count(monkeypatch):
    # 20195 table entries per phase at the sampler's peak: 49 phases fit
    # the cap
    samples = sample_homodyne(coherent_state(0.5, 8), default_phase_grid(49),
                              98, seed=2)
    assert np.bincount(samples.phase_index).tolist() == [2] * 49

    # 50 do not, and are refused before the state is read
    def past_the_check(rho, what):
        raise AssertionError("sample_homodyne passed the phase cap")

    monkeypatch.setattr(measurement, "_single_mode", past_the_check)
    with pytest.raises(CapacityError, match="50 phases need sampling "
                       "tables of 1009750 entries, above the cap 1000000"):
        sample_homodyne(coherent_state(0.5, 8), default_phase_grid(50), 10)


def test_sample_moments_match_state():
    rho = ideal_output(0.25, 2.0).state
    mean_true, var_true = quadrature_moments(rho, 0.0)
    n = 200000
    values = sample_homodyne(rho, [0.0], n, seed=12).x
    pdf = quadrature_pdf(rho, 0.0, DENSE)
    mu4 = trapezoid((DENSE - mean_true) ** 4 * pdf, DENSE)
    se_mean = math.sqrt(var_true / n)
    se_var = math.sqrt((mu4 - var_true ** 2) / n)
    assert values.mean() == pytest.approx(mean_true, abs=5 * se_mean)
    assert values.var() == pytest.approx(var_true, abs=5 * se_var)


def test_sampling_with_homodyne_loss():
    # |1> behind efficiency eta has variance 1 + 2 eta
    eta = 0.68
    n = 60000
    values = sample_homodyne(apply_loss(fock_state(1, 8).to_density(),
                                        LossChannel(eta)),
                             [0.0], n, seed=4).x
    assert values.var() == pytest.approx(1 + 2 * eta, rel=0.03)
    assert values.mean() == pytest.approx(0.0, abs=0.05)


def test_sampler_takes_no_efficiency():
    # the sampler draws the state it is given; detector loss is applied to
    # the state first, by apply_loss alone
    rho = coherent_state(0.5, 8)
    with pytest.raises(TypeError):
        sample_homodyne(rho, [0.0, 1.0], 10, eta_hd=0.5)
    with pytest.raises(TypeError):
        _HomodyneDraws(rho, [0.0, 1.0], 10, eta_hd=0.5)
    # the seed is keyword-only, so an efficiency in the old place of
    # eta_hd, even 1, fails too instead of seeding the draws
    with pytest.raises(TypeError):
        sample_homodyne(rho, [0.0, 1.0], 10, 1)


def reference_samples_csv(samples):
    """The file text written one row at a time."""
    return "theta,x\n" + "".join(
        f"{t:.17g},{x:.17g}\n"
        for t, x in zip(samples.phases[samples.phase_index].tolist(),
                        samples.x.tolist()))


def test_samples_csv_roundtrip(tmp_path):
    rho = ideal_output(0.3, 2.0).state
    samples = sample_homodyne(rho, default_phase_grid(5), 123, seed=1)
    path = tmp_path / "samples.csv"
    write_samples_csv(samples, path)
    back = read_samples_csv(path)
    assert len(back) == 123
    # %.17g keeps doubles exactly
    assert back.phases.tolist() == samples.phases.tolist()
    assert back.phase_index.tolist() == samples.phase_index.tolist()
    assert back.x.tolist() == samples.x.tolist()
    assert path.read_text() == reference_samples_csv(samples)
    rng = np.random.default_rng(3)
    long = 2 * _CSV_CHUNK_ROWS + 37      # more than one chunk, not a multiple
    batches = [
        # unsorted phases, not round-robin
        QuadratureSamples(np.array([2.5, 0.1, 1e-300]),
                          np.array([0, 1, 0, 2, 1, 1]),
                          np.array([1.0, -2.0, 3.25, 0.1, -0.0, 5e-324])),
        # 0.0 and -0.0 are distinct phases in the text
        QuadratureSamples(np.array([0.0, -0.0]), np.array([0, 1, 1, 0]),
                          np.array([0.5, -0.5, 1.5, -1.5])),
        QuadratureSamples(np.array([0.3, -0.0, 1.7, 0.0]),
                          rng.integers(4, size=long), rng.normal(size=long)),
        QuadratureSamples(np.array([0.0]), np.empty(0, dtype=int),
                          np.empty(0)),
    ]
    for batch in batches:
        write_samples_csv(batch, path)
        assert path.read_text() == reference_samples_csv(batch)
    # a -0.0 phase prints as -0 on every row that uses it
    write_samples_csv(batches[1], path)
    assert path.read_text() == "theta,x\n0,0.5\n-0,-0.5\n-0,1.5\n0,-1.5\n"


def test_sample_rows_written_block_by_block(tmp_path):
    # the streamed writer reads each block only once its stop is yielded,
    # and gathers the heads through a phase index that is not round-robin
    rng = np.random.default_rng(5)
    size = 2 * _CSV_CHUNK_ROWS + 37
    batch = QuadratureSamples(np.array([0.3, -0.0, 1.7, 0.0, 1e-300]),
                              rng.permutation(np.arange(size) % 5 // 2 * 2),
                              rng.normal(size=size))
    x = np.full(size, np.nan)
    stops = [0, 5, _CSV_CHUNK_ROWS + 1, _CSV_CHUNK_ROWS + 1, size]

    def produced():
        start = 0
        for stop in stops:
            x[start:stop] = batch.x[start:stop]
            start = stop
            yield stop

    path = tmp_path / "samples.csv"
    measurement._write_sample_rows(path, batch.phases, batch.phase_index, x,
                                   produced())
    assert path.read_text() == reference_samples_csv(batch)


def test_read_samples_csv_indexes_increasing_phases(tmp_path):
    theta = np.array([2.5, 0.1, 2.5, 1e-300, 0.1, -1.0, -0.0, 0.1])
    path = tmp_path / "samples.csv"
    path.write_text("theta,x\n" + "".join(f"{t:.17g},{k}\n"
                                          for k, t in enumerate(theta)))
    back = read_samples_csv(path)
    assert back.phases.tolist() == [-1.0, -0.0, 1e-300, 0.1, 2.5]
    assert np.all(np.diff(back.phases) > 0)
    # the index rebuilds the theta column bit for bit, -0 included
    rebuilt = back.phases[back.phase_index]
    assert np.array_equal(rebuilt.view(np.uint64), theta.view(np.uint64))
    assert back.x.tolist() == list(range(theta.size))
    # 0 and -0 compare equal, so a file holding both reads back as one phase
    path.write_text("theta,x\n0,1\n-0,2\n1,3\n-0,4\n")
    back = read_samples_csv(path)
    assert back.phases.tolist() == [0.0, 1.0]
    assert back.phase_index.tolist() == [0, 0, 1, 0]


def test_read_samples_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("phase,x\n0,1.5\n")
    with pytest.raises(ValueError, match="header"):
        read_samples_csv(path)
    path.write_text("theta,x\n0,1.5\n0,1.5,2.5\n")
    with pytest.raises(ValueError):
        read_samples_csv(path)
    path.write_text("theta,x\n0,1.5,2.5\n0,1.5,2.5\n")
    with pytest.raises(ValueError):
        read_samples_csv(path)
    # theta is checked before the phases are deduplicated, so the message
    # still names the row
    path.write_text("theta,x\n0,0.5\n1,-0.25\ninf,1\n0,2\n")
    with pytest.raises(ValueError, match="sample 2 has a non-finite theta"):
        read_samples_csv(path)


def test_header_only_csv_is_an_empty_batch(tmp_path):
    path = tmp_path / "samples.csv"
    write_samples_csv(sample_homodyne(vacuum_state(4), [0.0], 0, seed=0), path)
    assert path.read_text() == "theta,x\n"
    back = read_samples_csv(path)
    assert len(back) == 0
    assert back.phases.shape == back.phase_index.shape == back.x.shape == (0,)


def test_off_grid_mass_raises():
    # |alpha = 3.5> puts ~1e-3 of its x-quadrature mass beyond x = 10
    with pytest.raises(TruncationError, match="off the sampling grid"):
        sample_homodyne(coherent_state(3.5, 40), [0.0], 10, seed=0)
    # ~1e-9 off the grid sits inside TRUNCATION_TOL
    samples = sample_homodyne(coherent_state(2.0, 30), [0.0], 10, seed=0)
    assert len(samples) == 10
