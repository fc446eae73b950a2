"""Binned-homodyne POVMs and the iterative likelihood climb."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid
from scipy.special import erf, ndtr

from scissorlab import (
    DensityOperator,
    LossChannel,
    QuadratureHistograms,
    QuadratureSamples,
    TomographyProblem,
    apply_loss,
    bin_samples,
    default_phase_grid,
    fidelity,
    ideal_output,
    maxlik_reconstruct,
    read_density_json,
    resize_mode,
    sample_homodyne,
    vacuum_state,
    wavefunctions,
    write_density_json,
)
from scissorlab import tomography
from scissorlab.numerics import (POVM_COMPLETENESS_TOL, PROBABILITY_FLOOR,
                                 CapacityError)
from oracles import phase_povm_elements


def test_histogram_validation():
    edges = np.linspace(-6, 6, 11)
    QuadratureHistograms([0.0], edges, np.zeros((1, 12), dtype=int))
    with pytest.raises(ValueError):
        QuadratureHistograms([0.0], edges[::-1], np.zeros((1, 12), dtype=int))
    with pytest.raises(ValueError):
        QuadratureHistograms([0.0], edges, np.zeros((1, 11), dtype=int))
    with pytest.raises(ValueError):
        QuadratureHistograms([0.0], edges, np.full((1, 12), -1))
    with pytest.raises(ValueError):
        QuadratureHistograms([0.0, 1.0], edges, np.zeros((1, 12), dtype=int))
    with pytest.raises(ValueError):
        QuadratureHistograms([np.nan], edges, np.zeros((1, 12), dtype=int))
    with pytest.raises(ValueError):
        QuadratureHistograms([0.0], np.append(edges, np.inf),
                             np.zeros((1, 13), dtype=int))


def test_histograms_are_read_only_copies():
    edges = np.linspace(-6, 6, 11)
    counts = np.zeros((1, 12), dtype=np.int64)
    hists = QuadratureHistograms([0.0], edges, counts)
    counts[0, 0] = 7
    edges[0] = -7.0
    assert hists.counts[0, 0] == 0 and hists.edges[0] == -6.0
    with pytest.raises(ValueError):
        hists.counts[0, 0] = 1


def test_bin_samples_conserves_counts():
    rho = ideal_output(0.5, 2.0).state
    phases = default_phase_grid(4)
    samples = sample_homodyne(rho, phases, 2000, seed=2)
    hists = bin_samples(samples, bin_count=40, value_range=(-2, 2))
    assert hists.counts.shape == (4, 42)
    assert hists.counts.sum() == 2000
    np.testing.assert_array_equal(hists.thetas, phases)
    # every row holds exactly its own phase's draws
    for k, row in enumerate(hists.counts):
        assert row.sum() == np.count_nonzero(samples.phase_index == k)
    assert (hists.counts[:, [0, -1]] > 0).any()  # +-2 clips real mass


def test_bin_samples_boundaries():
    # np.histogram semantics: lo opens the first bin, hi closes the last
    # (inclusive), and only values beyond them go out of range
    index = np.array([0] * 5 + [1] * 4)
    x = np.array([-1.0, 1.0, -1.5, 1.5, 0.25,
                  1.0, 1.0, -1.0, -1.0000001])
    hists = bin_samples(QuadratureSamples(np.array([0.0, 1.0]), index, x),
                        bin_count=4, value_range=(-1.0, 1.0))
    np.testing.assert_array_equal(hists.edges, [-1.0, -0.5, 0.0, 0.5, 1.0])
    np.testing.assert_array_equal(hists.counts, [[1, 1, 0, 1, 1, 1],
                                                 [1, 1, 0, 0, 2, 0]])


def histogram_oracle(samples, bin_count, value_range):
    """Per-phase np.histogram, with the out-of-range draws counted apart."""
    lo, hi = value_range
    edges = np.linspace(lo, hi, bin_count + 1)
    rows = []
    for k in range(samples.phases.size):
        vals = samples.x[samples.phase_index == k]
        rows.append([np.count_nonzero(vals < lo),
                     *np.histogram(vals, bins=edges)[0],
                     np.count_nonzero(vals > hi)])
    return np.array(rows)


@pytest.mark.parametrize("bin_count, value_range", [
    (100, (-6.0, 6.0)), (7, (-0.3, 2.1)), (1, (-1.0, 1.0)),
    (333, (-5.5, 4.25)), (50, (1e15, 1e15 + 100.0)), (3, (-1e-300, 1e-300)),
])
def test_bin_samples_matches_histogram_oracle(bin_count, value_range,
                                             monkeypatch):
    # every edge and its two float neighbours, the extremes of the doubles
    # and a drawn batch, spread over three phases and four slices
    monkeypatch.setattr(tomography, "_BIN_SLICE", 1024)
    edges = np.linspace(*value_range, bin_count + 1)
    x = np.concatenate([edges, np.nextafter(edges, np.inf),
                        np.nextafter(edges, -np.inf),
                        [np.finfo(float).max, -np.finfo(float).max, 0.0, -0.0],
                        value_range[0] + np.diff(value_range)
                        * np.random.default_rng(3).uniform(-0.2, 1.2, 3000)])
    samples = QuadratureSamples(np.array([0.0, 1.0, 2.0]),
                                np.arange(x.size) % 3, x)
    hists = bin_samples(samples, bin_count, value_range)
    np.testing.assert_array_equal(
        hists.counts, histogram_oracle(samples, bin_count, value_range))


def test_bin_samples_of_a_uint8_index_matches_histogram_oracle():
    # the sampler's index is uint8, and uint8 times an int stays uint8 on
    # numpy 1.24 and 2 alike: phase 48's rows start at 48 x 102, which a
    # product in uint8 would wrap
    rho = apply_loss(ideal_output(0.5, 2.0).state, LossChannel(0.68))
    samples = sample_homodyne(rho, default_phase_grid(49), 49 * 300, seed=4)
    assert samples.phase_index.dtype == np.uint8
    hists = bin_samples(samples)
    np.testing.assert_array_equal(
        hists.counts, histogram_oracle(samples, 100, (-6.0, 6.0)))


@pytest.mark.parametrize("value_range", [(1e15, 1e15 + 1.0),
                                         (-1e-320, 1e-320)])
def test_bin_samples_refuses_bins_below_double_precision(value_range):
    samples = QuadratureSamples(np.array([0.0]), np.zeros(1, dtype=int),
                                np.zeros(1))
    with pytest.raises(ValueError, match="too narrow for double precision"):
        bin_samples(samples, 100, value_range)


@pytest.mark.parametrize("value_range", [(-1e308, 1e308),
                                         (-math.inf, math.inf)])
def test_bin_samples_refuses_a_range_no_double_spans(value_range):
    # hi - lo overflows: refused as such before any edge is computed
    samples = QuadratureSamples(np.array([0.0]), np.zeros(1, dtype=int),
                                np.zeros(1))
    with pytest.raises(ValueError, match="wider than a double holds"):
        bin_samples(samples, 100, value_range)


def test_bin_povm_against_dense_quadrature():
    # independent oracle: trapezoid integral of psi_m psi_n over the bin,
    # rotated by e^{i theta (m - n)}
    theta, lo, hi, n_max = 0.7, -0.4, 0.25, 6
    x = np.linspace(lo, hi, 20001)
    psi = wavefunctions(x, n_max)
    overlap = trapezoid(psi[:, :, None] * psi[:, None, :], x, axis=0)
    m = np.arange(n_max + 1)
    oracle = overlap * np.exp(1j * theta * (m[:, None] - m[None, :]))
    ours = phase_povm_elements(theta, [lo, hi], n_max)[1]
    np.testing.assert_allclose(ours, oracle, atol=1e-9)


def dense_phase_block(theta, edges, n_max, far=25.0, points=20001):
    """Trapezoid oracle for a whole phase block; the open tails are cut
    at +-far, where every psi_n up to n_max is below double precision."""
    bounds = np.concatenate([[-far], edges, [far]])
    m = np.arange(n_max + 1)
    phase = np.exp(1j * theta * (m[:, None] - m[None, :]))
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = points if lo > -far and hi < far else 10 * points
        x = np.linspace(lo, hi, n)
        w = np.full(n, x[1] - x[0])
        w[[0, -1]] *= 0.5
        psi = wavefunctions(x, n_max)
        out.append((psi.T @ (w[:, None] * psi)) * phase)
    return np.stack(out)


@pytest.mark.parametrize("edges, n_max", [
    (np.linspace(-9.0, 9.0, 61), 10),     # edges past the old +-6 support
    (np.linspace(-6.0, 6.0, 101), 20),    # psi_20 reaches well into the tails
])
def test_phase_block_against_dense_quadrature(edges, n_max):
    theta = 0.9
    ours = phase_povm_elements(theta, edges, n_max)
    assert ours.shape == (edges.size + 1, n_max + 1, n_max + 1)
    np.testing.assert_allclose(ours, dense_phase_block(theta, edges, n_max),
                               atol=1e-9)
    np.testing.assert_array_equal(ours, ours.conj().transpose(0, 2, 1))
    assert np.linalg.eigvalsh(ours).min() > -1e-12


def test_far_tail_bin_keeps_relative_precision():
    # a bin of mass ~1e-12: built from the +inf side it is a difference of
    # two small tail masses, not of two primitives near the identity
    vac = phase_povm_elements(0.0, [7.0, 7.5], 4)[1][0, 0].real
    tail = ndtr(-7.0) - ndtr(-7.5)
    assert vac == pytest.approx(tail, rel=1e-12, abs=0)
    lower = phase_povm_elements(0.0, [-7.5, -7.0], 4)[1][0, 0].real
    assert lower == pytest.approx(tail, rel=1e-12, abs=0)


def test_phase_povm_completeness():
    edges = np.linspace(-6.0, 6.0, 101)
    for theta in (0.0, 0.9, math.pi / 2):
        block = phase_povm_elements(theta, edges, 10)
        assert block.shape == (102, 11, 11)
        miss = np.abs(block.sum(axis=0) - np.eye(11)).max()
        assert miss < 1e-12


def test_problem_requires_two_phases():
    edges = np.linspace(-6, 6, 11)
    with pytest.raises(ValueError):
        TomographyProblem(QuadratureHistograms([0.0], edges,
                                               np.full((1, 12), 5)))
    with pytest.raises(ValueError):
        TomographyProblem(QuadratureHistograms([0.0, 0.0], edges,
                                               np.full((2, 12), 5)))
    TomographyProblem(QuadratureHistograms([0.0, 1.0], edges,
                                           np.full((2, 12), 5)))


def test_problem_at_high_cutoff_is_finite_and_complete():
    # Hermite values times factorial norms overflowed here into NaN
    # stacks, which the completeness check let through; 8 bins keep the
    # working size, 10 x 301^2 = 906010 entries, within the cap
    edges = np.linspace(-6.0, 6.0, 9)
    hists = QuadratureHistograms([0.0, 1.0], edges, np.full((2, 10), 5))
    problem = TomographyProblem(hists, n_max=300)
    stack = problem.stack
    assert np.isfinite(stack).all()
    identity = np.eye(301)[np.triu_indices(301)]     # packed as the stack
    miss = np.abs(stack.sum(axis=0) - identity).max()
    assert miss <= POVM_COMPLETENESS_TOL
    # the problem checks its own size: 100 bins at this cutoff would
    # need 102 x 301^2 = 9241302 entries
    edges = np.linspace(-6.0, 6.0, 101)
    hists = QuadratureHistograms([0.0, 1.0], edges, np.full((2, 102), 5))
    with pytest.raises(CapacityError, match="9241302"):
        TomographyProblem(hists, n_max=300)


@pytest.mark.parametrize("phases, accepted", [(15151, True), (15152, False)])
def test_problem_caps_its_phase_matrices(monkeypatch, phases, accepted):
    # K phases at n_max 10 give the fit K x 66 complex phase matrices; two
    # bins keep the count table and one phase's elements small, so this
    # rule alone binds, and it raises before the stack is built
    def no_stack(edges, n_max):
        raise AssertionError("the overlap stack was built")

    thetas = np.linspace(0.0, math.pi, phases, endpoint=False)
    hists = QuadratureHistograms(thetas, np.linspace(-6.0, 6.0, 3),
                                 np.ones((phases, 4), dtype=int))
    if accepted:
        assert TomographyProblem(hists, n_max=10).stack.shape == (4, 66)
        return
    monkeypatch.setattr(tomography, "_overlap_stack", no_stack)
    with pytest.raises(CapacityError) as rule:
        TomographyProblem(hists, n_max=10)
    assert str(rule.value) == ("15152 phases at n_max = 10 need phase "
                               "matrices of 1000032 entries, above the cap "
                               "1000000")


def test_problem_rejects_non_finite_povm(monkeypatch):
    def nan_stack(edges, n_max):
        return np.full((edges.size + 1, (n_max + 1) * (n_max + 2) // 2),
                       np.nan)

    monkeypatch.setattr(tomography, "_overlap_stack", nan_stack)
    edges = np.linspace(-6, 6, 11)
    hists = QuadratureHistograms([0.0, 1.0], edges, np.full((2, 12), 5))
    with pytest.raises(ValueError, match="completeness"):
        TomographyProblem(hists, n_max=4)


def make_problem_from_probabilities(rho, phases, n_max, scale=1e9):
    """A count table whose entries are the rounded expected values."""
    edges = np.linspace(-6.0, 6.0, 101)
    probs = [np.einsum("jmn,nm->j",
                       phase_povm_elements(theta, edges,
                                           rho.matrix.shape[0] - 1),
                       rho.matrix).real
             for theta in phases]
    counts = np.round(np.array(probs) * scale).astype(np.int64)
    return TomographyProblem(QuadratureHistograms(phases, edges, counts),
                             n_max=n_max)


def full_rank_truth():
    # loss keeps the amplified state rank 2; fold in a faint geometric
    # diagonal so the likelihood optimum sits off the positivity boundary
    lossy = apply_loss(ideal_output(0.25, 2.0).state, LossChannel(0.68))
    lossy = resize_mode(lossy, 0, 11)
    diag = 0.5 ** np.arange(11)
    diag /= diag.sum()
    m = 0.98 * lossy.matrix + 0.02 * np.diag(diag).astype(complex)
    return DensityOperator(m, (11,))


def test_maxlik_recovers_generating_state():
    # 12 phases make the binned measurement informationally complete at
    # n_max 10, so the certified optimum is the truth; at 6 phases it is
    # not unique, and the optimum reached has fidelity 1 - 2.7e-5
    truth = full_rank_truth()
    problem = make_problem_from_probabilities(truth, default_phase_grid(12),
                                              n_max=10)
    result = maxlik_reconstruct(problem, max_iter=8000, tol=1e-13)
    assert result.converged
    assert result.gap <= 1e-13
    assert result.floored_bins == 0
    assert fidelity(result.rho, truth) > 0.99999
    assert result.rho.matrix[1, 1].real == pytest.approx(
        truth.matrix[1, 1].real, abs=1e-4)


def test_loglik_never_decreases():
    truth = ideal_output(0.4, 2.0).state
    phases = default_phase_grid(6)
    samples = sample_homodyne(apply_loss(truth, LossChannel(0.68)), phases,
                              30000, seed=8)
    problem = TomographyProblem(bin_samples(samples), n_max=10)
    result = maxlik_reconstruct(problem)
    gains = np.diff(result.loglik)
    assert gains.min() > -1e-10
    assert result.iterations == len(result.loglik)


def einsum_maxlik_oracle(problem, max_iter, tol):
    """The R rho R climb written out over the (J, d, d) element stack."""
    occupied = problem.counts.ravel() > 0
    pi_occ = problem.elements[occupied]
    counts = problem.counts.ravel()[occupied]
    total = problem.counts.sum()
    d = problem.n_max + 1
    rho = np.eye(d, dtype=complex) / d
    loglik = []
    for _ in range(max_iter):
        probs = np.einsum("jab,ba->j", pi_occ, rho).real
        probs = np.maximum(probs, PROBABILITY_FLOOR)
        loglik.append(float(counts @ np.log(probs)) / total)
        if len(loglik) > 1 and loglik[-1] - loglik[-2] < tol:
            break
        r_op = np.einsum("j,jab->ab", counts / total / probs, pi_occ)
        rho = r_op @ rho @ r_op
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return rho, np.asarray(loglik)


def einsum_certificate(problem, rho):
    """log(lambda_max(R) / F), with R = sum_j (f_j / Tr(Pi_j rho)) Pi_j
    written out over the (J, d, d) element stack for the occupied bins
    whose probability is not clamped at PROBABILITY_FLOOR, and F their
    total frequency: it bounds the per-count log-likelihood still to gain
    from rho while the clamped bins stay clamped."""
    occupied = problem.counts.ravel() > 0
    pi_occ = problem.elements[occupied]
    freq = problem.counts.ravel()[occupied] / problem.counts.sum()
    probs = np.einsum("jab,ba->j", pi_occ, rho).real
    kept = probs >= PROBABILITY_FLOOR
    r_op = np.einsum("j,jab->ab", freq[kept] / probs[kept], pi_occ[kept])
    return float(np.log(np.linalg.eigvalsh(r_op)[-1] / freq[kept].sum()))


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def test_maxlik_reaches_the_einsum_optimum():
    # both climbs end near one maximum: the new fit is at least as likely
    # as the oracle's (less tol), and no likelier than the oracle's own
    # certificate allows; the reported gap is the oracle's certificate
    # at the returned state
    tol = 1e-10
    truth = apply_loss(ideal_output(0.3, 2.0).state, LossChannel(0.68))
    for phases, bin_count, n_max in [
            (default_phase_grid(6), 60, 8),
            (default_phase_grid(6), 60, 1),            # the smallest triangle
            (np.array([-0.4, 0.3, 2.9, 1.1]), 45, 6),  # irregular, unsorted
    ]:
        samples = sample_homodyne(truth, phases, 20000, seed=11)
        problem = TomographyProblem(bin_samples(samples, bin_count=bin_count),
                                    n_max=n_max)
        result = maxlik_reconstruct(problem, max_iter=3000, tol=tol)
        rho, loglik = einsum_maxlik_oracle(problem, 3000, tol)
        assert result.converged and result.gap <= tol
        assert result.iterations == len(result.loglik)
        gain = result.loglik[-1] - loglik[-1]
        assert gain >= -tol
        assert gain <= einsum_certificate(problem, rho)
        assert result.gap == pytest.approx(
            einsum_certificate(problem, result.rho.matrix), rel=0, abs=1e-13)


def test_maxlik_state_matches_a_long_einsum_climb():
    # at 12 phases the n_max 8 optimum is unique, so the states compare:
    # the oracle, run until a step gains under 1e-15 per count, stops with
    # a certificate of 2.4e-8 at trace distance 2.6e-7 from the new fit
    truth = apply_loss(ideal_output(0.3, 2.0).state, LossChannel(0.68))
    samples = sample_homodyne(truth, default_phase_grid(12), 20000, seed=11)
    problem = TomographyProblem(bin_samples(samples, bin_count=60), n_max=8)
    result = maxlik_reconstruct(problem)
    rho, loglik = einsum_maxlik_oracle(problem, 3000, 1e-15)
    assert result.converged
    assert result.loglik[-1] >= loglik[-1] - 1e-10
    assert trace_distance(result.rho.matrix, rho) < 2e-6


def test_maxlik_floors_an_underflowing_bin_like_the_oracle():
    # one draw in [40, 45], where every model probability at n_max 2
    # underflows below PROBABILITY_FLOOR; the rest is vacuum-like
    edges = np.concatenate((np.linspace(-6.0, 6.0, 13), [40.0, 45.0]))
    phases = [0.0, 1.0, 2.0]
    inner = np.diff(ndtr(edges[:13]))
    counts = np.zeros((3, edges.size + 1), dtype=np.int64)
    counts[:, 1:13] = np.round(inner * 1000)
    counts[0, 14] = 1
    problem = TomographyProblem(QuadratureHistograms(phases, edges, counts),
                                n_max=2)
    result = maxlik_reconstruct(problem)
    rho, loglik = einsum_maxlik_oracle(problem, 2000, 1e-10)
    assert result.floored_bins == 1
    assert result.converged
    result.rho.validate()
    gain = result.loglik[-1] - loglik[-1]
    assert -1e-10 <= gain <= einsum_certificate(problem, rho)
    assert result.gap == pytest.approx(
        einsum_certificate(problem, result.rho.matrix), rel=0, abs=1e-13)
    # with every count there, no state gives the data any probability
    only = np.zeros_like(counts)
    only[0, 14] = 5
    problem = TomographyProblem(QuadratureHistograms(phases, edges, only),
                                n_max=2)
    with pytest.raises(ValueError, match="iterate 1 puts every count"):
        maxlik_reconstruct(problem)


def test_maxlik_stops_at_a_non_finite_iterate():
    hists = QuadratureHistograms([0.0, 1.0], np.linspace(-6, 6, 11),
                                 np.full((2, 12), 5))
    problem = TomographyProblem(hists, n_max=4)
    problem.stack = np.full_like(problem.stack, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="iterate 1 has log-likelihood nan"):
            maxlik_reconstruct(problem)


def test_maxlik_stops_at_the_evaluation_cap():
    # the cap counts likelihood evaluations; the gap is still certified
    # at the last accepted iterate
    truth = apply_loss(ideal_output(0.3, 2.0).state, LossChannel(0.68))
    samples = sample_homodyne(truth, default_phase_grid(12), 20000, seed=11)
    problem = TomographyProblem(bin_samples(samples, bin_count=60), n_max=8)
    result = maxlik_reconstruct(problem, max_iter=5)
    assert not result.converged
    assert 1 <= result.iterations == len(result.loglik) <= 5
    assert result.gap > 1e-10
    assert result.gap == pytest.approx(
        einsum_certificate(problem, result.rho.matrix), rel=1e-9)


def test_reconstruction_sharpens_with_more_data():
    # median fidelity over five fixed datasets climbs along the whole
    # N schedule (weakest step has ~5e-4 of margin with these seeds)
    truth = apply_loss(ideal_output(0.25, 2.0).state, LossChannel(0.68))
    target = resize_mode(truth, 0, 11)
    phases = default_phase_grid(12)
    medians = []
    for n in (1000, 10000, 100000, 200000):
        fids = []
        for seed in (3, 4, 5, 6, 7):
            samples = sample_homodyne(truth, phases, n, seed=seed)
            problem = TomographyProblem(bin_samples(samples),
                                        n_max=10)
            rho = maxlik_reconstruct(problem).rho
            fids.append(fidelity(rho, target))
        medians.append(float(np.median(fids)))
    assert all(b > a for a, b in zip(medians, medians[1:]))
    assert medians[-1] > 0.999


def test_vacuum_reconstruction_stays_empty():
    phases = default_phase_grid(12)
    samples = sample_homodyne(vacuum_state(8).to_density(), phases, 100000,
                              seed=21)
    problem = TomographyProblem(bin_samples(samples), n_max=6)
    result = maxlik_reconstruct(problem)
    occupations = np.diag(result.rho.matrix).real
    assert float(occupations[1:] @ np.arange(1, 7)) < 0.01


def test_binned_vacuum_counts_pass_chi_squared():
    # one-phase histogram against the analytic Gaussian bin masses;
    # cells are pooled outward until every expectation reaches 5 counts
    n = 100000
    samples = sample_homodyne(vacuum_state(4).to_density(), [0.0], n, seed=13)
    hists = bin_samples(samples, bin_count=100, value_range=(-5, 5))
    root2 = math.sqrt(2.0)
    edges = hists.edges
    mass = 0.5 * (erf(edges[1:] / root2) - erf(edges[:-1] / root2))
    row = hists.counts[0]
    counts = row[1:-1].astype(float)
    counts[0] += row[0]
    counts[-1] += row[-1]
    mass[0] += 0.5 * (erf(edges[0] / root2) + 1.0)
    mass[-1] += 0.5 * (1.0 - erf(edges[-1] / root2))
    expected = n * mass
    while expected[0] < 5:
        expected[1] += expected[0]
        counts[1] += counts[0]
        expected, counts = expected[1:], counts[1:]
    while expected[-1] < 5:
        expected[-2] += expected[-1]
        counts[-2] += counts[-1]
        expected, counts = expected[:-1], counts[:-1]
    stat = float(((counts - expected) ** 2 / expected).sum())
    p = float(stats.chi2.sf(stat, len(expected) - 1))
    assert p > 0.001


def test_density_json_roundtrip(tmp_path):
    rho = apply_loss(ideal_output(0.3, 2.0).state, LossChannel(0.9))
    path = tmp_path / "rho.json"
    write_density_json(rho, path)
    back = read_density_json(path)
    assert back.mode_dims == rho.mode_dims
    np.testing.assert_array_equal(back.matrix, rho.matrix)
