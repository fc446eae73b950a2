"""Truncated Fock-space container and channel-free state operations."""

import math

import numpy as np
import pytest

from scissorlab import (
    DensityOperator,
    FockVector,
    TruncationError,
    coherent_state,
    fidelity,
    fock_state,
    mean_photon_number,
    number_distribution,
    quadrature_moments,
    quadrature_pdf,
    resize_mode,
    sample_homodyne,
    trace_distance,
    vacuum_state,
    wigner,
    write_density_json,
)


def poisson_amplitudes(alpha, n_max):
    # independent series: c_n = e^{-|a|^2/2} a^n / sqrt(n!)
    out = np.array([alpha ** n / math.sqrt(math.factorial(n))
                    for n in range(n_max + 1)], dtype=complex)
    return out * math.exp(-abs(alpha) ** 2 / 2.0)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real, (dim,))


def test_fock_state_basis_vector():
    psi = fock_state(3, 6)
    assert psi.amplitudes[3] == 1.0
    assert psi.norm_sq() == pytest.approx(1.0)
    assert psi.mode_dims == (7,)
    assert vacuum_state(6).amplitudes[0] == 1.0


def test_fock_state_out_of_range():
    with pytest.raises(ValueError):
        fock_state(7, 6)
    with pytest.raises(ValueError):
        fock_state(-1, 6)


def test_coherent_state_matches_poisson_series():
    alpha = 0.7 - 0.3j
    psi = coherent_state(alpha, 25)
    expect = poisson_amplitudes(alpha, 25)
    expect = expect / np.linalg.norm(expect)
    np.testing.assert_allclose(psi.amplitudes, expect, atol=1e-14)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-13)


def test_coherent_state_truncation_guard():
    # |alpha|^2 = 16 needs far more than 5 levels
    with pytest.raises(TruncationError):
        coherent_state(4.0, 5)
    # and a generous cutoff is accepted
    coherent_state(4.0, 60)


@pytest.mark.parametrize("alpha", [1.4e154, 1e300, 10**300,
                                   complex(1.7e308, 1.7e308)],
                         ids=["1.4e154", "1e300", "10**300", "complex"])
def test_coherent_state_beyond_double_range(alpha):
    # |alpha|^2 overflows a double: no cutoff holds the state
    with pytest.raises(TruncationError, match="beyond double range"):
        coherent_state(alpha, 12)


def test_coherent_mean_photon_number():
    for alpha in (0.3, 0.9, 1.4 + 0.5j):
        psi = coherent_state(alpha, 40)
        assert mean_photon_number(psi) == pytest.approx(abs(alpha) ** 2,
                                                        abs=1e-9)


def test_number_distribution_poisson():
    alpha = 0.8
    p = number_distribution(coherent_state(alpha, 30))
    nbar = alpha ** 2
    expect = np.array([math.exp(-nbar) * nbar ** n / math.factorial(n)
                       for n in range(31)])
    np.testing.assert_allclose(p, expect, atol=1e-12)


def test_resize_mode_pad_and_truncate():
    psi = coherent_state(0.4, 8)
    padded = resize_mode(psi, 0, 15)
    assert padded.mode_dims == (15,)
    np.testing.assert_allclose(padded.amplitudes[:9], psi.amplitudes)
    back = resize_mode(padded, 0, 9)
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes)


def test_resize_mode_truncation_guard():
    psi = coherent_state(2.0, 30)
    with pytest.raises(TruncationError):
        resize_mode(psi, 0, 3)


def test_resize_mode_truncates_a_density_matrix():
    rho = coherent_state(0.4, 20).to_density()
    cut = resize_mode(rho, 0, 12)
    assert cut.mode_dims == (12,)
    np.testing.assert_array_equal(cut.matrix, rho.matrix[:12, :12])
    with pytest.raises(TruncationError):
        resize_mode(coherent_state(2.0, 30).to_density(), 0, 3)


def two_mode_vectors(seed):
    """Two random (3, 4) two-mode vectors with mode 1 empty above n = 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        t = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        t[:, 2:] = 0.0
        out.append(FockVector(t.reshape(-1), (3, 4)).normalized())
    return out


@pytest.mark.parametrize("new_dim", [6, 2])
def test_resize_second_of_two_modes_matches_pad_and_slice(new_dim):
    a, b = two_mode_vectors(4)
    rho = DensityOperator(0.25 * a.to_density().matrix
                          + 0.75 * b.to_density().matrix, (3, 4))
    ket, mat = a.amplitudes.reshape(3, 4), rho.matrix.reshape(3, 4, 3, 4)
    # oracle: np.pad to grow mode 1, a plain slice to shrink it
    if new_dim > 4:
        ket = np.pad(ket, ((0, 0), (0, new_dim - 4)))
        mat = np.pad(mat, ((0, 0), (0, new_dim - 4)) * 2)
    else:
        ket, mat = ket[:, :new_dim], mat[:, :new_dim, :, :new_dim]
    vec_out, rho_out = resize_mode(a, 1, new_dim), resize_mode(rho, 1, new_dim)
    assert vec_out.mode_dims == rho_out.mode_dims == (3, new_dim)
    np.testing.assert_array_equal(vec_out.amplitudes, ket.reshape(-1))
    np.testing.assert_array_equal(rho_out.matrix,
                                  mat.reshape(3 * new_dim, 3 * new_dim))


def test_resize_second_of_two_modes_guards_truncation():
    rng = np.random.default_rng(6)
    full = FockVector(rng.normal(size=12), (3, 4)).normalized()
    for state in (full, full.to_density()):
        with pytest.raises(TruncationError, match="truncating mode 1"):
            resize_mode(state, 1, 2)


def test_two_mode_number_statistics_agree_across_representations():
    # |0.5> x |0.3>: the total photon number is Poisson with mean 0.34
    psi = FockVector(np.kron(coherent_state(0.5, 10).amplitudes,
                             coherent_state(0.3, 8).amplitudes), (11, 9))
    rho = psi.to_density()
    dist = number_distribution(rho)
    assert dist.shape == (19,)
    np.testing.assert_allclose(dist, number_distribution(psi), rtol=0,
                               atol=1e-15)
    poisson = [math.exp(-0.34) * 0.34 ** n / math.factorial(n)
               for n in range(19)]
    np.testing.assert_allclose(dist, poisson, rtol=0, atol=1e-12)
    assert mean_photon_number(rho) == pytest.approx(mean_photon_number(psi),
                                                    abs=1e-15)
    assert mean_photon_number(rho) == pytest.approx(0.34, abs=1e-12)


def test_single_mode_entry_points_reject_two_modes(tmp_path):
    joint = FockVector(np.eye(4)[1], (2, 2))
    calls = [lambda s: quadrature_moments(s, 0.0),
             lambda s: quadrature_pdf(s, 0.0, 0.5),
             lambda s: sample_homodyne(s, [0.0, 1.0], 10),
             wigner,
             lambda s: write_density_json(s, tmp_path / "rho.json")]
    for call in calls:
        for state in (joint, joint.to_density()):
            with pytest.raises(ValueError, match="expected one mode, got "
                               r"mode_dims \(2, 2\)"):
                call(state)
    assert not (tmp_path / "rho.json").exists()


def test_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityOperator(m, (2,))


@pytest.mark.parametrize("m", [
    [[math.nan, 0.0], [0.0, 1.0]],
    [[0.5, math.nan], [math.nan, 0.5]],
    [[0.5, complex(0.0, math.nan)], [complex(0.0, math.nan), 0.5]],
    [[math.inf, 0.0], [0.0, 0.0]],
], ids=["nan-diagonal", "nan-off-diagonal", "nan-imaginary", "inf-diagonal"])
def test_density_rejects_non_finite_entries(m):
    # NaN fails no comparison, so Hermiticity, positivity and trace checks
    # would all pass it: the constructor must say what is wrong
    with pytest.raises(ValueError, match="entry is not finite"):
        DensityOperator(np.array(m, dtype=complex), (2,))


@pytest.mark.parametrize("amp", [
    math.nan, math.inf, complex(0.0, math.nan), complex(0.0, -math.inf),
], ids=["nan-real", "inf-real", "nan-imaginary", "inf-imaginary"])
def test_vector_rejects_non_finite_amplitudes(amp):
    # normalized() would otherwise return an all-NaN vector: its zero-norm
    # guard is false for NaN
    with pytest.raises(ValueError, match="amplitude entry is not finite"):
        FockVector(np.array([amp, 1.0]), (2,))


def test_no_path_to_validate_with_nan():
    with pytest.raises(ValueError, match="entry is not finite"):
        FockVector(np.array([math.nan, 1.0]), (2,)).to_density()
    # a built state is read-only, so validate() never meets NaN either
    rho = DensityOperator(np.diag([0.5, 0.5]).astype(complex), (2,))
    with pytest.raises(ValueError, match="read-only"):
        rho.matrix[0, 0] = math.nan


def test_validate_catches_negative_eigenvalue():
    m = np.diag([1.2, -0.2]).astype(complex)
    rho = DensityOperator(m, (2,))
    with pytest.raises(ValueError):
        rho.validate()


def test_validate_catches_bad_trace():
    rho = DensityOperator(np.diag([0.4, 0.4]).astype(complex), (2,))
    with pytest.raises(ValueError):
        rho.validate()


def test_fidelity_vacuum_vs_coherent():
    # |<0|alpha>|^2 = e^{-|alpha|^2}
    rho = vacuum_state(15).to_density()
    sigma = coherent_state(0.5, 15).to_density()
    assert fidelity(rho, sigma) == pytest.approx(math.exp(-0.25), abs=1e-10)


def test_fidelity_pure_overlap_and_self():
    rng = np.random.default_rng(5)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    pa = FockVector(a / np.linalg.norm(a), (6,))
    pb = FockVector(b / np.linalg.norm(b), (6,))
    overlap = abs(np.vdot(pa.amplitudes, pb.amplitudes)) ** 2
    # the Uhlmann route takes operator square roots of rank-1 matrices,
    # whose zero eigenvalues round to ~eps and surface as ~sqrt(eps) noise
    assert fidelity(pa.to_density(), pb.to_density()) == pytest.approx(
        overlap, abs=1e-7)
    rho = random_density(6, seed=6)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_trace_distance_limits():
    zero = fock_state(0, 4).to_density()
    one = fock_state(1, 4).to_density()
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_fidelity_bounds():
    # 1 - sqrt(F) <= T <= sqrt(1 - F)
    for seed in range(4):
        rho = random_density(5, seed=100 + seed)
        sigma = random_density(5, seed=200 + seed)
        f = fidelity(rho, sigma)
        t = trace_distance(rho, sigma)
        assert 1.0 - math.sqrt(f) <= t + 1e-10
        assert t <= math.sqrt(1.0 - f) + 1e-10


def test_normalized_density():
    rho = DensityOperator(np.diag([0.2, 0.6]).astype(complex), (2,))
    assert rho.normalized().trace() == pytest.approx(1.0)
