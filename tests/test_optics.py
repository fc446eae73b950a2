"""Beamsplitter blocks, phase shifts, and the loss channel.

Oracles: hand expansions of one- and two-photon splitting, the
Hong-Ou-Mandel dip, coherent-in/coherent-out factorization, and an
independent Kraus decomposition of the damping channel.
"""

import math

import numpy as np
import pytest

from scissorlab import (
    DensityOperator,
    FockVector,
    LossChannel,
    apply_loss,
    apply_phase,
    coherent_state,
    fock_state,
    mean_photon_number,
    trace_distance,
)
from oracles import _bs_matrix


def two_mode(n_a, n_b, dim):
    return np.kron(fock_state(n_a, dim - 1).amplitudes,
                   fock_state(n_b, dim - 1).amplitudes)


def split(amps, r):
    """The beamsplitter on modes (0, 1) of a two-mode amplitude vector."""
    dim = math.isqrt(amps.size)
    return _bs_matrix(dim, r) @ amps


def swap_modes(amps):
    dim = math.isqrt(amps.size)
    return amps.reshape(dim, dim).T.reshape(-1)


def amp(amps, n_a, n_b, dim):
    return amps[n_a * dim + n_b]


def random_two_mode(dim, seed):
    # support confined to total photon number <= dim - 1, where the
    # truncated mixer acts unitarily
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    n = np.arange(dim)
    v[n[:, None] + n[None, :] > dim - 1] = 0.0
    v = v.ravel()
    return v / np.linalg.norm(v)


def test_bs_matrix_unitary_on_complete_sectors():
    # the matrix is block-diagonal in total photon number; sectors with
    # N <= dim - 1 are fully represented and must map isometrically
    for dim in (2, 3, 4, 9):
        n = np.arange(dim)
        keep = (n[:, None] + n[None, :] <= dim - 1).ravel()
        for r in (0.0, 0.3, 1.0 / math.sqrt(2.0), 0.95):
            u = _bs_matrix(dim, r)
            sub = u[:, keep]
            np.testing.assert_allclose(sub.conj().T @ sub,
                                       np.eye(keep.sum()), atol=1e-12)
            # and those sectors never scatter above the cutoff
            assert np.abs(sub[~keep, :]).max() < 1e-14


def test_single_photon_split():
    # a_i^dag -> t a_i^dag + r a_j^dag on |1,0>, and the sign-flipped
    # row on |0,1>
    r = 0.6
    t = 0.8
    out = split(two_mode(1, 0, 4), r)
    assert amp(out, 1, 0, 4) == pytest.approx(t, abs=1e-14)
    assert amp(out, 0, 1, 4) == pytest.approx(r, abs=1e-14)
    out = split(two_mode(0, 1, 4), r)
    assert amp(out, 1, 0, 4) == pytest.approx(-r, abs=1e-14)
    assert amp(out, 0, 1, 4) == pytest.approx(t, abs=1e-14)


def test_two_photon_manual_expansion():
    # |2,0> = (a^dag)^2/sqrt(2) |00> -> t^2|2,0> + sqrt2 t r |1,1> + r^2|0,2>
    r = 0.35
    t = math.sqrt(1.0 - r * r)
    out = split(two_mode(2, 0, 5), r)
    assert amp(out, 2, 0, 5) == pytest.approx(t * t, abs=1e-14)
    assert amp(out, 1, 1, 5) == pytest.approx(math.sqrt(2) * t * r, abs=1e-14)
    assert amp(out, 0, 2, 5) == pytest.approx(r * r, abs=1e-14)


def test_hong_ou_mandel():
    out = split(two_mode(1, 1, 4), 1.0 / math.sqrt(2.0))
    assert amp(out, 1, 1, 4) == pytest.approx(0.0, abs=1e-14)
    assert amp(out, 0, 2, 4) == pytest.approx(1.0 / math.sqrt(2), abs=1e-14)
    assert amp(out, 2, 0, 4) == pytest.approx(-1.0 / math.sqrt(2), abs=1e-14)


def test_inverse_is_swapped_modes():
    for seed, r in ((0, 0.3), (1, 0.72), (2, 1.0 / math.sqrt(2))):
        psi = random_two_mode(6, seed)
        fwd = split(psi, r)
        back = swap_modes(split(swap_modes(fwd), r))
        np.testing.assert_allclose(back, psi, atol=1e-12)


def test_energy_conserved():
    for seed in range(3):
        psi = random_two_mode(5, 40 + seed)
        out = split(psi, 0.55)
        assert mean_photon_number(FockVector(out, (5, 5))) == pytest.approx(
            mean_photon_number(FockVector(psi, (5, 5))), abs=1e-12)


def test_total_photon_distribution_preserved():
    # the mixer is block-diagonal in n_a + n_b, so the distribution of
    # the total photon number must come through untouched
    def total_dist(state, dim):
        a = np.abs(state.reshape(dim, dim)) ** 2
        p = np.zeros(2 * dim - 1)
        for n_a in range(dim):
            for n_b in range(dim):
                p[n_a + n_b] += a[n_a, n_b]
        return p

    for seed, r in ((11, 0.25), (12, 0.8), (13, 1.0 / math.sqrt(2))):
        psi = random_two_mode(6, seed)
        out = split(psi, r)
        np.testing.assert_allclose(total_dist(out, 6), total_dist(psi, 6),
                                   atol=1e-12)


def test_coherent_factorizes():
    # |alpha>|0> -> |t alpha>|r alpha> in this convention
    alpha, r = 0.5, 0.4
    t = math.sqrt(1.0 - r * r)
    n = 14
    joint = np.kron(coherent_state(alpha, n).amplitudes,
                    fock_state(0, n).amplitudes)
    out = split(joint, r)
    expect = np.kron(coherent_state(t * alpha, n).amplitudes,
                     coherent_state(r * alpha, n).amplitudes)
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_phase_rotates_coherent():
    theta = 0.8
    psi = coherent_state(0.6, 18)
    out = apply_phase(psi, theta)
    expect = coherent_state(0.6 * np.exp(1j * theta), 18)
    np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=1e-12)


def test_phase_density_matches_pure():
    psi = coherent_state(0.4 + 0.2j, 10)
    a = apply_phase(psi, 1.1).to_density()
    b = apply_phase(psi.to_density(), 1.1)
    assert trace_distance(a, b) < 1e-13


def test_phase_on_selected_mode():
    joint = FockVector(two_mode(1, 2, 4), (4, 4))
    out = apply_phase(joint, math.pi / 2, mode=1)
    # only the n=2 factor picks up e^{i pi} = -1
    assert amp(out.amplitudes, 1, 2, 4) == pytest.approx(-1.0, abs=1e-14)
    # and the reduced state of mode 0 is untouched
    rho = apply_phase(joint.to_density(), math.pi / 2, mode=1)
    red = np.einsum("anbn->ab", rho.matrix.reshape(4, 4, 4, 4))
    np.testing.assert_allclose(red, fock_state(1, 3).to_density().matrix,
                               atol=1e-14)


def kraus_loss(rho, eta):
    """Independent damping oracle: A_k = sum_n sqrt(C(n,k) eta^{n-k}
    (1-eta)^k) |n-k><n|."""
    d = rho.shape[0]
    out = np.zeros_like(rho)
    for k in range(d):
        a = np.zeros((d, d))
        for n in range(k, d):
            a[n - k, n] = math.sqrt(math.comb(n, k)
                                    * eta ** (n - k) * (1 - eta) ** k)
        out += a @ rho @ a.T
    return out


def test_loss_single_photon():
    rho = fock_state(1, 3).to_density()
    out = apply_loss(rho, LossChannel(0.68))
    assert out.matrix[0, 0].real == pytest.approx(0.32, abs=1e-12)
    assert out.matrix[1, 1].real == pytest.approx(0.68, abs=1e-12)


def test_loss_matches_kraus_oracle():
    rng = np.random.default_rng(21)
    d = 7
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    rho = DensityOperator(m / np.trace(m).real, (d,))
    for eta in (0.9, 0.68, 0.25):
        ours = apply_loss(rho, LossChannel(eta))
        oracle = kraus_loss(rho.matrix, eta)
        np.testing.assert_allclose(ours.matrix, oracle, atol=1e-12)


def test_loss_coherent_stays_coherent():
    eta = 0.68
    rho = coherent_state(0.5, 16).to_density()
    out = apply_loss(rho, LossChannel(eta))
    expect = coherent_state(math.sqrt(eta) * 0.5, 16).to_density()
    assert trace_distance(out, expect) < 1e-9


def test_loss_composes_multiplicatively():
    rho = coherent_state(0.8, 16).to_density()
    one = apply_loss(apply_loss(rho, LossChannel(0.9)), LossChannel(0.8))
    two = apply_loss(rho, LossChannel(0.72))
    assert trace_distance(one, two) < 1e-12


def test_loss_eta_one_identity():
    rho = coherent_state(0.4, 8).to_density()
    out = apply_loss(rho, LossChannel(1.0))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)


def test_loss_rejects_multimode_state():
    joint = FockVector(two_mode(1, 1, 2), (2, 2))
    for state in (joint, joint.to_density()):
        with pytest.raises(ValueError, match="one mode"):
            apply_loss(state, LossChannel(0.5))
    # a single-mode pure state is promoted to a density operator
    psi = coherent_state(0.3, 6)
    out = apply_loss(psi, LossChannel(0.5))
    assert isinstance(out, DensityOperator)
    np.testing.assert_array_equal(
        out.matrix, apply_loss(psi.to_density(), LossChannel(0.5)).matrix)


def test_loss_channel_validation():
    with pytest.raises(ValueError):
        LossChannel(0.0)
    with pytest.raises(ValueError):
        LossChannel(1.3)
