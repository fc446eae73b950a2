"""Passive linear-optical elements on truncated Fock states.

Beamsplitter convention ("real"): with reflectivity r and transmissivity
t = sqrt(1 - r^2), the creation operators of the two addressed modes
(i, j) map as

    a_i^+  ->  t a_i^+ + r a_j^+
    a_j^+  -> -r a_i^+ + t a_j^+

so a single photon in mode i goes to t|1,0> + r|0,1>.  The inverse map is
the same element with the modes swapped.  Loss of transmission eta is the
binomial damping channel in closed form: each photon survives independently
with probability eta, so rho'[m, n] = sum_k b_k[m] b_k[n] rho[m+k, n+k]
with b_k[m] = sqrt(C(m+k, k) eta^m (1-eta)^k) (Lvovsky & Raymer, RMP 81,
299 (2009), Sec. II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, FockVector, State, _single_mode


@dataclass(frozen=True)
class LossChannel:
    """Transmission eta of one lossy mode."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"transmission eta must lie in (0, 1], got {self.eta}")
        # the eta_hd correction divides a variance of at most 4 * 78 + 2 (at
        # the cap on a reconstruction's cutoff) by eta: finite from here up
        if self.eta < 1e-300:
            raise ValueError(f"transmission eta must be at least 1e-300 (the "
                             f"eta_hd correction divides by it), got {self.eta}")


def _balanced_coefficients(dm: int, dn: int) -> np.ndarray:
    """Real C[p, m, n] = <p, m+n-p|B|m, n> for m < dm, n < dn and p <= m + n
    (zero above), with B the balanced beamsplitter (r = t = 1/sqrt 2) of
    the convention above: a_1^+ -> (a_1^+ + a_2^+)/sqrt 2 and
    a_2^+ -> (a_2^+ - a_1^+)/sqrt 2.  It is 2^{-(m+n)/2} sqrt(p! q!/(m! n!)) c_p where q = m + n - p and
    c_p = [z^p] (1+z)^m (1-z)^n.

    With N = m + n, the Krawtchouk symmetry C(N, p) k_p = C(N, n) c_p for
    k_p = [z^n] (1+z)^(N-p) (1-z)^p turns the square into the exact
    fraction c_p k_p / 2^N, rounded once.  Both integer rows come by
    recurrence: c_p from the n - 1 row times (1 - z), and k_p from
    (N - p) k_{p+1} = (N - 2n) k_p - p k_{p-1}, k_0 = C(N, n).
    """
    out = np.zeros((dm + dn - 1, dm, dn))
    for m in range(dm):
        poly = [math.comb(m, i) for i in range(m + 1)]     # (1 + z)^m
        for n in range(dn):
            total = m + n
            ks, before = [math.comb(total, n)], 0
            for p in range(total):
                ks.append(((total - 2 * n) * ks[p] - p * before) // (total - p))
                before = ks[p]
            scale = 1 << total
            out[:total + 1, m, n] = [
                math.copysign(math.sqrt(c * k / scale), c)
                for c, k in zip(poly, ks)]
            poly = [a - b for a, b in zip(poly + [0], [0] + poly)]   # (1 - z)
    return out


def apply_phase(state: State, theta: float, mode: int = 0) -> State:
    """Phase-space rotation: amplitude at photon number n gains e^{i n theta}."""
    dims = state.mode_dims
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} outside 0..{len(dims) - 1}")
    # each basis state's factor, from its photon number in the mode; a
    # matrix takes it on the ket side and its conjugate on the bra side
    ket = np.exp(1j * float(theta) * np.indices(dims)[mode].ravel())
    if isinstance(state, FockVector):
        return FockVector(state.amplitudes * ket, dims)
    return DensityOperator(state.matrix * ket[:, None] * ket.conj(), dims)


def apply_loss(rho: State, channel: LossChannel) -> DensityOperator:
    """Transmit a single-mode state through loss eta (the binomial channel).

    Always returns a density operator; eta = 1 returns the input unchanged.
    Raises ValueError for a multimode state.
    """
    rho = _single_mode(rho, "apply_loss")
    eta = channel.eta
    if eta == 1.0:
        return rho
    d = rho.dim
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        # amplitude for m photons kept out of m + k, with k lost
        b = np.array([math.sqrt(math.comb(m + k, k) * eta ** m * (1.0 - eta) ** k)
                      for m in range(d - k)])
        out[:d - k, :d - k] += np.outer(b, b) * rho.matrix[k:, k:]
    return DensityOperator(out, rho.mode_dims)
