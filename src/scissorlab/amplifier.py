"""Heralded single-photon ("quantum scissors") noiseless amplifier.

Circuit layout.  An ancilla photon hits an asymmetric beamsplitter A-BS of
reflectivity r, producing the entangled resource

    t |1>_T |0>_R + r |0>_T |1>_R,          t = sqrt(1 - r^2),

between a kept mode T and a mixing mode R.  The coherent input |alpha>
meets R on a balanced beamsplitter S-BS; detector D1 watches the reflected
arm and D2 the transmitted arm.  A success is heralded by a single-photon
event on D1 with (optionally) no click on D2, upon which mode T carries

    |0> + g alpha |1>   (up to normalization),     g = t / r.

Detector model: each detector is an efficiency-mu avalanche diode, i.e.
loss mu followed by an ideal counter.  The heralding element on D1 is the
exactly-one-photon outcome, Pi_1 = sum_n n mu (1-mu)^{n-1} |n><n|; the D2
veto is the no-click element, Pi_0 = sum_n (1-mu)^n |n><n|.  Both are
diagonal in photon number, so heralding reduces to reweighting joint
photon-number amplitudes.

Source imperfections: the ancilla may arrive as vacuum (weight xi0) or as
a photon pair (weight xi2), and may overlap the signal's spatio-temporal
mode only partially (amplitude m); the orthogonal remainder travels
through an identical companion circuit and reaches the same detectors, but
never interferes with the signal.

Heralding map.  The resource, both beamsplitters and the detector POVMs do
not depend on alpha, so the circuit is one fixed completely positive map
from the signal, held on 0..n_max photons (n_max is the input cutoff
only), to T, which like R and the companion modes holds at most two: the
heralded state has three levels at every cutoff.  ``simulate`` builds the
map once per circuit setting (gain, source, mu, veto, n_max),
caches it, and then costs one small contraction per alpha.  For an ideal
source at unit efficiency with the veto, the map is Ralph & Lund's g^n
truncated at one photon (arXiv:0809.0326): |n> -> (r / sqrt 2) g^n |n>
for n <= 1, nothing above.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import DensityOperator, FockVector, coherent_state
from .numerics import (CONDITIONING_FLOOR, DIMENSION_CAP, CapacityError,
                       TruncationError)
from .optics import _balanced_coefficients

#: companion/ancilla modes never hold more than two photons
_ANCILLA_DIM = 3


def gain_to_reflectivity(g: float) -> float:
    """r such that t/r = g; the amplifier works harder as r shrinks.
    ValueError unless g is finite and positive, and g^2 a finite double
    (above it r would round to 0)."""
    # compared, not converted: an integer beyond float range is finite too
    if not 0.0 < g < math.inf:
        raise ValueError(f"gain must be finite and positive, got {g}")
    try:
        r = 1.0 / math.sqrt(1.0 + g * g)
    except OverflowError:   # an integer g, whose exact square no float holds
        r = 0.0
    if r == 0.0:
        raise ValueError(f"gain must be below about 1.34e154, where its "
                         f"square overflows a double, got {g}")
    return r


def reflectivity_to_gain(r: float) -> float:
    if not 0.0 < r < 1.0:
        raise ValueError(f"reflectivity must lie in (0, 1), got {r}")
    return math.sqrt(1.0 - r * r) / r


@dataclass(frozen=True)
class SourceModel:
    """Ancilla photon-number and mode-match imperfections.

    weight_vacuum     : probability the source fires nothing (xi_0)
    weight_two_photon : probability of a double emission (xi_2)
    mode_overlap      : amplitude overlap m with the signal mode, in [0, 1]
    """

    weight_vacuum: float = 0.0
    weight_two_photon: float = 0.0
    mode_overlap: float = 1.0

    def __post_init__(self):
        x0, x2, m = self.weight_vacuum, self.weight_two_photon, self.mode_overlap
        if not (0.0 <= x0 <= 1.0 and 0.0 <= x2 <= 1.0 and x0 + x2 <= 1.0):
            raise ValueError(
                f"photon-number weights must be probabilities summing <= 1, "
                f"got vacuum={x0}, two_photon={x2}"
            )
        if not 0.0 <= m <= 1.0:
            raise ValueError(f"mode_overlap must lie in [0, 1], got {m}")

    @property
    def weight_single(self) -> float:
        return 1.0 - self.weight_vacuum - self.weight_two_photon


IDEAL_SOURCE = SourceModel()

#: imperfect-source working point bracketing the bench success rates
#: (percent-level at weak input rising to a few percent near |alpha| = 1,
#: with both herald branches accepted and no D2 veto)
EXPERIMENT_PRESET = SourceModel(weight_vacuum=0.08, weight_two_photon=0.04,
                                mode_overlap=0.92)
EXPERIMENT_PRESET_MU = 0.07
"""Detector efficiency paired with EXPERIMENT_PRESET."""


@dataclass(frozen=True)
class AmplifierConfig:
    """Full description of one amplifier run.

    The gain is the one amplifier parameter: ``r`` is the A-BS
    reflectivity it sets, and an r converts through reflectivity_to_gain.
    """

    alpha: complex
    gain: float
    source: SourceModel = IDEAL_SOURCE
    detector_mu: float = 1.0
    use_d2_veto: bool = False
    accept_both_heralds: bool = False
    n_max: int = 12

    def __post_init__(self):
        gain_to_reflectivity(self.gain)   # raises unless finite and positive
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 < self.detector_mu <= 1.0:
            raise ValueError(f"detector_mu must lie in (0, 1], got {self.detector_mu}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def r(self) -> float:
        return gain_to_reflectivity(self.gain)


@dataclass(frozen=True)
class HeraldedOutput:
    """Normalized heralded state on T and its herald probability."""

    state: DensityOperator
    success_probability: float


# ---------------------------------------------------------------------------
# detector POVM weights (diagonal in total photon number)

def no_click_weights(mu: float, n: np.ndarray | int) -> np.ndarray:
    """P(no click | n incident photons) for an efficiency-mu on/off diode."""
    n = np.asarray(n, dtype=float)
    return (1.0 - mu) ** n


def click_weights(mu: float, n: np.ndarray | int) -> np.ndarray:
    """P(click | n incident photons); complement of no_click_weights."""
    return 1.0 - no_click_weights(mu, n)


def single_photon_weights(mu: float, n: np.ndarray | int) -> np.ndarray:
    """P(exactly one photon registered | n incident) = n mu (1-mu)^{n-1}."""
    n = np.asarray(n, dtype=float)
    return n * mu * (1.0 - mu) ** np.maximum(n - 1.0, 0.0)


# ---------------------------------------------------------------------------
# resource construction

def _resource_components(r: float,
                         source: SourceModel) -> list[tuple[float, np.ndarray]]:
    """Pure components of the A-BS output over (T, R) x (Tc, Rc).

    Each entry is (weight, amplitudes A[(t, r), (tc, rc)]) for a k-photon
    emission, k = 0, 1, 2 with nonzero weight.  The k photons enter in the
    mode m a_T^+ + mc a_Tc^+ (mc = sqrt(1 - m^2)), R and Rc in vacuum, and
    the A-BS sends a_T^+ -> t a_T^+ + r a_R^+ (Tc to Rc alike), so the
    component is (sum_i c_i a_i^+)^k / sqrt(k!) |0> with c = (m t, m r,
    mc t, mc r) over (T, R, Tc, Rc): the multinomial amplitudes
    sqrt(k! / prod n_i!) prod c_i^{n_i}; at m = 1 only the column
    (tc, rc) = (0, 0) is populated.
    """
    t = math.sqrt(1.0 - r * r)
    m = source.mode_overlap
    mc = math.sqrt(max(0.0, 1.0 - m * m))
    c = (m * t, m * r, mc * t, mc * r)
    comps = []
    for k, weight in enumerate((source.weight_vacuum, source.weight_single,
                                source.weight_two_photon)):
        if weight > 0.0:
            amps = np.zeros((_ANCILLA_DIM,) * 4)
            for n in np.ndindex(amps.shape):
                if sum(n) == k:
                    amps[n] = math.sqrt(
                        math.factorial(k) / math.prod(map(math.factorial, n))
                    ) * math.prod(ci ** ni for ci, ni in zip(c, n))
            comps.append((weight, amps.reshape((_ANCILLA_DIM ** 2,) * 2)))
    return comps


def build_resource(r: float,
                   source: SourceModel = IDEAL_SOURCE) -> DensityOperator:
    """Entangled ancilla resource behind the amplifier.

    Returns the state over modes (T, R) for a fully mode-matched source, or
    (T, R, Tc, Rc) when mode_overlap < 1, with every mode truncated at two
    photons (the source never emits more).
    """
    reflectivity_to_gain(r)   # raises unless 0 < r < 1
    with_companion = source.mode_overlap < 1.0
    dims = (_ANCILLA_DIM,) * (4 if with_companion else 2)
    d = math.prod(dims)
    mat = np.zeros((d, d), dtype=complex)
    for weight, amps in _resource_components(r, source):
        amps = amps.reshape(-1) if with_companion else amps[:, 0]
        mat += weight * np.outer(amps, amps.conj())
    return DensityOperator(mat, dims).validate()


# ---------------------------------------------------------------------------
# the analytic reference and the full circuit

def ideal_output(alpha: complex, g: float,
                 accept_both_heralds: bool = False) -> HeraldedOutput:
    """Closed-form heralded state ~ |0> + g alpha |1> and its probability.

    The state lives on mode T's three levels, like simulate's.  The success
    probability of the single-detector branch is
    exp(-|alpha|^2) (r^2 / 2) (1 + g^2 |alpha|^2); accepting the
    phase-flipped partner herald doubles it without changing the state.
    Raises TruncationError, before the state is built, if that probability
    falls below the conditioning floor, as simulate does.
    """
    r = gain_to_reflectivity(g)
    try:
        a2 = abs(complex(alpha)) ** 2
    except OverflowError:
        a2 = math.inf
    decay = math.exp(-a2)
    if decay == 0.0:    # then p < exp(-a2) (1 + a2) / 2, far below the floor
        p = 0.0
    elif g * g * a2 < math.inf:
        p = decay * (r * r / 2.0) * (1.0 + g * g * a2)
    else:   # the same p, as r^2 (1 + g^2 a2) = r^2 + t^2 a2, t^2 = 1 - r^2
        p = decay * (r * r + (1.0 - r * r) * a2) / 2.0
    if not p >= CONDITIONING_FLOOR:     # NaN too
        raise TruncationError(
            f"herald probability {p:.3e} below conditioning floor"
        )
    if accept_both_heralds:
        p *= 2.0
    vec = FockVector([1.0, g * alpha, 0.0], (_ANCILLA_DIM,)).normalized()
    return HeraldedOutput(vec.to_density(), p)


def _check_working_size(n_max: int, source: SourceModel) -> None:
    """Raise CapacityError if the circuit's working size exceeds the cap.

    The size is that of the joint space (S, R, T), with S and R holding up
    to n_max + 2 photons, times (Sc, Tc, Rc) of dimension 3 each when the
    source is only partially mode-matched.  No array _heralding_map
    allocates has more than three times as many entries.
    """
    c = _ANCILLA_DIM if source.mode_overlap < 1.0 else 1
    d_sig = n_max + _ANCILLA_DIM
    size = d_sig * _ANCILLA_DIM * d_sig * c ** 3
    if size > DIMENSION_CAP:
        raise CapacityError(
            f"n_max = {n_max} needs a circuit working size of {size}, above "
            f"the cap {DIMENSION_CAP}"
        )


@lru_cache(maxsize=64)
def _heralding_map(r: float, source: SourceModel, mu: float, veto: bool,
                   n_max: int) -> np.ndarray:
    """The D1-heralded circuit as one map from the signal to T.

    Returns the read-only tensor L[t, t', n, n'] for which the unnormalised
    heralded state is rho_T = sum_{n, n'} L[:, :, n, n'] rho_in[n, n'] for
    any input rho_in on 0..n_max photons; its trace is the herald
    probability.  The companion modes (Sc, Tc, Rc) have dimension 1 when
    the source is fully mode-matched, so every source takes this one path.

    The S-BS conserves photon number and its coefficients
    C[s, n, j] = <s, n+j-s|B|n, j> are real, so the detector-weighted Gram of
    its inputs |n>_S |j>_R couples only inputs of one total N = n + j:
    G[(n, j), (n', j'), jc] = sum_s C[s, n, j] w[s, N - s, jc] C[s, n', j'].
    The companion S-BS takes |0>_Sc |jc>_Rc to |sc, jc - sc> and so keeps jc;
    w sums the detector weights over those outputs.  G is built one sector N
    at a time, and the resource, reduced over Tc, is contracted into it.
    """
    c = _ANCILLA_DIM if source.mode_overlap < 1.0 else 1
    coeffs = _balanced_coefficients(n_max + 1, _ANCILLA_DIM)
    top = n_max + _ANCILLA_DIM     # S and R each hold up to n_max + 2 photons
    counts = np.arange(top + _ANCILLA_DIM - 1)
    # D1 watches R + Rc for exactly one photon, D2 S + Sc for none
    d1 = single_photon_weights(mu, counts)
    d2 = no_click_weights(mu, counts) if veto else np.ones(counts.size)
    w = np.zeros((top, top, c))
    for jc, sc in zip(*np.tril_indices(c)):
        w[:, :, jc] += coeffs[sc, 0, jc] ** 2 * np.outer(
            d2[sc:sc + top], d1[jc - sc:jc - sc + top])
    photons = np.add.outer(np.arange(n_max + 1), np.arange(_ANCILLA_DIM))
    gram = np.zeros((n_max + 1, _ANCILLA_DIM, n_max + 1, _ANCILLA_DIM, c))
    for total in range(top):
        n, j = np.nonzero(photons == total)
        s = np.arange(total + 1)
        u = coeffs[:total + 1, n, j]
        gram[n[:, np.newaxis], j[:, np.newaxis], n, j] = np.einsum(
            "sa,sc,sb->abc", u, w[s, total - s], u)
    # the resource reduced over Tc at equal jc, as res[t, j, t', j', jc]
    res = np.zeros((_ANCILLA_DIM,) * 4 + (c,), dtype=complex)
    for weight, amps in _resource_components(r, source):
        amp = amps.reshape((_ANCILLA_DIM,) * 4)[:, :, :c, :c]
        res += weight * np.einsum("ajtc,bktc->ajbkc", amp, amp.conj())
    heralding = np.tensordot(res, gram, axes=([1, 3, 4], [1, 3, 4]))
    heralding.setflags(write=False)
    return heralding


def simulate(config: AmplifierConfig) -> HeraldedOutput:
    """Run the full heralded circuit and condition on the D1 herald.

    Applies the circuit's heralding map -- input (x) resource, signal and R
    mixed on the balanced beamsplitter (likewise the companion pair when the
    source is only partially mode-matched), the efficiency-mu detector
    POVMs: exactly one photon across D1's modes, no click across D2's when
    the veto is enabled -- to the coherent input, and returns the
    normalized state on T with the herald probability.  The map is built
    once per circuit setting and cached, so a sweep over alpha costs one
    small contraction per point.

    Raises TruncationError if the herald probability falls below the
    conditioning floor, and CapacityError if the joint space would exceed
    the dimension cap.
    """
    # checked ahead of the cache, so that a cached map obeys the cap too
    _check_working_size(config.n_max, config.source)
    heralding = _heralding_map(config.r, config.source, config.detector_mu,
                               config.use_d2_veto, config.n_max)
    amps = coherent_state(config.alpha, config.n_max).amplitudes
    rho_t = np.tensordot(heralding, np.outer(amps, amps.conj()), axes=2)
    p_success = float(np.trace(rho_t).real)
    if p_success < CONDITIONING_FLOOR:
        raise TruncationError(
            f"herald probability {p_success:.3e} below conditioning floor"
        )
    rho_t = rho_t / p_success
    out = DensityOperator(0.5 * (rho_t + rho_t.conj().T), (_ANCILLA_DIM,))
    out.validate()
    if config.accept_both_heralds:
        # the partner herald (single photon on D2, none on D1) occurs with
        # equal probability and is folded back by an exact phase flip
        p_success *= 2.0
    return HeraldedOutput(out, float(p_success))

