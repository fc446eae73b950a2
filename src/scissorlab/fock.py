"""Truncated Fock-space states and the measures on them.

States are dense complex arrays tagged with per-mode dimensions.  A mode
holding at most ``n_max`` photons is represented on the ``n_max + 1``
amplitudes for photon numbers ``0..n_max``: the amplifier's coherent input
on its cutoff, its heralded mode on three levels.  Multimode objects
flatten the tensor product in row-major (C) order, first mode slowest,
which is the order ``np.kron`` gives.  Besides the two state classes, the
module builds number and coherent states, pads or truncates one mode, and
computes photon-number statistics, fidelity and trace distance.
Instances are value-like: arrays are copied in and frozen on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (HERMITICITY_TOL, POSITIVITY_TOL, TRUNCATION_TOL,
                       UNIT_TRACE_TOL, TruncationError)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_dims(mode_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in mode_dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"mode_dims must be positive integers, got {mode_dims}")
    return dims


@dataclass(frozen=True)
class FockVector:
    """Pure state on one or more truncated modes.

    amplitudes : flattened finite complex vector of length prod(mode_dims)
    mode_dims  : per-mode dimension (n_max + 1 for each mode)
    """

    amplitudes: np.ndarray
    mode_dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.mode_dims)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} does not match mode_dims {dims}"
            )
        # NaN would pass normalized()'s zero-norm guard and spread silently
        if not np.isfinite(amps).all():
            raise ValueError("amplitude entry is not finite")
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "mode_dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def n_max(self) -> int:
        """Photon-number cutoff; defined for single-mode vectors only."""
        if self.n_modes != 1:
            raise ValueError("n_max is only defined for single-mode vectors")
        return self.mode_dims[0] - 1

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "FockVector":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.amplitudes / math.sqrt(n2), self.mode_dims)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()),
                               self.mode_dims)


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state on one or more truncated modes.

    The matrix must be finite and Hermitian; positivity and unit trace
    are checked on demand via :meth:`validate`, since they cost O(d^3).
    """

    matrix: np.ndarray
    mode_dims: tuple[int, ...]

    def __post_init__(self):
        dims = _check_dims(self.mode_dims)
        d = math.prod(dims)
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match mode_dims {dims}")
        # NaN would slip through every comparison below and in validate()
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entry is not finite")
        herm = np.abs(mat - mat.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {herm:.3e})")
        object.__setattr__(self, "matrix", _frozen(mat))
        object.__setattr__(self, "mode_dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def n_max(self) -> int:
        if self.n_modes != 1:
            raise ValueError("n_max is only defined for single-mode operators")
        return self.mode_dims[0] - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "DensityOperator":
        tr = self.trace()
        if tr <= 0.0:
            raise ValueError("cannot normalize an operator with non-positive trace")
        return DensityOperator(self.matrix / tr, self.mode_dims)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def validate(self) -> "DensityOperator":
        """Check positivity and unit trace (Hermiticity holds on
        construction).

        Returns self so calls can be chained; raises ValueError on failure.
        """
        lo = self.eigenvalues().min()
        if lo < -POSITIVITY_TOL:
            raise ValueError(f"operator has negative eigenvalue {lo:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > UNIT_TRACE_TOL:
            raise ValueError(f"operator trace {tr} is not 1")
        return self


State = FockVector | DensityOperator


def fock_state(n: int, n_max: int) -> FockVector:
    """Number state |n> on a mode truncated at n_max photons."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not 0 <= n <= n_max:
        raise ValueError(f"photon number {n} outside 0..{n_max}")
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps, (n_max + 1,))


def vacuum_state(n_max: int) -> FockVector:
    return fock_state(0, n_max)


def coherent_state(alpha: complex, n_max: int) -> FockVector:
    """Truncated coherent state, renormalized on the kept amplitudes.

    Parameters
    ----------
    alpha : complex displacement amplitude.
    n_max : photon-number cutoff (>= 1).

    Raises
    ------
    TruncationError
        If the discarded Poisson tail exceeds ``TRUNCATION_TOL``, or if
        |alpha|^2 overflows a double, when no cutoff can hold the state.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    alpha = complex(alpha)
    try:
        mean = abs(alpha) ** 2
    except OverflowError:
        size = math.hypot(alpha.real, alpha.imag)   # inf, not a raise
        raise TruncationError(f"coherent state |alpha|={size:.4g} has a "
                              f"mean photon number |alpha|^2 beyond double "
                              f"range, which no cutoff holds") from None
    n = np.arange(n_max + 1)
    # c_n = e^{-|a|^2/2} a^n / sqrt(n!), evaluated stably through logs
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    mag = np.exp(-0.5 * mean + n * np.log(abs(alpha)) - 0.5 * log_fact) \
        if alpha != 0 else np.where(n == 0, 1.0, 0.0)
    phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else 1.0
    amps = mag * phase
    kept = float(np.vdot(amps, amps).real)
    deficit = 1.0 - kept
    if deficit > TRUNCATION_TOL:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.4g} loses {deficit:.3e} "
            f"probability at n_max={n_max} (tolerance {TRUNCATION_TOL:.1e})"
        )
    return FockVector(amps / math.sqrt(kept), (n_max + 1,))


def resize_mode(state: State, mode: int, new_dim: int) -> State:
    """Pad (with zero amplitudes) or truncate one mode's dimension.

    Truncation that would discard more than ``TRUNCATION_TOL`` of
    norm/trace raises TruncationError.
    """
    dims = state.mode_dims
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} outside 0..{len(dims) - 1}")
    if new_dim < 1:
        raise ValueError("new_dim must be >= 1")
    if new_dim == dims[mode]:
        return state
    new_dims = dims[:mode] + (new_dim,) + dims[mode + 1:]
    # a vector has one axis per mode, a matrix a ket and a bra axis per mode
    data = state.amplitudes if isinstance(state, FockVector) else state.matrix
    shared = [slice(None)] * (len(dims) * data.ndim)
    shared[mode::len(dims)] = [slice(0, min(new_dim, dims[mode]))] * data.ndim
    out = np.zeros(new_dims * data.ndim, dtype=complex)
    out[tuple(shared)] = data.reshape(dims * data.ndim)[tuple(shared)]
    resized = type(state)(out.reshape((math.prod(new_dims),) * data.ndim),
                          new_dims)
    # the populations sum to the norm of a vector and the trace of a matrix
    lost = number_distribution(state).sum() - number_distribution(resized).sum()
    if lost > TRUNCATION_TOL:
        raise TruncationError(
            f"truncating mode {mode} to dim {new_dim} discards {lost:.3e}"
        )
    return resized


def mean_photon_number(state: State) -> float:
    """Total mean photon number summed over all modes."""
    dist = number_distribution(state)
    return float(np.arange(dist.size) @ dist)


def number_distribution(state: State) -> np.ndarray:
    """Distribution of the total photon number across all modes."""
    probs = (np.abs(state.amplitudes) ** 2 if isinstance(state, FockVector)
             else np.diagonal(state.matrix).real)
    # each basis state, in flattening order, adds to its total photon number
    return np.bincount(np.indices(state.mode_dims).sum(axis=0).ravel(),
                       weights=probs)


def _single_mode(state: State, what: str) -> DensityOperator:
    """The state as a density operator (a vector is promoted); ValueError,
    naming ``what``, unless it has one mode."""
    if state.n_modes != 1:
        raise ValueError(f"{what}: expected one mode, got mode_dims "
                         f"{state.mode_dims}")
    return state.to_density() if isinstance(state, FockVector) else state


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition."""
    herm = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() < -POSITIVITY_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eig {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Inputs are normalized by their traces first.  For pure states this
    reduces to |<psi|phi>|^2.
    """
    if rho.mode_dims != sigma.mode_dims:
        raise ValueError(f"mode_dims differ: {rho.mode_dims} vs {sigma.mode_dims}")
    a = rho.matrix / rho.trace()
    b = sigma.matrix / sigma.trace()
    sa = _sqrt_psd(a)
    inner = _sqrt_psd(sa @ b @ sa)
    f = float(np.trace(inner).real) ** 2
    return min(max(f, 0.0), 1.0)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of (rho - sigma), each normalized first."""
    if rho.mode_dims != sigma.mode_dims:
        raise ValueError(f"mode_dims differ: {rho.mode_dims} vs {sigma.mode_dims}")
    delta = rho.matrix / rho.trace() - sigma.matrix / sigma.trace()
    vals = np.linalg.eigvalsh(0.5 * (delta + delta.conj().T))
    return min(max(0.5 * float(np.abs(vals).sum()), 0.0), 1.0)
