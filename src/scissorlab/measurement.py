"""Homodyne quadrature statistics, exact bin masses, and sampling.

Quadrature convention: X_theta = a e^{-i theta} + a^+ e^{i theta}, so the
vacuum has unit variance and a coherent state |alpha> has mean quadrature
2 Re(alpha e^{-i theta}).  The matching quadrature eigenfunctions are

    psi_n(x; theta) = e^{i n theta} (2 pi)^{-1/4} (2^n n!)^{-1/2}
                      H_n(x / sqrt 2) exp(-x^2 / 4),

with H_n the physicists' Hermite polynomials; |psi_0|^2 is the standard
normal density.  They are evaluated by their normalized three-term
recurrence, and the normal CDF Phi by ``math.erfc``, so the module needs
numpy alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .csvtext import _csv_heads, _csv_row_writer
from .fock import DensityOperator, State, _single_mode
from .numerics import (DIMENSION_CAP, SAMPLE_CAP, TRUNCATION_TOL,
                       UNIT_TRACE_TOL, CapacityError, TruncationError)

#: sampling grid for inverse-CDF draws: fixed, dense, and generous enough
#: for any state representable at the package's default truncations
_SAMPLING_GRID = np.linspace(-10.0, 10.0, 4001)
#: buckets of the guide table that starts each inverse-CDF lookup
_GUIDE_BUCKETS = 8192

_PSI0_PEAK = (2.0 * math.pi) ** -0.25
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
#: psi_0 = e * tiny here: a normal double, one e-fold inside the underflow
_X_NORMAL = 2.0 * math.sqrt(math.log(_PSI0_PEAK / _TINY) - 1.0)


def default_phase_grid(count: int = 12) -> np.ndarray:
    """Uniform homodyne phases theta_k = k pi / count on [0, pi)."""
    if count < 1:
        raise ValueError("phase count must be >= 1")
    return np.arange(count) * math.pi / count


@dataclass(frozen=True)
class QuadratureSamples:
    """A batch of homodyne draws: the K phases, stored once, and per draw
    an integer phase_index (of any integer dtype: ``sample_homodyne``'s
    is uint8) and a float x.  Draw i read quadrature x[i] at phase
    phases[phase_index[i]]."""

    phases: np.ndarray
    phase_index: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        index, k = self.phase_index, self.phases.size
        if self.phases.ndim != 1 or self.x.ndim != 1 \
                or index.shape != self.x.shape or index.dtype.kind not in "iu":
            raise ValueError("phases and x must be 1-D arrays and phase_index "
                             "an integer array of equal length to x")
        if index.size and not 0 <= index.min() <= index.max() < k:
            raise ValueError(f"phase_index spans {index.min()}..{index.max()},"
                             f" outside the {k} phases")
        # a NaN draw would fall out of every histogram bin without a trace
        _require_finite(self.phases, "phase {} is not finite")
        _require_finite(self.x, "sample {} has a non-finite x")

    def __len__(self) -> int:
        return self.x.size


def _require_finite(values: np.ndarray, message: str) -> None:
    """ValueError, message formatted with the first NaN or infinite entry's
    index; min and max propagate NaN, so a finite array allocates no mask."""
    if values.size and not np.isfinite([values.min(), values.max()]).all():
        raise ValueError(message.format(np.flatnonzero(~np.isfinite(values))[0]))


def wavefunctions(x, n_max: int) -> np.ndarray:
    """Matrix psi[k, n] of the first n_max+1 eigenfunctions at points x.

    By the normalized recurrence psi_0 = (2 pi)^{-1/4} e^{-x^2/4},
    psi_1 = x psi_0, psi_{n+1} = (x psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1)
    (Lvovsky & Raymer, RMP 81, 299 (2009)).  It forms no Hermite value
    or factorial, only terms of the size of psi, so no order overflows.

    Where psi_0 is below the smallest normal double (|x| > ~53.2) the
    recurrence returns 0 or a subnormal at every order.  That is kept
    only if the truth there is negligible: below eps, the absolute
    rounding of the O(1) values the recurrence returns elsewhere.  Past
    its turning point 2 sqrt(n + 1/2), |psi_n| falls monotonically
    (psi'' = (x^2/4 - n - 1/2) psi has the sign of psi), so it is enough
    that _X_NORMAL lies past the turning point of order n_max and that
    every order is below eps there, where psi_0 is still normal and the
    recurrence exact to rounding.  Otherwise ValueError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, n_max + 1))
    # |x| capped far past the point where exp(-x^2/4) is 0, so that x * x
    # cannot overflow; below the cap the values are those of x itself
    capped = np.minimum(np.abs(x), 2.0 * _X_NORMAL)
    out[:, 0] = _PSI0_PEAK * np.exp(-0.25 * capped * capped)
    if x.size and out[:, 0].min() < _TINY:
        _require_negligible_beyond_normal(n_max)
    if n_max >= 1:
        out[:, 1] = x * out[:, 0]
    for n in range(1, n_max):
        out[:, n + 1] = ((x * out[:, n] - math.sqrt(n) * out[:, n - 1])
                         / math.sqrt(n + 1))
    return out


def _require_negligible_beyond_normal(n_max: int) -> None:
    """ValueError unless every psi_n, n <= n_max, is below eps at and
    beyond _X_NORMAL (see ``wavefunctions``)."""
    edge = wavefunctions(_X_NORMAL, n_max)[0]
    turning = 2.0 * math.sqrt(n_max + 0.5)
    if not (_X_NORMAL >= turning and np.abs(edge).max() <= _EPS):
        raise ValueError(
            f"psi_0 underflows beyond |x| = {_X_NORMAL:.1f}, where order "
            f"{n_max} (turning point {turning:.1f}) is not negligible "
            f"(|psi| up to {np.abs(edge).max():.2g}); narrow the x range "
            f"or lower the cutoff")


def _require_normalized(rho: DensityOperator) -> DensityOperator:
    if abs(rho.trace() - 1.0) > UNIT_TRACE_TOL:
        raise ValueError(f"state must be normalized, trace is {rho.trace()}")
    return rho


def quadrature_pdf(rho: State, theta: float, x):
    """p(x | theta) = <x;theta| rho |x;theta> for a normalized state."""
    rho = _require_normalized(_single_mode(rho, "quadrature_pdf"))
    scalar = np.isscalar(x)
    psi = wavefunctions(x, rho.n_max)
    v = psi * np.exp(1j * theta * np.arange(rho.n_max + 1))
    p = np.einsum("xm,mn,xn->x", v.conj(), rho.matrix, v).real
    p = np.clip(p, 0.0, None)
    return float(p[0]) if scalar else p


def _ladder_moments(rho: DensityOperator) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <n>: the traces every quadrature moment is built from."""
    m, k = rho.matrix, np.arange(rho.dim)
    # <a> = sum_k sqrt(k+1) rho[k+1, k]
    # <a^2> = sum_k sqrt((k+1)(k+2)) rho[k+2, k]
    a1 = complex(np.dot(np.sqrt(k[1:]), np.diagonal(m, -1)))
    a2 = complex(np.dot(np.sqrt(k[1:-1] * k[2:]), np.diagonal(m, -2)))
    return a1, a2, float(np.dot(k, np.diagonal(m).real))


def quadrature_moments(rho: State, theta):
    """Mean and variance of X_theta for a phase or an array of phases.

    Both follow from three traces of the state, for every phase at once:
    <X_theta> = 2 Re(e^{-i theta} <a>) and <X_theta^2> =
    2 Re(e^{-2i theta} <a^2>) + 2 <n> + 1, the last term being the
    [a, a^dag] = 1 of the a a^dag ladder product.  No operator is
    truncated, so population at the state's own cutoff is exact.  A
    scalar theta gives two floats, an array two arrays of its shape.
    """
    a1, a2, n_mean = _ladder_moments(_single_mode(rho, "quadrature_moments"))
    turns = np.remainder(theta, 2.0 * math.pi)    # as in _ProbabilityMap
    mean = 2.0 * (a1 * np.exp(-1j * turns)).real
    var = (2.0 * (a2 * np.exp(-2j * turns)).real + 2.0 * n_mean + 1.0
           - mean * mean)
    if turns.ndim == 0:
        return float(mean), float(var)
    return mean, var


def _overlap_stack(edges, n_max: int) -> np.ndarray:
    """Phase-free overlaps S[k, m, n] = integral_k psi_m psi_n dx of the
    bins (-inf, e_0], ..., [e_last, +inf), exact in psi at the edges, as
    the packed triangle m <= n of the symmetric S: (E + 1, d(d + 1)/2),
    columns in np.triu_indices order, column-major, built row by row.

    Off the diagonal the primitive is the Wronskian [psi_m' psi_n -
    psi_m psi_n'] / (n - m), psi_n' = (sqrt(n) psi_{n-1} - sqrt(n+1)
    psi_{n+1}) / 2; it vanishes at both infinities.  On the diagonal,
    edges below 0 take F_n = integral_{-inf}^x psi_n^2 = F_{n-1} -
    psi_n psi_{n-1} / sqrt(n) from F_0 = Phi(x), and edges at or above 0
    take -G_n, G_n = integral_x^{+inf} psi_n^2 = G_{n-1} + psi_n psi_{n-1}
    / sqrt(n) from G_0 = Phi(-x), so a bin in either tail is a difference
    of small numbers.  The one bin that crosses 0 gets the identity back.
    """
    edges = np.asarray(edges, dtype=float)
    _require_finite(edges, "bin edge {} is not finite")
    if edges.ndim != 1 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be a strictly increasing 1-D array")
    d = n_max + 1
    full = wavefunctions(edges, d)
    psi = full[:, :d]
    root = np.sqrt(np.arange(d + 1))
    lower = np.pad(psi[:, :-1], ((0, 0), (1, 0)))
    dpsi = 0.5 * (root[:d] * lower - root[1:] * full[:, 1:])
    below = edges < 0
    crossing = np.count_nonzero(below)      # the bin that holds 0
    # Phi(-|e|), the smaller tail, which erfc keeps to full relative precision
    root2 = math.sqrt(2.0)
    tail = np.array([0.5 * math.erfc(abs(e) / root2) for e in edges.tolist()])
    diag = np.where(below, tail, -tail)
    # row m of the primitive at -inf, the edges and +inf
    bordered = np.zeros((edges.size + 2, d))
    stack = np.empty((edges.size + 1, d * (d + 1) // 2), order="F")
    rows = np.split(stack, np.cumsum(np.arange(d, 1, -1)), axis=1)
    for m, row in enumerate(rows):
        prim = bordered[:, :d - m]
        np.multiply(dpsi[:, m, None], psi[:, m:], out=prim[1:-1])
        prim[1:-1] -= psi[:, m, None] * dpsi[:, m:]
        prim[1:-1, 1:] /= np.arange(1, d - m)
        if m:
            diag = diag - psi[:, m] * psi[:, m - 1] / root[m]
        prim[1:-1, 0] = diag
        np.subtract(prim[1:], prim[:-1], out=row)
        row[crossing, 0] += 1.0
    return stack


def _packed_identity(d: int) -> np.ndarray:
    """The d x d identity, packed as ``_overlap_stack`` packs S."""
    return np.eye(d)[np.triu_indices(d)]


class _ProbabilityMap:
    """p[k, j] = Tr(Pi_kj rho) for Pi_kj = e^{i theta_k (m - n)} S_j over a
    phase list, and the adjoint R(w) = sum w_kj Pi_kj, from the packed
    stack S_u of ``_overlap_stack``.  The (m, n) and (n, m) terms of
    Tr(Pi rho) are conjugates, so with Phi_u = e^{i theta (m - n)} on the
    triangle and fold = conj(Phi_u) doubled off the diagonal,
    p = Re(fold o rho_u) @ S_u^T.  R(w)'s upper triangle is
    sum_k Phi_u,k o (w_k @ S_u), so Re Tr(R(w) rho) = sum w p.  Both
    products read S_u column-major, as ``_overlap_stack`` stores it, so
    S_u^T is read in place; BLAS rounds them differently in C order.
    """

    def __init__(self, thetas, stack: np.ndarray):
        self.d = d = (math.isqrt(8 * stack.shape[1] + 1) - 1) // 2
        m, n = np.triu_indices(d)
        self.stack = np.asfortranarray(stack)
        self.upper = m * d + n
        # angles mod 2 pi, so that no multiple overflows (those in [0, 2 pi)
        # are kept bit for bit)
        turns = np.remainder(thetas, 2.0 * math.pi)
        self.phase = np.exp(1j * np.multiply.outer(turns, m - n))
        self.fold = np.where(m == n, 1.0, 2.0) * self.phase.conj()
        # entry (m, n) of [h_u, conj h_u] is h_u's, (n, m) its conjugate
        # (the diagonal, written last, takes h_u's own entry)
        self.unpack = np.empty(d * d, dtype=np.intp)
        self.unpack[n * d + m] = np.arange(m.size) + m.size
        self.unpack[self.upper] = np.arange(m.size)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """The (K, J) table p for a (d, d) matrix rho."""
        return (self.fold * rho.ravel()[self.upper]).real @ self.stack.T

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        """R(weights) for a (K, J) table, as a (d, d) Hermitian matrix."""
        return self.unpacked((self.phase * (weights @ self.stack)).sum(0))[0]

    def elements(self) -> np.ndarray:
        """Every Pi_kj, row-major in (k, j), as one (K J, d, d) stack."""
        return self.unpacked(self.phase[:, None] * self.stack)

    def unpacked(self, h_u: np.ndarray) -> np.ndarray:
        """The Hermitian (N, d, d) matrices whose upper triangles h_u packs."""
        both = np.concatenate((h_u, h_u.conj()), axis=-1)[..., self.unpack]
        return both.reshape(-1, self.d, self.d)


@functools.lru_cache(maxsize=1)
def _sampling_stack(n_max: int) -> np.ndarray:
    """_overlap_stack of the sampling grid, (4002, d(d + 1)/2) and
    read-only, kept for the last cutoff only: a sweep samples every
    alpha at one cutoff, and one entry bounds the memory at any cutoff."""
    stack = _overlap_stack(_SAMPLING_GRID, n_max)
    stack.setflags(write=False)
    return stack


class _InverseCdf:
    """np.interp(u, table, grid), bit for bit, for draws u in [0, 1) on a
    non-decreasing table that runs from 0 to 1: the guide table and the
    slopes are prepared once per table, and each call looks up one block
    of draws.

    np.interp takes the last j with table[j] <= u and returns grid[j]
    where u equals table[j], else slope[j] (u - table[j]) + grid[j].  A
    guide table of B = _GUIDE_BUCKETS equal buckets of [0, 1) gives that
    j directly for a draw whose bucket holds no table point; only the
    draws in the other buckets need a binary search.  The last j at or
    below each bucket edge b / B counts the points with ceil(B t) <= b,
    exact since B is a power of two.  Every step acts on each draw alone,
    so a batch looked up in blocks equals one looked up whole.
    """

    def __init__(self, table: np.ndarray, grid: np.ndarray):
        ranks = np.ceil(table * _GUIDE_BUCKETS).astype(np.intp)
        cuts = np.cumsum(np.bincount(ranks, minlength=_GUIDE_BUCKETS + 1)) - 1
        self.guide = np.where(cuts[1:] == cuts[:-1], cuts[:-1], -1)
        rise = np.diff(table)
        # a flat run's slope is never read: no draw lands at its start
        self.slope = np.divide(np.diff(grid), rise, out=np.zeros_like(rise),
                               where=rise > 0)
        self.table, self.grid = table, grid

    def __call__(self, u: np.ndarray) -> np.ndarray:
        j = self.guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
        mixed = np.flatnonzero(j < 0)
        j[mixed] = np.searchsorted(self.table, u[mixed], "right") - 1
        at, base = self.table[j], self.grid[j]
        return np.where(u == at, base, self.slope[j] * (u - at) + base)


def _check_sample_count(n_samples: int) -> None:
    """ValueError for a negative draw count, CapacityError above
    SAMPLE_CAP (``check`` runs this too)."""
    if n_samples < 0:
        raise ValueError("n_samples cannot be negative")
    if n_samples > SAMPLE_CAP:
        raise CapacityError(f"{n_samples} samples exceed the cap "
                            f"{SAMPLE_CAP} on one batch")


def _check_draw_size(k: int) -> None:
    """Raise CapacityError if the tables sampling at k phases holds at its
    peak, as _HomodyneDraws' constructor returns, exceed the cap: per phase
    the grid-cell masses (4002 entries), the CDF row (4001), and the guide
    (8192) and slopes (4000) of its _InverseCdf."""
    size = k * (3 * _SAMPLING_GRID.size + _GUIDE_BUCKETS)
    if size > DIMENSION_CAP:
        raise CapacityError(f"{k} phases need sampling tables of {size} "
                            f"entries, above the cap {DIMENSION_CAP}")


class _HomodyneDraws:
    """A batch of ``sample_homodyne`` before its quadratures are drawn:
    the phases, the round-robin phase index, the uniforms' generator and
    one inverse CDF per phase.  ``fill`` draws the batch's next block of
    rows, its uniforms taken from the generator as it goes (which gives
    them in sequence, so a batch drawn block by block equals
    ``sample_homodyne``'s, bit for bit); ValueError for any other block."""

    def __init__(self, rho: State, phases, n_samples: int, *, seed=None):
        phases = np.array([float(t) for t in phases])
        if not phases.size:
            raise ValueError("need at least one phase")
        _require_finite(phases, "phase {} is not finite")
        _check_sample_count(n_samples)
        _check_draw_size(phases.size)
        rho = _require_normalized(_single_mode(rho, "sample_homodyne"))
        k = phases.size
        povm = _ProbabilityMap(phases, _sampling_stack(rho.n_max))
        masses = povm.probabilities(rho.matrix)
        off = masses[:, 0] + masses[:, -1]
        worst = int(np.argmax(off))
        if not off[worst] <= TRUNCATION_TOL:
            raise TruncationError(f"{off[worst]:.3g} of the mass at theta="
                                  f"{phases[worst]:g} lies off the sampling "
                                  f"grid")
        tables = np.zeros((k, _SAMPLING_GRID.size))
        np.cumsum(np.clip(masses[:, 1:-1], 0.0, None), axis=1,
                  out=tables[:, 1:])
        tables /= tables[:, -1:]
        self.phases = phases
        rounds = -(-n_samples // k)   # arange(n_samples) % k, without the %
        # the draw-size cap keeps k far below 256
        self.phase_index = np.tile(np.arange(k, dtype=np.uint8),
                                   rounds)[:n_samples]
        self._rng = np.random.default_rng(seed)
        self._next = 0      # the first row not yet drawn
        self.inverse = [_InverseCdf(table, _SAMPLING_GRID) for table in tables]

    def __len__(self) -> int:
        return self.phase_index.size

    def fill(self, start: int, out: np.ndarray) -> None:
        """Draw rows start .. start + len(out) - 1 into out; ValueError
        unless they are the batch's next rows."""
        stop = start + out.size
        if start != self._next or stop > len(self):
            raise ValueError(f"rows {start}..{stop - 1} are not the next "
                             f"block of the {len(self)} draws, which starts "
                             f"at row {self._next}")
        k = self.phases.size
        u = self._rng.random(out.size)
        self._next = stop
        for idx, inverse in enumerate(self.inverse):
            first = (idx - start) % k   # the block's first row at phase idx
            out[first::k] = inverse(u[first::k])

    def batch(self, x: np.ndarray) -> QuadratureSamples:
        """The batch whose drawn quadratures are x."""
        return QuadratureSamples(self.phases, self.phase_index, x)


def sample_homodyne(rho: State, phases, n_samples: int, *,
                    seed=None) -> QuadratureSamples:
    """Draw quadrature samples across the phase list, round-robin.

    Parameters
    ----------
    rho : single-mode state as the detector sees it; a homodyne
        efficiency eta is ``apply_loss(state, LossChannel(eta))`` first.
    phases : homodyne angles; sample i uses phases[i % len(phases)].
    n_samples : total number of draws, at most ``SAMPLE_CAP``
        (CapacityError above it, before anything is allocated).
    seed : anything accepted by numpy.random.default_rng; fixed seeds give
        bit-identical sample streams.

    Each phase's table is the exact CDF at the points of the fixed
    [-10, 10] grid: the running sum of the grid cells' closed-form masses
    (``_ProbabilityMap.probabilities`` on the grid's packed overlap stack,
    built once per cutoff), drawn by linear interpolation through a guide
    table (``_InverseCdf``, np.interp's values bit for bit).  The two open
    cells beyond the grid hold the exact off-grid mass; TruncationError
    if it exceeds ``TRUNCATION_TOL``.
    """
    draws = _HomodyneDraws(rho, phases, n_samples, seed=seed)
    x = np.empty(n_samples)
    draws.fill(0, x)
    return draws.batch(x)


def write_samples_csv(samples: QuadratureSamples, path) -> None:
    """Persist samples as CSV with header ``theta,x``, each theta as its
    repr (the shortest text of its double) and each x as %.17g.

    Each phase is formatted once and a row takes its draw's head by
    index; rows go out in chunks of _CSV_CHUNK_ROWS, one write per chunk,
    so no whole-file string is ever held.
    """
    _write_sample_rows(path, samples.phases, samples.phase_index, samples.x,
                       [len(samples)])


def _write_sample_rows(path, phases: np.ndarray, phase_index: np.ndarray,
                       x: np.ndarray, stops) -> None:
    """``write_samples_csv`` of the draws (phases, phase_index, x) for a
    batch still being drawn: the rows before each stop are read and
    written only once the iterable ``stops`` has yielded that stop
    (increasing; the last one is the batch length)."""
    with open(path, "wb") as fh:
        fh.write(b"theta,x\n")
        write = _csv_row_writer(fh, _csv_heads(phases))
        start = 0
        for stop in stops:
            write(x[start:stop], phase_index[start:stop])
            start = stop


def read_samples_csv(path) -> QuadratureSamples:
    """Read a ``theta,x`` CSV; a header-only file is an empty batch.  The
    phases are the distinct thetas, increasing (0 and -0 are one phase)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "theta,x":
            raise ValueError(f"unexpected sample CSV header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # warns on no rows
            rows = np.loadtxt(fh, delimiter=",", ndmin=1,
                              dtype=[("theta", float), ("x", float)])
    # checked here, where a bad row still has its sample number
    _require_finite(rows["theta"], "sample {} has a non-finite theta")
    phases, index = np.unique(rows["theta"], return_inverse=True)
    return QuadratureSamples(phases, index, rows["x"])
