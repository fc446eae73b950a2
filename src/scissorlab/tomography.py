"""Maximum-likelihood homodyne tomography with a certified stop.

Quadrature samples binned at K phases on one set of edges give a (K, P + 2)
count table (``QuadratureHistograms``).  Each cell is a projector-like POVM
element Pi_j = integral over the bin of |x;theta><x;theta| dx, and every
phase's elements are the one real overlap stack S of the edges rotated by
e^{i theta (m - n)}.  With f_j the observed frequencies,

    R(rho) = sum_j (f_j / Tr(Pi_j rho)) Pi_j

is the gradient of the per-count log-likelihood over rho.  The
reconstruction climbs the likelihood by quasi-Newton steps on a factor A
of rho = A A^+ / Tr(A A^+), positive at every iterate, and stops once
log lambda_max(R), which bounds the per-count distance to the maximum,
is small enough.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import DensityOperator, _single_mode
from .measurement import (QuadratureSamples, _overlap_stack,
                          _packed_identity, _ProbabilityMap)
from .numerics import (DIMENSION_CAP, POVM_COMPLETENESS_TOL,
                       PROBABILITY_FLOOR, CapacityError)


#: draws binned per slice in bin_samples
_BIN_SLICE = 16384


@dataclass(frozen=True)
class QuadratureHistograms:
    """Counts of samples at K phases on P bins of one edge array.

    ``counts[k]`` is phase ``thetas[k]``'s row: underflow (below
    edges[0]), the P bins, overflow (above edges[-1]), so that no event is
    ever dropped.  All three arrays are read-only copies.
    """

    thetas: np.ndarray
    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        edges = np.array(self.edges, dtype=float)
        counts = np.array(self.counts, dtype=np.int64)
        if thetas.ndim != 1 or not np.isfinite(thetas).all():
            raise ValueError("thetas must be a finite 1-D array")
        if edges.ndim != 1 or edges.size < 2 \
                or not np.isfinite(edges).all() or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be a finite, strictly increasing "
                             "1-D array")
        if counts.shape != (thetas.size, edges.size + 1):
            raise ValueError(f"counts must have shape (len(thetas), "
                             f"len(edges) + 1), got {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("counts cannot be negative")
        for name, value in (("thetas", thetas), ("edges", edges),
                            ("counts", counts)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def _bin_edges(bin_count: int, value_range: tuple[float, float]
               ) -> np.ndarray:
    """The bin_count + 1 uniform edges of ``bin_samples`` on value_range.

    A draw's column is guessed as fl((x - lo) * scale), scale = bin_count
    / (hi - lo), and corrected by one comparison per side.  The guess
    never decreases with x, so while it keeps each edge within a column
    of its index it lands each draw within a column of its own.
    ValueError if the range is empty or wider than a double holds, or if
    bins a few ulps wide let rounding move an edge by a whole bin
    (``check`` runs this too).
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = map(float, value_range)    # an integer beyond 2^63 too
    if not lo < hi:
        raise ValueError(f"empty value range {value_range}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"value range {value_range} is wider than a double "
                         f"holds")
    edges = np.linspace(lo, hi, bin_count + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = (edges - lo) * (bin_count / (hi - lo)) \
            - np.arange(bin_count + 1)
    if not np.all(abs(offsets) < 1.0):
        raise ValueError(f"{bin_count} bins on {value_range} are too narrow "
                         f"for double precision")
    return edges


def _check_histogram_size(k: int, bin_count: int) -> None:
    """Raise CapacityError if the count table of ``bin_samples`` at k
    phases, k (bin_count + 2) entries, exceeds the cap (``check`` runs
    this too)."""
    size = k * (bin_count + 2)
    if size > DIMENSION_CAP:
        raise CapacityError(f"{k} phases on {bin_count} bins need a count "
                            f"table of {size} entries, above the cap "
                            f"{DIMENSION_CAP}")


def bin_samples(samples: QuadratureSamples, bin_count: int = 100,
                value_range: tuple[float, float] = (-6.0, 6.0)
                ) -> QuadratureHistograms:
    """Histogram samples per phase on a shared uniform grid.

    Row k of the table counts the draws whose phase index is k, those
    read at samples.phases[k]; its sum is their number.  As in
    ``np.histogram`` the top edge is inclusive, so only values below
    ``lo`` or above ``hi`` go out of range.  ValueError if bins a few ulps
    wide let rounding move an edge by a whole bin, CapacityError, before
    anything is built, if the table exceeds the cap.
    """
    _check_histogram_size(samples.phases.size, bin_count)
    edges = _bin_edges(bin_count, value_range)
    lo, hi = map(float, value_range)
    # column c holds bounds[c] <= x < bounds[c + 1] (0 underflow, P + 1
    # overflow); see _bin_edges for why one comparison per side settles it
    bounds = np.concatenate(([-np.inf], edges[:-1],
                             [math.nextafter(hi, math.inf), np.inf]))
    scale = bin_count / (hi - lo)
    cells = bin_count + 2
    counts = np.zeros(samples.phases.size * cells, dtype=np.int64)
    # in slices, so the working arrays stay near 0.5 MB at any batch size
    for start in range(0, len(samples), _BIN_SLICE):
        x = samples.x[start:start + _BIN_SLICE]
        with np.errstate(over="ignore"):
            guess = np.floor((x - lo) * scale)
        col = np.clip(guess, -1, bin_count, out=guess).astype(np.intp) + 1
        col -= x < bounds[col]
        col += x >= bounds[1:][col]
        # as intp before the product: a uint8 index times cells would wrap
        col += samples.phase_index[start:start + _BIN_SLICE].astype(
            np.intp) * cells
        counts += np.bincount(col, minlength=counts.size)
    return QuadratureHistograms(samples.phases, edges,
                                counts.reshape(-1, cells))


def _check_reconstruction_size(bin_count: int, n_max: int) -> None:
    """Raise CapacityError if a reconstruction on bin_count bins at this
    cutoff exceeds the cap on (bin_count + 2)(n_max + 1)^2 entries, one
    phase's full element matrices; its packed stack holds about half."""
    size = (bin_count + 2) * (n_max + 1) ** 2
    if size > DIMENSION_CAP:
        raise CapacityError(
            f"n_max = {n_max} on {bin_count} bins needs a tomography working "
            f"size of {size}, above the cap {DIMENSION_CAP}"
        )


def _check_phase_size(k: int, n_max: int) -> None:
    """Raise CapacityError if the reconstruction's phase matrices at k
    phases and this cutoff, k d(d + 1)/2 complex entries each for
    d = n_max + 1 (``_ProbabilityMap``), exceed the cap (``check`` runs
    this too)."""
    d = n_max + 1
    size = k * (d * (d + 1) // 2)
    if size > DIMENSION_CAP:
        raise CapacityError(f"{k} phases at n_max = {n_max} need phase "
                            f"matrices of {size} entries, above the cap "
                            f"{DIMENSION_CAP}")


@dataclass
class TomographyProblem:
    """A count table plus its POVM for a chosen reconstruction cutoff.

    The POVM is one real, phase-free overlap stack S on the table's
    edges, held packed as ``stack`` (see ``_overlap_stack``); phase k's
    element j is e^{i thetas[k] (m - n)} S[j], with count
    ``counts[k, j]``: ``counts`` is the histograms' own read-only table.
    CapacityError, before anything is built, if one phase's full elements
    or the phase matrices of the fit would exceed the cap.
    """

    histograms: QuadratureHistograms
    n_max: int = 10
    stack: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("reconstruction n_max must be >= 1")
        _check_reconstruction_size(self.histograms.edges.size - 1, self.n_max)
        _check_phase_size(self.histograms.thetas.size, self.n_max)
        if np.unique(self.histograms.thetas).size < 2:
            raise ValueError(
                "tomography needs at least two distinct phases to be "
                "informationally complete"
            )
        self.stack = _overlap_stack(self.histograms.edges, self.n_max)
        # |e^{i theta (m - n)}| = 1 and the diagonal is 1, so every phase
        # misses completeness by as much as the stack; written so that a
        # NaN miss fails too
        miss = np.abs(self.stack.sum(axis=0)
                      - _packed_identity(self.n_max + 1)).max()
        if not miss <= POVM_COMPLETENESS_TOL:
            raise ValueError(
                f"POVM on these bin edges deviates from completeness by "
                f"{miss:.3e}"
            )
        self.counts = self.histograms.counts

    @property
    def elements(self) -> np.ndarray:
        """Every element Pi_j as one (J, d, d) complex stack, in the
        row-major order of ``counts``; built on each access."""
        return _ProbabilityMap(self.histograms.thetas, self.stack).elements()


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityOperator
    loglik: np.ndarray          # per-count log-likelihood at each iterate
    iterations: int
    converged: bool
    floored_bins: int           # data bins whose model probability was clamped
    gap: float                  # certified per-count distance to the maximum


#: L-BFGS memory: curvature pairs kept
_MEMORY = 8
#: Armijo sufficient-decrease constant
_ARMIJO = 1e-4
#: rounding allowance of the decrease test, in units of eps |loglik|
_ROUNDING = 8 * np.finfo(float).eps


class _CurvatureMemory:
    """The last _MEMORY L-BFGS pairs (s, y), oldest first, with their dot
    products s_i . y_j kept as Python floats.

    ``direction`` is the two-loop recursion (Nocedal and Wright,
    Numerical Optimization, 2nd ed., Alg. 7.4) with every pairwise dot
    product read from the table: five array products per call, whatever
    the memory, and the recursions themselves on scalars.
    """

    def __init__(self, size: int):
        self.s = np.empty((_MEMORY, size))
        self.y = np.empty((_MEMORY, size))
        self.sy: list[list[float]] = []

    def clear(self) -> None:
        self.sy = []

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        k = len(self.sy)
        if k == _MEMORY:
            self.s[:-1] = self.s[1:]
            self.y[:-1] = self.y[1:]
            self.sy = [row[1:] for row in self.sy[1:]]
            k -= 1
        self.s[k] = s
        self.y[k] = y
        for row, value in zip(self.sy, (self.s[:k] @ y).tolist()):
            row.append(value)
        self.sy.append((self.y[:k + 1] @ s).tolist())

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """-H grad for the inverse-Hessian estimate H that the pairs
        define from the scaling s^T y / y^T y of the newest pair."""
        sy = self.sy
        k = len(sy)
        if not k:
            return -grad
        s, y = self.s[:k], self.y[:k]
        sg = (s @ grad).tolist()
        alpha = [0.0] * k
        for i in reversed(range(k)):
            acc = sg[i]
            for j in range(i + 1, k):
                acc -= sy[i][j] * alpha[j]
            alpha[i] = acc / sy[i][i]
        q = grad - np.array(alpha) @ y
        yq = (y @ q).tolist()
        gamma = sy[-1][-1] / (y[-1] @ y[-1])
        diff = [0.0] * k    # alpha_i - beta_i
        for i in range(k):
            acc = gamma * yq[i]
            for j in range(i):
                acc += sy[j][i] * diff[j]
            diff[i] = alpha[i] - acc / sy[i][i]
        return -(gamma * q + np.array(diff) @ s)


def maxlik_reconstruct(problem: TomographyProblem, max_iter: int = 2000,
                       tol: float = 1e-10) -> ReconstructionResult:
    """Climb the likelihood by L-BFGS on a factor A of rho = A A^+ / Tr(A A^+)
    from the maximally mixed seed, until the certified per-count distance
    to the maximum is at most ``tol``.

    Parameters
    ----------
    problem : binned data and POVM cache.
    max_iter : cap on likelihood evaluations; hitting it sets
        converged=False.
    tol : stopping threshold on the certified per-count gap.

    Returns
    -------
    ReconstructionResult with the normalized reconstruction, the
    log-likelihood of every accepted iterate (the seed is the first),
    their number, the final gap and convergence diagnostics.  A
    non-finite log-likelihood or trace raises ValueError naming the
    iterate.  The result is Hermitian, positive and of unit trace; every
    iterate is positive by construction.

    With R(rho) = sum_j (f_j / Tr(Pi_j rho)) Pi_j and f_j the observed
    frequencies, concavity bounds the per-count distance to the maximum
    by log lambda_max(R) (Glancy, Knill and Girard, NJP 14, 095017, 2012):
    the fit stops once that gap is at most ``tol``.  The gradient of the
    per-count log-likelihood over (Re A, Im A) is 2 (R - I) A / Tr(A A^+)
    (James, Kwiat, Munro and White, PRA 64, 052312, 2001).  The ascent
    keeps _MEMORY curvature pairs, scales by s^T y / y^T y and halves the
    step until it gains at least _ARMIJO of the slope, less a rounding
    allowance of _ROUNDING |loglik|, without which it stalls at the
    rounding floor.  Most steps skip the eigensolver: |R v| <= lambda_max
    for R's top eigenvector v when last computed, so a large |R v| already
    shows the gap is above ``tol``.

    A model probability below PROBABILITY_FLOOR is clamped there, and
    ``floored_bins`` is the most occupied bins clamped at one accepted
    iterate.  A clamped bin's term is constant, so it leaves R and the
    gradient, and the gap becomes log(lambda_max(R) / F), with F the
    frequency of the unclamped bins: the bound while they stay clamped.

    p and R(w) come from ``_ProbabilityMap`` on the packed stack.
    """
    counts = problem.counts
    total = int(counts.sum())
    if total <= 0:
        raise ValueError("cannot reconstruct from empty histograms")
    d = problem.n_max + 1
    povm = _ProbabilityMap(problem.histograms.thetas, problem.stack)
    freq = counts / total
    count_weights = counts.ravel().astype(float)   # cast once, not per step
    occupied = counts > 0

    def evaluate(x, iterate):
        """The loglik per count, R, rho, the gradient of -loglik and the
        clamped bins at A, held as the real view x of its entries."""
        trace = float(x @ x)
        if not 0.0 < trace < math.inf:
            raise ValueError(f"reconstruction iterate {iterate} has "
                             f"trace {trace:.3e}")
        a = x.view(complex).reshape(d, d)
        rho = a @ a.conj().T
        rho /= trace
        p = povm.probabilities(rho)
        clamped = 0
        kept = 1.0          # frequency held by the unclamped bins
        if p.min() < PROBABILITY_FLOOR:
            low = p < PROBABILITY_FLOOR
            clamped = np.count_nonzero(low & occupied)
            kept = freq[~low].sum()
            if kept == 0.0:
                raise ValueError(f"reconstruction iterate {iterate} puts "
                                 f"every count in a bin of probability "
                                 f"below {PROBABILITY_FLOOR:g}")
            np.maximum(p, PROBABILITY_FLOOR, out=p)
        loglik = float(count_weights @ np.log(p).ravel()) / total
        if not math.isfinite(loglik):
            raise ValueError(f"reconstruction iterate {iterate} has "
                             f"log-likelihood {loglik}")
        weights = freq / p
        if clamped:
            weights[low] = 0.0   # a clamped bin's term is constant
        r_op = povm.adjoint(weights)
        # kept = Tr(R rho), the radial part of R A
        grad = (kept * a - r_op @ a) * (2.0 / trace)
        if clamped:
            r_op /= kept
        return loglik, r_op, rho, grad.ravel().view(float), clamped

    x = (np.eye(d, dtype=complex) / math.sqrt(d)).ravel().view(float)
    loglik, r_op, rho, grad, floored = evaluate(x, 1)
    trace_loglik = [loglik]
    memory = _CurvatureMemory(x.size)
    top = np.zeros(d)      # R's top eigenvector when last computed
    # e^(2 tol), or inf before it overflows (tol ~ 354.9): no |R v| is then
    # large enough to prove gap > tol
    screen = math.inf if tol > 354.0 else math.exp(2.0 * tol)
    evaluations = 1
    while True:
        # |R v| <= lambda_max for a unit v: a large |R v| proves gap > tol
        gap = None
        image = r_op @ top
        if np.vdot(image, image).real <= screen:
            values, vectors = np.linalg.eigh(r_op)
            top = vectors[:, -1]
            gap = math.log(values[-1])
            if gap <= tol:
                break
        if evaluations >= max_iter:
            break
        direction = memory.direction(grad)
        slope = grad @ direction
        if not slope < 0.0:   # no descent: restart from steepest descent
            memory.clear()
            direction = -grad
            slope = grad @ direction
        least = loglik - _ROUNDING * abs(loglik)
        step = 1.0
        while evaluations < max_iter:   # else the cap ends the search
            s = step * direction
            trial = x + s
            evaluations += 1
            new = evaluate(trial, len(trace_loglik) + 1)
            if new[0] >= least - _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        y = new[3] - grad
        if s @ y > 0.0:
            memory.push(s, y)
        x = trial
        loglik, r_op, rho, grad, clamped = new
        floored = max(floored, clamped)
        trace_loglik.append(loglik)
    if gap is None:
        gap = math.log(np.linalg.eigvalsh(r_op)[-1])
    result_rho = DensityOperator(0.5 * (rho + rho.conj().T), (d,)).validate()
    return ReconstructionResult(result_rho, np.asarray(trace_loglik),
                                len(trace_loglik), gap <= tol, floored,
                                float(gap))


# ---------------------------------------------------------------------------
# density-matrix JSON interchange

def write_density_json(rho: DensityOperator, path) -> None:
    """Serialize a single-mode density matrix as n_max plus re/im parts."""
    rho = _single_mode(rho, "write_density_json")
    payload = {
        "n_max": rho.n_max,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_density_json(path) -> DensityOperator:
    """Read write_density_json's format; ValueError unless a valid state."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: density JSON must be an object")
    for key in ("n_max", "re", "im"):
        if key not in payload:
            raise ValueError(f"{path}: density JSON lacks key {key!r}")
    n_max = payload["n_max"]
    try:
        mat = np.asarray(payload["re"], dtype=float) \
            + 1j * np.asarray(payload["im"], dtype=float)
    except TypeError as exc:  # an entry such as {} that is not a number
        raise ValueError(f"{path}: density matrix entry is not a number "
                         f"({exc})") from exc
    # the type itself: true is an int instance, but not a cutoff
    if type(n_max) is not int or mat.shape != (n_max + 1, n_max + 1):
        raise ValueError(
            f"matrix shape {mat.shape} inconsistent with n_max {n_max!r}")
    return DensityOperator(mat, (n_max + 1,)).validate()
