"""Iterative maximum-likelihood homodyne tomography.

Binned quadrature samples at several phases define projector-like POVM
elements Pi_j = integral over the bin of |x;theta><x;theta| dx.  The
reconstruction iterates

    R(rho) = sum_j (f_j / Tr(Pi_j rho)) Pi_j,     rho <- R rho R / Tr(...)

with f_j the observed frequencies, which monotonically climbs the
likelihood for this measurement class and converges to the maximum-
likelihood state on the truncated basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .fock import DensityOperator
from .measurement import QuadratureSamples, wavefunctions
from .numerics import DEFAULT_POLICY, NumericalPolicy


@dataclass(frozen=True)
class QuadratureHistogram:
    """Counts of one phase's samples on strictly increasing bin edges.

    Samples outside [edges[0], edges[-1]] land in the underflow/overflow
    slots so that no event is ever dropped.
    """

    theta: float
    edges: np.ndarray
    counts: np.ndarray
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be a strictly increasing 1-D array")
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts length must be len(edges) - 1")
        if counts.min(initial=0) < 0 or self.underflow < 0 or self.overflow < 0:
            raise ValueError("counts cannot be negative")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    @property
    def has_out_of_range(self) -> bool:
        return (self.underflow + self.overflow) > 0


def bin_samples(samples: QuadratureSamples, phases, bin_count: int = 100,
                value_range: tuple[float, float] = (-6.0, 6.0)
                ) -> list[QuadratureHistogram]:
    """Histogram samples per phase on a shared uniform grid.

    Every sample's phase must appear in ``phases`` (exact match: samples
    produced by this package reuse the list's float values verbatim).
    Total counts including under/overflow equal the sample count.
    """
    phases = [float(t) for t in phases]
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError(f"empty value range {value_range}")
    unknown = samples.theta[~np.isin(samples.theta, phases)]
    if unknown.size:
        raise ValueError(f"sample phase {float(unknown[0])} not in the phase list")
    edges = np.linspace(lo, hi, bin_count + 1)
    out = []
    for theta in phases:
        vals = samples.x[samples.theta == theta]
        counts, _ = np.histogram(vals, bins=edges)
        under = int((vals < lo).sum())
        over = int((vals > hi).sum())
        # np.histogram treats the top edge as inclusive; values above go out
        out.append(QuadratureHistogram(theta, edges, counts, under, over))
    return out


def _overlap_stack(edges, n_max: int) -> np.ndarray:
    """Phase-free overlaps S[k, m, n] = integral_k psi_m psi_n dx of the
    bins (-inf, e_0], ..., [e_last, +inf), exact in psi at the edges.

    Off the diagonal the primitive is the Wronskian [psi_m' psi_n -
    psi_m psi_n'] / (n - m), psi_n' = (sqrt(n) psi_{n-1} - sqrt(n+1)
    psi_{n+1}) / 2; on it F_n = F_{n-1} - psi_n psi_{n-1} / sqrt(n) from
    F_0 = Phi.  It is 0 at -inf and the identity at +inf.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be a strictly increasing 1-D array")
    d = n_max + 1
    full = wavefunctions(edges, d)
    psi = full[:, :d]
    root = np.sqrt(np.arange(d + 1))
    lower = np.pad(psi[:, :-1], ((0, 0), (1, 0)))
    dpsi = 0.5 * (root[:d] * lower - root[1:] * full[:, 1:])
    n = np.arange(d)
    gap = n[None, :] - n[:, None] + np.eye(d)   # diagonal replaced below
    prim = (dpsi[:, :, None] * psi[:, None, :]
            - psi[:, :, None] * dpsi[:, None, :]) / gap
    diag = np.empty((edges.size, d))
    diag[:, 0] = ndtr(edges)
    for k in range(1, d):
        diag[:, k] = diag[:, k - 1] - psi[:, k] * psi[:, k - 1] / root[k]
    prim[:, n, n] = diag
    prim = np.concatenate([np.zeros((1, d, d)), prim, np.eye(d)[None]])
    return np.diff(prim, axis=0)


def _phase_factors(theta: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    return np.exp(1j * theta * (n[:, None] - n[None, :]))


def phase_povm_elements(theta: float, edges: np.ndarray, n_max: int
                        ) -> np.ndarray:
    """All elements of one phase, Pi[k, m, n] = e^{i (m - n) theta}
    S[k, m, n]: underflow (from -inf), the bins, overflow (to +inf)."""
    return _overlap_stack(edges, n_max) * _phase_factors(theta, n_max)


def bin_povm(theta: float, lo: float, hi: float, n_max: int) -> np.ndarray:
    """Pi[m, n] = e^{i (m - n) theta} integral_lo^hi psi_m psi_n dx."""
    return phase_povm_elements(theta, [lo, hi], n_max)[1]


@dataclass
class TomographyProblem:
    """Histograms plus the POVM cache for a chosen reconstruction cutoff."""

    histograms: list[QuadratureHistogram]
    n_max: int = 10
    policy: NumericalPolicy = DEFAULT_POLICY
    elements: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("reconstruction n_max must be >= 1")
        thetas = {h.theta for h in self.histograms}
        if len(thetas) < 2:
            raise ValueError(
                "tomography needs at least two distinct phases to be "
                "informationally complete"
            )
        # one overlap stack per distinct edge array, shared by every phase
        stacks = {h.edges.tobytes(): h.edges for h in self.histograms}
        stacks = {k: _overlap_stack(e, self.n_max) for k, e in stacks.items()}
        element_blocks = []
        count_blocks = []
        for h in self.histograms:
            block = (stacks[h.edges.tobytes()]
                     * _phase_factors(h.theta, self.n_max))
            element_blocks.append(block)
            count_blocks.append(np.concatenate(
                [[h.underflow], h.counts, [h.overflow]]
            ))
            miss = np.abs(block.sum(axis=0) - np.eye(self.n_max + 1)).max()
            if miss > self.policy.povm_completeness_tol:
                raise ValueError(
                    f"POVM for phase {h.theta} deviates from completeness "
                    f"by {miss:.3e}"
                )
        self.elements = np.concatenate(element_blocks)
        self.counts = np.concatenate(count_blocks).astype(float)

    @property
    def total_counts(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityOperator
    loglik: np.ndarray          # per-count log-likelihood at each iterate
    iterations: int
    converged: bool
    floored_bins: int           # data bins whose model probability was clamped


def maxlik_reconstruct(problem: TomographyProblem, max_iter: int = 2000,
                       tol: float = 1e-10) -> ReconstructionResult:
    """Iterate R rho R from the maximally mixed seed until the likelihood
    gain per count drops below ``tol`` or ``max_iter`` is reached.

    Parameters
    ----------
    problem : binned data and POVM cache.
    max_iter : iteration cap; hitting it sets converged=False.
    tol : stopping threshold on the per-count log-likelihood gain.

    Returns
    -------
    ReconstructionResult with the normalized reconstruction, the
    log-likelihood trace, and convergence diagnostics.  Every iterate is
    checked Hermitian, positive, and unit trace against the policy.
    """
    policy = problem.policy
    total = problem.total_counts
    if total <= 0:
        raise ValueError("cannot reconstruct from empty histograms")
    occupied = problem.counts > 0
    d = problem.n_max + 1
    # row j is Pi_j flattened, so Tr(Pi_j rho) = (A @ vec(rho^T))_j
    a_mat = problem.elements[occupied].reshape(-1, d * d)
    counts_occ = problem.counts[occupied]
    freq = counts_occ / total
    rho = np.eye(d, dtype=complex) / d
    floor = policy.probability_floor
    loglik = []
    converged = False
    floored = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        probs = (a_mat @ rho.T.reshape(-1)).real
        n_floored = int((probs < floor).sum())
        floored = max(floored, n_floored)
        probs = np.maximum(probs, floor)
        loglik.append(float(counts_occ @ np.log(probs)) / total)
        if len(loglik) > 1 and loglik[-1] - loglik[-2] < tol:
            converged = True
            break
        r_op = ((freq / probs) @ a_mat).reshape(d, d)
        rho = r_op @ rho @ r_op
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        low = np.linalg.eigvalsh(rho).min()
        if low < -policy.positivity_tol:
            raise ValueError(
                f"reconstruction iterate lost positivity (min eig {low:.3e})"
            )
    result_rho = DensityOperator(rho, (d,)).validate(policy)
    return ReconstructionResult(result_rho, np.asarray(loglik), iterations,
                                converged, floored)


# ---------------------------------------------------------------------------
# density-matrix JSON interchange

def write_density_json(rho: DensityOperator, path) -> None:
    """Serialize a single-mode density matrix as n_max plus re/im parts."""
    if rho.n_modes != 1:
        raise ValueError("JSON interchange covers single-mode states only")
    payload = {
        "n_max": rho.n_max,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_density_json(path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    n_max = int(payload["n_max"])
    mat = np.asarray(payload["re"], dtype=float) \
        + 1j * np.asarray(payload["im"], dtype=float)
    if mat.shape != (n_max + 1, n_max + 1):
        raise ValueError(
            f"matrix shape {mat.shape} inconsistent with n_max {n_max}"
        )
    return DensityOperator(mat, (n_max + 1,))
