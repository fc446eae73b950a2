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

from .fock import DensityOperator
from .measurement import QuadratureSamples, _overlap_stack, _phase_factors
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
    produced by this package reuse the list's float values verbatim), and
    no phase twice.  Total counts including under/overflow equal the
    sample count.
    """
    phases = [float(t) for t in phases]
    if len(set(phases)) < len(phases):
        raise ValueError(f"repeated phase in {phases}: its samples would be "
                         f"counted twice")
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


def phase_povm_elements(theta: float, edges: np.ndarray, n_max: int
                        ) -> np.ndarray:
    """All elements of one phase, Pi[k, m, n] = e^{i (m - n) theta}
    S[k, m, n]: underflow (from -inf), the bins, overflow (to +inf)."""
    return _overlap_stack(edges, n_max) * _phase_factors(theta, n_max)


@dataclass
class TomographyProblem:
    """Histograms plus their POVM for a chosen reconstruction cutoff.

    The POVM is held as one real, phase-free overlap stack per distinct
    edge array (``stacks``) and each histogram's index into it
    (``stack_of``); histogram h's element j is e^{i theta_h (m - n)}
    stacks[stack_of[h]][j].  ``counts`` runs over the histograms in order,
    underflow, bins, overflow each.
    """

    histograms: list[QuadratureHistogram]
    n_max: int = 10
    policy: NumericalPolicy = DEFAULT_POLICY
    stacks: list[np.ndarray] = field(init=False, repr=False)
    stack_of: np.ndarray = field(init=False, repr=False)
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
        keys = [h.edges.tobytes() for h in self.histograms]
        first = {}
        for h, key in zip(self.histograms, keys):
            first.setdefault(key, h)
        index = {key: i for i, key in enumerate(first)}
        self.stacks = []
        # |e^{i theta (m - n)}| = 1 and the diagonal is 1, so a stack
        # misses completeness by as much as every phase built on it;
        # written so that a NaN miss fails too
        for h in first.values():
            stack = _overlap_stack(h.edges, self.n_max)
            miss = np.abs(stack.sum(axis=0) - np.eye(self.n_max + 1)).max()
            if not miss <= self.policy.povm_completeness_tol:
                raise ValueError(
                    f"POVM for phase {h.theta} deviates from completeness "
                    f"by {miss:.3e}"
                )
            self.stacks.append(stack)
        self.stack_of = np.array([index[key] for key in keys], dtype=int)
        self.counts = np.concatenate([
            np.concatenate([[h.underflow], h.counts, [h.overflow]])
            for h in self.histograms
        ]).astype(float)

    @property
    def elements(self) -> np.ndarray:
        """Every element Pi_j as one (J, d, d) complex stack, in the
        order of ``counts``; built on each access."""
        return np.concatenate([
            self.stacks[s] * _phase_factors(h.theta, self.n_max)
            for s, h in zip(self.stack_of, self.histograms)
        ])

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

    Each step works on the real overlap stacks: with Phi_theta the phase
    factors and S the stack flattened to (P, d^2), the probabilities of
    every phase on one stack are Re(Phi_theta o rho^T) @ S^T, and
    R = sum_theta Phi_theta o (w_theta @ S) with w = f / p (0 on empty
    bins).
    """
    policy = problem.policy
    total = problem.total_counts
    if total <= 0:
        raise ValueError("cannot reconstruct from empty histograms")
    d = problem.n_max + 1
    thetas = np.array([h.theta for h in problem.histograms])
    sizes = [problem.stacks[s].shape[0] for s in problem.stack_of]
    per_hist = np.split(problem.counts, np.cumsum(sizes)[:-1])
    # one block per stack: S (P, d^2), Phi (K, d^2), counts (K, P)
    blocks = []
    for s, stack in enumerate(problem.stacks):
        members = np.flatnonzero(problem.stack_of == s)
        counts = np.stack([per_hist[h] for h in members])
        blocks.append((
            stack.reshape(-1, d * d),
            _phase_factors(thetas[members], problem.n_max).reshape(-1, d * d),
            counts, counts / total, counts > 0,
        ))
    rho = np.eye(d, dtype=complex) / d
    floor = policy.probability_floor
    loglik = []
    converged = False
    floored = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rho_t = rho.T.reshape(-1)
        probs = []
        n_floored = 0
        loglik_sum = 0.0
        for s_flat, phi, counts, _, occupied in blocks:
            p = (phi * rho_t).real @ s_flat.T
            n_floored += np.count_nonzero((p < floor) & occupied)
            p = np.maximum(p, floor)
            loglik_sum += float(counts.ravel() @ np.log(p).ravel())
            probs.append(p)
        floored = max(floored, n_floored)
        loglik.append(loglik_sum / total)
        if len(loglik) > 1 and loglik[-1] - loglik[-2] < tol:
            converged = True
            break
        r_op = sum((phi * ((freq / p) @ s_flat)).sum(axis=0)
                   for p, (s_flat, phi, _, freq, _) in zip(probs, blocks))
        r_op = r_op.reshape(d, d)
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
    if not isinstance(n_max, int) or mat.shape != (n_max + 1, n_max + 1):
        raise ValueError(
            f"matrix shape {mat.shape} inconsistent with n_max {n_max!r}")
    return DensityOperator(mat, (n_max + 1,)).validate()
