"""Centralized numerical policy: tolerances, caps, and error types.

Every module reads its tolerances from a :class:`NumericalPolicy` so the
whole pipeline can be tightened or relaxed in one place.  The defaults are
chosen for dense double-precision linear algebra on truncated Fock spaces.
"""

from dataclasses import dataclass


class TruncationError(ValueError):
    """A truncated Fock basis cannot faithfully hold the requested state."""


class CapacityError(ValueError):
    """A composite Hilbert-space dimension exceeds the configured cap."""


@dataclass(frozen=True)
class NumericalPolicy:
    """Shared tolerance bundle.  All values are absolute unless noted."""

    hermiticity_tol: float = 1e-12
    # eigenvalues of physical operators may dip this far below zero
    positivity_tol: float = 1e-10
    # acceptable norm/trace deficit introduced by basis truncation
    truncation_tol: float = 1e-8
    trace_tol: float = 1e-12
    # looser tolerance for "input must be normalized" preconditions,
    # meant to catch user error rather than float jitter
    unit_trace_tol: float = 1e-8
    povm_completeness_tol: float = 1e-12
    # heralding probabilities below this are treated as numerically zero
    conditioning_floor: float = 1e-15
    # clamp for model bin probabilities inside likelihood evaluations
    probability_floor: float = 1e-300
    dimension_cap: int = 10**6


DEFAULT_POLICY = NumericalPolicy()
