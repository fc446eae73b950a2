"""The package's tolerances, caps, and error types.

One fixed set of checks guards every result: Hermiticity, positivity,
unit trace, truncation leakage, POVM completeness and the herald floor.
Each module reads these constants directly.  The values suit dense
double-precision linear algebra on truncated Fock spaces; all are
absolute.
"""

HERMITICITY_TOL = 1e-12
#: eigenvalues of physical operators may dip this far below zero
POSITIVITY_TOL = 1e-10
#: acceptable norm/trace deficit introduced by basis truncation
TRUNCATION_TOL = 1e-8
#: "input must be normalized" preconditions, meant to catch user error
#: rather than float jitter
UNIT_TRACE_TOL = 1e-8
POVM_COMPLETENESS_TOL = 1e-12
#: heralding probabilities below this are treated as numerically zero
CONDITIONING_FLOOR = 1e-15
#: clamp for model bin probabilities inside likelihood evaluations
PROBABILITY_FLOOR = 1e-300
#: largest working size (entries) of a circuit, a reconstruction, the
#: sampler's mass table, the phase list, the Wigner grid or the Wigner
#: coefficient table ((2d - 1) d^2 for a state of dimension d)
DIMENSION_CAP = 10**6
#: most draws one homodyne sample batch may hold; sampling peaks near
#: 24 bytes per draw, about 0.25 GB at the cap
SAMPLE_CAP = 10**7


class TruncationError(ValueError):
    """A truncated Fock basis cannot faithfully hold the requested state."""


class CapacityError(ValueError):
    """A composite Hilbert-space dimension exceeds the cap."""
