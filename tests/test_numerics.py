"""The package's tolerances and caps, pinned.

Aim: the numerical checks behind every result are never loosened.  A
change to any value here edits this test, and CHANGES.md says why.
"""

from scissorlab import numerics

PINNED = {
    "HERMITICITY_TOL": 1e-12,
    "POSITIVITY_TOL": 1e-10,
    "TRUNCATION_TOL": 1e-8,
    "UNIT_TRACE_TOL": 1e-8,
    "POVM_COMPLETENESS_TOL": 1e-12,
    "CONDITIONING_FLOOR": 1e-15,
    "PROBABILITY_FLOOR": 1e-300,
    "DIMENSION_CAP": 10**6,
    "SAMPLE_CAP": 10**7,
}


def test_tolerances_pinned():
    constants = {name: value for name, value in vars(numerics).items()
                 if name.isupper()}
    assert constants == PINNED
    assert all(type(constants[name]) is type(value)
               for name, value in PINNED.items())
