"""Reference implementations the tests check the package against.

``_bs_matrix`` is the general two-mode beamsplitter unitary in the photon
number basis, built term by term from the binomial expansion of the
creation-operator map of the convention in ``scissorlab.optics``.  The
package itself needs only the balanced beamsplitter's exact coefficients
(``optics._balanced_coefficients``) and the ancilla resource in closed
form (``amplifier._resource_components``); the tests hold both to it.
"""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _bs_matrix(dim: int, r: float) -> np.ndarray:
    """Two-mode beamsplitter unitary on a (dim x dim) truncated pair.

    Block matrix over total photon number; exactly unitary on every sector
    with N <= dim - 1, an isometry-with-clipping above (columns there have
    norm < 1, which callers account for as truncation leakage).
    Row/column index convention: flat index = m * dim + n for |m, n>.
    """
    t = math.sqrt(1.0 - r * r)
    mat = np.zeros((dim * dim, dim * dim))
    fact = [math.factorial(k) for k in range(2 * dim - 1)]
    for m in range(dim):
        for n in range(dim):
            total = m + n
            norm_in = math.sqrt(fact[m] * fact[n])
            for p in range(max(0, total - (dim - 1)), min(total, dim - 1) + 1):
                q = total - p
                acc = 0.0
                # photons taken from the first factor into output mode i
                for j in range(max(0, p - n), min(m, p) + 1):
                    acc += (math.comb(m, j) * math.comb(n, p - j)
                            * t ** j * r ** (m - j)
                            * (-r) ** (p - j) * t ** (n - (p - j)))
                amp = acc * math.sqrt(fact[p] * fact[q]) / norm_in
                mat[p * dim + q, m * dim + n] = amp
    mat.setflags(write=False)
    return mat
