"""Figures of merit: Wigner maps, effective gain, equivalent input noise,
and the classical-information budget of the heralded amplifier.

Phase-space convention matches the quadrature convention X = a + a^+:
the vacuum Wigner function is exp(-(x^2+p^2)/2) / (2 pi), peaking at
1/(2 pi), and a coherent state |alpha> peaks at (2 Re alpha, 2 Im alpha).
A Wigner grid is a product U A V^T of Hermite-function tables (``wigner``).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amplifier import gain_to_reflectivity
from .csvtext import _CSV_CHUNK_ROWS, _csv_heads, _csv_row_writer
from .fock import State, _single_mode
from .measurement import quadrature_moments, wavefunctions
from .numerics import DIMENSION_CAP, CapacityError
from .optics import LossChannel, _balanced_coefficients

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WignerGrid:
    """W(x_i, p_j) sampled on a rectangular grid; values[i, j] = W(x[i], p[j])."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (x.size, p.size):
            raise ValueError("values shape must be (len(x), len(p))")
        for arr in (x, p, v):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", v)

    def riemann_mass(self) -> float:
        dx = self.x[1] - self.x[0]
        dp = self.p[1] - self.p[0]
        return float(self.values.sum() * dx * dp)

    def marginal_x(self) -> np.ndarray:
        """Integrate over p; matches quadrature_pdf at theta = 0."""
        dp = self.p[1] - self.p[0]
        return self.values.sum(axis=1) * dp

    def marginal_p(self) -> np.ndarray:
        """Integrate over x; matches quadrature_pdf at theta = pi/2."""
        dx = self.x[1] - self.x[0]
        return self.values.sum(axis=0) * dx


def phase_space_axes(extent: float = 6.0, points: int = 201) -> np.ndarray:
    if extent <= 0.0 or points < 2:
        raise ValueError("need a positive extent and at least two points")
    if 2.0 * extent == math.inf:
        raise ValueError(f"axis (-{extent:g}, {extent:g}) is wider than a "
                         f"double holds")
    # as a float: an integer beyond int64 casts no ufunc
    return np.linspace(-float(extent), float(extent), points)


def _check_grid_size(x_points: int, p_points: int) -> None:
    """Raise CapacityError if a Wigner grid on axes of these lengths holds
    more values than the cap."""
    size = x_points * p_points
    if size > DIMENSION_CAP:
        points = x_points if x_points == p_points else f"{x_points} x {p_points}"
        raise CapacityError(f"{points} points need a grid of {size} values, "
                            f"above the cap {DIMENSION_CAP}")


def _check_coefficient_size(d: int) -> None:
    """Raise CapacityError if the Wigner coefficient table of a state of
    dimension d, (2d - 1) d^2 entries, holds more values than the cap."""
    size = (2 * d - 1) * d * d
    if size > DIMENSION_CAP:
        raise CapacityError(f"a state on 0..{d - 1} photons needs {size} "
                            f"Wigner coefficients, above the cap {DIMENSION_CAP}")


@lru_cache(maxsize=4)
def _wigner_sectors(d: int) -> tuple[np.ndarray, ...]:
    """Read-only (coefficients, entries, cells, turns): the balanced
    beamsplitter B on m, n < d one photon-number sector N = m + n at a
    time, and the Fourier factors turns[k] = (-i)^k, k < 2d - 1.

    coefficients[N, j, m] = <j, N-j|B|m, N-m> (-1)^(N-m), from
    optics._balanced_coefficients(d, d); it is 0 where j > N or N - m is
    outside 0..d-1.  entries[N, m] = N + m (d - 1) is the flat index of
    rho[m, N - m] (another entry, met by a zero coefficient, where N - m
    is outside).  cells[j (2d - 1) + k] is the row of the sectors'
    product that holds A[j, k]: row j of sector N = j + k, or of sector
    N - (2d - 1) < j, which is zero, where N > 2d - 2.  Each of the four
    cached cutoffs holds about (2d - 1)^2 (d + 1) numbers, O(d^3).
    """
    size, n = 2 * d - 1, np.arange(d)
    table = _balanced_coefficients(d, d)    # zero at j > m + n
    coeffs = np.zeros((size, size, d))
    for m in range(d):
        coeffs[m:m + d, :, m] = (table[:, m] * (-1.0) ** n).T
    entries = np.arange(size)[:, None] + (d - 1) * n
    j, k = np.ogrid[:size, :size]
    cells = ((j + k) % size * size + j).ravel()
    turns = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(size) % 4]
    for arr in (coeffs, entries, cells, turns):
        arr.setflags(write=False)
    return coeffs, entries, cells, turns


def wigner(rho: State, x=None, p=None) -> WignerGrid:
    """Evaluate the Wigner function of a single-mode state on a grid.

    W is the Fourier transform over y of <x + y/2| rho |x - y/2>; the change
    to x +- y/2 is a 45-degree rotation, acting on Hermite products as the
    balanced beamsplitter B, and the Fourier transform multiplies psi_k by
    (-i)^k.  So, with psi the quadrature eigenfunctions (``wavefunctions``)
    of orders 0..2d-2, the real grid is U Re(A) V^T:

        W(x, p) = sum_{j,k} A_jk psi_j(sqrt2 x) psi_k(sqrt2 p),
        A_jk = (-i)^k / sqrt(2 pi) sum_{m+n=j+k} <j,k|B|m,n> (-1)^n rho_mn.

    B conserves photon number, so A is one small product per sector
    N = m + n = j + k (``_wigner_sectors``).  No array built here holds
    more than twice the greatest of the points^2 grid, the (2d - 1) d^2
    coefficient table and the points (2d - 1) wavefunction tables;
    CapacityError, before any table is built, if the grid or the
    coefficient table exceeds DIMENSION_CAP.
    """
    rho = _single_mode(rho, "wigner")
    x = phase_space_axes() if x is None else np.asarray(x, dtype=float)
    p = phase_space_axes() if p is None else np.asarray(p, dtype=float)
    _check_grid_size(x.size, p.size)
    _check_coefficient_size(rho.dim)
    d, size = rho.dim, 2 * rho.dim - 1
    coeffs, entries, cells, turns = _wigner_sectors(d)
    # sector N's real and imaginary parts as two columns; row j is A[j, N - j]
    rows = coeffs @ rho.matrix.ravel()[entries].view(float).reshape(size, d, 2)
    c = rows.reshape(-1, 2)[cells].view(complex).reshape(size, size)
    a = (c * turns).real / math.sqrt(TWO_PI)
    u, v = (wavefunctions(math.sqrt(2.0) * axis, size - 1) for axis in (x, p))
    return WignerGrid(x, p, u @ a @ v.T)


@lru_cache(maxsize=8)
def _axis_heads(axis_bytes: bytes) -> np.ndarray:
    """Read-only row heads ``v,`` as NUL-padded text words for the float64
    axis whose raw bytes are given; keyed on the bytes, so -0.0 and 0.0
    stay distinct."""
    heads = _csv_heads(np.frombuffer(axis_bytes))
    heads.setflags(write=False)
    return heads


def write_wigner_csv(grid: WignerGrid, path) -> None:
    """Persist the grid as CSV rows ``x,p,w`` (x outer loop), every value
    as %.17g.  Each axis's heads are formatted once (a small cache, since
    a sweep writes every alpha on the same axes), and a row takes its x
    and p heads by index; rows go out in chunks of _CSV_CHUNK_ROWS, one
    write per chunk, through one row buffer."""
    values = grid.values.ravel()
    with open(path, "wb") as fh:
        fh.write(b"x,p,w\n")
        write = _csv_row_writer(fh, *(_axis_heads(axis.tobytes())
                                      for axis in (grid.x, grid.p)))
        for start in range(0, values.size, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, values.size)
            write(values[start:stop],
                  *np.divmod(np.arange(start, stop), grid.p.size))


# ---------------------------------------------------------------------------
# gain and noise

def effective_gain(rho_out: State, alpha_in: complex,
                   eta_hd: float = 1.0) -> float:
    """<X_out> / <X_in> along the input phase, with <X_in> = 2 |alpha|.

    When rho_out is a measured state observed behind a homodyne efficiency
    eta_hd, the mean shrinks by sqrt(eta_hd); passing that efficiency
    refers the gain back to the amplifier output plane.
    """
    if alpha_in == 0:
        raise ValueError("effective gain is undefined for a vacuum input")
    LossChannel(eta_hd)     # raises unless 0 < eta_hd <= 1
    theta = cmath.phase(complex(alpha_in))
    mean, _ = quadrature_moments(rho_out, theta)
    return mean / (2.0 * abs(alpha_in) * math.sqrt(eta_hd))


def equivalent_input_noise(rho_out: State, g_eff: float, theta,
                           eta_hd: float = 1.0):
    """N_eq = Var(X_out, theta) / g_eff^2 - Var(X_in), for a phase or an
    array of phases (a float or an array of the same shape), with
    Var(X_in) = 1, the coherent input's vacuum variance.

    A state measured behind homodyne efficiency eta_hd has its variance
    pulled toward the vacuum; the inverse map
    Var = 1 + (Var_measured - 1) / eta_hd restores the output-plane value
    before referring the noise to the input.  Negative values certify
    noiseless (better-than-unity-noise-figure) operation.
    """
    if g_eff == 0.0:
        raise ValueError("g_eff must be nonzero")
    LossChannel(eta_hd)     # raises unless 0 < eta_hd <= 1
    _, var_measured = quadrature_moments(rho_out, theta)
    var_out = 1.0 + (var_measured - 1.0) / eta_hd
    return var_out / (g_eff * g_eff) - 1.0


def ein_statistics(rho_out: State, g_eff: float, phases,
                   eta_hd: float = 1.0) -> tuple[float, float, float]:
    """(min, average, max) equivalent input noise across the phase list,
    from one ``equivalent_input_noise`` call over the whole phase array
    (so from one set of the state's ladder moments)."""
    phases = np.array([float(t) for t in phases])
    if not phases.size:
        raise ValueError("need at least one phase")
    vals = equivalent_input_noise(rho_out, g_eff, phases, eta_hd)
    return float(vals.min()), float(vals.mean()), float(vals.max())


def reference_ein(g_eff: float) -> float:
    """Noise floor of the comparable deterministic device.

    A phase-insensitive amplifier must add (g^2 - 1)/g^2 of input-referred
    noise; below unit gain the comparison is a beamsplitter, which adds
    (1 - g^2)/g^2.
    """
    g2 = g_eff * g_eff
    if g_eff <= 0.0 or g2 == 0.0:
        raise ValueError(f"g_eff and its square must be positive, got {g_eff}")
    return (g2 - 1.0) / g2 if g_eff >= 1.0 else (1.0 - g2) / g2


# ---------------------------------------------------------------------------
# information budget

def mutual_info_bound(snr: float, g: float,
                      accept_both_heralds: bool = False
                      ) -> tuple[float, float, float]:
    """Channel information with and without the heralded amplifier.

    For a coherent ensemble with signal-to-noise ratio ``snr`` the direct
    homodyne channel carries I = ln(1 + snr) / 2 nats.  Routing through
    the amplifier keeps only the heralded fraction (r^2/2 per accepted
    branch, evaluated at vanishing input) of events, each now worth
    ln(1 + g^2 snr) / 2, so the budget is their product.

    Returns (I_direct, I_amplified_bound, ratio); at snr = 0 the ratio is
    reported as its analytic limit P_success * g^2.
    """
    if snr < 0.0:
        raise ValueError(f"snr cannot be negative, got {snr}")
    r = gain_to_reflectivity(g)
    p_success = r * r / 2.0
    if accept_both_heralds:
        p_success *= 2.0
    i_direct = 0.5 * math.log1p(snr)
    i_bound = p_success * 0.5 * math.log1p(g * g * snr)
    if snr == 0.0:
        ratio = p_success * g * g
    else:
        ratio = i_bound / i_direct
    return i_direct, i_bound, ratio


# ---------------------------------------------------------------------------
# consolidated report

@dataclass(frozen=True)
class MetricsReport:
    g_eff: float
    ein_min: float
    ein_avg: float
    ein_max: float
    success_probability: float
    reference_ein: float
    phases: tuple[float, ...]
    variance_provenance: str  # "output_plane" or "eta_corrected"


def build_metrics_report(rho_out: State, alpha_in: complex,
                         success_probability: float, phases,
                         eta_hd: float = 1.0) -> MetricsReport:
    """Assemble gain, noise statistics, and the reference noise floor.

    ``eta_hd`` < 1 marks rho_out as a measured (efficiency-degraded)
    state: both gain and variances are referred back to the output plane.
    For a vacuum input the gain-based entries are NaN; so are the noise
    entries of an output with no mean field to refer them through
    (g_eff^2 = 0, as for a fit stopped at its maximally mixed start).
    """
    phases = tuple(float(t) for t in phases)
    nan = float("nan")
    g_eff = nan if alpha_in == 0 else effective_gain(rho_out, alpha_in, eta_hd)
    if not g_eff * g_eff > 0.0:
        return MetricsReport(g_eff, nan, nan, nan, float(success_probability),
                             nan, phases, _provenance(eta_hd))
    lo, avg, hi = ein_statistics(rho_out, g_eff, phases, eta_hd)
    return MetricsReport(g_eff, lo, avg, hi, float(success_probability),
                         reference_ein(abs(g_eff)), phases, _provenance(eta_hd))


def _provenance(eta_hd: float) -> str:
    return "output_plane" if eta_hd == 1.0 else "eta_corrected"


def write_metrics_json(report: MetricsReport, path) -> None:
    text = json.dumps(vars(report), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
