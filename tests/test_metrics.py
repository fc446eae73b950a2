"""Phase-space pictures, gain/noise figures, and the information budget."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from scissorlab import (
    AmplifierConfig,
    CapacityError,
    DensityOperator,
    WignerGrid,
    build_metrics_report,
    coherent_state,
    effective_gain,
    ein_statistics,
    equivalent_input_noise,
    fock_state,
    ideal_output,
    mutual_info_bound,
    phase_space_axes,
    quadrature_pdf,
    reference_ein,
    simulate,
    vacuum_state,
    wigner,
    write_metrics_json,
    write_wigner_csv,
)
from scissorlab import metrics
from scissorlab.metrics import _axis_heads, _wigner_sectors
from scissorlab.optics import _balanced_coefficients
from oracles import _bs_matrix, marginal_p, marginal_x, riemann_mass

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("points", [201, 41])
def test_axes_are_the_rounded_decimal_grid(points):
    axis = phase_space_axes(6.0, points)
    # 0.0 - v is -v bit for bit, but +0.0 at the centre
    assert axis.tobytes() == (0.0 - axis[::-1]).tobytes()
    assert (axis[0], axis[-1]) == (-6.0, 6.0)
    steps = points - 1
    assert axis.tolist() == [float(Fraction(6) * m / steps)
                             for m in range(-steps, points, 2)]


def test_axes_pin_their_ends_where_the_steps_round():
    # 0.1 * 3 rounds up, and 0.30000000000000004 / 3 is not 0.1
    axis = phase_space_axes(0.1, 4)
    assert (axis[0], axis[-1]) == (-0.1, 0.1)
    assert axis.tobytes() == (0.0 - axis[::-1]).tobytes()


def test_vacuum_wigner_is_mirror_symmetric_bit_for_bit():
    # W(x, p) = W(-x, p) = W(x, -p) for the vacuum; on a symmetric axis
    # the grid keeps that exactly (not so on np.linspace's axis)
    values = wigner(vacuum_state(8).to_density()).values
    assert values.tobytes() == values[::-1].tobytes()
    assert values.tobytes() == values[:, ::-1].tobytes()


def test_wigner_vacuum_peak():
    grid = wigner(vacuum_state(8).to_density())
    i0 = np.argmin(np.abs(grid.x))
    j0 = np.argmin(np.abs(grid.p))
    assert grid.values[i0, j0] == pytest.approx(1.0 / TWO_PI, abs=1e-12)
    assert riemann_mass(grid) == pytest.approx(1.0, abs=1e-6)
    assert grid.values.min() > -1e-15


def test_wigner_single_photon_negative_origin():
    grid = wigner(fock_state(1, 8).to_density())
    i0 = np.argmin(np.abs(grid.x))
    j0 = np.argmin(np.abs(grid.p))
    assert grid.values[i0, j0] == pytest.approx(-1.0 / TWO_PI, abs=1e-12)
    assert riemann_mass(grid) == pytest.approx(1.0, abs=1e-6)


def test_wigner_origin_is_weighted_parity():
    # W(0,0) = (1/2pi) sum_n (-1)^n rho_nn
    rng = np.random.default_rng(17)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    m = a @ a.conj().T
    rho = DensityOperator(m / np.trace(m).real, (7,))
    grid = wigner(rho, x=np.array([0.0]), p=np.array([0.0]))
    parity = sum((-1) ** n * rho.matrix[n, n].real for n in range(7))
    assert grid.values[0, 0] == pytest.approx(parity / TWO_PI, abs=1e-12)


def test_wigner_coherent_matches_displaced_gaussian():
    alpha = 0.5 + 0.3j
    rho = coherent_state(alpha, 20).to_density()
    axes = phase_space_axes(extent=4.0, points=81)
    grid = wigner(rho, x=axes, p=axes)
    xs = axes[:, None] - 2 * alpha.real
    ps = axes[None, :] - 2 * alpha.imag
    expect = np.exp(-(xs ** 2 + ps ** 2) / 2.0) / TWO_PI
    np.testing.assert_allclose(grid.values, expect, atol=1e-8)


def test_wigner_on_a_wide_window():
    # extent 40 evaluates psi_0..psi_4 out to sqrt2 * 40 ~ 56.6, past where
    # psi_0 underflows; every order is negligible there
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex), (3,))
    axes = phase_space_axes(extent=40.0, points=201)
    grid = wigner(rho, x=axes, p=axes)
    np.testing.assert_allclose(grid.values,
                               genlaguerre_wigner(rho, axes, axes),
                               rtol=0, atol=1e-13)


def genlaguerre_wigner(rho, x, p):
    """W = sum_{m >= n} of the |m><n| kernels, one eval_genlaguerre call
    per kernel, accumulated over the lower triangle."""
    gx, gp = np.meshgrid(x, p, indexing="ij")
    s = gx * gx + gp * gp
    base = np.exp(-0.5 * s) / TWO_PI
    lowered = gx - 1j * gp
    values = np.zeros_like(s)
    for m in range(rho.dim):
        for n in range(m + 1):
            c = rho.matrix[m, n]
            k = m - n
            coeff = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
            kernel = ((-1.0) ** n) * coeff * base * eval_genlaguerre(n, k, s)
            if k == 0:
                values += c.real * kernel
            else:
                values += 2.0 * (c * kernel * lowered ** k).real
    return values


@pytest.mark.parametrize("dim", [11, 31])
def test_wigner_matches_genlaguerre_kernels(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    rho = DensityOperator(m / np.trace(m).real, (dim,))
    axes = phase_space_axes()
    grid = wigner(rho, axes, axes)
    np.testing.assert_allclose(grid.values,
                               genlaguerre_wigner(rho, axes, axes),
                               rtol=0, atol=1e-13)


def test_wigner_grid_capped_before_it_is_built(monkeypatch):
    # the same cap as check's wigner.points rule, met before any table of
    # wavefunctions (or the grid) is allocated
    def no_tables(x, n):
        raise AssertionError("wigner evaluated wavefunctions")

    monkeypatch.setattr(metrics, "wavefunctions", no_tables)
    axis = np.linspace(-6.0, 6.0, 1001)
    state = coherent_state(0.3, 5)
    with pytest.raises(CapacityError, match="^1001 points need a grid of "
                       "1002001 values, above the cap 1000000$"):
        wigner(state, axis, axis)
    with pytest.raises(CapacityError, match="^1001 x 1000 points need a "
                       "grid of 1001000 values, above the cap 1000000$"):
        wigner(state, axis, axis[:1000])
    # a grid at the cap passes the check and reaches the tables
    with pytest.raises(AssertionError, match="evaluated wavefunctions"):
        wigner(state, axis[:1000], axis[:1000])


def test_wigner_coefficients_capped_before_they_are_built(monkeypatch):
    # the (2d - 1) d^2 coefficient table bounds the Wigner map: d = 79
    # (979837 entries) fits the cap, d = 80 does not, and for it neither
    # the coefficients nor a wavefunction table is built
    def no_tables(*args):
        raise AssertionError("wigner built a table")

    monkeypatch.setattr(metrics, "_balanced_coefficients", no_tables)
    monkeypatch.setattr(metrics, "wavefunctions", no_tables)
    _wigner_sectors.cache_clear()
    axis = np.linspace(-6.0, 6.0, 11)
    with pytest.raises(CapacityError, match="^a state on 0..79 photons needs "
                       "1017600 Wigner coefficients, above the cap 1000000$"):
        wigner(vacuum_state(79), axis, axis)
    with pytest.raises(AssertionError, match="built a table"):
        wigner(vacuum_state(78), axis, axis)


def test_wigner_memory_is_bounded_by_its_tables():
    # d = 40 on the 201-point axes: the sector coefficients hold 79^2 40
    # numbers (2 MB); a dense (2d - 1)^2 x d^2 map would hold 80 MB
    rho = DensityOperator(np.diag(np.full(40, 1.0 / 40)).astype(complex),
                          (40,))
    axes = phase_space_axes()
    _wigner_sectors.cache_clear()
    tracemalloc.start()
    try:
        wigner(rho, axes, axes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_wigner_map_is_built_once_per_cutoff():
    _wigner_sectors.cache_clear()
    config = AmplifierConfig(alpha=0.1, gain=2.0)
    for alpha in (0.1, 0.25, 0.5, 1.0):
        wigner(simulate(replace(config, alpha=alpha)).state)
    info = _wigner_sectors.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    wigner(vacuum_state(4))
    assert _wigner_sectors.cache_info().misses == 2
    for table in _wigner_sectors(3):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_wigner_map_is_the_balanced_beamsplitter():
    # C[p, m, n] = <p, m+n-p|B|m, n> on photon numbers m < dm, n < dn: the
    # Wigner map at cutoff 4 reads it at (4, 4), the heralding map at
    # n_max = 12 at (13, 3) for the signal and R
    for dm, dn in ((4, 4), (13, 3)):
        size = dm + dn - 1
        bs = _bs_matrix(size, 1.0 / math.sqrt(2.0)).reshape((size,) * 4)
        bs = bs[:, :, :dm, :dn]
        p, m, n = np.indices((size, dm, dn))
        q = m + n - p
        expect = np.where(q >= 0, bs[p, np.maximum(q, 0), m, n], 0.0)
        np.testing.assert_allclose(_balanced_coefficients(dm, dn), expect,
                                   rtol=0, atol=1e-15)
    # <j,k|B|m,n> (-1)^n on m, n < d, outputs j, k < 2d - 1: the Wigner
    # map's sector coefficients, read at the cell of each A[j, k], with
    # the entry m d + n of rho each multiplies
    d, size = 4, 7
    bs = _bs_matrix(size, 1.0 / math.sqrt(2.0)).reshape((size,) * 4)
    coeffs, entries, cells, turns = _wigner_sectors(d)
    by_cell = coeffs.reshape(size * size, d)[cells].reshape(size, size, d)
    j, k, m = np.indices((size, size, d))
    n = j + k - m
    held = (n >= 0) & (n < d)
    j, k, m, n = j[held], k[held], m[held], n[held]
    np.testing.assert_allclose(by_cell[j, k, m], bs[j, k, m, n] * (-1.0) ** n,
                               rtol=0, atol=1e-15)
    assert not by_cell[~held].any()
    np.testing.assert_array_equal(entries[j + k, m], m * d + n)
    np.testing.assert_array_equal(turns, (-1j) ** np.arange(size))


def test_wigner_marginals_match_pdfs():
    rho = ideal_output(0.5, 2.0).state
    grid = wigner(rho)
    np.testing.assert_allclose(marginal_x(grid),
                               quadrature_pdf(rho, 0.0, grid.x), atol=1e-4)
    np.testing.assert_allclose(marginal_p(grid),
                               quadrature_pdf(rho, math.pi / 2, grid.p),
                               atol=1e-4)


def reference_wigner_csv(grid):
    """The file text written one row at a time."""
    return "x,p,w\n" + "".join(
        f"{xv!r},{pv!r},{grid.values[i, j]:.17g}\n"
        for i, xv in enumerate(grid.x.tolist())
        for j, pv in enumerate(grid.p.tolist()))


def test_wigner_csv_layout(tmp_path):
    grid = wigner(vacuum_state(4).to_density(),
                  x=np.array([-1.0, 0.0, 1.0]), p=np.array([0.0, 0.5]))
    path = tmp_path / "wigner.csv"
    write_wigner_csv(grid, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,p,w"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(grid.values[0, 0])
    assert path.read_text() == reference_wigner_csv(grid)
    odd = WignerGrid(np.array([-0.0, 0.1, 2.0]), np.array([-1e-17, 0.0]),
                     np.array([[1e-300, -5e-324], [-0.0, 0.15915494309189535],
                               [1.0 / 3.0, -2.5e-17]]))
    write_wigner_csv(odd, path)
    assert path.read_text() == reference_wigner_csv(odd)


def test_wigner_csv_head_cache(tmp_path):
    # alternate three axis pairs so each write either formats an axis's
    # heads or reuses ones formatted for other pairs; every file must
    # match the uncached row-at-a-time text byte for byte
    fine = phase_space_axes(6.0, 201)
    coarse = phase_space_axes(4.0, 41)
    axes = [(coarse, coarse), (fine, fine), (coarse, coarse + 0.05)]
    states = [ideal_output(a, 2.0).state for a in (0.1, 0.25)]
    _axis_heads.cache_clear()
    path = tmp_path / "wigner.csv"
    for k in range(9):
        x, p = axes[k % 3]
        grid = wigner(states[k % 2], x, p)
        write_wigner_csv(grid, path)
        assert path.read_bytes() == reference_wigner_csv(grid).encode()
    # one entry per distinct axis, not per pair: coarse, fine, coarse + 0.05
    info = _axis_heads.cache_info()
    assert (info.misses, info.hits) == (3, 15)
    # -0.0 == 0.0, but the two print differently, so they are two keys
    for zero in (0.0, -0.0, 0.0):
        grid = wigner(states[0], coarse, np.array([zero, 0.5]))
        write_wigner_csv(grid, path)
        assert path.read_bytes() == reference_wigner_csv(grid).encode()
    info = _axis_heads.cache_info()
    assert (info.misses, info.hits) == (5, 19)


def test_wigner_csv_write_memory_is_bounded(tmp_path):
    # a 201x201 grid, written a second time so the formatter's tables and
    # the axis heads exist: the kernel scratch of one 4096-row chunk (1 MB)
    # and its row text are what the bound admits; a 40401-row table of
    # x,p heads (1.9 MB), or a scratch for twice the rows, would not fit
    axes = phase_space_axes(6.0, 201)
    grid = wigner(ideal_output(0.25, 2.0).state, axes, axes)
    path = tmp_path / "wigner.csv"
    write_wigner_csv(grid, path)
    tracemalloc.start()
    try:
        write_wigner_csv(grid, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6
    assert path.read_bytes() == reference_wigner_csv(grid).encode()


def test_effective_gain_closed_form():
    # <X> of (|0> + g a |1>)/norm gives g_eff = g / (1 + g^2 a^2)
    for alpha, g in ((0.1, 2.0), (0.2, 1.0), (0.25, 2.0), (0.5, 3.0)):
        rho = ideal_output(alpha, g).state
        assert effective_gain(rho, alpha) == pytest.approx(
            g / (1 + g * g * alpha * alpha), abs=1e-12)


def test_effective_gain_phase_independent():
    # rotating the input phase leaves the gain untouched
    base = None
    for k in range(8):
        alpha = 0.25 * np.exp(1j * k * math.pi / 4)
        out = simulate(AmplifierConfig(alpha=alpha, gain=2.0,
                                       use_d2_veto=True))
        g = effective_gain(out.state, alpha)
        base = g if base is None else base
        assert g == pytest.approx(base, abs=1e-9)


def test_effective_gain_uses_input_phase():
    alpha = 0.2 * np.exp(1.3j)
    rho = ideal_output(alpha, 2.0).state
    assert effective_gain(rho, alpha) == pytest.approx(
        2.0 / (1 + 4 * 0.04), abs=1e-12)
    with pytest.raises(ValueError):
        effective_gain(rho, 0.0)


def test_gain_of_identity_is_one():
    rho = coherent_state(0.4, 16).to_density()
    assert effective_gain(rho, 0.4) == pytest.approx(1.0, abs=1e-10)


def test_ein_pinned_values():
    # ideal g = 2 at alpha = 0.1; hand-derived quadrature variances give
    # EIN(0) = -0.7488, EIN(pi/2) = -0.7088 and reference 0.7296
    rho = ideal_output(0.1, 2.0).state
    g_eff = effective_gain(rho, 0.1)
    lo, avg, hi = ein_statistics(rho, g_eff, [k * math.pi / 12
                                              for k in range(12)])
    assert lo == pytest.approx(-0.7488, abs=2e-4)
    assert hi == pytest.approx(-0.7088, abs=2e-4)
    assert avg == pytest.approx(-0.7288, abs=2e-4)
    assert reference_ein(g_eff) == pytest.approx(0.7296, abs=2e-4)
    assert lo <= avg <= hi


def test_ein_negative_across_weak_drive():
    # the heralded amplifier beats the reference noise over the whole
    # weak-drive window, not just at one operating point
    phases = [k * math.pi / 12 for k in range(12)]
    for alpha in (0.05, 0.1, 0.2, 0.25, 0.3):
        rho = ideal_output(alpha, 2.0).state
        g_eff = effective_gain(rho, alpha)
        lo, avg, hi = ein_statistics(rho, g_eff, phases)
        assert lo < 0.0
        if alpha <= 0.25:
            assert avg < reference_ein(g_eff)


def test_ein_extremes_sit_on_x_and_p():
    # the heralded state is squeezed along X and stretched along P
    rho = ideal_output(0.25, 2.0).state
    g_eff = effective_gain(rho, 0.25)
    lo, _, hi = ein_statistics(rho, g_eff, [k * math.pi / 12
                                            for k in range(12)])
    assert equivalent_input_noise(rho, g_eff, 0.0) == pytest.approx(
        lo, abs=1e-12)
    assert equivalent_input_noise(rho, g_eff, math.pi / 2) == pytest.approx(
        hi, abs=1e-12)


def test_ein_phase_array_matches_scalar_calls():
    rho = simulate(AmplifierConfig(alpha=0.3 * np.exp(0.4j), gain=2.0,
                                   use_d2_veto=True)).state
    phases = np.linspace(-1.0, 4.0, 17)
    vals = equivalent_input_noise(rho, 1.3, phases, eta_hd=0.7)
    assert vals.shape == phases.shape
    np.testing.assert_allclose(
        vals, [equivalent_input_noise(rho, 1.3, t, eta_hd=0.7)
               for t in phases], rtol=0, atol=1e-14)
    lo, avg, hi = ein_statistics(rho, 1.3, phases, eta_hd=0.7)
    assert (lo, hi) == (vals.min(), vals.max())
    assert avg == pytest.approx(vals.mean(), abs=1e-15)
    with pytest.raises(ValueError, match="at least one phase"):
        ein_statistics(rho, 1.3, [])


def test_ein_zero_for_lossless_identity():
    rho = coherent_state(0.4, 16).to_density()
    val = equivalent_input_noise(rho, 1.0, 0.7)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_ein_eta_correction_example():
    # measured variance 0.9 behind eta = 0.68 refers back to
    # 1 + (0.9 - 1)/0.68 = 0.8529...
    rho = vacuum_state(6).to_density()  # measured variance is exactly 1
    # build a synthetic check through the formula instead: feed the
    # corrected variance path with a known measured state
    corrected = 1.0 + (0.9 - 1.0) / 0.68
    assert corrected == pytest.approx(0.852941176, abs=1e-9)
    # vacuum through the correction is a fixed point for any eta
    assert equivalent_input_noise(rho, 1.0, 0.0, eta_hd=0.68) == \
        pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("eta", [0.0, 1.5, math.nan])
def test_efficiency_rule_is_the_loss_channel_rule(eta):
    rho = ideal_output(0.2, 2.0).state
    message = re.escape(f"transmission eta must lie in (0, 1], got {eta}")
    with pytest.raises(ValueError, match=message):
        effective_gain(rho, 0.2, eta_hd=eta)
    with pytest.raises(ValueError, match=message):
        equivalent_input_noise(rho, 1.5, 0.0, eta_hd=eta)


def test_reference_ein_branches():
    assert reference_ein(2.0) == pytest.approx(0.75)
    assert reference_ein(1.0) == pytest.approx(0.0)
    assert reference_ein(0.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        reference_ein(0.0)
    # a gain whose square underflows has no reference floor
    with pytest.raises(ValueError, match="its square must be positive"):
        reference_ein(1e-200)


def test_mutual_info_pinned_ratio():
    i_direct, bound, ratio = mutual_info_bound(1e-4, g=2.0,
                                               accept_both_heralds=True)
    assert ratio == pytest.approx(0.8, rel=0.01)
    assert bound < i_direct


def test_mutual_info_bound_never_exceeds_direct():
    for g in np.linspace(1.0, 4.0, 7):
        for snr in np.logspace(-4, 0, 9):
            i_direct, bound, ratio = mutual_info_bound(
                snr, g=float(g), accept_both_heralds=True)
            assert bound <= i_direct + 1e-15
            assert ratio == pytest.approx(bound / i_direct, rel=1e-12)


def test_mutual_info_zero_snr_limit():
    _, bound, ratio = mutual_info_bound(0.0, g=2.0,
                                        accept_both_heralds=True)
    assert bound == 0.0
    assert ratio == pytest.approx(0.8, abs=1e-12)


def test_mutual_info_validation():
    with pytest.raises(ValueError):
        mutual_info_bound(-0.1, g=2.0)
    with pytest.raises(TypeError):
        mutual_info_bound(0.1)


@pytest.mark.parametrize("g", [math.inf, math.nan])
def test_mutual_info_rejects_a_non_finite_gain(g):
    # the gain-to-reflectivity conversion the amplifier config uses
    with pytest.raises(ValueError, match="gain must be finite and positive"):
        mutual_info_bound(0.1, g=g)


def test_metrics_report_shape(tmp_path):
    rho = ideal_output(0.25, 2.0)
    phases = [k * math.pi / 12 for k in range(12)]
    report = build_metrics_report(rho.state, 0.25,
                                  rho.success_probability, phases)
    write_metrics_json(report, tmp_path / "metrics.json")
    d = json.loads((tmp_path / "metrics.json").read_text())
    assert set(d) == {"g_eff", "ein_min", "ein_avg", "ein_max",
                      "success_probability", "reference_ein", "phases",
                      "variance_provenance"}
    assert d["variance_provenance"] == "output_plane"
    assert d["g_eff"] == pytest.approx(2.0 / 1.25)
    assert d["ein_min"] <= d["ein_avg"] <= d["ein_max"]


def test_metrics_report_eta_flag():
    rho = ideal_output(0.25, 2.0)
    report = build_metrics_report(rho.state, 0.25,
                                  rho.success_probability, [0.0, 1.0],
                                  eta_hd=0.68)
    assert report.variance_provenance == "eta_corrected"


def test_metrics_report_vacuum_input():
    report = build_metrics_report(vacuum_state(6).to_density(), 0.0, 0.1,
                                  [0.0, 1.0])
    assert math.isnan(report.g_eff)
    assert math.isnan(report.ein_min)
    assert report.success_probability == pytest.approx(0.1)


def test_metrics_json_written(tmp_path):
    rho = ideal_output(0.25, 2.0)
    report = build_metrics_report(rho.state, 0.25,
                                  rho.success_probability, [0.0, 0.5])
    path = tmp_path / "metrics.json"
    write_metrics_json(report, path)
    data = json.loads(path.read_text())
    assert data["g_eff"] == pytest.approx(report.g_eff)
    assert data["phases"] == [0.0, 0.5]
