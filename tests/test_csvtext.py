"""The bulk %.17g formatter against Python's own ``'%.17g' % v``, and the
row heads against ``repr``."""

import io

import numpy as np

from scissorlab import (AmplifierConfig, LossChannel, apply_loss,
                        sample_homodyne, simulate, wigner)
from scissorlab.csvtext import (_CSV_CHUNK_ROWS, _G17, _csv_heads,
                                _csv_row_writer)
from scissorlab.measurement import (QuadratureSamples, default_phase_grid,
                                    write_samples_csv)
from scissorlab.metrics import WignerGrid, phase_space_axes, write_wigner_csv


def reference(values) -> str:
    return "".join("%.17g\n" % v for v in values.tolist())


def formatted(values) -> str:
    # one head of NUL padding alone, which the writer deletes
    fh = io.BytesIO()
    _csv_row_writer(fh, np.zeros((1, 1), dtype=np.uint64))(
        values, np.zeros(values.size, dtype=int))
    return fh.getvalue().decode("ascii")


def oracle_classes(rng) -> dict[str, np.ndarray]:
    """Inputs that exercise every digit count, notation and exponent, and
    every way into the fallback to ``%``."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    odd = rng.integers(2 ** 52, 2 ** 53, size=4000) | 1
    mantissas = [rng.integers(10 ** (k - 1), 10 ** k, size=1200)
                 for k in range(1, 18)]
    exponents = rng.integers(-30, 30, size=1200)
    return {
        # all exponents, subnormals, inf and nan included
        "bit patterns": rng.integers(0, 2 ** 64, size=30_000,
                                     dtype=np.uint64).view(float),
        # log10 lands exactly on, or one below, X at a power of ten
        "powers of ten": np.concatenate([powers,
                                         np.nextafter(powers, np.inf),
                                         np.nextafter(powers, -np.inf)]),
        # odd/4 has an exact tie in the 18th digit (fallback); odd/8 and
        # odd/2 sit near one
        "near ties": np.concatenate([odd / 4.0, odd / 8.0, odd / 2.0]),
        # 1 to 17 significant digits: every point and trailing-zero layout
        "digit counts": np.array([float(f"{m}e{e}") for digits in mantissas
                                  for m, e in zip(digits.tolist(),
                                                  exponents.tolist())]),
        "draws": rng.normal(size=40_000) * 10.0 ** rng.integers(
            -8, 20, size=40_000),
        "edges": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, np.inf, -np.inf, np.nan,
                           -np.nan, 1e16, 1e17, 9.9999999999999998e16,
                           99999999999999999.0, 1e-4, 1e-5, 0.1, 1e279, 1e280,
                           9.999999999999999e279, 1e-279, 1e-280]),
    }


def test_matches_percent_formatting_exactly():
    classes = oracle_classes(np.random.default_rng(20091211))
    assert sum(v.size for v in classes.values()) >= 100_000
    for name, values in classes.items():
        got, want = formatted(values), reference(values)
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(values.tolist(),
                                                got.split("\n"),
                                                want.split("\n")) if g != w]
            raise AssertionError(f"{name}: first mismatches {bad[:3]}")


def test_heads_are_padded_text_with_separator():
    values = np.array([0.5, -0.0, 1e-300, np.nan, 1.0 / 3.0])
    rows = _csv_heads(values)
    # the longest text, "0.3333333333333333,", takes three words
    assert rows.shape == (5, 3) and rows.dtype == np.uint64
    assert [row.tobytes().rstrip(b"\0") for row in rows] == [
        (repr(v) + ",").encode() for v in values.tolist()]
    assert _csv_heads(np.empty(0)).shape == (0, 1)


def test_heads_are_the_shortest_text_that_reads_back():
    values = [-0.0, 0.0, 5e-324, 1e300, 1.0 / 3.0, 6.0, -5.94]
    texts = [row.tobytes().rstrip(b"\0").decode()
             for row in _csv_heads(np.array(values))]
    assert texts == ["-0.0,", "0.0,", "5e-324,", "1e+300,",
                     "0.3333333333333333,", "6.0,", "-5.94,"]
    assert texts == [repr(v) + "," for v in values]
    for v, text in zip(values, texts):
        back = float(text[:-1])
        assert back == v and np.signbit(back) == np.signbit(v)


def test_writers_match_row_by_row_percent_formatting(tmp_path):
    # whole files through both writers: six full chunks and a partial
    # one, heads of every width (one to three words, -0.0 and 1e-300
    # included), and values of every layout, a 3-digit exponent and the
    # edge values (inf and nan only in the grid: a sample must be finite)
    # among them, in chunks too long for the chunk-wide % of short ones
    rng = np.random.default_rng(20091211)
    rows = 6 * _CSV_CHUNK_ROWS + 1234
    edges = oracle_classes(rng)["edges"]
    special = np.concatenate([edges[np.isfinite(edges)], [-2.5e-120]])
    values = np.concatenate([
        rng.normal(size=rows - special.size)
        * 10.0 ** rng.integers(-8, 20, size=rows - special.size), special])
    # one chunk in fixed notation only, one without a 3-digit exponent
    values[:_CSV_CHUNK_ROWS] = rng.normal(size=_CSV_CHUNK_ROWS) * 3.0
    values[_CSV_CHUNK_ROWS:2 * _CSV_CHUNK_ROWS] = rng.normal(
        size=_CSV_CHUNK_ROWS) * 10.0 ** rng.integers(-30, 30,
                                                     size=_CSV_CHUNK_ROWS)
    odd = [-0.0, 1e-300, 1.0 / 3.0]
    phases = np.concatenate([odd, default_phase_grid(12)[1:]])
    samples = QuadratureSamples(phases, rng.integers(0, phases.size, rows),
                                values)
    path = tmp_path / "samples.csv"
    write_samples_csv(samples, path)
    assert path.read_bytes() == ("theta,x\n" + "".join(
        "%r,%.17g\n" % (theta, v)
        for theta, v in zip(phases[samples.phase_index].tolist(),
                            values.tolist()))).encode()

    x = np.concatenate([phase_space_axes(6.0, 201), odd])
    p = np.concatenate([phase_space_axes(4.0, 41), odd,
                        rng.normal(size=80) * 10.0 ** rng.integers(-3, 3, 80)])
    w = values[:x.size * p.size].copy()
    w[9000:9000 + edges.size] = edges
    grid = WignerGrid(x, p, w.reshape(x.size, p.size))
    assert x.size * p.size > 3 * _CSV_CHUNK_ROWS
    path = tmp_path / "wigner.csv"
    write_wigner_csv(grid, path)
    assert path.read_bytes() == ("x,p,w\n" + "".join(
        "%r,%r,%.17g\n" % (xv, pv, grid.values[i, j])
        for i, xv in enumerate(x.tolist())
        for j, pv in enumerate(p.tolist()))).encode()


def test_artifact_values_never_leave_the_kernel():
    # what the CSVs hold in bulk: draws of a default-sweep state, with -0.0
    # and values below 1e-4 (scientific notation) among them, and its
    # 201x201 Wigner grid; none may go to %, or need a fourth word
    state = simulate(AmplifierConfig(alpha=1.0, gain=2.0)).state
    draws = sample_homodyne(apply_loss(state, LossChannel(0.68)),
                            default_phase_grid(12), _CSV_CHUNK_ROWS,
                            seed=1).x.copy()
    rng = np.random.default_rng(7)
    small = rng.normal(size=100) * 10.0 ** rng.integers(-30, -4, size=100)
    draws[rng.choice(draws.size, 120, replace=False)] = np.concatenate(
        [small, [-0.0] * 10, [0.0] * 10])
    axes = phase_space_axes(6.0, 201)
    grid = wigner(state, axes, axes).values.ravel()
    kernel = _G17(_CSV_CHUNK_ROWS)
    for values in (draws, grid):
        assert np.abs(values).max() < 10.0
        for start in range(0, values.size, _CSV_CHUNK_ROWS):
            assert kernel.load(values[start:start + _CSV_CHUNK_ROWS]) == 3
            assert kernel._lines == []
