"""The bulk %.17g formatter against Python's own ``'%.17g' % v``."""

import io

import numpy as np

from scissorlab.csvtext import _csv_heads, _csv_row_writer


def reference(values) -> str:
    return "".join("%.17g\n" % v for v in values.tolist())


def formatted(values) -> str:
    # one head of NUL padding alone, which the writer deletes
    fh = io.BytesIO()
    _csv_row_writer(fh, np.zeros((1, 1), dtype=np.uint64))(
        np.zeros(values.size, dtype=int), values)
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
    # the longest text, "0.33333333333333331,", takes three words
    assert rows.shape == (5, 3) and rows.dtype == np.uint64
    assert [row.tobytes().rstrip(b"\0") for row in rows] == [
        ("%.17g," % v).encode() for v in values.tolist()]
    assert _csv_heads(np.empty(0)).shape == (0, 1)
