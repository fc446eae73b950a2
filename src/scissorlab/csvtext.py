"""CSV text for float64 arrays, every value exactly as ``'%.17g' % v``.

Python's ``%`` runs Gay's correctly rounded dtoa once per value (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions",
1990), about a microsecond each.  Here a whole array gets its 17
significant digits at once.  With X = floor(log10|v|), the product
y = |v| 10^(16 - X) is formed as a double-double, from a (hi, lo) table
of the powers of ten and Dekker's exact product of two doubles (Dekker,
Numer. Math. 18, 224 (1971)).  Its error is below 2^-47, so rounding y
to the nearest integer D gives the digits of the correctly rounded
result, unless the fraction of y lies within 2^-40 of 1/2.  Those
values, the ones whose log10 estimate is off by one or whose rounding
carries into an 18th digit (D outside [10^16, 10^17)), |X| >= 280
(where the split products could leave the normal range), and inf and
nan go to ``%`` itself.  Zero is "0".

A value's text is laid out in a row of six 8-byte words, filled from
small tables: 17 (digit, point) byte pairs behind a 6-byte prefix (the
sign and ``0.000``), then the ``e+XX`` suffix and the newline.  Unused
bytes are NUL, so deleting every NUL (``bytes.translate``) compacts a
whole chunk of rows into its text at once.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: rows per formatted block and per write: bounds the temporary rows
#: a writer holds, whatever the array's size
_CSV_CHUNK_ROWS = 8192

#: the fast path's exponent range, |X| < _MAX_EXP
_MAX_EXP = 280
#: Veltkamp's constant 2^27 + 1, which splits a double into two halves
#: whose products are exact
_SPLIT = 134217729.0
#: the fraction of y may be off by 2^-47; nearer than this to 1/2 is a tie
_TIE_WINDOW = 2.0 ** -40
#: 8-byte words per value: five of (digit, point) pairs, one of suffix
_WORDS = 6


def _word(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


@cache
def _tables():
    """Lookup tables, built on first use; every X-indexed one is indexed
    by X + _MAX_EXP."""
    # hi + lo = 10^s for s = 16 - X: hi = RN(10^s), lo = RN(10^s - hi),
    # from exact fractions, since int / int division rounds correctly
    hi, lo = [], []
    for s in range(16 + _MAX_EXP, 15 - _MAX_EXP, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi.append(num / den)
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    # small integer types keep the transient memory of the build small
    quad = np.arange(10_000, dtype=np.uint16)
    # a 4-digit group as (digit, 0xFF) byte pairs, one word; the 0xFF
    # bytes let a mask put a point there
    pairs = np.full((quad.size, 8), 0xFF, dtype=np.uint8)
    trailing = np.zeros(quad.size, dtype=np.int16)
    for i, scale in enumerate((1000, 100, 10, 1)):
        pairs[:, 2 * i] = quad // scale % 10 + ord("0")
        trailing += quad % (10 * scale) == 0
    # the first group holds one digit, so a row's digit j sits at byte
    # 6 + 2j and its point slot at 7 + 2j; masks[keep, point] keeps the
    # first `keep` digits and writes '.' after digit `point` - 1
    masks = np.zeros((18, 18, 8 * (_WORDS - 1)), dtype=np.uint8)
    for keep in range(1, 18):
        masks[keep, :, 6:6 + 2 * keep:2] = 0xFF
        masks[keep, np.arange(1, 18), 5 + 2 * np.arange(1, 18)] = ord(".")
    # which mask each (X, significant digits) pair takes
    x = np.arange(-_MAX_EXP, _MAX_EXP + 1, dtype=np.int16)[:, None]
    sig = np.arange(18, dtype=np.int16)[None, :]
    sci = (x < -4) | (x >= 17)
    point = np.where(sci, 1, np.where(x >= 0, x + 1, 17))
    keep = np.minimum(np.maximum(sig, np.where(sci, 0, x + 1)), 17)
    mask_of = (keep * 18 + point * (sig > point)).ravel()
    # prefix and suffix words by (X, sign) and X
    prefixes = np.zeros((2 * _MAX_EXP + 1, 2), dtype=np.uint64)
    suffixes = np.zeros(2 * _MAX_EXP + 1, dtype=np.uint64)
    for i, exp in enumerate(range(-_MAX_EXP, _MAX_EXP + 1)):
        lead = "0." + "0" * (-exp - 1) if -4 <= exp < 0 else ""
        prefixes[i] = _word(lead), _word("-" + lead)
        tail = "" if -4 <= exp < 17 else f"e{exp:+03d}"
        suffixes[i] = _word(tail.ljust(7, "\0") + "\n")
    return (np.array(hi), np.array(lo), pairs.view(np.uint64).ravel(),
            trailing, masks.reshape(18 * 18, -1).view(np.uint64).T.copy(),
            mask_of, prefixes.ravel(), suffixes)


def _split(a):
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


def _g17_words(values: np.ndarray, out: np.ndarray) -> None:
    """Write each value's '%.17g' text and a newline into its row of out,
    a (n, _WORDS) uint64 array, with NUL bytes between the characters."""
    (pow_hi, pow_lo, digit_pairs, trailing_zeros, digit_masks, mask_of,
     prefixes, suffixes) = _tables()
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp = np.floor(np.log10(a))
    fast = np.abs(exp) < _MAX_EXP        # false for 0, inf, nan
    x = np.where(fast, exp, 0.0).astype(np.intp) + _MAX_EXP
    a = np.where(fast, a, 1.0)
    # y = a (hi + lo) = p + tail, with a hi = p + (its rounding error)
    # exactly by Dekker's product
    hi, lo = pow_hi[x], pow_lo[x]
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    tail = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo
    whole = np.floor(tail)
    frac = tail - whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    # X one too high leaves y below 10^16; one too low, or a rounding
    # that carries into an 18th digit, takes D to 10^17
    slow = ~fast | (d < 10 ** 16)
    d += frac > 0.5
    slow |= (d >= 10 ** 17) | (np.abs(frac - 0.5) < _TIE_WINDOW)
    slow &= v != 0.0
    d[~fast] = 0                         # so zero prints as 0

    # 17 digits in five groups, 1 + 4 + 4 + 4 + 4 digits, one word each
    groups = []
    for scale in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4):
        groups.append(d // scale)
        d -= groups[-1] * scale
    groups.append(d)
    zeros = trailing_zeros[d]
    rows = np.flatnonzero(d == 0)
    for group in groups[-2::-1]:
        if not rows.size:
            break
        group = group[rows]
        zeros[rows] += trailing_zeros[group]
        rows = rows[group == 0]
    sig = np.maximum(17 - zeros, 1)      # 1 for zero

    mask = mask_of[x * 18 + sig]
    for col, group in enumerate(groups):
        np.bitwise_and(digit_pairs[group], digit_masks[col, mask],
                       out=out[:, col])
    out[:, 0] |= prefixes[2 * x + np.signbit(v)]
    out[:, -1] = suffixes[x]
    if slow.any():
        text = out.view(np.uint8)
        for i in np.flatnonzero(slow).tolist():
            line = ("%.17g\n" % v[i]).encode()
            text[i] = 0
            text[i, :len(line)] = np.frombuffer(line, dtype=np.uint8)


def _csv_heads(values) -> np.ndarray:
    """(n, w) uint64 rows, row i the text '%.17g,' % values[i] padded with
    NUL to the w words of the longest row."""
    values = np.asarray(values, dtype=float).ravel()
    words = np.empty((values.size, _WORDS), dtype=np.uint64)
    _g17_words(values, words)
    texts = [text + b"," for text in
             words.tobytes().translate(None, b"\0").split(b"\n")[:-1]]
    width = -(-max(map(len, texts), default=1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(
        values.size, width)


def _csv_row_writer(fh, heads: np.ndarray):
    """A function write(index, values) that appends to the binary file fh
    the rows heads[index[i]] (NUL-padded text words, as ``_csv_heads``
    gives them) followed by '%.17g' % values[i] and a newline.

    Rows go out a chunk of _CSV_CHUNK_ROWS at a time, one write each,
    through one row buffer allocated with the writer; a chunk's heads are
    gathered by one ``take`` of whole heads, each viewed as one item.
    """
    width = heads.shape[1]
    rows = np.empty((_CSV_CHUNK_ROWS, width + _WORDS), dtype=np.uint64)
    table = np.ascontiguousarray(heads).view(f"V{8 * width}").ravel()
    slots = rows.view([("head", table.dtype),
                       ("text", f"V{8 * _WORDS}")]).ravel()["head"]

    def write(index: np.ndarray, values: np.ndarray) -> None:
        for start in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = values[start:start + _CSV_CHUNK_ROWS]
            size = chunk.size
            slots[:size] = table.take(index[start:start + size])
            _g17_words(chunk, rows[:size, width:])
            fh.write(rows[:size].tobytes().translate(None, b"\0"))
    return write
