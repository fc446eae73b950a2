"""CSV text for float64 arrays: every value exactly as ``'%.17g' % v``,
every row head (a phase, a Wigner axis point) as ``repr(v)``.

Python's ``%`` runs Gay's correctly rounded dtoa once per value (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions",
1990), about a microsecond each.  Here a whole array gets its 17
significant digits at once.  With X = floor(log10|v|), the product
y = |v| 10^(16 - X) is formed as a double-double, from a (hi, lo) table
of the powers of ten and Dekker's exact product of two doubles (Dekker,
Numer. Math. 18, 224 (1971)).  Its error is below 2^-47, so rounding y
to the nearest integer D gives the digits of the correctly rounded
result, unless the fraction of y lies within 2^-40 of 1/2.  Those
values, the ones whose log10 estimate is off by one (D <= 10^16: a D of
exactly 10^16 may be y just below it, rounded up) or whose rounding
carries into an 18th digit (D >= 10^17), X <= -280 (where the split
products could leave the normal range), inf and nan go to ``%``
itself; zero is laid out as a D of 0 at X = 0.  So do values of 10 and
up (X >= 1), which neither CSV holds in bulk (every draw and Wigner
value of the default sweep lies inside (-10, 10)): the kernel has no
layout for them.

A value's text and newline fill three 8-byte words (24 bytes, as long
as the longest such line with a 2-digit exponent), or four in a chunk
with a 3-digit exponent or a long text from ``%``.  Digits sit at fixed
places, one raw digit per byte from tables of 4-digit groups: d2..d9
fill word 1 and d10..d16 word 2.  Word 0 comes whole from a table by
layout, sign and d0 d1: it ends in d0.d1 at X = 0, or 0.d0d1 to
0.000d0d1 at X = -1 to -4.  In scientific notation (X <= -5) the digit
words move up four bytes, after a sign and d0.d1 in word 0's first
half, so that e-XX and the newline end word 2.  ORing '0' into
the digit bytes up to the last significant digit makes them text and
leaves the trailing zeros NUL.  Every other byte is NUL too, so deleting
the NULs (``bytearray.translate``) compacts a whole chunk of rows into
its text at once; it costs about 0.5 ns a byte, and more where a row's
padding moves from one row to the next.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

#: rows per formatted block and per write: bounds the temporary rows
#: a writer holds, whatever the array's size (the kernel's scratch is
#: 31 words a row, 1 MB at this size)
_CSV_CHUNK_ROWS = 4096

#: the kernel's exponent range, -_MAX_EXP < X <= 0
_MAX_EXP = 280
#: Veltkamp's constant 2^27 + 1, which splits a double into two halves
#: whose products are exact
_SPLIT = 134217729.0
#: the fraction of y may be off by 2^-47; nearer than this to 1/2 is a tie
_TIE_WINDOW = 2.0 ** -40
#: most 8-byte words a value's text fills
_WORDS = 4
_LEAD_LAYOUTS = 6     # d0.d1, 0.d0 .. 0.000d0, d0.d1 (sci)
_NEWLINE = np.uint64(ord("\n") << 56)


def _word(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


class _Tables(NamedTuple):
    """Lookup tables; the X-indexed ones by X + _MAX_EXP."""

    powers: np.ndarray        # X -> (hi, lo, hi's Veltkamp halves), as V32
    quads: np.ndarray         # 4-digit group -> its digits, one per byte
    quads_up: np.ndarray      # the same in the upper four bytes
    triples_up: np.ndarray    # 3-digit group -> its digits, upper bytes
    kept1: np.ndarray         # last significant digit -> '0' bits, word 1
    kept2: np.ndarray         # the same for word 2
    leads: np.ndarray         # (layout, sign, d0 d1, later digit) -> word 0
    lead_of: np.ndarray       # X -> its layout's first index in leads
    sci_scale: np.ndarray     # X -> 2^32 in scientific notation, else 0
    sci_shift: np.ndarray     # X -> 32 in scientific notation, else 0
    tail2: np.ndarray         # X -> the end of word 2: newline, or e-XX
    tail3: np.ndarray         # X -> word 3: the rest of e-XXX and newline


@cache
def _tables() -> _Tables:
    """The tables, built on first use."""
    # hi + lo = 10^s for s = 16 - X: hi = RN(10^s), lo = RN(10^s - hi),
    # from exact fractions, since int / int division rounds correctly
    hi, lo = [], []
    for s in range(16 + _MAX_EXP, 15, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi.append(num / den)
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(hi)
    t = hi * _SPLIT
    head = t - (t - hi)
    powers = np.stack([hi, lo, head, hi - head], axis=1)
    # a group's digits as raw byte values 0-9, most significant first
    group = np.arange(10_000, dtype=np.uint64)
    quads = np.zeros(group.size, dtype=np.uint64)
    for i, scale in enumerate((1000, 100, 10, 1)):
        quads |= group // np.uint64(scale) % np.uint64(10) << np.uint64(8 * i)
    # ORing '0' into the digit bytes up to the last significant one makes
    # them text and leaves the trailing zeros NUL; indexed by 128 + that
    # digit's byte in word 1, or 136 + its byte in word 2, or 0
    kept = np.zeros((144, 2, 8), dtype=np.uint8)
    for byte in range(8):
        kept[128 + byte, 0, :byte + 1] = ord("0")
        kept[136 + byte, 0] = ord("0")
        kept[136 + byte, 1, :byte + 1] = ord("0")
    kept = kept.view(np.uint64)[..., 0]
    # word 0 ends in the sign and d0 d1 (d0.d1 at X = 0, 0.d0d1 to
    # 0.000d0d1 at X = -1 to -4); in scientific notation its first four
    # bytes hold the sign and d0.d1, and the digit words move up four
    # bytes to meet them; d1 is shown if nonzero or if a later digit is;
    # d0 d1 = 0 at X = 0 is zero's 0
    leads = np.zeros((_LEAD_LAYOUTS, 2, 100, 2), dtype=np.uint64)
    for layout in range(_LEAD_LAYOUTS):
        for neg, sign in enumerate(("", "-")):
            for d01 in range(100):
                d0, d1 = divmod(d01, 10)
                for later in range(2):
                    shown = f"{d1}" if later or d1 else ""
                    if layout in (0, 5):
                        text = f"{d0}.{shown}" if shown else f"{d0}"
                    else:
                        text = "0." + "0" * (layout - 1) + f"{d0}{shown}"
                    leads[layout, neg, d01, later] = _word(
                        (sign + text).rjust(4 if layout == 5 else 8, "\0"))
    xs = np.arange(-_MAX_EXP, 1)
    fixed = xs >= -4
    layouts = np.where(fixed, -xs, 5)
    # 'e' sits at byte 19, after d16; a 3-digit exponent ends in word 3
    tails = [f"\0\0\0\0\0\0\0\n" if f else f"\0\0\0e{x:+03d}\n"
             for x, f in zip(xs.tolist(), fixed.tolist())]
    return _Tables(powers.view("V32").ravel(), quads, quads << np.uint64(32),
                   quads[::10][:1000] << np.uint64(32), kept[:, 0].copy(),
                   kept[:, 1].copy(), leads.ravel(), layouts * leads[0].size,
                   np.where(fixed, 0, 2 ** 32).astype(np.uint64),
                   np.where(fixed, 0, 32).astype(np.uint64),
                   np.array([_word(t[:8]) for t in tails], dtype=np.uint64),
                   np.array([_word(t[8:]) for t in tails], dtype=np.uint64))


class _Scratch(NamedTuple):
    """The kernel's temporaries for a chunk, one row of its own per role."""

    rows: np.ndarray      # V32: a value's table row, hi lo head tail below
    hi: np.ndarray
    lo: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    a: np.ndarray         # |v|
    e: np.ndarray         # X, then X + _MAX_EXP, as a double
    p: np.ndarray         # a hi, rounded
    t: np.ndarray         # a times Veltkamp's constant
    a1: np.ndarray        # a's Veltkamp halves
    a2: np.ndarray
    err: np.ndarray       # y - p, then the fraction of y after rounding
    term: np.ndarray      # a product term of err or a test, used at once
    r: np.ndarray         # err rounded to an integer
    top: np.ndarray       # w1 or w2 as a double, w2 scaled past w1
    x: np.ndarray         # int64: X + _MAX_EXP
    d: np.ndarray         # D, later what is left of it below d0 d1
    ri: np.ndarray        # r as an integer
    d01: np.ndarray       # d0 d1
    high: np.ndarray      # d2..d9, then d6..d9
    low: np.ndarray       # d10..d16, then d14..d16
    group: np.ndarray     # a digit group's upper digits
    prod: np.ndarray      # an integer product or difference, used at once
    kept: np.ndarray      # the last significant digit's kept-table index
    lead: np.ndarray      # index of word 0 in the leads table
    w1: np.ndarray        # uint64: d2..d9, later as text
    w2: np.ndarray        # d10..d16
    word0: np.ndarray     # word 0
    wt: np.ndarray        # a gathered table word, used at once
    scale: np.ndarray     # 2^32 in scientific notation, else 0
    shift: np.ndarray     # 32 in scientific notation, else 0
    moved: np.ndarray     # a digit word moved up four bytes
    good: np.ndarray      # bool: formed here
    flag: np.ndarray      # bool: a row test


class _G17:
    """The kernel over chunks of at most ``size`` values.

    ``load(values)`` forms each value's digits and returns the words per
    value the chunk needs (3, or 4 with a 3-digit exponent or a long text
    from ``%``); ``emit(out)`` then writes the text into ``out``, a
    (n, words) uint64 array whose rows may be strided.  Every temporary
    has a scratch row of its own (31 words a value), allocated with the
    kernel, as chunk-sized temporaries allocated afresh page-fault on
    every chunk.
    """

    def __init__(self, size: int):
        self.size = size
        size = max(size, 1)
        self._rows = np.empty(size, dtype="V32")
        self._floats = np.empty((10, size))
        self._ints = np.empty((10, size), dtype=np.int64)
        self._words = np.empty((7, size), dtype=np.uint64)
        self._flags = np.empty((2, size), dtype=bool)
        self._n = None

    def _scratch(self, n: int) -> _Scratch:
        """The scratch cut to n values, cut once per length."""
        if n != self._n:
            self._n = n
            rows = self._rows[:n]
            self._cut = _Scratch(rows, *rows.view(np.float64).reshape(n, 4).T,
                                 *self._floats[:, :n], *self._ints[:, :n],
                                 *self._words[:, :n], *self._flags[:, :n])
        return self._cut

    def load(self, values: np.ndarray) -> int:
        self._values = v = values
        tab = _tables()
        s = self._scratch(v.size)
        a, e, x, d = s.a, s.e, s.x, s.d
        np.abs(v, out=a)
        with np.errstate(all="ignore"):
            np.floor(np.log10(a, out=e), out=e)
            # the chunk's range of X; a zero or a nan takes it out of
            # every range tested below
            least, most = e.min(), e.max()
            # 0, inf and nan cast to garbage: the clipped takes keep it in
            # range, and the checks below sort them out
            e += _MAX_EXP
            np.copyto(x, e, casting="unsafe")
            tab.powers.take(x, out=s.rows, mode="clip")
            # y = a (hi + lo) = p + err, with a hi = p + (its rounding
            # error) exactly by Dekker's product
            np.multiply(a, s.hi, out=s.p)
            np.multiply(a, _SPLIT, out=s.t)
            np.subtract(s.t, np.subtract(s.t, a, out=s.a1), out=s.a1)
            np.subtract(a, s.a1, out=s.a2)
            err = np.multiply(s.a1, s.head, out=s.err)
            err -= s.p
            err += np.multiply(s.a2, s.head, out=s.term)
            err += np.multiply(s.a1, s.tail, out=s.term)
            err += np.multiply(s.a2, s.tail, out=s.term)
            # lo is 0 where 10^(16 - X) is a double, X in [-6, 0]
            if not -6 <= least:
                err += np.multiply(a, s.lo, out=s.term)
            np.rint(err, out=s.r)
            np.copyto(d, s.p, casting="unsafe")
            np.copyto(s.ri, s.r, casting="unsafe")
            d += s.ri
            err -= s.r
            # X one too high leaves y below 10^16, or rounds it up to
            # 10^16; one too low, or a rounding that carries into an 18th
            # digit, takes D to 10^17; and a fraction of y within the
            # window of 1/2 is a tie
            if (-_MAX_EXP < least and most < 1
                    and 10 ** 16 < d.min() and d.max() < 10 ** 17
                    and -0.5 + _TIE_WINDOW <= err.min()
                    and err.max() <= 0.5 - _TIE_WINDOW):
                slow = []
            else:
                good, flag = s.good, s.flag
                np.greater(e, 0, out=good)
                good &= np.less(e, _MAX_EXP + 1, out=flag)
                good &= np.less_equal(np.abs(err, out=err),
                                      0.5 - _TIE_WINDOW, out=flag)
                np.subtract(d, 10 ** 16 + 1, out=s.prod)
                good &= np.less(s.prod.view(np.uint64), 9 * 10 ** 16 - 1,
                                out=flag)
                # the rest are laid out at X = 0: a zero's D is 0 (its
                # table row is finite), so word 0 reads 0 or -0, and the
                # others go to %
                bad = np.logical_not(good, out=flag)
                np.copyto(x, _MAX_EXP, where=bad)
                bad &= np.not_equal(a, 0.0, out=good)
                slow = np.flatnonzero(bad).tolist()
                d[slow] = 10 ** 16
                least = x.min() - _MAX_EXP
        self._lines = [(i, ("%.17g\n" % v[i]).encode()) for i in slow]

        # 17 digits in three groups: d0 d1, d2..d9 and d10..d16
        d01, high, low, group, prod = s.d01, s.high, s.low, s.group, s.prod
        u = d.view(np.uint64)
        np.floor_divide(u, 10 ** 15, out=d01.view(np.uint64))
        u -= np.multiply(d01, 10 ** 15, out=prod).view(np.uint64)
        np.floor_divide(u, 10 ** 7, out=high.view(np.uint64))
        np.subtract(d, np.multiply(high, 10 ** 7, out=prod), out=low)
        np.floor_divide(high.view(np.uint64), 10 ** 4,
                        out=group.view(np.uint64))
        w1 = tab.quads.take(group, out=s.w1, mode="clip")
        high -= np.multiply(group, 10 ** 4, out=prod)
        w1 |= tab.quads_up.take(high, out=s.wt, mode="clip")
        np.floor_divide(low.view(np.uint64), 1000, out=group.view(np.uint64))
        w2 = tab.quads.take(group, out=s.w2, mode="clip")
        low -= np.multiply(group, 1000, out=prod)
        w2 |= tab.triples_up.take(low, out=s.wt, mode="clip")
        # the last significant digit among d2..d16 is the top nonzero byte
        # of w2, else of w1, read off the exponent of the words as doubles
        # (w2 scaled past w1): 128 + its byte in w1, 136 + in w2, or 0
        top = s.top
        np.copyto(top, w2, casting="unsafe")
        top *= 2.0 ** 64
        np.maximum(top, w1, out=top)
        top *= 2.0
        np.right_shift(top.view(np.int64), 55, out=s.kept)
        self._sci = not -4 <= least
        # a 3-digit exponent, or a long text from %, takes a fourth word
        return 4 if not -99 <= least or any(
            len(line) > 24 for _, line in self._lines) else 3

    def emit(self, out: np.ndarray) -> None:
        v = self._values
        tab = _tables()
        s = self._scratch(v.size)
        x, w1, w2 = s.x, s.w1, s.w2
        # word 0 by (layout, sign, d0 d1, a later digit shown)
        lead = tab.lead_of.take(x, out=s.lead, mode="clip")
        lead += np.multiply(np.signbit(v, out=s.flag), 200, out=s.prod)
        lead += np.multiply(s.d01, 2, out=s.prod)
        lead += np.greater(s.kept, 0, out=s.flag)
        word0 = tab.leads.take(lead, out=s.word0, mode="clip")
        w1 |= tab.kept1.take(s.kept, out=s.wt, mode="clip")
        w2 |= tab.kept2.take(s.kept, out=s.wt, mode="clip")
        if not self._sci:
            out[:, 0] = word0
            out[:, 1] = w1
            np.bitwise_or(w2, _NEWLINE, out=out[:, 2])
        else:
            # in scientific notation the digit words move up four bytes
            scale = tab.sci_scale.take(x, out=s.scale, mode="clip")
            shift = tab.sci_shift.take(x, out=s.shift, mode="clip")
            np.bitwise_or(word0, np.multiply(w1, scale, out=s.moved),
                          out=out[:, 0])
            np.bitwise_or(np.right_shift(w1, shift, out=w1),
                          np.multiply(w2, scale, out=s.moved), out=out[:, 1])
            np.bitwise_or(np.right_shift(w2, shift, out=w2),
                          tab.tail2.take(x, out=s.wt, mode="clip"),
                          out=out[:, 2])
        if out.shape[1] == 4:
            out[:, 3] = tab.tail3.take(x, out=s.wt, mode="clip")
        _write_lines(out, self._lines)


def _write_lines(out: np.ndarray, lines) -> None:
    """Put each (row, text) of lines into its row of out, NUL-padded."""
    text = out.view(np.uint8)
    for i, line in lines:
        text[i] = 0
        text[i, :len(line)] = np.frombuffer(line, dtype=np.uint8)


def _csv_heads(values) -> np.ndarray:
    """(n, w) uint64 rows, row i the text repr(values[i]) + ',' padded with
    NUL to the w words of the longest row: the shortest text that reads
    back as the same double: -0.0 stays -0.0, and -5.94 takes five
    characters where %.17g gives -5.9400000000000004."""
    texts = [f"{v!r},".encode()
             for v in np.asarray(values, dtype=float).ravel().tolist()]
    width = -(-max(map(len, texts), default=1) // 8)
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(
        len(texts), width)


def _csv_row_writer(fh, *heads: np.ndarray):
    """A function write(values, *index) that appends to the binary file fh
    the rows heads[0][index[0][i]], heads[1][index[1][i]], ... (NUL-padded
    text words, as ``_csv_heads`` gives them) followed by '%.17g' %
    values[i] and a newline.

    Rows go out a chunk of _CSV_CHUNK_ROWS at a time, one write each,
    through one row buffer and one kernel, both sized at the first write
    for at most a chunk of rows; each head of a chunk is gathered by one
    ``take`` of whole heads, each viewed as one item.
    """
    tables = [np.ascontiguousarray(h).view(f"V{8 * h.shape[1]}").ravel()
              for h in heads]
    # where each head starts in a row, and where the value text starts
    cuts = [0, *accumulate(h.shape[1] for h in heads)]
    width = cuts[-1]
    kernel, buffer = _G17(0), np.empty(0, dtype=np.uint64)

    def write(values: np.ndarray, *index: np.ndarray) -> None:
        nonlocal kernel, buffer
        size = min(len(values), _CSV_CHUNK_ROWS)
        if kernel.size < size:
            kernel = _G17(size)
            buffer = np.empty(size * (width + _WORDS), dtype=np.uint64)
        for start in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = values[start:start + _CSV_CHUNK_ROWS]
            size = chunk.size
            words = kernel.load(chunk)
            rows = buffer[:size * (width + words)].reshape(size, -1)
            for table, at, to, rows_of in zip(tables, cuts, cuts[1:], index):
                rows[:, at:to].view(table.dtype)[:, 0] = table.take(
                    rows_of[start:start + size])
            kernel.emit(rows[:, width:])
            # bytearray's translate loop is leaner than bytes'
            fh.write(bytearray(rows).translate(None, b"\0"))
    return write
