"""The exact ``%.17g`` text of numeric CSV columns, computed a block at a time.

``fileio`` sends a table whose columns are all float arrays, or integer
arrays within +-2**53 (there ``%d`` and ``%.17g`` print the same text),
through write_table.  Its bytes are those of ``"%.17g" % v`` for every
cell, but numpy computes them for a block of cells at once.

For x != 0 with decimal exponent E = floor(log10 |x|), %.17g prints the
17-digit integer N = round(|x| * 10**(16 - E)), half to even, laid out by
%g's rules: fixed notation when -4 <= E < 17, with trailing zeros and a
bare point stripped, and d.ddd e+XX otherwise.

* Digits.  E comes from np.log10, so it may be one off next to a power of
  ten.  10**(16 - E) is tabulated as the double-double hi + lo (hi
  correctly rounded, lo the rounded rest).  Dekker's two-product, with hi
  and |x| split exactly into halves of at most 27 bits (numpy has no fma),
  gives |x| * hi exactly as p + e, and |x| * lo is added to e.  p is an
  integer, since |x| * 10**(16 - E) >= 10**16 > 2**53.  The error of
  p + e against |x| * 10**(16 - E) < 2**57 is below 2**-47, about 7e-15:
  lo's own rounding and the product |x| * lo each contribute at most
  2**-106 of the value, 2**-49, and adding |x| * lo to e, which is at most
  ulp(p) / 2 = 8, one rounding of at most 2**-50.
* Rounding.  A fraction above floor(p + e) more than _TIE = 1e-12 from
  1/2 therefore lies on the same side of 1/2 as the exact one, and a
  floor that is one off (the value within 7e-15 of an integer) comes with
  a fraction near 0 or 1 that rounds to the same N.
* Fallback.  A cell is printed by ``%`` instead when its fraction lies
  within _TIE of 1/2 (exact ties included), when the floor is below 10**16
  or N reaches 10**17 (E one off, or the rounding carries into an 18th
  digit; the floor is tested before rounding, so 9.9999999999999996e-39
  does not turn into 1e-38), and when |x| is not in [1e-99, 1e99): three-
  digit exponents, subnormals, inf and nan.  Zero prints as "0" or "-0".
* Layout.  Each cell fills a frame of _FRAME uint64 words holding every
  byte %.17g can print for it at a fixed place:

      bytes  0-5   "-0.000"  sign; "0." and up to three zeros when E < 0
      bytes  6-39  "d.d.d."  the 17 digits of N, each followed by a "."
      bytes 40-47  "e+dd,"   exponent, then the separator ("," or "\\r\\n")

  ANDing the frame with a mask from a table, keyed by the layout, the
  number of digits left once trailing zeros are stripped and the sign,
  turns the bytes the cell does not print into NULs.  The cells of a
  block of rows are formatted together, in row order, so a row is its
  cells' frames side by side, and bytes.translate deletes a block's NULs.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["write_table"]

_FRAME = 6  # uint64 words per cell
_E_MAX = 99  # |E| formatted here; other exponents go to the fallback
_TIE = 1e-12  # rounding fractions this close to 1/2 go to the fallback
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into halves of at most 27 bits


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use.

    Row i of ``hi``, ``lo``, ``hh``, ``hl``, ``code`` and ``exponent`` is
    for E = i - 100, E from -100 to 99 (log10 of |x| in [1e-99, 1e99) may
    read -100).  hi and lo come from integer arithmetic, and hh + hl is hi
    split exactly into 27 and 26 significant bits.  ``lead`` is word 0 of
    a frame by first digit, ``digits`` the word of a 4-digit group by its
    value and ``zeros`` that group's trailing zeros (4 for 0000).  Row c of
    ``mask`` is for c = 34 * layout + 2 * (m - 1) + sign: layout is E + 4
    in fixed notation and 21 in exponent notation, m counts the digits
    left once trailing zeros are stripped, and sign is 1 for a minus.
    ``code`` holds 34 * layout + 32, so c = code - 2 * zeros + sign."""
    exps = np.arange(-_E_MAX - 1, _E_MAX + 1)
    hi, lo = [], []
    for k in (16 - exps).tolist():
        if k >= 0:
            hi.append(float(10**k))  # int to float rounds to nearest
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)  # int / int rounds to nearest
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    frac, exp2 = np.frexp(hi)
    hh = np.ldexp(np.floor(np.ldexp(frac, 27)), exp2 - 27)

    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of 0000-9999
    digits = np.full((10_000, 8), ord("."), np.uint8)
    digits[:, ::2] = quads.T + ord("0")
    exponent = np.zeros((exps.size, 8), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(exps < 0, ord("-"), ord("+"))
    exponent[:, 2] = abs(exps) // 10 + ord("0")
    exponent[:, 3] = abs(exps) % 10 + ord("0")

    grid = np.meshgrid(np.arange(-4, 18), np.arange(1, 18), [0, 1], indexing="ij")
    e, m, sign = (g.reshape(-1, 1) for g in grid)  # e = 17 stands for exponent notation
    fixed = e < 17
    below_one = fixed & (e < 0)
    shown = np.where(fixed, np.maximum(m, e + 1), m)  # digits printed, zeros before a point kept
    point = np.where(fixed, np.where((e >= 0) & (m > e + 1), e, -1), np.where(m > 1, 0, -1))
    mask = np.zeros((e.size, 8 * _FRAME), bool)
    mask[:, :1] = sign
    mask[:, 1:3] = below_one
    mask[:, 3:6] = below_one & (-e - 1 > np.arange(3))
    mask[:, 6:40:2] = np.arange(17) < shown
    mask[:, 7:38:2] = np.arange(16) == point
    mask[:, 40:44] = ~fixed
    mask[:, 44:] = True  # the separator, NUL-padded
    return SimpleNamespace(
        hi=hi,
        lo=np.array(lo),
        hh=hh,
        hl=hi - hh,
        code=34 * np.where((exps >= -4) & (exps < 17), exps + 4, 21) + 32,
        exponent=exponent.view(np.uint64).ravel(),
        lead=np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64),
        digits=digits.view(np.uint64).ravel(),
        zeros=np.cumprod(quads[::-1] == 0, axis=0, dtype=np.uint8).sum(axis=0, dtype=np.uint8),
        mask=(mask * np.uint8(255)).view(np.uint64),
    )


def write_table(fh, columns, block_rows: int, fallback) -> None:
    """Write the rows of equal-length numeric columns to the binary file fh
    as CSV lines, block_rows rows per write call.  ``fallback(v)`` is the
    text of a cell the kernel leaves to ``%``."""
    n, k = len(columns[0]), len(columns)
    rows = min(n, block_rows)
    cells = np.empty((rows, k))  # a block of rows, the kernel's cells in row order
    frames = bytearray(rows * k * 8 * _FRAME)
    words = np.frombuffer(frames, np.uint64).reshape(rows, k, _FRAME)
    ends = [b","] * (k - 1) + [b"\r\n"]  # each column's separator, after its exponent in word 5
    separators = np.frombuffer(b"".join(bytes(4) + end.ljust(4, b"\0") for end in ends), np.uint64)
    for lo in range(0, n, block_rows):
        m = min(n - lo, block_rows)
        for j, c in enumerate(columns):
            cells[:m, j] = c[lo : lo + m]
        _format(cells[:m], words[:m], separators, fallback)
        fh.write(frames[: m * k * 8 * _FRAME].translate(None, b"\0"))


def _format(cells, words, separators, fallback) -> None:
    """Fill the frames ``words[i, j]`` of the float64 cells ``cells[i, j]``
    with their text, NUL bytes in the places it leaves empty, and column
    j's separator from ``separators[j]``."""
    x, words = cells.ravel(), words.reshape(-1, _FRAME)
    t = _tables()
    a = np.abs(x)
    native = (a >= 1e-99) & (a < 1e99)
    zero = a == 0
    np.copyto(a, 1.0, where=~native)
    row = np.floor(np.log10(a)).astype(np.intp)  # E, or one off near a power of ten
    row += _E_MAX + 1
    big, frac = _scaled(a, row, t)
    falls = (big < 10**16) | (np.abs(frac - 0.5) < _TIE)
    big += frac > 0.5
    falls |= (big >= 10**17) | ~(native | zero)
    big[falls | zero] = 0  # E one off, or a carry to 10**17, would overrun t.lead

    groups = []  # N's 4-digit groups, lowest first; big keeps its first digit
    for _ in range(4):
        q = big // 10_000
        groups.append(big - q * 10_000)
        big = q
    words[:, 0] = t.lead[big]
    for j, g in enumerate(reversed(groups)):
        words[:, 1 + j] = t.digits[g]
    words[:, 5] = (t.exponent[row].reshape(cells.shape) | separators).ravel()
    zeros = t.zeros[groups[0]]
    rows = np.flatnonzero(groups[0] == 0)  # trailing zeros run on into the next group
    for g in groups[1:]:
        zeros[rows] += t.zeros[g[rows]]
        rows = rows[g[rows] == 0]
    words &= np.take(t.mask, t.code[row] - 2 * zeros + np.signbit(x), axis=0)

    if falls.any():  # the fallback's text, NUL-padded, in the bytes before the separator
        text = b"".join(fallback(v).encode().ljust(44, b"\0") for v in x[falls].tolist())
        words.view(np.uint8)[falls, :44] = np.frombuffer(text, np.uint8).reshape(-1, 44)


def _scaled(a, row, t):
    """floor(a * 10**(16 - E)) and the fraction above it, E being the
    exponent of table row ``row``."""
    p = a * t.hi[row]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    hh, hl = t.hh[row], t.hl[row]
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    e += a * t.lo[row]
    whole = np.floor(e)
    big = p.astype(np.int64)
    big += whole.astype(np.int64)
    e -= whole
    return big, e
