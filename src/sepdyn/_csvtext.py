"""CSV text of a float64 table, byte for byte what ``format(v, ".17g")`` gives.

``csv_rows`` writes every cell of a (rows, cols) block as ``%.17g``, cells
joined by ``,`` and rows ended by ``\\n``. CPython's ``%.17g`` (Gay's
correctly rounded dtoa) costs 600-950 ns a cell; here a block of cells is
converted at once in numpy.

Digits. With X = floor(log10 |v|), the 17 significant digits of |v| are
N = round(y), y = |v| * 10^(16 - X), an integer in [10^16, 10^17). 10^k is
held as a double-double hi + lo (``_pow10``, exact integer arithmetic,
once per exponent seen). Dekker's two-product splits |v| * hi into the
double p and its exact error e; p >= 10^16 > 2^53 is integer-valued, so
N = p + rint(r) with the remainder r = e + |v| * lo. The computed r is
within 4.3e-15 of y - p: 1.3e-15 from hi + lo against 10^k, 1.3e-15 from
rounding |v| * lo and 1.8e-15 from rounding the sum (|r| < 32).

Certificate. A cell keeps this N when its fraction f = r - rint(r) lies
farther than ``_BOUND`` = 1e-14 from 1/2 (so N is the unique nearest
integer to y, never a tie) and either 10^16 < N < 10^17 (so X was right
and no 17-digit carry changes it) or N = 10^16 with f > -0.05 + _BOUND
(exact powers of ten such as 1.0: if y < 10^16, X is one too large, but
10 y > 10^17 - 1/2 rounds to the same digits). Every other cell is
formatted by ``"%.17g" % v`` on its own: zeros, non-finite values, |v|
outside [1e-280, 1e280) (where a Dekker split or the low part of 10^k
would overflow or lose bits), and the few cells whose y lies within the
bound of a half-integer, rounds to 10^17, or lies just below 10^16.

Layout. The digits of a cell are five 4-byte chunks from a table of the
10^4 four-digit strings, a 20-byte record. Cells are sorted by the small
key (X, kept digits) with one stable radix argsort; in the sorted order
each group is one slice that takes a fixed template (decimal point,
leading zeros, exponent) and fixed digit columns. The 25-byte text records
(sign, at most 23 text bytes, separator; unused bytes 0) go back to cell
order as whole rows, and one boolean compress of the nonzero bytes leaves
the text.

Memory. Every cell-sized temporary is freed, or overwritten in place, as
soon as it is read for the last time. A block of n cells holds at most
about 73 n bytes beyond its input: nine 8-byte arrays at once in
``_round17``'s two-product, and in the final compress the text records,
their mask and the text.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# |v| in [_LOW, _HIGH): 10^(16 - X) and its low part are normal and
# finite, and neither Dekker split overflows.
_LOW, _HIGH = 1e-280, 1e280
_XMIN = -281  # at most floor(log10 |v|) of every cell in range
_KEYS = 18  # sort keys per exponent: kept digits 1..17
_FALLBACK_KEY = 0xFFFF  # sorts after every (X, K) key
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_BOUND = 1e-14  # above the 4.3e-15 error of the remainder
_RECORD = 25  # text bytes per cell: the sign, 23 text bytes and the separator
_SEPARATOR = _RECORD - 1
_E16, _E17 = 10**16, 10**17


@cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of 0..9999 as one uint32 each, and their kept digits.

    A chunk keeps its digits up to its last nonzero one; 0000 keeps none and
    reads -64, so it never wins a maximum.
    """
    values = np.arange(10**4, dtype=np.int16)  # small types keep the build's memory small
    digits = np.stack([values // 1000, values // 100 % 10, values // 10 % 10, values % 10], 1)
    text = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    kept = np.full(10**4, -64, dtype=np.int8)
    for length in range(1, 5):  # most trailing zeros first
        kept[(values % 10 ** (4 - length) == 0) & (kept < 0) & (values > 0)] = length
    return text, kept


@cache
def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi the nearest double, lo the nearest double to the rest."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10**-k
    hi = 1 / den  # int true division rounds correctly
    num, two_power = hi.as_integer_ratio()
    return hi, (two_power - num * den) / (two_power * den)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into two 26-bit halves, x = high + low exactly."""
    high = x * _SPLIT
    low = high - x
    high -= low  # c - (c - x)
    np.subtract(x, high, out=low)
    return high, low


def _round17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent X, 17-digit integer N and certificate of |v| = ``a``.

    ``a`` must lie in [_LOW, _HIGH). The certificate is False where the cell
    must be formatted by ``%.17g`` itself.
    """
    X = np.log10(a)
    np.floor(X, out=X)
    X = X.astype(np.int64)
    low_x = int(X.min())
    his, los = np.array([_pow10(16 - x) for x in range(low_x, int(X.max()) + 1)]).T
    index = X - low_x
    p = a * his[index]
    r = a * los[index]  # |v| lo, the last term of the remainder
    hi_high, hi_low = (half[index] for half in _split(his))
    del index
    a_high, a_low = _split(a)
    # e = ((a_high hi_high - p) + a_high hi_low + a_low hi_high) + a_low hi_low,
    # each product formed over a factor that is not read again.
    e = a_high * hi_high
    e -= p
    e += np.multiply(a_high, hi_low, out=a_high)
    e += np.multiply(a_low, hi_high, out=hi_high)
    e += np.multiply(a_low, hi_low, out=hi_low)
    del a_high, a_low, hi_high, hi_low
    r += e  # r = e + |v| lo
    del e
    whole = np.rint(r)
    N = p.astype(np.int64)
    del p
    N += whole.astype(np.int64)
    fraction = r
    fraction -= whole
    del r, whole
    certified = ((np.abs(fraction) < 0.5 - _BOUND) & (N < _E17)
                 & ((N > _E16) | ((N == _E16) & (fraction > _BOUND - 0.05))))
    return X, N, certified


def _digit_records(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kept digits K and digit records of 17-digit integers N.

    Row i of the (n, 20) uint8 records holds the digits of N[i] at bytes
    3..19; K counts them up to the last nonzero one.
    """
    top = N // 10**8  # nine digits, then eight
    low = (N - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**8
    mid = top - lead * 10**8
    del top
    high_chunk, low_chunk = mid // 10**4, low // 10**4
    chunks = [lead, high_chunk, mid - high_chunk * 10**4, low_chunk, low - low_chunk * 10**4]
    del mid, low
    text, kept = _chunk_tables()
    records = np.empty((N.size, len(chunks)), dtype=np.uint32)
    for j, chunk in enumerate(chunks):
        records[:, j] = text[chunk]
    K = 13 + kept[chunks[4]]
    short = np.flatnonzero(chunks[4] == 0)  # the last four digits are zeros
    if short.size:
        K[short] = np.maximum.reduce([np.ones(short.size, dtype=K.dtype)] + [
            offset + kept[chunk[short]] for offset, chunk in zip((1, 5, 9), chunks[1:4])])
    return K, records.view(np.uint8)


@cache
def _layout(X: int, K: int) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...]]:
    """The text template of a cell with exponent X and K kept digits.

    Returns the template bytes and its digit runs (start in the text, first
    digit, length); the template holds ``d`` where a run writes.
    """
    if -4 <= X < 17:
        if X >= 0:
            runs = ((0, 0, X + 1),) if K <= X + 1 else ((0, 0, X + 1), (X + 2, X + 1, K - X - 1))
            text = "d" * (X + 1) + ("." + "d" * (K - X - 1) if K > X + 1 else "")
        else:
            text = "0." + "0" * (-X - 1) + "d" * K
            runs = ((1 - X, 0, K),)
    else:
        exponent = f"e{'-' if X < 0 else '+'}{abs(X):02d}"
        text = "d" + ("." + "d" * (K - 1) if K > 1 else "") + exponent
        runs = ((0, 0, 1), (2, 1, K - 1)) if K > 1 else ((0, 0, 1),)
    return np.frombuffer(text.encode(), dtype=np.uint8), runs


def csv_rows(block: np.ndarray) -> np.ndarray:
    """The CSV lines of a non-empty (rows, cols) float64 block, as uint8 bytes.

    Byte for byte ``"".join(",".join(format(v, ".17g") for v in row) + "\\n"
    for row in block)``.
    """
    rows, cols = block.shape
    values = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n = values.size
    a = np.abs(values)
    fast = (a >= _LOW) & (a < _HIGH)
    a[~fast] = 1.0
    X, N, certified = _round17(a)
    del a
    fast &= certified
    del certified
    K, digits = _digit_records(N)
    del N
    digits[:, 0] = np.signbit(values).view(np.uint8) * ord("-")
    key = ((X - _XMIN) * _KEYS + K).astype(np.uint16)
    del X, K
    key[~fast] = _FALLBACK_KEY
    del fast
    order = np.argsort(key, kind="stable")
    key = key[order]
    digits = np.take(digits, order, axis=0)  # rebound, so the unsorted rows are freed

    text = np.zeros((n, _RECORD), dtype=np.uint8)
    text[:, 0] = digits[:, 0]
    starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1), n]
    for start, stop in zip(starts[:-1], starts[1:]):
        group = int(key[start])
        if group == _FALLBACK_KEY:  # each text from byte 0, over the sign
            for i in range(start, stop):
                cell = ("%.17g" % values[order[i]]).encode()
                text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
            continue
        template, runs = _layout(group // _KEYS + _XMIN, group % _KEYS)
        text[start:stop, 1 : 1 + template.size] = template
        for at, first, length in runs:
            text[start:stop, 1 + at : 1 + at + length] = digits[start:stop, 3 + first : 3 + first + length]

    del digits, key
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    del order
    text = np.take(text, inverse, axis=0)
    del inverse
    separators = np.full(cols, ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    text.reshape(rows, cols, _RECORD)[:, :, _SEPARATOR] = separators
    return text[text != 0]
