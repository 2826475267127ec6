"""The text of ``solution.csv``: every float as ``"%.17g" % x``, bit for bit, in numpy.

``format_block(values, counts)`` returns the text of the rows ``values[i]``
followed by ``counts[i]``, comma-separated, each row ending in a newline.
Each float prints as ``"%.17g" % x`` and each count as ``"%d" % n``.

CPython formats a float with the correctly rounded dtoa of Gay (1990), one
value at a time; seventeen digits are past its fast path. Here the digits
come from whole-array operations. With ``k = floor(log10 |x|)``, the product
``y = |x| 10^(16-k)`` lies in ``[1e16, 1e17)``; it is computed as a
double-double, Dekker's (1971) exact split product of ``|x|`` against
``10^(16-k)`` stored as a pair ``(hi, lo)``. Its error is below ``2^-100 y``,
under 1e-13, so ``N = round(y)`` is the correctly rounded 17-digit
significand wherever the fraction of ``y`` is not within 1e-6 of one half
and ``y`` is not within 64 of 1e16 or 1e17. Every other value gets Python's
own ``%.17g`` (``%d`` for a count) in the same record slot: ties, values
near those boundaries, ``|x|`` outside ``[2^-128, 2^128)`` (about
``[2.9e-39, 3.4e38]``), ``inf`` and ``nan``. Exactness rests on that error
bound alone. A block of fewer than ``_CROSSOVER`` fields takes that
per-value path for every field: there the fixed cost of the array
operations is larger than what they save.

Each field is written into a record of four little-endian 64-bit words
(``_WIDTH`` bytes) padded with NUL bytes, and one ``bytearray.translate``
over the block drops the padding. A float's record holds the sign and the
``0.000`` of the fixed form below 1 (bytes 0-5), its 17 digits with a
placeholder zero inserted where the point goes (bytes 6-23), the ``e±XX``
of the exponent form (bytes 24-27) and the separator (byte 31). The
placeholder becomes the point (``'0' - 2 == '.'``); the trailing zeros of
the fraction, and the point when no fraction digit is left, are masked
off by a digit count. A count's record holds its digits right-aligned in
bytes 4-23, with its leading zeros masked off.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_block"]

_CROSSOVER = 256            # fields per block below which every field is formatted by Python;
                            # the two paths cost the same at 150-300 fields on a 2-vCPU host
_WIDTH = 32                 # bytes per record
_E0 = -40                   # the tables cover the decades k = _E0 .. -_E0
_TINY, _HUGE = 2.0 ** -128, 2.0 ** 128      # the fast range, |x| in [_TINY, _HUGE)
_Y_LO, _Y_HI = 1e16 + 64, 1e17 - 64         # a product y outside these is not certified
_SPLIT = 134217729.0        # 2^27 + 1, Dekker's splitter for doubles
_ZEROS = 0x3030303030303030                 # eight ASCII '0'
_WORD = np.dtype("<u8")


# The tables are built from Python ints and floats and converted to arrays once:
# a numpy loop that a process runs for the first time costs it resident memory
# (up to 0.2 MB each, measured), and import-time loops would be paid by every run.

def _word(text) -> int:
    """Eight bytes as the value of a little-endian 64-bit word: byte ``b`` in bits
    ``8b..8b+7``."""
    return int.from_bytes(bytes(text), "little")


def _pow10_pair(e):
    """``10^e`` as a double-double ``(hi, lo)``, both correctly rounded: ``hi`` the double
    nearest ``10^e``, ``lo`` the double nearest the rest, from exact integer arithmetic
    through ``float.as_integer_ratio``."""
    num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
    hi = num / den                   # int / int: correctly rounded
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(s):
    """Dekker's split of the double ``s`` into two halves of at most 26 bits each."""
    c = s * _SPLIT
    hi = c - (c - s)
    return hi, s - hi


def _digit_table():
    """``"%04d" % g`` for ``g`` in 0..9999, in the low four bytes of a word each."""
    text = np.zeros((10,) * 4 + (8,), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    for place in range(4):                          # thousands, hundreds, tens, units
        text[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    return text.reshape(10000, 8).view(_WORD)[:, 0]


def _decade(k):
    """For the decade ``k`` of ``|x|``: what words 0-2 of its records add to the digits
    (the ``0.000`` below one, and the point), word 3 (exponent and separator), the
    digits the fixed form always keeps, and the divisor that splits off the fraction
    digits."""
    fixed = -4 <= k < 17
    q = (16 if k < 0 else k) if fixed else 0         # the point follows significand digit q
    head = bytearray(24)                             # sign slot and 0.000
    if fixed and k < 0:
        head[1:2 - k] = b"0." + b"0" * (-k - 1)
    words = [_word(head[8 * w:8 * w + 8]) for w in range(3)]
    # the placeholder of the point sits at record byte 7 + q, and '0' - 2 is '.'
    w, b = divmod(7 + q, 8)
    words[w] = (words[w] - (2 << 8 * b)) % 2 ** 64
    tail = b"" if fixed else b"e%+03d" % k
    floor = k if fixed and k >= 0 else 0             # integer digits of the fixed form
    return words, _word(tail.ljust(7, b"\0") + b","), floor, 10 ** (16 - q)


def _decade_tables():
    """``_decade`` of every decade the fast path covers, as arrays by decade."""
    words, tails, floors, divs = zip(*map(_decade, _DECADES))
    return (np.array(words, dtype=np.uint64).T.copy(), np.array(tails, dtype=np.uint64),
            np.array(floors), np.array(divs))


_DECADES = range(_E0, -_E0 + 1)
_NEXT = np.array([_pow10_pair(k + 1)[0] for k in _DECADES])     # the double nearest 10^(k+1)
_SCALE, _SCALE_LO = np.array([_pow10_pair(16 - k) for k in _DECADES]).T    # 10^(16-k)
_SCALE_HI, _SCALE_MID = np.array([_split(s) for s in _SCALE.tolist()]).T
_DIGITS = _digit_table()
_LAYOUT, _TAIL, _FLOOR, _DIV = _decade_tables()
# _KEEP[w][c]: the mask of word w that keeps the first c bytes of words 0-2
_KEEP = np.array([[_word(b"\xff" * min(max(c - 8 * w, 0), 8) + b"\0" * 8)
                   for c in range(25)] for w in range(3)], dtype=np.uint64)
_NEWLINE = _word(b"\0" * 7 + b"\n")
# Python's own text of a field, NUL-padded up to its separator
_FLOAT_RECORD = "{:\0<%d.17g}," % (_WIDTH - 1)
_COUNT_RECORD = "{:\0<%dd}\n" % (_WIDTH - 1)
_POW10 = np.array([10 ** p for p in range(1, 19)])


def _sixteen_digits(r):
    """The 16 digits of ``r < 10^16`` (overwritten), zero-padded, as two words of 8 bytes."""
    hi = r // 10 ** 8
    r -= hi * 10 ** 8
    words = []
    for half in (hi, r):
        top = half // 10 ** 4
        half -= top * 10 ** 4
        word = _DIGITS[half]
        word <<= 32
        word |= _DIGITS[top]
        words.append(word)
    return words


def _float_words(block):
    """Words 0-3 of the records of the floats ``block``, and where they are exact.

    The few arrays alive at a time are updated in place where they can be, so
    that the block's working memory stays small and in cache.
    """
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= _TINY) & (a < _HUGE)               # no zero, inf or nan
    zero = a == 0
    a[~fast] = 1.0
    # the decade k = floor(log10 a), as the index i = k - _E0: floor(e log10 2) for
    # the binary exponent e, or one more. A value within half an ulp of a power of
    # ten may still be a decade off; its y is then within 11 of 1e16 or 1e17 and is
    # not certified below.
    i = a.view(np.int64) >> 52
    i -= 1023
    i *= 78913
    i >>= 18
    i -= _E0
    i += a >= _NEXT[i]
    # y = a 10^(16-k) = yh + yl: Dekker's exact product of a with the high part of
    # the scale, ((ah sh - yh) + ah sm + al sh) + al sm, plus a times its low part
    yh = _SCALE[i]
    yh *= a
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    yl = ah * _SCALE_HI[i]
    yl -= yh
    mid = _SCALE_MID[i]
    ah *= mid
    yl += ah
    np.multiply(al, _SCALE_HI[i], out=ah)
    yl += ah
    al *= mid
    yl += al
    a *= _SCALE_LO[i]
    yl += a
    del a, ah, al, mid
    r = np.rint(yl)                      # yh >= 2^53 is an integer
    yl -= r
    ok = np.abs(yl, out=yl) < 0.5 - 1e-6
    ok &= fast
    ok &= yh >= _Y_LO
    ok &= yh <= _Y_HI
    ok |= zero
    del yl
    n = yh.astype(np.int64)
    n += r.astype(np.int64)
    del yh, r
    # the 17 digits with a zero inserted after digit q: 10 n - 9 (n mod 10^(16-q))
    div = _DIV[i]
    frac = n // div
    frac *= div
    frac -= n
    frac *= 9
    n *= 10
    n += frac
    top = np.floor_divide(n, 10 ** 16, out=div)     # the first two of these 18 digits
    np.multiply(top, 10 ** 16, out=frac)
    n -= frac
    del frac
    w1, w2 = _sixteen_digits(n)
    del n
    w0 = _DIGITS[top]
    del top
    w0 >>= 16
    w0 ^= 0x3030
    # the last nonzero of the 18 digits (the placeholder is a zero) is the highest
    # nonzero byte of the digits less '0': w0 holds digits 0-1, w1 2-9 and w2 10-17.
    # A nonzero byte is below 10, so summed as floats at their byte offsets, the
    # exponent of the sum names that byte.
    v = (w2 ^ _ZEROS).astype(np.float64)
    v *= 2.0 ** 80
    v += (w1 ^ _ZEROS).astype(np.float64) * 2.0 ** 16
    v += w0
    keep = np.frexp(v)[1].astype(np.intp)
    del v
    keep -= 1
    keep >>= 3
    np.maximum(keep, _FLOOR[i], out=keep)
    keep += 7                            # bytes of words 0-2 kept
    keep[zero] = 2                       # a zero keeps its sign and "0"
    w0 ^= 0x3030                         # back to ASCII, into bytes 6-7
    w0 <<= 48
    w0 |= zero * np.uint64(0x3000)
    w0 |= np.signbit(x) * np.uint64(ord("-"))
    for w, word in enumerate((w0, w1, w2)):
        word += _LAYOUT[w][i]
        word &= _KEEP[w][keep]
    return [w.reshape(block.shape) for w in (w0, w1, w2, _TAIL[i])], ok.reshape(block.shape)


def _count_words(n):
    """Words 0-3 of the records of the counts ``n``, and where they are exact (the
    non-negative ones)."""
    m = np.maximum(n, 0)
    cut = 23 - np.searchsorted(_POW10, m, side="right")     # bytes before the first digit
    top = m // 10 ** 16
    m -= top * 10 ** 16
    v0 = _DIGITS[top]
    v0 <<= 32
    words = [v0] + _sixteen_digits(m)
    for w, word in enumerate(words):
        word &= ~_KEEP[w][cut]
    return words + [_NEWLINE], n >= 0


def format_block(values, counts) -> bytearray:
    """The rows ``values[i], counts[i]`` as ``%.17g`` and ``%d`` text, comma-separated,
    one newline-terminated line per row."""
    values = np.ascontiguousarray(values, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    rows, cols = values.shape
    if values.size + counts.size < _CROSSOVER:          # every field by Python
        fields = [v for row, n in zip(values.tolist(), counts.tolist()) for v in (*row, n)]
        text = ((_FLOAT_RECORD * cols + _COUNT_RECORD) * rows).format(*fields)
        return bytearray(text.encode()).translate(None, b"\0")
    float_words, done = _float_words(values)
    count_words, counted = _count_words(counts)
    # the records, in a buffer that translate compacts without a copy of its own
    buf = bytearray(rows * (cols + 1) * _WIDTH)
    rec = np.frombuffer(buf, dtype=_WORD).reshape(rows, cols + 1, _WIDTH // 8)
    floats, ints = rec[:, :cols], rec[:, cols]
    for w in range(_WIDTH // 8):
        floats[..., w] = float_words[w]
        ints[:, w] = count_words[w]
    del float_words, count_words
    _fallback(floats, values, done, _FLOAT_RECORD)
    _fallback(ints, counts, counted, _COUNT_RECORD)
    return buf.translate(None, b"\0")


def _fallback(rec, values, done, template):
    """Write the records ``template.format(v)`` of the values not ``done``."""
    where = np.nonzero(~done)
    if where[0].size:
        text = (template * where[0].size).format(*values[where].tolist()).encode()
        rec[where] = np.frombuffer(text, dtype=_WORD).reshape(-1, _WIDTH // 8)
