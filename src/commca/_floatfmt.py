"""Shortest round-trip formatting of float64 arrays, byte for byte as repr.

shortest_repr(values)[i] equals repr(float(values[i])).encode() for every
float64, NaN, infinities, subnormals and signed zeros included, computed with
numpy integer arithmetic on a chunk of values at a time.

Digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; cf. U. Adams, "Ryu: fast float-to-string conversion", PLDI
2018), as in the Java reference implementation: for v = c * 2^q it scales the
rounding interval's bounds by a 126-bit approximation g of 10^-k and keeps the
shortest decimal inside the interval that lies closest to v, ties to an even
digit.  Two changes make it shortest always, not just at two digits or more:
the subnormal branch that multiplies tiny significands by ten is dropped, and
the one-digit-shorter candidate is tried from s >= 10 on, not s >= 100.
The reference multiplies each of v and its two bounds by g, three 128-bit
products of two words each; here g's two words times v's scaled
significand are formed once as full products, on 32-bit limbs, and each
bound's products are those plus or minus g shifted left by one power of
two, a shifted add on each word with a carry or borrow between them.
The string follows CPython's 'r' format: positional when the decimal point
position lies in -3..16 (".0" added to integral values), otherwise
d[.ddd]e+XX with at least two exponent digits; "-" for a set sign bit, and
"inf", "-inf" and "nan" (any NaN payload or sign).
"""

from __future__ import annotations

import functools

import numpy as np

# Values formatted at once (as many as the trace writer's block of cells), so
# that each temporary array stays near 100 KB however many values there are.
_CHUNK = 4096

_DIGITS = 17  # a double's shortest decimal has at most 17 digits
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW52 = np.uint64((1 << 52) - 1)
_LOW63 = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF << 52)
_K_MIN, _K_MAX = -324, 292  # the range of k = floor(log10(v's interval))
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.uint64)  # 10^0 .. 10^16


def _columns(texts: list[bytes]) -> np.ndarray:
    """Strings of at most 24 bytes as the columns of a (3, n) uint64 array:
    byte i of a string is byte i % 8 of its word i // 8 (little-endian), so
    that joining two strings is a shift and an or."""
    data = b"".join(t.ljust(24, b"\0") for t in texts)
    return np.frombuffer(data, dtype="<u8").reshape(-1, 3).T.astype(np.uint64)


_WORD_START = np.array([[0], [8], [16]])  # the first byte of each word
_ZERO_DIGITS = np.uint64(0x3030303030303030)
_KEEP = _columns([b"\xff" * i for i in range(25)])  # keeps a string's first i bytes
_DOT = _columns([b"\0" * i + b"." for i in range(24)] + [b""])  # "." at byte i
_SPECIAL = _columns([b"inf", b"-inf", b"nan"])


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """g1[i], g0[i] for 10^e, e = i - _K_MAX: g = g1 * 2^63 + g0 is the least
    integer above 10^e * 2^(125 - floor(log2(10^e))), so 2^125 < g <= 2^126."""
    g1, g0 = [], []
    for e in range(-_K_MAX, -_K_MIN + 1):
        if e >= 0:
            p = 10**e
            shift = p.bit_length() - 126  # floor(log2(10^e)) - 125
            g = (p >> shift if shift >= 0 else p << -shift) + 1
        else:
            p = 10**-e
            g = (1 << (125 + p.bit_length())) // p + 1  # floor(log2(10^e)) = -bit_length
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, on 32-bit limbs, for a <
    2^63 and b < 2^60 (a table word and a shifted significand): the two
    cross products then sum to less than 2^64."""
    a1, a0 = a >> 32, a & _LOW32
    b1, b0 = b >> 32, b & _LOW32
    cross = a1 * b0 + a0 * b1
    carry = ((a0 * b0) >> 32) + (cross & _LOW32)
    return a1 * b1 + (cross >> 32) + (carry >> 32)


def _offset(hi: np.ndarray, lo: np.ndarray, g: np.ndarray, s: np.ndarray,
            sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit numbers hi * 2^64 + lo plus (sign 1) or minus (sign -1)
    g * 2^s, for 1 <= s <= 63, as (high, low) words: a shifted add on each
    word and a carry or borrow between them."""
    up, down = g << s, g >> (np.uint64(64) - s)
    if sign > 0:
        low = lo + up
        return hi + down + (low < lo), low
    low = lo - up
    return hi - down - (low > lo), low


def _rop(y1: np.ndarray, y0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """cp * g / 2^127 rounded to odd: its floor with the low bit set when
    inexact (Schubfach's figure 8), from the high and low words y1, y0 of
    g1 * cp and the high word x1 of g0 * cp."""
    z = (y0 >> np.uint64(1)) + x1
    return (y1 + (z >> np.uint64(63))) | ((z & _LOW63) != 0)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f * 10^k the shortest closest decimal that reads back as
    each finite nonzero double's bits (sign ignored)."""
    exp_bits = ((bits >> 52) & np.uint64(0x7FF)).astype(np.int64)
    t = bits & _LOW52
    normal = exp_bits > 0
    c = np.where(normal, t | np.uint64(1 << 52), t)
    q = np.where(normal, exp_bits - 1075, -1074)
    # at a power of two above the least normal the gap below is half the gap above
    irregular = (t == 0) & (exp_bits > 1)
    # floor(log10(2^q)), or floor(log10(3/4 * 2^q)) for an irregular gap
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)  # in 1..4
    table1, table0 = _pow10_table()
    g1, g0 = table1[_K_MAX - k], table0[_K_MAX - k]
    out = c & np.uint64(1)  # the interval is closed for an even significand
    # v and the bounds of its rounding interval, times 4 * 10^-k: v's cp is
    # 4 * c * 2^h and the bounds' are cp - 2^(h + 1) (cp - 2^h at an
    # irregular gap) and cp + 2^(h + 1).  So g1 * cp and g0 * cp, formed once
    # in full, give each bound's two products by taking or adding g1 and g0
    # shifted left by that power.
    cp = c << (h + np.uint64(2))
    y1, y0 = _mulhi(g1, cp), g1 * cp  # g1 * cp wraps to its low 64 bits
    x1, x0 = _mulhi(g0, cp), g0 * cp
    vb = _rop(y1, y0, x1)
    right = h + np.uint64(1)
    left = right - irregular
    vbl = _rop(*_offset(y1, y0, g1, left, -1), _offset(x1, x0, g0, left, -1)[0])
    vbr = _rop(*_offset(y1, y0, g1, right, 1), _offset(x1, x0, g0, right, 1)[0])
    s = vb >> np.uint64(2)
    # one digit shorter: the multiples of ten just below and above s
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl + out <= sp10 << np.uint64(2)
    wpin = (tp10 << np.uint64(2)) + out <= vbr
    shorter = (s >= 10) & (upin != wpin)
    # otherwise s or s + 1, whichever lies in the interval, else the closer one
    u = s + np.uint64(1)
    uin = vbl + out <= s << np.uint64(2)
    win = (u << np.uint64(2)) + out <= vbr
    mid = (s + u) << np.uint64(1)
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & np.uint64(1)) == 0)))
    f = np.where(shorter, np.where(upin, sp10, tp10), np.where(take_s, s, u))
    return f, k


def _shift(w: np.ndarray, k) -> np.ndarray:
    """The strings w moved k bytes on (0..23, one k or one per column), with
    NULs in front."""
    bits = np.asarray(8 * k, dtype=np.uint64)
    whole = bits >> np.uint64(6)
    bits = bits & np.uint64(63)
    padded = np.concatenate([np.zeros((3, w.shape[1]), dtype=np.uint64), w])
    # the word before each place, then the three words, moved whole words on
    if whole.ndim == 0:
        moved = padded[2 - int(whole) : 6 - int(whole)]
    else:
        moved = np.where(whole == 0, padded[2:], np.where(whole == 1, padded[1:5], padded[:4]))
    return moved[1:] << bits | moved[:3] >> (np.uint64(64) - bits)


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10^8 in ASCII, the first in the
    lowest byte: lanes halve from four digits to two to one, divisions
    by 100 and 10 being multiplications and shifts."""
    high = x // np.uint64(10000)
    v = high | (x - high * np.uint64(10000)) << np.uint64(32)
    hundreds = (v * np.uint64(10486)) >> np.uint64(20) & np.uint64(0x7F_0000007F)
    v = hundreds | (v - np.uint64(100) * hundreds) << np.uint64(16)
    tens = (v * np.uint64(103)) >> np.uint64(10) & np.uint64(0xF_000F_000F_000F)
    v = tens | (v - np.uint64(10) * tens) << np.uint64(8)
    return v + _ZERO_DIGITS


def _format_chunk(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(text, length): the repr of each double as a string in a (3, n) array."""
    n = bits.size
    neg = bits >> np.uint64(63)
    magnitude = bits & _LOW63
    special = magnitude >= _INF
    finite = (magnitude != 0) & ~special
    f = np.zeros(n, dtype=np.uint64)
    k = np.zeros(n, dtype=np.int64)
    f[finite], k[finite] = _decimal(magnitude[finite])
    # zero is the digit 0 with its point after it
    ndigits = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    point = ndigits + k  # value = 0.d1d2...dn * 10^point
    # the digits left-aligned in 17 places, zeros after them
    left = f * _POW10[_DIGITS - ndigits]
    # remainders by constants as x - x // c * c, which numpy computes faster
    first = left // _POW10[16]
    rest = left - first * _POW10[16]
    upper = rest // _POW10[8]
    high, low = _ascii8(np.stack([upper, rest - upper * _POW10[8]]))
    digits = np.stack([first + np.uint64(ord("0")) | high << np.uint64(8),
                       high >> np.uint64(56) | low << np.uint64(8),
                       low >> np.uint64(56)])
    # m significant digits once trailing zeros go: the bytes up to the last
    # one that is not "0" (the first digit always counts)
    nonzero = digits ^ _ZERO_DIGITS
    nonzero[2] &= np.uint64(0xFF)
    # a word's bit length, from the exponent of its float64: its bytes are
    # digits 0..9, so rounding to 53 bits cannot carry into a higher bit
    nbytes = (np.frexp(nonzero.astype(np.float64))[1] + 7) // 8
    m = np.maximum((nbytes + _WORD_START) * (nbytes > 0), 1).max(axis=0)
    # positional for a point in -3..16, the digits then: integral values end
    # ".0", and below 1 they follow "0." and -point zeros
    positional = (point >= -3) & (point <= 16)
    fraction = positional & (point <= 0)
    zeros = np.where(fraction, 1 - point, 0)
    if fraction.any():
        z = zeros[fraction]
        digits[:, fraction] = np.take(_KEEP, z, axis=1) & _ZERO_DIGITS | _shift(
            digits[:, fraction], z)
    count = np.where(positional, np.maximum(m + zeros, point + zeros + 1), m)
    digits &= np.take(_KEEP, count, axis=1)
    # "." after the integral part, or after the first digit of d.ddde+XX
    dot = np.where(positional, np.maximum(point, 1), np.where(m > 1, 1, 24))
    keep = np.take(_KEEP, dot, axis=1)
    text = digits & keep | np.take(_DOT, dot, axis=1) | _shift(digits & ~keep, 1)
    length = count + (dot < 24)
    sci = ~positional
    if sci.any():
        # "e", the exponent's sign and at least two of its digits
        exp = point[sci] - 1
        mag = np.abs(exp).astype(np.uint64)
        wide = mag >= 100
        ones = mag % np.uint64(10) + np.uint64(ord("0"))
        tens = mag // np.uint64(10) % np.uint64(10) + np.uint64(ord("0"))
        hundreds = mag // np.uint64(100) + np.uint64(ord("0"))
        tails = np.zeros((3, exp.size), dtype=np.uint64)
        sign = np.where(exp < 0, np.uint64(ord("-") << 8), np.uint64(ord("+") << 8))
        tails[0] = np.uint64(ord("e")) | sign | np.where(
            wide, hundreds << np.uint64(16) | tens << np.uint64(24) | ones << np.uint64(32),
            tens << np.uint64(16) | ones << np.uint64(24))
        text[:, sci] |= _shift(tails, length[sci])
        length[sci] += 4 + wide
    # the sign
    negative = neg == 1
    if negative.any():
        signed = _shift(text[:, negative], 1)
        signed[0] |= np.uint64(ord("-"))
        text[:, negative] = signed
        length += negative
    if special.any():
        name = np.where(magnitude[special] == _INF, neg[special], 2)
        text[:, special] = _SPECIAL[:, name]
        length[special] = 3 + (name == 1)
    return text, length


def shortest_repr(values: np.ndarray) -> np.ndarray:
    """repr(float(v)).encode() for each v of a float64 array, as a 1-d array
    of byte strings as wide as the longest."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    out = np.zeros((bits.size, 3), dtype="<u8")
    width = 1
    for lo in range(0, bits.size, _CHUNK):
        text, length = _format_chunk(bits[lo : lo + _CHUNK])
        out[lo : lo + _CHUNK] = text.T
        width = max(width, int(length.max()))
    text = np.ascontiguousarray(out.view(np.uint8)[:, :width])
    return text.view(f"S{width}").reshape(-1)
