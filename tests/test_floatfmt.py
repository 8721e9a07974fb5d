import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commca._floatfmt import _mulhi, _offset, shortest_repr
from commca.protocol import MAX_MAGNITUDE


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = shortest_repr(values)
    expected = [repr(v).encode() for v in values.tolist()]
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got.tolist(), expected) if g != e]
    assert not wrong, wrong[:5]
    # as wide as numpy makes the reprs, so the writer's cells keep their width
    assert got.dtype == np.array(expected, dtype="S").dtype


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def bits_of(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# any 64-bit pattern, which covers NaN payloads of either sign, ±inf,
# subnormals and ±0.0, plus hypothesis's own choice of floats
bit_patterns = st.one_of(
    st.integers(0, 2**64 - 1),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(bits_of),
)


class TestShortestRepr:
    @settings(max_examples=500)
    @given(st.lists(bit_patterns, max_size=40))
    def test_any_bit_pattern_matches_repr(self, patterns):
        assert_matches_repr(np.array(patterns, dtype=np.uint64).view(np.float64))

    def test_special_values(self):
        nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                             0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert_matches_repr(np.concatenate([[0.0, -0.0, np.inf, -np.inf], nan_bits.view(np.float64)]))
        assert shortest_repr(np.array([-0.0, -np.inf, np.nan])).tolist() == [b"-0.0", b"-inf", b"nan"]

    def test_empty(self):
        assert_matches_repr([])

    def test_first_subnormals(self):
        subnormals = np.arange(1, 2**20 + 1, dtype=np.uint64).view(np.float64)
        assert_matches_repr(subnormals)
        assert_matches_repr(-subnormals[:1000])

    def test_powers_of_two(self):
        powers = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
        assert_matches_repr(powers)
        assert_matches_repr(-powers)

    def test_powers_of_ten(self):
        # 10^k as the nearest double, its neighbours included
        assert_matches_repr(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    @pytest.mark.parametrize("switch", [1e-4, 1e-5, 1e16, 1e17])
    def test_format_switch_points(self, switch):
        # repr is positional for a decimal point position in -3..16
        around = [switch * m for m in (0.5, 0.9, 0.99999, 1.0, 1.00001, 1.5, 9.999999999999999)]
        assert_matches_repr(with_neighbours(around + [-x for x in around]))

    def test_integers_around_2_to_53(self):
        ints = np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.int64).astype(np.float64)
        assert_matches_repr(ints)
        assert_matches_repr(np.arange(-1000, 1000, dtype=np.float64))

    def test_extremes(self):
        big = np.finfo(np.float64).max
        assert_matches_repr(with_neighbours([MAX_MAGNITUDE, -MAX_MAGNITUDE,
                                             np.finfo(np.float64).tiny]))
        assert_matches_repr([big, -big, np.nextafter(big, 0), -np.nextafter(big, 0)])

    def test_more_values_than_a_chunk(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0, 100, 5000), rng.normal(0, 1e-6, 5000),
                                 rng.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64)])
        assert_matches_repr(values)


class TestBoundProducts:
    """_decimal forms g1 * cp and g0 * cp once, as 128-bit products, and gets
    each rounding-interval bound's products by adding or taking g * 2^s with
    a carry or borrow between the two 64-bit words."""

    def test_offsets_match_python_integers(self):
        rng = np.random.default_rng(5)
        g = rng.integers(0, 2**63, 4000, dtype=np.uint64)
        cp = rng.integers(2**6, 2**60, 4000, dtype=np.uint64)
        g[:3] = [0, 1, 2**63 - 1]
        cp[:3] = [2**60 - 1, 2**6, 2**60 - 1]
        s = rng.integers(1, 6, 4000).astype(np.uint64)
        hi, lo = _mulhi(g, cp), g * cp
        exact = [a * b for a, b in zip(g.tolist(), cp.tolist())]
        assert [h << 64 | w for h, w in zip(hi.tolist(), lo.tolist())] == exact
        for sign in (1, -1):
            high, low = _offset(hi, lo, g, s, sign)
            want = [p + sign * (a << k) for p, a, k in zip(exact, g.tolist(), s.tolist())]
            assert [h << 64 | w for h, w in zip(high.tolist(), low.tolist())] == want
            # both words' paths are taken: with and without a carry or borrow
            crossed = (low < lo) if sign > 0 else (low > lo)
            assert 0 < crossed.sum() < crossed.size

    def test_significand_extremes_at_every_exponent(self):
        # significands 2^52 and 2^53 - 1 (the least and greatest, and the
        # largest subnormal) under every biased exponent; 2^52 above the least
        # normal exponent is an irregular gap, whose lower bound is cp - 2^h
        exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
        bits = exponents[:, None] | np.array([0, 2**52 - 1], dtype=np.uint64)
        values = bits.reshape(-1).view(np.float64)
        assert_matches_repr(values)
        assert_matches_repr(-values)

    def test_every_irregular_gap(self):
        powers = np.ldexp(1.0, np.arange(-1021, 1024))
        assert (np.frexp(powers)[0] == 0.5).all() and powers.size == 2045
        assert_matches_repr(with_neighbours(powers))
