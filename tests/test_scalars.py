import copy
import pickle
import random
import sys
from fractions import Fraction
from math import floor

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subhess.scalars import (
    ENCLOSURE_BITS,
    Dy,
    Iv,
    as_iv,
    dec_ceil,
    dec_floor,
    dyadic_floor_iv,
    dyadic_round,
    fr_str,
    iv_dec,
    ln_iv,
    log2_iv,
    pow2,
    rpow,
    sqrt_iv,
)

from oracles import contains_iv, round_out

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


def make_iv(a: Fraction, b: Fraction) -> Iv:
    return Iv(min(a, b), max(a, b))


ivs = st.builds(make_iv, rationals, rationals)


class TestIvAlgebra:
    def test_construct_and_order(self):
        v = Iv(Fraction(1, 3), Fraction(1, 2))
        assert v.lo == Fraction(1, 3) and v.hi == Fraction(1, 2)
        with pytest.raises(ValueError):
            Iv(1, 0)
        with pytest.raises(TypeError):
            Iv(0.5)  # floats never enter silently

    def test_exact_zero_multiplication_stays_exact(self):
        wide = Iv(-3, 7)
        assert (Iv(0) * wide).is_exact()
        assert (wide * Iv(0)) == Iv(0)

    @given(ivs, ivs, rationals, rationals)
    @settings(max_examples=200)
    def test_containment_under_field_ops(self, u, v, s, t):
        # clamp sample points into the intervals
        x = min(max(s, u.lo), u.hi)
        y = min(max(t, v.lo), v.hi)
        assert (u + v).contains(x + y)
        assert (u - v).contains(x - y)
        assert (u * v).contains(x * y)
        if not (v.lo <= 0 <= v.hi):
            assert (u / v).contains(x / y)
        assert abs(u).contains(abs(x))
        assert u.sq().contains(x * x)
        assert u.neg_part().contains(max(-x, 0))
        assert u.pos_part().contains(max(x, 0))

    @given(ivs, st.integers(min_value=0, max_value=6), rationals)
    def test_pow_int(self, u, n, s):
        x = min(max(s, u.lo), u.hi)
        assert u.pow_int(n).contains(x**n)

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Iv(1) / Iv(-1, 1)

    def test_certified_comparisons(self):
        a, b = Iv(0, 1), Iv(2, 3)
        assert a.certainly_lt(b) and b.certainly_gt(a)
        assert not a.certainly_lt(Iv(Fraction(1, 2), 2))

    def test_equality_and_hash(self):
        assert Iv(Fraction(1, 2)) == Fraction(1, 2) and Iv(0, 1) != Iv(0)
        assert len({Iv(1), Iv(1), Iv(0, 1), Iv(0, 1)}) == 2
        # a value that is not an exact rational is unequal, not an error
        assert Iv(1) != None and not Iv(1) == 1.0  # noqa: E711

    def test_hull(self):
        assert Iv.hull([Iv(0, 1), Iv(3), Fraction(-2)]) == Iv(-2, 3)

    def test_pickle_and_deepcopy(self):
        a = Iv(Fraction(1, 3), 2)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert b == a and b is not a


class TestSqrt:
    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
    @settings(max_examples=200)
    def test_endpoints_bracket(self, f):
        v = sqrt_iv(Iv(f))
        assert v.lo * v.lo <= f <= v.hi * v.hi
        assert v.width <= Fraction(1, 2**100) * (1 + f)

    def test_exact_zero(self):
        assert sqrt_iv(Iv(0)) == Iv(0)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            sqrt_iv(Iv(-1, 1))


class TestTranscendentalBridge:
    def test_pow2_integer_exact(self):
        assert pow2(3) == Iv(8)
        assert pow2(Fraction(-2)) == Iv(Fraction(1, 4))

    @given(st.fractions(min_value=-8, max_value=8, max_denominator=64))
    @settings(max_examples=60)
    def test_pow2_encloses_float_oracle(self, p):
        v = pow2(p)
        # float evaluation sits well inside the 120-bit enclosure
        assert float(v.lo) <= 2.0 ** float(p) <= float(v.hi) or contains_iv(v, v)
        assert v.lo <= v.hi and v.width <= Fraction(1, 2**90) * (1 + v.hi)

    def test_pow2_interval_argument(self):
        v = pow2(Iv(Fraction(1, 2), Fraction(3, 2)))
        assert v.lo < Fraction(15, 10) and v.hi > Fraction(28, 10)
        assert contains_iv(v, pow2(Fraction(1, 2)))
        assert contains_iv(v, pow2(Fraction(3, 2)))

    @given(
        st.fractions(min_value=0, max_value=20, max_denominator=100),
        st.fractions(min_value=Fraction(1, 10), max_value=4, max_denominator=20),
    )
    @settings(max_examples=60)
    def test_rpow_against_mpmath_midpoint(self, x, q):
        v = rpow(Iv(x), q)
        if x == 0:
            assert v == Iv(0)
            return
        with mpmath.workprec(200):
            ref = mpmath.mpf(x.numerator) / x.denominator
            ref = ref ** (mpmath.mpf(q.numerator) / q.denominator)
            assert mpmath.mpf(float(v.lo)) <= ref * (1 + mpmath.mpf(2) ** -50)
            assert ref <= mpmath.mpf(float(v.hi)) * (1 + mpmath.mpf(2) ** -50)

    def test_rpow_integer_exponent_exact(self):
        assert rpow(Iv(Fraction(2, 3)), 2) == Iv(Fraction(4, 9))

    def test_rpow_monotone_hull(self):
        v = rpow(Iv(1, 4), Fraction(1, 2))
        assert v.lo <= 1 and v.hi >= 2
        assert rpow(Iv(0, 4), Fraction(3, 2)).lo == 0

    def test_log2(self):
        l3 = log2_iv(3)
        assert l3.contains(Fraction(15849625007211562, 10**16)) or (
            float(l3.lo) < 1.5849625008 < float(l3.hi) + 1e-9
        )

    def test_ln_monotone(self):
        v = ln_iv(Iv(2, 3))
        assert contains_iv(v, ln_iv(2)) and contains_iv(v, ln_iv(3))

    def test_global_precision_restored(self):
        # enclosures run at DEFAULT_PREC whatever the global precision, and
        # leave the global precision as they found it
        before = mpmath.iv.prec
        mpmath.iv.prec = 60
        try:
            v = pow2(Fraction(1, 3))
            assert mpmath.iv.prec == 60
        finally:
            mpmath.iv.prec = before
        assert v == pow2(Fraction(1, 3))
        assert 0 < v.width <= Fraction(1, 2**110)


class TestIntegerPowers:
    # an integer power of an enclosure is square-and-multiply in `Dy`,
    # rounded outward, so its endpoints do not grow with the exponent
    NEAR_ONE = Iv(Fraction(999_999, 10**6), Fraction(1_000_001, 10**6))

    def test_endpoint_bits_stay_bounded(self):
        v = rpow(self.NEAR_ONE, 20000)
        assert max(max(e.numerator.bit_length(), e.denominator.bit_length())
                   for e in (v.lo, v.hi)) <= ENCLOSURE_BITS + 64

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_contains_the_exact_power(self, q):
        for base in (self.NEAR_ONE, Iv(Fraction(1, 3), Fraction(5, 2)), Iv(0, Fraction(2, 7))):
            exact = base.pow_int(q)
            assert contains_iv(rpow(base, q), exact)
            assert contains_iv(rpow(Dy.of(base), q), exact)


class TestRendering:
    def test_directed_decimals(self):
        assert dec_floor(Fraction(1, 3), 4) == "0.3333"
        assert dec_ceil(Fraction(1, 3), 4) == "0.3334"
        assert dec_floor(Fraction(-1, 3), 4) == "-0.3334"
        assert dec_ceil(Fraction(-1, 3), 4) == "-0.3333"
        assert dec_floor(Fraction(5, 2), 0) == "2"
        assert dec_ceil(Fraction(5, 2), 0) == "3"

    @given(rationals, st.integers(min_value=1, max_value=12))
    def test_directed_decimals_bracket(self, f, digits):
        lo = Fraction(dec_floor(f, digits))
        hi = Fraction(dec_ceil(f, digits))
        assert lo <= f <= hi
        assert hi - lo <= Fraction(1, 10**digits)

    def test_iv_dec_outward(self):
        lo, hi = iv_dec(Iv(Fraction(1, 3), Fraction(2, 3)), 3)
        assert lo == "0.333" and hi == "0.667"

    def test_past_the_int_str_digit_limit(self):
        # exact and decimal strings longer than the interpreter's 4,300-digit
        # int -> str limit render as str() renders them with the limit lifted
        rng = random.Random(7)
        ints = [rng.getrandbits(bits) for bits in (2047, 2048, 2049, 14300, 30000, 100000)]
        ints += [10**5000, 10**5000 - 1, -(3**21000)]
        f = Fraction(3**21000 + 1, 7**12000)
        got = [fr_str(Fraction(v)) for v in ints] + [fr_str(f), dec_floor(f, 5000),
                                                      dec_ceil(-f, 5000)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            scaled = floor(f * 10**5000)
            dec = f"{scaled // 10**5000}.{scaled % 10**5000:05000d}"
            expected = [str(v) for v in ints] + [f"{f.numerator}/{f.denominator}", dec, "-" + dec]
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == expected


class TestDyadics:
    @given(rationals, st.integers(min_value=1, max_value=40))
    def test_round_distance(self, f, bits):
        r = dyadic_round(f, bits)
        assert abs(r - f) <= Fraction(1, 2 ** (bits + 1))
        assert r.denominator & (r.denominator - 1) == 0

    @given(ivs, st.integers(min_value=1, max_value=30))
    def test_floor_is_lower_bound(self, v, bits):
        r = dyadic_floor_iv(v, bits)
        assert r <= v.lo
        assert v.lo - r < Fraction(1, 2**bits)


@st.composite
def long_fractions(draw) -> Fraction:
    """Signed fractions of 1 to 20,000 bits, below and above 1."""
    num_bits = draw(st.integers(min_value=1, max_value=20_000))
    den_bits = draw(st.integers(min_value=1, max_value=20_000))
    n = draw(st.integers(min_value=1 << (num_bits - 1), max_value=(1 << num_bits) - 1))
    d = draw(st.integers(min_value=1 << (den_bits - 1), max_value=(1 << den_bits) - 1))
    return Fraction(draw(st.sampled_from((1, -1))) * n, d)


long_ivs = st.builds(make_iv, long_fractions(), long_fractions())


class TestRoundOut:
    @settings(max_examples=200, deadline=None)
    @given(long_ivs)
    def test_contains_input_at_bounded_bits(self, significant_bits, v):
        r = round_out(v)
        assert contains_iv(r, v)
        if v.is_exact():
            assert r is v  # an exact interval is never rounded
            return
        for got, was in ((r.lo, v.lo), (r.hi, v.hi)):
            assert significant_bits(got) <= ENCLOSURE_BITS
            # one unit in the last of ENCLOSURE_BITS - 1 places at most
            assert abs(got - was) <= abs(was) / 2 ** (ENCLOSURE_BITS - 2)

    @settings(max_examples=200, deadline=None)
    @given(long_ivs)
    def test_idempotent(self, v):
        once = round_out(v)
        assert round_out(once) == once

    @settings(max_examples=100, deadline=None)
    @given(long_fractions())
    def test_exact_input_is_returned(self, f):
        v = Iv(f)
        assert round_out(v) is v

    @given(ivs)
    def test_short_endpoints_untouched(self, v):
        assert round_out(v) is v

    def test_directed_at_the_last_bit(self):
        third = Fraction(1, 3)
        lo, hi = third - Fraction(1, 2**400), third + Fraction(1, 2**400)
        r = round_out(Iv(lo, hi))
        assert r.lo < lo and hi < r.hi
        assert r.hi - r.lo <= Fraction(1, 2**(ENCLOSURE_BITS - 1))
        assert round_out(Iv(-hi, -lo)) == -r


class TestDy:
    @settings(max_examples=200, deadline=None)
    @given(long_ivs)
    def test_of_encloses_at_bounded_bits(self, v):
        d = Dy.of(v)
        assert contains_iv(d, v)
        assert max(d.a.bit_length(), d.b.bit_length()) <= ENCLOSURE_BITS
        # within two units in the last place of the larger endpoint
        ulp = max(abs(v.lo), abs(v.hi)) / 2 ** (ENCLOSURE_BITS - 2)
        assert v.lo - d.lo <= ulp and d.hi - v.hi <= ulp

    def test_rounding_carry_keeps_the_mantissa_bound(self):
        # -(2^257 - 1) floors to -2^256 at one shift, a 257-bit mantissa
        n = -(2**257 - 1)
        d = Dy.quot(n, 1)
        assert max(d.a.bit_length(), d.b.bit_length()) <= ENCLOSURE_BITS
        assert d.lo <= n <= d.hi

    def test_exact_dyadics_stay_exact(self):
        for x in (0, 1, -3, Fraction(5, 8), Fraction(-7, 2**300), Iv(Fraction(1, 4), 2)):
            assert Dy.of(x) == as_iv(x)
        assert Dy.of(Fraction(1, 3)) != Iv(Fraction(1, 3))
        assert Dy.of(1) != None  # noqa: E711 -- not an interval: unequal, no error

    @settings(max_examples=200, deadline=None)
    @given(long_ivs, long_ivs)
    def test_operations_enclose_the_exact_result(self, u, v):
        du, dv = Dy.of(u), Dy.of(v)
        for got, want in ((du + dv, u + v), (du - dv, u - v), (du * dv, u * v),
                          (du.sq(), u.sq()), (abs(du), abs(u)), (-du, -u),
                          (du.neg_part(), u.neg_part()), (du.pos_part(), u.pos_part()),
                          (du.union(dv), u.union(v)), (-du + 3, 3 - u)):
            assert contains_iv(got, want)
            assert max(got.a.bit_length(), got.b.bit_length()) <= ENCLOSURE_BITS

    @settings(max_examples=100, deadline=None)
    @given(long_fractions(), st.integers(min_value=1, max_value=10**40))
    def test_quot_encloses(self, f, k):
        d = Dy.quot(f.numerator * k, f.denominator * k)
        assert d.lo <= f <= d.hi and d.hi - d.lo <= abs(f) / 2 ** (ENCLOSURE_BITS - 2)

    def test_sqrt_is_dyadic_and_bracketed(self, significant_bits):
        for f in (Fraction(2), Fraction(10**40 + 1, 3**50), Fraction(1, 10**30)):
            r = sqrt_iv(f)
            assert r.lo * r.lo <= f <= r.hi * r.hi
            assert max(significant_bits(r.lo), significant_bits(r.hi)) <= ENCLOSURE_BITS
        assert sqrt_iv(4) == Iv(2)


def test_as_iv_rejects_float():
    with pytest.raises(TypeError):
        as_iv(0.1)
