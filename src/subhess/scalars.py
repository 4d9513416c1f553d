"""Certified scalar arithmetic on closed intervals with rational endpoints.

Every scalar in the construction pipeline is an `Iv`: a closed interval
[lo, hi] with `Fraction` endpoints. Field operations are exact, so width is
created only where an irrational function enters (2^p, x^q, sqrt, log); those
enter through outward enclosures and never silently. An exact rational is a
zero-width interval.

Width also enters through `Dy`, the dyadic enclosure [a, b] * 2^e with
integer mantissas of `ENCLOSURE_BITS` bits: every derived enclosure that is
rounded on purpose lives in one and is rounded outward after each operation
(as a binary interval library rounds at a fixed precision), so that long sums
of boxes do not pay for endpoints thousands of bits long. An `Iv` is never
rounded.

Comparisons are certified: `certainly_*` returns True only when the claim
holds for every point of both intervals. A caller that needs a decision
raises `Undecided` when the enclosures overlap, instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt
from typing import Iterable, Union

import mpmath

DEFAULT_PREC = 120  # bits of every mpmath enclosure (`_IV`)
ENCLOSURE_BITS = 256  # mantissa bits of every `Dy` endpoint

RationalLike = Union[int, str, Fraction]
IvLike = Union["Iv", int, str, Fraction]


class Undecided(Exception):
    """A certified comparison could not be settled at the current width."""


def _fr(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r} (floats are not accepted)")


class Iv:
    """Closed interval with Fraction endpoints; exact +,-,*,/."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike | None = None):
        flo = _fr(lo)
        fhi = flo if hi is None else _fr(hi)
        if fhi is not flo and flo > fhi:
            raise ValueError(f"empty interval: [{flo}, {fhi}]")
        object.__setattr__(self, "lo", flo)
        object.__setattr__(self, "hi", fhi)

    def __setattr__(self, name, value):
        raise AttributeError("Iv is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__, not the blocked setattr
        return (Iv, (self.lo, self.hi))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def hull(items: Iterable[IvLike]) -> "Iv":
        lo = None
        hi = None
        for it in items:
            v = as_iv(it)
            lo = v.lo if lo is None else min(lo, v.lo)
            hi = v.hi if hi is None else max(hi, v.hi)
        if lo is None:
            raise ValueError("hull of nothing")
        return Iv(lo, hi)

    # -- basic queries ------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: RationalLike) -> bool:
        v = _fr(x)
        return self.lo <= v <= self.hi

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        return _ordered(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Iv":
        return _ordered(-self.hi, -self.lo)

    def __sub__(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        return _ordered(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other: IvLike) -> "Iv":
        return as_iv(other) - self

    def __mul__(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        # exact-zero short circuit keeps 0 * wide == exact 0
        if self.lo == 0 and self.hi == 0:
            return self
        if o.lo == 0 and o.hi == 0:
            return o
        if self.is_exact():
            f = self.lo
            if f >= 0:
                return _ordered(f * o.lo, f * o.hi)
            return _ordered(f * o.hi, f * o.lo)
        if o.is_exact():
            return o * self
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _ordered(min(cands), max(cands))

    __rmul__ = __mul__

    def __truediv__(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError(f"division by interval containing 0: {o}")
        if o.is_exact():
            f = o.lo
            if f > 0:
                return _ordered(self.lo / f, self.hi / f)
            return _ordered(self.hi / f, self.lo / f)
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return _ordered(min(cands), max(cands))

    def __rtruediv__(self, other: IvLike) -> "Iv":
        return as_iv(other) / self

    def __abs__(self) -> "Iv":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Iv(0, max(-self.lo, self.hi))

    def sq(self) -> "Iv":
        a = abs(self)
        return _ordered(a.lo * a.lo, a.hi * a.hi)

    def pow_int(self, n: int) -> "Iv":
        """self^n for an integer n >= 0, exact."""
        return _pow_int(self, n, Iv(1))

    # -- certified comparisons ----------------------------------------------

    def certainly_lt(self, other: IvLike) -> bool:
        o = as_iv(other)
        return self.hi < o.lo

    def certainly_le(self, other: IvLike) -> bool:
        o = as_iv(other)
        return self.hi <= o.lo

    def certainly_gt(self, other: IvLike) -> bool:
        return as_iv(other).certainly_lt(self)

    def certainly_ge(self, other: IvLike) -> bool:
        return as_iv(other).certainly_le(self)

    # -- misc -----------------------------------------------------------------

    def neg_part(self) -> "Iv":
        """Range of max(-x, 0) over the interval."""
        return (-self).pos_part()

    def pos_part(self) -> "Iv":
        return Iv(max(self.lo, 0), max(self.hi, 0))

    def union(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        return _ordered(min(self.lo, o.lo), max(self.hi, o.hi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Iv, int, Fraction, str)):
            return NotImplemented
        o = as_iv(other)
        return self.lo == o.lo and self.hi == o.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_exact():
            return f"Iv({self.lo})"
        return f"Iv({self.lo}, {self.hi})"

    def __str__(self) -> str:
        if self.is_exact():
            return str(self.lo)
        lo, hi = iv_dec(self, 12)
        return f"[{lo}, {hi}]"


def as_iv(x: IvLike) -> Iv:
    if isinstance(x, Iv):
        return x
    if isinstance(x, Dy):
        return x.iv()
    return Iv(_fr(x))


def _pow_int(x, n: int, one):
    """x^n for an integer n >= 0 by square-and-multiply, in the arithmetic of
    x and of `one` (exact for an `Iv`, rounded outward for a `Dy`)."""
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x.sq()
        n >>= 1
    return out


def _ordered(lo: Fraction, hi: Fraction) -> Iv:
    """[lo, hi] of Fractions that arithmetic orders: long endpoints go uncompared."""
    v = object.__new__(Iv)
    object.__setattr__(v, "lo", lo)
    object.__setattr__(v, "hi", hi)
    return v


ZERO = Iv(0)


# -- dyadic enclosures: the rounded counterpart of Iv --------------------------


def _dyadic(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _dy(a: int, b: int, e: int) -> "Dy":
    """[a, b] * 2^e with both mantissas rounded outward to ENCLOSURE_BITS bits."""
    k = max(a.bit_length(), b.bit_length()) - ENCLOSURE_BITS
    if k <= 0:
        return Dy(a, b, e)
    a, b = a >> k, -(-b >> k)
    if max(a.bit_length(), b.bit_length()) > ENCLOSURE_BITS:  # the rounding carried
        a, b, k = a >> 1, -(-b >> 1), k + 1
    return Dy(a, b, e + k)


class Dy:
    """The closed interval [a, b] * 2^e, integer mantissas of at most
    ENCLOSURE_BITS bits: every operation rounds outward with integer shifts
    and pays no gcd. The endpoints are stored, not a midpoint and radius, as
    a ramp box is as wide as it is large. `lo` and `hi` read them as
    Fractions, so a Dy reads like an Iv."""

    __slots__ = ("a", "b", "e")

    def __init__(self, a: int, b: int, e: int):
        self.a, self.b, self.e = a, b, e

    @staticmethod
    def of(x: Union["Dy", IvLike]) -> "Dy":
        """x itself if it is a Dy, else the outward enclosure of the Iv or rational x."""
        if isinstance(x, Dy):
            return x
        if isinstance(x, int):
            return _dy(x, x, 0)
        v = as_iv(x)
        lo = Dy.quot(v.lo.numerator, v.lo.denominator)
        return lo if v.lo is v.hi else lo.union(Dy.quot(v.hi.numerator, v.hi.denominator))

    @staticmethod
    def quot(n: int, d: int) -> "Dy":
        """The outward enclosure of the rational n / d, for d > 0."""
        e = n.bit_length() - d.bit_length() - ENCLOSURE_BITS
        q, r = divmod(n << -e, d) if e <= 0 else divmod(n, d << e)
        return _dy(q, q + (r > 0), e)

    @property
    def lo(self) -> Fraction:
        return _dyadic(self.a, self.e)

    @property
    def hi(self) -> Fraction:
        return _dyadic(self.b, self.e)

    def iv(self) -> Iv:
        return _ordered(self.lo, self.hi)

    def __add__(self, other: Union["Dy", IvLike]) -> "Dy":
        o = Dy.of(other)
        x, y = (self, o) if self.e <= o.e else (o, self)
        k = y.e - x.e
        return _dy(x.a + (y.a << k), x.b + (y.b << k), x.e)

    def __neg__(self) -> "Dy":
        return Dy(-self.b, -self.a, self.e)

    def __sub__(self, other: Union["Dy", IvLike]) -> "Dy":
        return self + -Dy.of(other)

    def __mul__(self, other: Union["Dy", IvLike]) -> "Dy":
        o = Dy.of(other)
        a, b, c, d = self.a, self.b, o.a, o.b
        if a >= 0 and c >= 0:
            return _dy(a * c, b * d, self.e + o.e)
        cands = (a * c, a * d, b * c, b * d)
        return _dy(min(cands), max(cands), self.e + o.e)

    __rmul__ = __mul__

    def __abs__(self) -> "Dy":
        if self.a >= 0:
            return self
        if self.b <= 0:
            return -self
        return Dy(0, max(-self.a, self.b), self.e)

    def sq(self) -> "Dy":
        m = abs(self)
        return _dy(m.a * m.a, m.b * m.b, 2 * m.e)

    def pos_part(self) -> "Dy":
        return Dy(max(self.a, 0), max(self.b, 0), self.e)

    def neg_part(self) -> "Dy":
        """Range of max(-x, 0) over the interval."""
        return Dy(max(-self.b, 0), max(-self.a, 0), self.e)

    def union(self, other: Union["Dy", IvLike]) -> "Dy":
        o = Dy.of(other)
        x, y = (self, o) if self.e <= o.e else (o, self)
        k = y.e - x.e
        return _dy(min(x.a, y.a << k), max(x.b, y.b << k), x.e)

    def sqrt(self) -> "Dy":
        """Outward enclosure of sqrt on a nonnegative interval."""
        if self.a < 0:
            raise ValueError(f"sqrt of interval with negative part: {self.iv()}")
        # 2 * ENCLOSURE_BITS bits under an even exponent: each root keeps ENCLOSURE_BITS
        s = max(0, 2 * ENCLOSURE_BITS - self.b.bit_length())
        s += (self.e - s) & 1
        a, b = self.a << s, self.b << s
        lo, hi = isqrt(a), isqrt(b)
        return _dy(lo, hi + (hi * hi < b), (self.e - s) // 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Dy, Iv)):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi


def sqrt_iv(x: IvLike) -> Iv:
    """Outward enclosure of sqrt on a nonnegative interval, rounded through a `Dy`."""
    return Dy.of(x).sqrt().iv()


# -- mpmath bridge (the only place width is created from transcendentals) -----
#
# Every transcendental used here (2^p, x^q, log) is monotone in each argument
# separately, so an interval argument is handled by evaluating at endpoint
# rationals and taking the outward hull; wide mpmath intervals are never built.
# All of them evaluate in one private interval context at DEFAULT_PREC, so
# the process-wide `mpmath.iv` is never read or written.

_IV = mpmath.ctx_iv.MPIntervalContext()
_IV.prec = DEFAULT_PREC


def _mpi_endpoints(v) -> tuple[Fraction, Fraction]:
    a, b = v._mpi_
    pa, qa = mpmath.libmp.to_rational(a)
    pb, qb = mpmath.libmp.to_rational(b)
    return Fraction(int(pa), int(qa)), Fraction(int(pb), int(qb))


def _rational_to_mpiv(f: Fraction):
    return _IV.mpf(int(f.numerator)) / _IV.mpf(int(f.denominator))


def pow2(p: IvLike) -> Iv:
    """Enclosure of 2^p; exact when p is an integer."""
    pv = as_iv(p)
    if pv.is_exact() and pv.lo.denominator == 1:
        return Iv(Fraction(2) ** pv.lo)
    two = _IV.mpf(2)
    lo, _ = _mpi_endpoints(two ** _rational_to_mpiv(pv.lo))
    _, hi = _mpi_endpoints(two ** _rational_to_mpiv(pv.hi))
    return Iv(lo, hi)


def rpow(x: Union["Dy", IvLike], q: IvLike) -> Iv:
    """Enclosure of x^q for x >= 0 (0^q := 0 for q > 0). An integer q is
    exact on an exact base; on an enclosure it is square-and-multiply in `Dy`,
    rounded outward to ENCLOSURE_BITS bits, so endpoints do not grow with q."""
    xv = as_iv(x)
    qv = as_iv(q)
    if xv.lo < 0:
        raise ValueError(f"rpow base must be nonnegative: {xv}")
    if qv.is_exact() and qv.lo.denominator == 1:
        if xv.is_exact():
            return xv.pow_int(int(qv.lo))
        return _pow_int(Dy.of(x), int(qv.lo), Dy(1, 1, 0)).iv()
    if not qv.lo > 0:
        raise ValueError(f"rpow exponent must be certainly positive: {qv}")
    if xv.hi == 0:
        return ZERO
    los: list[Fraction] = []
    his: list[Fraction] = []
    for qe in {qv.lo, qv.hi}:
        mq = _rational_to_mpiv(qe)
        for xe in {xv.lo, xv.hi}:
            if xe == 0:
                los.append(Fraction(0))
                his.append(Fraction(0))
                continue
            a, b = _mpi_endpoints(_rational_to_mpiv(xe) ** mq)
            los.append(a)
            his.append(b)
    return Iv(max(Fraction(0), min(los)), max(his))


def ln_iv(x: IvLike) -> Iv:
    xv = as_iv(x)
    if xv.lo <= 0:
        raise ValueError(f"log of non-positive interval: {xv}")
    lo, _ = _mpi_endpoints(_IV.log(_rational_to_mpiv(xv.lo)))
    _, hi = _mpi_endpoints(_IV.log(_rational_to_mpiv(xv.hi)))
    return Iv(lo, hi)


def log2_iv(x: IvLike) -> Iv:
    return ln_iv(x) / ln_iv(2)


# -- directed decimal rendering ------------------------------------------------


def _int_str(v: int) -> str:
    """str(v) for any size of v: integers past the interpreter's int -> str
    digit limit (4,300 digits by default) are split in halves at a power of
    ten, each half rendered below the limit."""
    if v < 0:
        return "-" + _int_str(-v)
    if v.bit_length() <= 2048:  # at most 617 digits, below any settable limit (640 at least)
        return str(v)
    half = v.bit_length() * 3 // 20  # about half of its log10(2) * bits digits
    hi, lo = divmod(v, 10**half)
    return _int_str(hi) + _int_str(lo).zfill(half)


def _dec(v: int, digits: int) -> str:
    """The integer v / 10^digits as a decimal string with `digits` fractional digits."""
    whole, frac = divmod(abs(v), 10**digits)
    text = ("-" if v < 0 else "") + _int_str(whole)
    return f"{text}.{_int_str(frac).zfill(digits)}" if digits else text


def dec_floor(f: Fraction, digits: int) -> str:
    """Decimal string with `digits` fractional digits, rounded toward -inf."""
    return _dec(floor(f * 10**digits), digits)


def dec_ceil(f: Fraction, digits: int) -> str:
    """Decimal string with `digits` fractional digits, rounded toward +inf."""
    return _dec(ceil(f * 10**digits), digits)


def iv_dec(x: IvLike, digits: int = 30) -> tuple[str, str]:
    """Outward decimal rendering (lo down, hi up): sound for reports."""
    v = as_iv(x)
    return dec_floor(v.lo, digits), dec_ceil(v.hi, digits)


def fr_str(f: Fraction) -> str:
    num = _int_str(f.numerator)
    return f"{num}/{_int_str(f.denominator)}" if f.denominator != 1 else num


def dyadic_round(f: Fraction, bits: int) -> Fraction:
    """Nearest multiple of 2^-bits (ties toward +inf); exact dyadic result."""
    scaled = f * (1 << bits)
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(n, 1 << bits)


def dyadic_floor_iv(x: IvLike, bits: int) -> Fraction:
    """Largest multiple of 2^-bits certainly <= x."""
    v = as_iv(x)
    scaled = v.lo * (1 << bits)
    return Fraction(scaled.numerator // scaled.denominator, 1 << bits)
