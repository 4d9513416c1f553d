"""Certified scalar arithmetic on closed intervals with rational endpoints.

Every scalar in the construction pipeline is an `Iv`: a closed interval
[lo, hi] with `Fraction` endpoints. Field operations are exact, so width is
created only where an irrational function enters (2^p, x^q, sqrt, log); those
enter through outward enclosures and never silently. An exact rational is a
zero-width interval.

Width also enters through `round_out`, which widens a derived enclosure
outward to endpoints of `ENCLOSURE_BITS` significant bits (as a binary
interval library rounds at a fixed precision), so that long sums of boxes do
not pay for endpoints thousands of bits long. An exact interval is never
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

DEFAULT_PREC = 120  # bits of every mpmath enclosure and of `sqrt_iv`
ENCLOSURE_BITS = 256  # significant bits of an endpoint `round_out` leaves

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
        if flo > fhi:
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
        return Iv(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Iv":
        return Iv(-self.hi, -self.lo)

    def __sub__(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        return Iv(self.lo - o.hi, self.hi - o.lo)

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
                return Iv(f * o.lo, f * o.hi)
            return Iv(f * o.hi, f * o.lo)
        if o.is_exact():
            return o * self
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Iv(min(cands), max(cands))

    __rmul__ = __mul__

    def __truediv__(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError(f"division by interval containing 0: {o}")
        if o.is_exact():
            f = o.lo
            if f > 0:
                return Iv(self.lo / f, self.hi / f)
            return Iv(self.hi / f, self.lo / f)
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Iv(min(cands), max(cands))

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
        return Iv(a.lo * a.lo, a.hi * a.hi)

    def pow_int(self, n: int) -> "Iv":
        """self^n for an integer n >= 0."""
        out = Iv(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base.sq()
            k >>= 1
        return out

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
        return abs(Iv(min(self.lo, 0), min(self.hi, 0)))

    def pos_part(self) -> "Iv":
        return Iv(max(self.lo, 0), max(self.hi, 0))

    def union(self, other: IvLike) -> "Iv":
        o = as_iv(other)
        return Iv(min(self.lo, o.lo), max(self.hi, o.hi))

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
    return Iv(_fr(x))


ZERO = Iv(0)


def _round_endpoint(f: Fraction, up: bool) -> Fraction:
    """f rounded toward +inf (up) or -inf to a dyadic of at most
    ENCLOSURE_BITS significant bits; f itself when its numerator and
    denominator both fit in ENCLOSURE_BITS bits."""
    n, d = f.numerator, f.denominator
    nb, db = n.bit_length(), d.bit_length()
    if nb <= ENCLOSURE_BITS and db <= ENCLOSURE_BITS:
        return f
    # 2^(nb-db-1) < |f| < 2^(nb-db+1), so |f| * 2^shift < 2^ENCLOSURE_BITS
    shift = ENCLOSURE_BITS - 1 - (nb - db)
    q, r = divmod(n << shift, d) if shift >= 0 else divmod(n, d << -shift)
    if up and r:
        q += 1
    return Fraction(q, 1 << shift) if shift >= 0 else Fraction(q << -shift)


def round_out(x: Iv) -> Iv:
    """Outward rounding of x to endpoints of ENCLOSURE_BITS significant bits;
    x itself when it is exact or when no endpoint needs rounding."""
    if x.lo == x.hi:
        return x
    lo, hi = _round_endpoint(x.lo, False), _round_endpoint(x.hi, True)
    if lo is x.lo and hi is x.hi:
        return x
    return Iv(lo, hi)


# -- integer-sqrt based square roots (directed, exact rational bounds) --------


def _sqrt_directed(f: Fraction, up: bool) -> Fraction:
    """sqrt(f) rounded down, or up, to a multiple of 2^-DEFAULT_PREC / f.denominator."""
    m = (f.numerator * f.denominator) << (2 * DEFAULT_PREC)
    s = isqrt(m)
    if up and s * s < m:
        s += 1
    return Fraction(s, f.denominator << DEFAULT_PREC)


def sqrt_iv(x: IvLike) -> Iv:
    """Outward enclosure of sqrt on a nonnegative interval."""
    v = as_iv(x)
    if v.lo < 0:
        raise ValueError(f"sqrt of interval with negative part: {v}")
    return Iv(_sqrt_directed(v.lo, False), _sqrt_directed(v.hi, True))


# -- mpmath bridge (the only place width is created from transcendentals) -----
#
# Every transcendental used here (2^p, x^q, log) is monotone in each argument
# separately, so an interval argument is handled by evaluating at endpoint
# rationals and taking the outward hull; wide mpmath intervals are never built.


def _mpi_endpoints(v) -> tuple[Fraction, Fraction]:
    a, b = v._mpi_
    pa, qa = mpmath.libmp.to_rational(a)
    pb, qb = mpmath.libmp.to_rational(b)
    return Fraction(int(pa), int(qa)), Fraction(int(pb), int(qb))


def _rational_to_mpiv(f: Fraction):
    return mpmath.iv.mpf(int(f.numerator)) / mpmath.iv.mpf(int(f.denominator))


def _with_prec(fn):
    old = mpmath.iv.prec
    mpmath.iv.prec = DEFAULT_PREC
    try:
        return fn()
    finally:
        mpmath.iv.prec = old


def pow2(p: IvLike) -> Iv:
    """Enclosure of 2^p; exact when p is an integer."""
    pv = as_iv(p)
    if pv.is_exact() and pv.lo.denominator == 1:
        return Iv(Fraction(2) ** pv.lo)

    def run():
        two = mpmath.iv.mpf(2)
        lo, _ = _mpi_endpoints(two ** _rational_to_mpiv(pv.lo))
        _, hi = _mpi_endpoints(two ** _rational_to_mpiv(pv.hi))
        return Iv(lo, hi)

    return _with_prec(run)


def rpow(x: IvLike, q: IvLike) -> Iv:
    """Enclosure of x^q for x >= 0 (0^q := 0 for q > 0); exact for integer q."""
    xv = as_iv(x)
    qv = as_iv(q)
    if xv.lo < 0:
        raise ValueError(f"rpow base must be nonnegative: {xv}")
    if qv.is_exact() and qv.lo.denominator == 1:
        return xv.pow_int(int(qv.lo))
    if not qv.certainly_gt(0):
        raise ValueError(f"rpow exponent must be certainly positive: {qv}")
    if xv.hi == 0:
        return ZERO

    def run():
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

    return _with_prec(run)


def ln_iv(x: IvLike) -> Iv:
    xv = as_iv(x)
    if xv.lo <= 0:
        raise ValueError(f"log of non-positive interval: {xv}")

    def run():
        lo, _ = _mpi_endpoints(mpmath.iv.log(_rational_to_mpiv(xv.lo)))
        _, hi = _mpi_endpoints(mpmath.iv.log(_rational_to_mpiv(xv.hi)))
        return Iv(lo, hi)

    return _with_prec(run)


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
