"""Symmetric 2x2 matrices over certified intervals.

Provides the matrix algebra and the rank-one connectedness test that the
laminate layer and the synthesizer lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from subhess.scalars import Iv, IvLike, Undecided, as_iv


@dataclass(frozen=True)
class SymMat2:
    a11: Iv
    a12: Iv
    a22: Iv

    @staticmethod
    def of(a11: IvLike, a12: IvLike, a22: IvLike) -> "SymMat2":
        return SymMat2(as_iv(a11), as_iv(a12), as_iv(a22))

    @staticmethod
    def diag(a11: IvLike, a22: IvLike) -> "SymMat2":
        return SymMat2(as_iv(a11), Iv(0), as_iv(a22))

    @staticmethod
    def identity(scale: IvLike = 1) -> "SymMat2":
        s = as_iv(scale)
        return SymMat2(s, Iv(0), s)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)

    def __sub__(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.a11 - other.a11, self.a12 - other.a12, self.a22 - other.a22)

    def __neg__(self) -> "SymMat2":
        return SymMat2(-self.a11, -self.a12, -self.a22)

    def scale(self, c: IvLike) -> "SymMat2":
        cv = as_iv(c)
        return SymMat2(cv * self.a11, cv * self.a12, cv * self.a22)

    def trace(self) -> Iv:
        return self.a11 + self.a22

    def det(self) -> Iv:
        return self.a11 * self.a22 - self.a12.sq()

    def is_exact(self) -> bool:
        return self.a11.is_exact() and self.a12.is_exact() and self.a22.is_exact()

    def is_zero(self) -> bool:
        return self.a11 == 0 and self.a12 == 0 and self.a22 == 0

    def contains(self, other: "SymMat2") -> bool:
        return (
            self.a11.contains_iv(other.a11)
            and self.a12.contains_iv(other.a12)
            and self.a22.contains_iv(other.a22)
        )

    def entries(self) -> tuple[Iv, Iv, Iv]:
        return (self.a11, self.a12, self.a22)

    def __str__(self) -> str:
        return f"[[{self.a11}, {self.a12}], [{self.a12}, {self.a22}]]"


# -- rank-one connections ---------------------------------------------------------


@dataclass(frozen=True)
class RankOne:
    """A - B = c * n (x) n with |n| = 1: `scale` is c, and `axis` is 0 or 1
    when n is a coordinate direction, otherwise None."""

    scale: Iv
    axis: Optional[int]


def rank_one_connected(a: SymMat2, b: SymMat2) -> Optional[RankOne]:
    """Certified rank-one test for D = A - B.

    Returns None when D is certainly not of rank one (zero or det != 0);
    raises Undecided when the enclosures cannot settle it. det(D) must vanish
    exactly (zero-width), which holds for diagonal differences with one
    exact-zero entry even when the other entry is wide.
    """
    d = a - b
    if d.is_zero():
        return None
    if d.a12 == 0:
        z11 = d.a11 == 0
        z22 = d.a22 == 0
        if z11 and not z22:
            return RankOne(d.a22, 1)
        if z22 and not z11:
            return RankOne(d.a11, 0)
        if not z11 and not z22:
            det = d.det()
            try:
                if det.sign() != 0:
                    return None
            except Undecided:
                raise Undecided(f"rank of {d} undecided")
            # fall through: exact-zero det with both entries nonzero is
            # impossible for a diagonal matrix unless an entry is zero
            return None
    det = d.det()
    if not (det.lo == 0 and det.hi == 0):
        try:
            if det.sign() != 0:
                return None
        except Undecided:
            pass
        raise Undecided(f"rank-one test needs exact-zero det, got {det}")
    c = d.trace()
    try:
        sc = c.sign()
    except Undecided:
        raise Undecided(f"trace sign undecided for rank-one factor of {d}")
    if sc == 0:
        # trace 0 and det 0 with exact arithmetic means D = 0 for PSD/NSD
        # rank-one candidates; a nonzero such D is not rank one
        return None
    return RankOne(c, None)
