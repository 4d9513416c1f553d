"""Symmetric 2x2 matrices over certified intervals.

Provides the matrix algebra and the rank-one connectedness test that the
laminate layer and the synthesizer lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from subhess.scalars import Iv, IvLike, as_iv


@dataclass(frozen=True)
class SymMat2:
    a11: Iv
    a12: Iv
    a22: Iv

    @staticmethod
    def diag(a11: IvLike, a22: IvLike) -> "SymMat2":
        return SymMat2(as_iv(a11), Iv(0), as_iv(a22))

    @staticmethod
    def identity() -> "SymMat2":
        return SymMat2(Iv(1), Iv(0), Iv(1))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)

    def __sub__(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.a11 - other.a11, self.a12 - other.a12, self.a22 - other.a22)

    def scale(self, c: IvLike) -> "SymMat2":
        cv = as_iv(c)
        return SymMat2(cv * self.a11, cv * self.a12, cv * self.a22)

    def trace(self) -> Iv:
        return self.a11 + self.a22

    def entries(self) -> tuple[Iv, Iv, Iv]:
        return (self.a11, self.a12, self.a22)


# -- rank-one connections ---------------------------------------------------------


@dataclass(frozen=True)
class RankOne:
    """A - B = scale * e (x) e, with e the unit vector of coordinate `axis`
    (0 or 1)."""

    scale: Iv
    axis: int


def rank_one_connected(a: SymMat2, b: SymMat2) -> Optional[RankOne]:
    """Exact zero-pattern test for D = A - B: a RankOne when the off-diagonal
    entry and exactly one diagonal entry of D are exactly 0, else None.

    Rank-one differences off the coordinate axes are not recognised: every
    construction splits along an axis, and only such splits are realizable.
    An entry whose enclosure merely contains 0 is not exactly 0.
    """
    d = a - b
    if d.a12 == 0 and (d.a11 == 0) != (d.a22 == 0):
        return RankOne(d.a22, 1) if d.a11 == 0 else RankOne(d.a11, 0)
    return None
