from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subhess.scalars import Iv
from subhess.sym2 import SymMat2, rank_one_connected
from subhess.synthesizer import _seg_dist_sq_box

from oracles import apply, frob, sym

small = st.fractions(min_value=-10, max_value=10, max_denominator=40)
# exact and interval entries from a small pool, so entries of A and B
# coincide often enough for exact zeros in A - B
entries = st.sampled_from([Iv(0), Iv(1), Iv(-2), Iv(Fraction(1, 3)),
                           Iv(0, 1), Iv(-1, 1), Iv(Fraction(1, 3), 2)])
mats = st.builds(SymMat2, entries, entries, entries)


def projector(a: SymMat2, b: SymMat2) -> SymMat2:
    """n (x) n = (A - B) / c for the scale c the rank-one test returns."""
    return (a - b).scale(1 / rank_one_connected(a, b).scale)


def np_of(m: SymMat2) -> np.ndarray:
    return np.array(
        [
            [float(m.a11.mid), float(m.a12.mid)],
            [float(m.a12.mid), float(m.a22.mid)],
        ]
    )


class TestRankOne:
    def test_axis_directions(self):
        r = rank_one_connected(SymMat2.diag(5, 1), SymMat2.diag(2, 1))
        assert r is not None and r.axis == 0
        assert r.scale == Iv(3)
        assert projector(SymMat2.diag(5, 1), SymMat2.diag(2, 1)) == SymMat2.diag(1, 0)
        r = rank_one_connected(SymMat2.diag(2, -1), SymMat2.diag(2, 4))
        assert r is not None and r.axis == 1 and r.scale == Iv(-5)

    def test_axis_with_wide_scale_still_exact_direction(self):
        # a wide entry on the axis leaves the direction exact
        wide = Iv(Fraction(29, 10), Fraction(31, 10))
        r = rank_one_connected(SymMat2.diag(wide, 1), SymMat2.diag(0, 1))
        assert r is not None and r.axis == 0 and r.scale == wide

    def test_off_axis_directions_refused(self):
        # (1,1)(x)(1,1) and (1,-1)(x)(1,-1) are rank one, but off the axes
        assert rank_one_connected(sym(2, 1, 2), sym(1, 0, 1)) is None
        assert rank_one_connected(sym(1, -1, 1), sym(0, 0, 0)) is None

    def test_entry_containing_zero_is_not_zero(self):
        # an enclosure around 0 does not settle the zero pattern, and the test
        # answers None rather than raising
        near = Iv(Fraction(-1, 10**9), Fraction(1, 10**9))
        assert rank_one_connected(sym(1, near, 0), SymMat2.diag(0, 0)) is None
        assert rank_one_connected(SymMat2.diag(1, near), SymMat2.diag(0, 0)) is None

    def test_rejections(self):
        assert rank_one_connected(SymMat2.diag(1, 1), SymMat2.diag(0, 0)) is None
        assert rank_one_connected(SymMat2.diag(1, 1), SymMat2.diag(1, 1)) is None
        assert rank_one_connected(sym(1, 1, 1), sym(0, 1, -1)) is None

    @given(small, small, st.sampled_from([0, 1]))
    @settings(max_examples=80)
    def test_random_rank_one_differences_detected(self, scale, base, axis):
        if scale == 0:
            return
        d = SymMat2.diag(scale, 0) if axis == 0 else SymMat2.diag(0, scale)
        a = SymMat2.diag(base, base + 1)
        r = rank_one_connected(a + d, a)
        assert r is not None and r.axis == axis
        assert r.scale == Iv(scale)

    @given(mats, mats)
    @settings(max_examples=300)
    def test_zero_pattern_decides(self, a, b):
        # never raises; a RankOne exactly when the off-diagonal entry and one
        # diagonal entry of A - B are exactly 0, scaled by the other one
        r = rank_one_connected(a, b)
        d = a - b
        z11, z12, z22 = (e.lo == e.hi == 0 for e in d.entries())
        if z12 and z11 != z22:
            assert r is not None and r.axis == (1 if z11 else 0)
            assert r.scale == (d.a22 if z11 else d.a11)
        else:
            assert r is None


class TestSegmentDistance:
    # the segment distance lives with its one caller, the synthesizer's ramp
    # certification; on a point box its upper end is the exact distance^2
    B = SymMat2.diag(2, 1)
    C = SymMat2.diag(-1, 1)

    def dist_sq(self, x: SymMat2, c: SymMat2 = C) -> Iv:
        return _seg_dist_sq_box(self.B, c, 0, *x.entries())

    def brute(self, x: SymMat2) -> float:
        bn, cn, xn = np_of(self.B), np_of(self.C), np_of(x)
        ss = np.linspace(0.0, 1.0, 20001)[:, None, None]
        m = ss * bn + (1 - ss) * cn - xn
        return float((m[:, 0, 0] ** 2 + 2 * m[:, 0, 1] ** 2 + m[:, 1, 1] ** 2).min())

    def test_interior_projection(self):
        x = sym(1, 0, Fraction(3, 2))
        d2 = self.dist_sq(x)
        assert d2.contains(Fraction(1, 4))
        assert abs(self.brute(x) - 0.25) < 1e-7

    def test_endpoint_clamp(self):
        x = SymMat2.diag(4, 1)
        d2 = self.dist_sq(x)
        assert d2.contains(Fraction(4))

    @given(small, small, small)
    @settings(max_examples=40)
    def test_against_brute_force(self, a, b, c):
        x = sym(a, b, c)
        d2 = self.dist_sq(x)
        ref = self.brute(x)
        assert float(d2.lo) - 1e-6 <= ref <= float(d2.hi) + 1e-6

    def test_degenerate_segment(self):
        d2 = self.dist_sq(SymMat2.diag(1, 1), c=self.B)
        assert d2.contains(Fraction(1))

    def test_in_eps_segment_verdicts(self):
        x = sym(1, 0, Fraction(3, 2))
        assert self.dist_sq(x).certainly_le(Iv(Fraction(6, 10)).sq())
        assert not self.dist_sq(x).certainly_le(Iv(Fraction(4, 10)).sq())

    def test_box_distance(self):
        h11 = Iv(-1, 2)
        h12 = Iv(Fraction(-1, 10), Fraction(1, 10))
        h22 = Iv(1)
        d2 = _seg_dist_sq_box(self.B, self.C, 0, h11, h12, h22)
        assert d2.hi == Fraction(2, 100) and d2.lo == 0
        # box partly outside in a11 too
        d2 = _seg_dist_sq_box(self.B, self.C, 0, Iv(-3, 0), Iv(0), Iv(1))
        assert d2.hi == Fraction(4) and d2.lo == 0
        # the same segment along the other axis
        swap = SymMat2.diag(1, 2), SymMat2.diag(1, -1)
        assert _seg_dist_sq_box(*swap, 1, h22, h12, h11) == Iv(0, Fraction(2, 100))


class TestMatrixBasics:
    def test_algebra(self):
        a = sym(1, 2, 3)
        b = sym(Fraction(1, 2), 0, -1)
        assert (a + b).a11 == Iv(Fraction(3, 2))
        assert (a - b).a22 == Iv(4)
        assert a.scale(2).a12 == Iv(4)
        assert a.trace() == Iv(4)
        # |a|^2 = 1 + 2*2^2 + 3^2 = 18, enclosed through its certified root
        assert frob(a).sq().contains(18) and frob(a).width < Fraction(1, 2**100)

    def test_apply(self):
        gx, gy = apply(sym(2, 1, 3), 1, Fraction(1, 2))
        assert gx == Iv(Fraction(5, 2)) and gy == Iv(Fraction(5, 2))
