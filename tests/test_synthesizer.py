import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subhess.constructions import (
    DoublingParams,
    doubling_cascade,
    doubling_laminate,
    staircase_params,
)
from subhess import synthesizer
from subhess.scalars import ENCLOSURE_BITS, Iv, pow2
from subhess.sym2 import SymMat2
from subhess.synthesizer import (
    BudgetExceeded,
    BuildError,
    FrameCell,
    NonAxisRankOne,
    PiecewisePotential,
    SIGMA_BITS,
    _node_cell_classes,
    _ramp_rows,
    _seg_dist_sq_box,
    _sigma_bits,
    build_pattern_node,
    realize_laminate,
    staircase_build,
)
from subhess.verifier import report_phis, tally

from oracles import eval_all, iter_cells, one_split

F = Fraction
UNIT = (F(0), F(0), F(1), F(1))
TINY = F(1, 2**60)


def stripe_fraction(node) -> F:
    """The split fraction t_hat the stripes realize: the first B stripe's
    share of its half period, the B C pair that ends at delta."""
    stripes = node.profile.stripes
    return stripes[0].x_hi / stripes[1].x_hi


def simple_pot(t, eps=F(1, 2), g=F(2), axis=0, rect=UNIT, dev_cap=None):
    # base = t*B + (1-t)*C holds exactly for B = base + (1-t)D, C = base - tD
    base = SymMat2.diag(1, 1)
    d = SymMat2.diag(g, 0) if axis == 0 else SymMat2.diag(0, g)
    b = base + d.scale(1 - t)
    c = base + d.scale(-t)
    return one_split(base, b, c, t, rect, eps, dev_cap=dev_cap)


# ---- polynomial helpers (independent of the synthesizer's evaluators) ----------------


def poly_val(cf, dx, dy) -> Iv:
    tot = Iv(0)
    for (i, j), c in cf.items():
        tot = tot + c * (dx**i * dy**j)
    return tot


def poly_grad(cf, dx, dy) -> tuple[Iv, Iv]:
    gx = Iv(0)
    gy = Iv(0)
    for (i, j), c in cf.items():
        if i:
            gx = gx + c * (i * dx ** (i - 1) * dy**j)
        if j:
            gy = gy + c * (j * dx**i * dy ** (j - 1))
    return gx, gy


def poly_hess(cf, dx, dy) -> tuple[Iv, Iv, Iv]:
    h11 = Iv(0)
    h12 = Iv(0)
    h22 = Iv(0)
    for (i, j), c in cf.items():
        if i >= 2:
            h11 = h11 + c * (i * (i - 1) * dx ** (i - 2) * dy**j)
        if i >= 1 and j >= 1:
            h12 = h12 + c * (i * j * dx ** (i - 1) * dy ** (j - 1))
        if j >= 2:
            h22 = h22 + c * (j * (j - 1) * dx**i * dy ** (j - 2))
    return h11, h12, h22


def cell_trace_integral(cf, w, h) -> Iv:
    # closed-form integral of H11 + H22 over [0,w] x [0,h]
    tot = Iv(0)
    for (i, j), c in cf.items():
        if i >= 2:
            tot = tot + c * (i * w ** (i - 1) * h ** (j + 1) / (j + 1))
        if j >= 2:
            tot = tot + c * (j * h ** (j - 1) * w ** (i + 1) / (i + 1))
    return tot


def cell_mixed_integral(cf, w, h) -> Iv:
    tot = Iv(0)
    for (i, j), c in cf.items():
        if i >= 1 and j >= 1:
            tot = tot + c * (w**i * h**j)
    return tot


def adjacent_pairs(cells):
    """All (cell, cell, shared edge) adjacencies, by coordinate sweep."""
    lefts: dict = {}
    rights: dict = {}
    bots: dict = {}
    tops: dict = {}
    for mc in cells:
        x0, y0, w, h = mc.rect
        lefts.setdefault(x0, []).append((y0, y0 + h, mc))
        rights.setdefault(x0 + w, []).append((y0, y0 + h, mc))
        bots.setdefault(y0, []).append((x0, x0 + w, mc))
        tops.setdefault(y0 + h, []).append((x0, x0 + w, mc))

    def join(side_a, side_b, vertical):
        out = []
        for coord, alist in side_a.items():
            blist = side_b.get(coord)
            if not blist:
                continue
            alist.sort(key=lambda r: (r[0], r[1]))
            blist.sort(key=lambda r: (r[0], r[1]))
            i = 0
            for alo, ahi, a in alist:
                while i < len(blist) and blist[i][1] <= alo:
                    i += 1
                k = i
                while k < len(blist) and blist[k][0] < ahi:
                    blo, bhi, b = blist[k]
                    lo, hi = max(alo, blo), min(ahi, bhi)
                    if lo < hi:
                        out.append((a, b, vertical, coord, lo, hi))
                    k += 1
        return out

    return join(rights, lefts, True) + join(tops, bots, False)


def assert_c1_across_edges(cells, width_cap=None, sample=None, seed=3):
    pairs = adjacent_pairs(cells)
    assert pairs, "no shared edges found"
    if sample is not None and len(pairs) > sample:
        pairs = random.Random(seed).sample(pairs, sample)
    for a, b, vertical, coord, lo, hi in pairs:
        span = hi - lo
        for f in (F(1, 4), F(1, 2), F(3, 4)):
            s = lo + span * f
            x, y = (coord, s) if vertical else (s, coord)
            va = poly_val(a.coeffs, x - a.rect[0], y - a.rect[1])
            vb = poly_val(b.coeffs, x - b.rect[0], y - b.rect[1])
            ga = poly_grad(a.coeffs, x - a.rect[0], y - a.rect[1])
            gb = poly_grad(b.coeffs, x - b.rect[0], y - b.rect[1])
            for da, db in ((va, vb), (ga[0], gb[0]), (ga[1], gb[1])):
                diff = da - db
                if width_cap is None:
                    assert diff == Iv(0), (a.node_tag, b.node_tag, diff)
                else:
                    assert diff.contains(0) and diff.width <= width_cap, (
                        a.node_tag,
                        b.node_tag,
                        diff,
                    )


def locate(cells, x, y):
    for mc in cells:
        x0, y0, w, h = mc.rect
        if x0 <= x <= x0 + w and y0 <= y <= y0 + h:
            return mc
    raise AssertionError(f"no cell contains ({x}, {y})")


def rand_points(n, rect=UNIT, seed=11, denom=997):
    rng = random.Random(seed)
    x0, y0, w, h = rect
    return [
        (x0 + w * F(rng.randrange(1, denom), denom), y0 + h * F(rng.randrange(1, denom), denom))
        for _ in range(n)
    ]


def assert_eval_matches_cells(pot, cells, pts, width_cap=None):
    for x, y in pts:
        mc = locate(cells, x, y)
        val, grad, hess = eval_all(pot, x, y)
        dx, dy = x - mc.rect[0], y - mc.rect[1]
        pv = poly_val(mc.coeffs, dx, dy)
        pg = poly_grad(mc.coeffs, dx, dy)
        ph = poly_hess(mc.coeffs, dx, dy)
        for a, b in ((val, pv), (grad[0], pg[0]), (grad[1], pg[1])) + tuple(zip(hess, ph)):
            if width_cap is None:
                assert a == b and a.width == 0
            else:
                assert max(a.lo, b.lo) <= min(a.hi, b.hi)
                assert a.width <= width_cap and b.width <= width_cap


# ---- fully rational pattern: everything must be exact --------------------------------


class TestSimpleRational:
    POT = simple_pot(F(1, 2))
    CELLS = list(iter_cells(POT))

    def test_count_and_tiling(self):
        assert len(self.CELLS) == self.POT.cell_count()
        assert sum(mc.rect[2] * mc.rect[3] for mc in self.CELLS) == 1

    def test_boundary_clamp_exact(self):
        rep = self.POT.boundary_report()
        assert rep["exact"]
        assert rep["closure_width"] == 0
        # the gradient equals the base affine map on all four sides
        for x, y in [(F(0), F(1, 3)), (F(1), F(2, 7)), (F(3, 7), F(0)), (F(5, 9), F(1))]:
            gx, gy = eval_all(self.POT, x, y)[1]
            assert gx == Iv(x) and gy == Iv(y)

    def test_dyadic_fraction_exact_no_compensation(self):
        node = self.POT.root
        assert stripe_fraction(node) == F(1, 2)
        prof = node.profile
        assert prof.c1 == Iv(0) and prof.c2 == Iv(0)
        assert prof.closure_width == 0

    def test_c1_continuity_all_edges(self):
        assert_c1_across_edges(self.CELLS)

    def test_eval_agrees_with_cells(self):
        assert_eval_matches_cells(self.POT, self.CELLS, rand_points(25))

    def test_atom_cells_carry_exact_hessians(self):
        seen = set()
        for mc in self.CELLS:
            if mc.kind != "atom":
                continue
            seen.add(mc.atom_tag)
            atom = self.POT.atoms[mc.atom_tag].matrix
            w, h = mc.rect[2], mc.rect[3]
            h11, h12, h22 = poly_hess(mc.coeffs, w / 2, h / 2)
            assert (h11, h12, h22) == (atom.a11, atom.a12, atom.a22)
        assert seen == {"0.B", "0.C"}

    def test_divergence_identity(self):
        # exact clamp forces integral of trace(D^2 u) = trace(base) * area
        tot = Iv(0)
        mix = Iv(0)
        for mc in self.CELLS:
            tot = tot + cell_trace_integral(mc.coeffs, mc.rect[2], mc.rect[3])
            mix = mix + cell_mixed_integral(mc.coeffs, mc.rect[2], mc.rect[3])
        assert tot == Iv(2)
        assert mix == Iv(0)

    def test_fractions_meet_floor(self):
        dom = F(1)
        areas = {}
        for mc in self.CELLS:
            if mc.kind == "atom":
                areas[mc.atom_tag] = areas.get(mc.atom_tag, F(0)) + mc.rect[2] * mc.rect[3]
        for tag, info in self.POT.atoms.items():
            assert areas[tag] / dom >= (1 - F(1, 2)) * info.weight.hi

    def test_grad_deviation_within_eps(self):
        assert self.POT.grad_deviation().hi <= F(1, 2)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            list(iter_cells(self.POT, budget=10))


class TestCompensatedRational:
    # t = 1/3 is rational but not dyadic: the compensator stripes activate,
    # and every quantity must STILL be exactly rational with exact closure
    POT = simple_pot(F(1, 3))
    CELLS = list(iter_cells(POT))

    def test_compensators_active_but_exact(self):
        prof = self.POT.root.profile
        assert prof.c1 != Iv(0) or prof.c2 != Iv(0)
        assert prof.c1.width == 0 and prof.c2.width == 0
        assert prof.closure_width == 0
        t_hat = stripe_fraction(self.POT.root)
        assert t_hat != F(1, 3)
        assert abs(t_hat - F(1, 3)) <= F(1, 2**79)

    def test_pair_boundaries_exactly_clamped(self):
        node = self.POT.root
        x0 = self.POT.root_origin[0]
        for k in (1, 2, node.n_pairs - 1):
            x = x0 + node.profile.period * k
            gx, gy = eval_all(self.POT, x, F(1, 2))[1]
            assert gx == Iv(x) and gy == Iv(F(1, 2))

    def test_c1_continuity_all_edges(self):
        assert_c1_across_edges(self.CELLS)

    def test_divergence_identity(self):
        tot = Iv(0)
        for mc in self.CELLS:
            tot = tot + cell_trace_integral(mc.coeffs, mc.rect[2], mc.rect[3])
        assert tot == Iv(2)

    def test_eval_agrees_with_cells(self):
        assert_eval_matches_cells(self.POT, self.CELLS, rand_points(15, seed=5))


class TestAxisSwap:
    POT = simple_pot(F(1, 2), axis=1)
    CELLS = list(iter_cells(POT))

    def test_axis_detected(self):
        assert self.POT.root.axis == 1

    def test_c1_continuity_all_edges(self):
        assert_c1_across_edges(self.CELLS)

    def test_eval_agrees_with_cells(self):
        assert_eval_matches_cells(self.POT, self.CELLS, rand_points(15, seed=7))

    def test_divergence_identity(self):
        tot = Iv(0)
        for mc in self.CELLS:
            tot = tot + cell_trace_integral(mc.coeffs, mc.rect[2], mc.rect[3])
        assert tot == Iv(2)

    def test_boundary_clamp_exact(self):
        for x, y in [(F(0), F(1, 3)), (F(1), F(2, 7)), (F(3, 7), F(0)), (F(5, 9), F(1))]:
            gx, gy = eval_all(self.POT, x, y)[1]
            assert gx == Iv(x) and gy == Iv(y)


# ---- measurement classes against the materialized cells -------------------------------

RATIONAL_CASES = (TestSimpleRational, TestCompensatedRational, TestAxisSwap)


def node_classes(pot):
    """(node tag, class) of every pattern-node class, in `cell_classes` order."""
    pairs = [(node.tag, cc) for node in pot.nodes() for cc in _node_cell_classes(node)]
    assert [cc for _, cc in pairs] == [cc for cc in pot.cell_classes() if cc.kind != "frame"]
    return pairs


def assert_ramp_cells_inside_class_boxes(pot, cells):
    boxes: dict = {}
    for tag, cc in node_classes(pot):
        if cc.kind == "ramp":
            boxes.setdefault((tag, cc.area), []).append(cc.h_box)
    ramp_cells = [mc for mc in cells if mc.kind == "ramp"]
    assert ramp_cells
    for mc in ramp_cells:
        w, h = mc.rect[2], mc.rect[3]
        points = ((0, 0), (w, 0), (0, h), (w, h), (w / 2, h / 2))
        hessians = [poly_hess(mc.coeffs, F(dx), F(dy)) for dx, dy in points]
        assert any(
            all(b.contains_iv(e) for hess in hessians for b, e in zip(box, hess))
            for box in boxes.get((mc.node_tag, w * h), ())
        ), (mc.node_tag, mc.rect)


def assert_stored_rows_rederive(pot):
    for node in pot.nodes():
        fresh = tuple(tuple(_ramp_rows(stripe, node.etas, node.base, node.axis))
                      for stripe in node.profile.stripes)
        assert node.ramp_rows == fresh, node.tag


class TestRampClassesMatchCells:
    @pytest.mark.parametrize("case", RATIONAL_CASES, ids=lambda c: c.__name__)
    def test_ramp_cell_hessians_inside_class_boxes(self, case):
        assert_ramp_cells_inside_class_boxes(case.POT, case.CELLS)

    @pytest.mark.parametrize("case", RATIONAL_CASES, ids=lambda c: c.__name__)
    def test_node_ball_is_max_over_its_ramp_classes(self, case):
        # the node certificate covers every ramp class the verifier sums
        classes = node_classes(case.POT)
        for node in case.POT.nodes():
            balls = [_seg_dist_sq_box(node.mat_b, node.mat_c, node.axis, *cc.h_box).hi
                     for tag, cc in classes if cc.kind == "ramp" and tag == node.tag]
            assert balls and node.ball_sq.hi == max(balls)


def cascade_pot(m: int) -> PiecewisePotential:
    # criterion 4's realization of the p = 13/10 cascade of length m
    cascade, _ = doubling_cascade(F(13, 10), m)
    return realize_laminate(cascade, UNIT, F(1, 16), dev_cap=F(1, 2 * (m // 10)))


class TestStoredRampRows:
    """Each ramp box is derived once, by the build that certifies it."""

    @pytest.fixture(scope="class")
    def cascade10(self):
        return cascade_pot(10)

    @pytest.fixture
    def ramp_row_calls(self, monkeypatch):
        calls = []
        orig = synthesizer._ramp_rows

        def counting(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(synthesizer, "_ramp_rows", counting)
        return calls

    @pytest.mark.parametrize("case", RATIONAL_CASES, ids=lambda c: c.__name__)
    def test_rows_rederive_rational(self, case):
        assert_stored_rows_rederive(case.POT)

    def test_rows_rederive_deep(self, cascade10):
        assert_stored_rows_rederive(cascade10)
        assert_stored_rows_rederive(TestDoublingLaminate.POT)
        assert_stored_rows_rederive(staircase_build(3).potential)

    def test_walks_derive_no_box(self, cascade10, ramp_row_calls):
        stair = staircase_build(3).potential
        # the build derives every box once per stripe of its accepted attempt
        assert len(ramp_row_calls) >= sum(len(n.profile.stripes) for n in stair.nodes())
        ramp_row_calls.clear()
        for pot in (cascade10, stair):
            assert sum(cc.kind == "ramp" for cc in pot.cell_classes()) > 0
        assert ramp_row_calls == []

    def test_planted_shrunk_box_is_caught(self, monkeypatch):
        # a stored box shrunk to its midpoint no longer encloses its cells
        pot = TestCompensatedRational.POT
        node = pot.root
        (height, box), *rest = node.ramp_rows[0]
        point = tuple(Iv(entry.mid) for entry in box)
        assert point != box
        monkeypatch.setattr(node, "ramp_rows",
                            (((height, point), *rest), *node.ramp_rows[1:]))
        with pytest.raises(AssertionError):
            assert_stored_rows_rederive(pot)
        with pytest.raises(AssertionError):
            assert_ramp_cells_inside_class_boxes(pot, TestCompensatedRational.CELLS)

    def test_enclosures_bounded_at_m20(self, significant_bits):
        pot = cascade_pot(20)
        bits = [significant_bits(e) for cc in pot.cell_classes() if cc.kind == "ramp"
                for entry in cc.h_box for e in (entry.lo, entry.hi)]
        assert bits and max(bits) <= ENCLOSURE_BITS
        # each level's sums are rounded; their fold into the whole stays exact
        t = tally(pot, report_phis([F(13, 10)]))
        sums = [v for part in t.levels.values()
                for v in (*part.integrals, *part.exact_integrals) if not v.is_exact()]
        assert sums
        assert max(significant_bits(e) for v in sums for e in (v.lo, v.hi)) <= ENCLOSURE_BITS


class TestIrrationalFraction:
    # alpha(p = 3/2) is a genuine irrational enclosure; geometry stays rational
    PARAMS = DoublingParams.make(F(3, 2))
    POT = one_split(
        PARAMS.mat_id, PARAMS.mat_a, PARAMS.mat_m, PARAMS.alpha, UNIT, F(1, 4)
    )
    CELLS = list(iter_cells(POT))

    def test_boundary_clamp_exact(self):
        rep = self.POT.boundary_report()
        assert rep["exact"]
        assert 0 < rep["closure_width"] <= TINY

    def test_t_hat_close(self):
        assert abs(Iv(stripe_fraction(self.POT.root)) - self.PARAMS.alpha).hi <= F(1, 2**79)

    def test_compensators_tiny_and_on_segment(self):
        node = self.POT.root
        gamma = (node.mat_b - node.mat_c).entries()[2 * node.axis]
        for c in (node.profile.c1, node.profile.c2):
            assert abs(c).hi <= abs(gamma).hi * F(1, 2**38)

    def test_c1_continuity_sampled_edges(self):
        assert_c1_across_edges(self.CELLS, width_cap=TINY, sample=250)

    def test_eval_agrees_with_cells(self):
        assert_eval_matches_cells(
            self.POT, self.CELLS, rand_points(10, seed=13), width_cap=F(1, 10**18)
        )

    def test_divergence_identity_contained(self):
        tot = Iv(0)
        for mc in self.CELLS:
            tot = tot + cell_trace_integral(mc.coeffs, mc.rect[2], mc.rect[3])
        assert tot.contains(2) and tot.width <= TINY

    def test_pattern_area_exact(self):
        assert sum(mc.rect[2] * mc.rect[3] for mc in self.CELLS) == 1


class TestDoublingLaminate:
    # depth-2 realization is measurement-only: ~1e9 geometric cells
    LAM, PARAMS = doubling_laminate(F(3, 2))
    POT = realize_laminate(LAM, UNIT, F(1, 4))

    def test_cell_count_huge_but_exact(self):
        assert self.POT.cell_count() > 10**7
        # the node formula and the class multiplicities count the same cells
        cascade, _ = doubling_cascade(F(13, 10), 10)
        pots = [self.POT, realize_laminate(cascade, UNIT, F(1, 16), dev_cap=F(1, 2))]
        pots += [staircase_build(levels).potential for levels in (1, 2, 3)]
        for pot in pots:
            assert pot.cell_count() == sum(cc.count for cc in pot.cell_classes())

    def test_materialization_refused(self):
        with pytest.raises(BudgetExceeded):
            next(iter(iter_cells(self.POT)))

    def test_child_base_is_exact_atom(self):
        root = self.POT.root
        (role,) = root.children.keys()
        child = root.children[role].node
        host = root.atom_for_role(role)
        assert (host - child.base).entries() == (Iv(0), Iv(0), Iv(0))

    def test_grad_deviation_under_eps(self):
        assert self.POT.grad_deviation().hi <= F(1, 4)

    def test_boundary_exact(self):
        assert self.POT.boundary_report()["exact"]

    def test_eval_point_interval_tight(self):
        val, grad, hess = eval_all(self.POT, F(1, 3), F(2, 7))
        assert val.width <= F(1, 10**18)
        # gradient deviates from the base affine map by at most the certificate
        dev = self.POT.grad_deviation().hi
        assert abs(grad[0] - F(1, 3)).hi <= dev
        assert abs(grad[1] - F(2, 7)).hi <= dev


def assembled_frames_pot() -> PiecewisePotential:
    # hand-assembled frame + centered pattern, mimicking the staircase layout:
    # the pattern quadratic is centered at the DOMAIN corner, so the clamped
    # pattern must continue the frame quadratic C^1-exactly
    inner_pot = simple_pot(F(1, 2), rect=(F(1, 4), F(1, 4), F(1, 2), F(1, 2)))
    frames = (
        FrameCell((F(0), F(0), F(1, 4), F(1)), SymMat2.diag(1, 1), "f.L", 0),
        FrameCell((F(3, 4), F(0), F(1, 4), F(1)), SymMat2.diag(1, 1), "f.R", 0),
        FrameCell((F(1, 4), F(0), F(1, 2), F(1, 4)), SymMat2.diag(1, 1), "f.B", 0),
        FrameCell((F(1, 4), F(3, 4), F(1, 2), F(1, 4)), SymMat2.diag(1, 1), "f.T", 0),
    )
    return PiecewisePotential(
        domain=UNIT,
        base_matrix=SymMat2.diag(1, 1),
        root=inner_pot.root,
        root_origin=(F(1, 4), F(1, 4)),
        frame_cells=frames,
        atoms=inner_pot.atoms,
    )


class TestAssembledFrames:
    POT = assembled_frames_pot()
    CELLS = list(iter_cells(POT))

    def test_tiling(self):
        assert sum(mc.rect[2] * mc.rect[3] for mc in self.CELLS) == 1
        assert len(self.CELLS) == self.POT.cell_count()

    def test_c1_across_frame_and_pattern(self):
        assert_c1_across_edges(self.CELLS)

    def test_eval_agrees_everywhere(self):
        assert_eval_matches_cells(self.POT, self.CELLS, rand_points(30, seed=17))

    def test_frame_points_pure_quadratic(self):
        x, y = F(1, 10), F(9, 10)
        assert eval_all(self.POT, x, y)[0] == Iv((x * x + y * y) / 2)

    def test_divergence_identity(self):
        tot = Iv(0)
        for mc in self.CELLS:
            tot = tot + cell_trace_integral(mc.coeffs, mc.rect[2], mc.rect[3])
        assert tot == Iv(2)


class TestStaircase:
    RESULT = staircase_build(2)
    POT = RESULT.potential

    def test_layer_schedule(self):
        assert [lay.j for lay in self.RESULT.layers] == [1, 2]
        m = self.POT.root_origin[0]
        assert tally(self.POT).over(("omega", 1)).area == (1 - 2 * m) ** 2

    def test_omega_areas_follow_doubling_weight(self):
        # |Omega_{j+1}| / |Omega_j| in [(1 - eps_j) 2^-p_j, 2^-p_j]
        lay1, lay2 = self.RESULT.layers
        t = tally(self.POT)
        omega1, omega2 = (t.over(("omega", lay.j)).area for lay in (lay1, lay2))
        ratio = omega2 / omega1
        w = pow2(-lay1.p)
        assert ratio <= w.hi
        assert ratio >= (1 - lay1.eps) * w.lo
        (terminal,) = [area for tag, area in t.atom_areas.items() if tag.endswith(".b.B")]
        term_ratio = terminal / omega2
        w2 = pow2(-lay2.p)
        assert term_ratio <= w2.hi
        assert term_ratio >= (1 - lay2.eps) * w2.lo

    def test_grad_steps_within_caps(self):
        for lay in self.RESULT.layers:
            assert lay.grad_step.hi <= F(1, 2**lay.j)

    def test_area_accounting_exact(self):
        total = F(0)
        for cc in self.POT.cell_classes():
            total += cc.area * cc.count
        assert total == 1

    def test_boundary_exact(self):
        assert self.POT.boundary_report()["exact"]

    def test_frame_evaluation_exact(self):
        x, y = F(1, 256), F(1, 2)
        assert eval_all(self.POT, x, y)[0] == Iv((x * x + y * y) / 2)

    def test_pattern_point_certified(self):
        val, grad, _ = eval_all(self.POT, F(1, 2), F(1, 2))
        dev = self.POT.grad_deviation().hi
        assert val.width <= F(1, 10**12)
        assert abs(grad[0] - F(1, 2)).hi <= dev
        assert abs(grad[1] - F(1, 2)).hi <= dev
        assert dev <= F(1, 2)

    def test_pickle_and_deepcopy(self):
        pot = staircase_build(1).potential
        classes = tuple(pot.cell_classes())
        for clone in (pickle.loads(pickle.dumps(pot)), copy.deepcopy(pot)):
            assert vars(clone) == vars(pot)
            assert tuple(clone.cell_classes()) == classes
        for clone in (pickle.loads(pickle.dumps(classes)), copy.deepcopy(classes)):
            assert clone == classes

    def test_layer2_hosts_inside_layer1(self):
        levels = [layer.j for layer in self.RESULT.layers]
        assert levels == [1, 2]
        assert sorted({node.level for node in self.POT.nodes()}) == levels
        # every level-2 node hangs below a level-1 node's core cells
        def subtree(node):
            yield node
            for link in node.children.values():
                yield from subtree(link.node)

        deep = [link.node for node in self.POT.nodes() if node.level == 1
                for link in node.children.values() if link.node.level == 2]
        assert deep
        assert {n.tag for d in deep for n in subtree(d)} == {
            n.tag for n in self.POT.nodes() if n.level == 2}


class TestCompensatorBits:
    def test_floor_kept_on_documented_ranges(self):
        # staircase levels use eps_a = eps_j / 8, realize eps_a = eps / (2 depth)
        for levels in range(1, 9):
            assert all(_sigma_bits(lvl.eps / 8) == SIGMA_BITS
                       for lvl in staircase_params(levels))
        for eps in (F(1, 40), F(1, 10), F(1, 100000)):
            assert _sigma_bits(eps / 4) == SIGMA_BITS

    @pytest.mark.parametrize("eps_a", [F(1, 2**19), F(1, 2**19 + 1), F(1, 4 * 10**6),
                                       F(3, 10**9), F(1, 2**40)])
    def test_compensators_within_half_the_ramp_share(self, eps_a):
        bits = _sigma_bits(eps_a)
        assert F(1, 2**bits) <= eps_a / 2
        assert bits == SIGMA_BITS or F(1, 2**(bits - 1)) > eps_a / 2


def pattern_node(base, b, c, t):
    return build_pattern_node(tag="0", level=0, base=base, mat_b=b, mat_c=c, t=t,
                              rect_w=F(1), rect_h=F(1), eps_h=F(3, 8), eps_a=F(1, 4),
                              dev_cap=F(1, 2))


class TestErrors:
    def test_non_axis_rank_one(self):
        base = SymMat2.diag(0, 0)
        d = SymMat2.of(1, 1, 1)  # e (x) e for e = (1,1): rank one, off-axis
        b = base + d.scale(F(1, 2))
        c = base + d.scale(-F(1, 2))
        with pytest.raises(NonAxisRankOne):
            pattern_node(base, b, c, F(1, 2))

    def test_rank_two_rejected(self):
        base = SymMat2.diag(1, 1)
        b = SymMat2.diag(2, 3)
        c = SymMat2.diag(0, -1)
        with pytest.raises(BuildError):
            pattern_node(base, b, c, F(1, 2))

    def test_fraction_out_of_range(self):
        base = SymMat2.diag(1, 1)
        b = SymMat2.diag(2, 1)
        c = SymMat2.diag(0, 1)
        with pytest.raises(BuildError):
            pattern_node(base, b, c, F(2))

    def test_barycenter_mismatch(self):
        base = SymMat2.diag(5, 5)
        b = SymMat2.diag(2, 1)
        c = SymMat2.diag(0, 1)
        with pytest.raises(BuildError):
            pattern_node(base, b, c, F(1, 2))

    def test_empty_staircase(self):
        with pytest.raises(ValueError):
            staircase_build(0)


class TestRationalFamily:
    @settings(max_examples=8, deadline=None)
    @given(
        num=st.integers(min_value=1, max_value=15),
        den=st.sampled_from([4, 8, 16]),
        g=st.sampled_from([1, 2, 3]),
    )
    def test_exactness_invariants(self, num, den, g):
        if num >= den:
            num = den - 1
        pot = simple_pot(F(num, den), g=F(g))
        rep = pot.boundary_report()
        assert rep["exact"] and rep["closure_width"] == 0
        assert pot.grad_deviation().hi <= F(1, 2)
        # dyadic fractions need no compensation at all
        assert pot.root.profile.c1 == Iv(0) and pot.root.profile.c2 == Iv(0)
        total = F(0)
        for cc in pot.cell_classes():
            total += cc.area * cc.count
        assert total == 1
