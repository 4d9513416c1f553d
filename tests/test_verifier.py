import dataclasses
import json
import re
import sys
from fractions import Fraction

import pytest

import subhess.cli as cli
from subhess.cli import _csv_text, _report_items_rows, main as cli_main
from subhess.constructions import doubling_cascade, doubling_laminate
from subhess.laminate import Laminate, elementary_split, moment, phi_l1_diag, phi_neg_pow
from subhess.scalars import Iv, sqrt_iv
from subhess.sym2 import SymMat2
from subhess.synthesizer import (
    BuildError,
    PiecewisePotential,
    realize_laminate,
    staircase_build,
)
from subhess.verifier import (
    area_fractions,
    continuity_audit,
    hessian_l1,
    neg_part_lq,
    potential_report,
    tally,
    ReportItem,
)

from oracles import one_split, phi_trace, sym

F = Fraction
UNIT = (F(0), F(0), F(1), F(1))
TINY = F(1, 2**60)


def simple_rational():
    base = SymMat2.diag(1, 1)
    return one_split(base, SymMat2.diag(2, 1), SymMat2.diag(0, 1), F(1, 2), UNIT, F(1, 2))


SIMPLE = simple_rational()
LAM, PARAMS = doubling_laminate(F(3, 2))
DOUBLING_EPS = F(1, 4)
DOUBLING = realize_laminate(LAM, UNIT, DOUBLING_EPS)
STAIR = staircase_build(2)


@pytest.fixture
def class_walks(monkeypatch):
    """Names the module of every caller that starts a cell_classes() walk."""
    callers = []
    orig = PiecewisePotential.cell_classes

    def counting(self):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return orig(self)

    monkeypatch.setattr(PiecewisePotential, "cell_classes", counting)
    return callers


@pytest.fixture
def verifier_passes(class_walks):
    """Count the cell_classes() walks that verifier code starts."""
    return lambda: class_walks.count("subhess.verifier")


class TestRegions:
    def test_whole_domain_area(self):
        assert tally(SIMPLE).area == 1
        assert tally(DOUBLING).area == 1
        assert tally(STAIR.potential).area == 1

    def test_level_partition(self):
        total = tally(DOUBLING).over(("level", 0)).area + tally(DOUBLING).over(("level", 1)).area
        assert total == 1
        # summing the per-level tallies reproduces the whole-domain one exactly
        phis = (phi_l1_diag, phi_neg_pow(1, F(3, 2)))
        for pot in (DOUBLING, STAIR.potential):
            whole = tally(pot, phis)
            levels = sorted({cc.level for cc in pot.cell_classes()})
            parts = [whole.over(("level", j)) for j in levels]
            assert sum(t.area for t in parts) == whole.area
            for k in range(len(phis)):
                assert sum((t.integrals[k] for t in parts), Iv(0)) == whole.integrals[k]
                assert sum((t.exact_integrals[k] for t in parts), Iv(0)) == whole.exact_integrals[k]
            atom_areas = {}
            for t in parts:
                for tag, area in t.atom_areas.items():
                    atom_areas[tag] = atom_areas.get(tag, 0) + area
            assert atom_areas == whole.atom_areas
            assert min(t.min_trace.lo for t in parts) == whole.min_trace.lo
            assert min(t.min_trace.hi for t in parts) == whole.min_trace.hi

    def test_omega_nesting(self):
        pot = STAIR.potential
        a1 = tally(pot).over(("omega", 1)).area
        a2 = tally(pot).over(("omega", 2)).area
        # cross-check: Omega_j is the union of the level-j pattern rectangles
        rects = {}
        for node in pot.nodes():
            if node.tag == "s1" or node.tag.endswith(".C.B"):  # level roots
                rects[node.level] = rects.get(node.level, 0) + node.mult * node.rect_w * node.rect_h
        assert (a1, a2) == (rects[1], rects[2])
        assert 0 < a2 < a1 < 1
        # a laminate's region Omega_1 is its levels >= 1
        t = tally(DOUBLING)
        assert t.over(("omega", 1)).area == t.over(("level", 1)).area < 1

    def test_atom_region(self):
        rows = area_fractions(SIMPLE, F(1, 2))
        for row in rows:
            assert tally(SIMPLE).atom_areas[row.atom_tag] == row.area

    def test_bad_region(self):
        with pytest.raises(ValueError):
            tally(SIMPLE).over(("quadrant", 3))

    def test_zero_area_region(self):
        empty = ("level", 99)
        named = re.escape(repr(empty))
        with pytest.raises(ValueError, match=named):
            tally(SIMPLE, (phi_trace,)).over(empty)


class TestMeans:
    def test_trace_identity_contained(self):
        # clamped boundary forces mean trace = trace(base) = 2
        enc = tally(SIMPLE, (phi_trace,)).mean(0)
        assert enc.contains(2)
        enc2 = tally(DOUBLING, (phi_trace,)).mean(0)
        assert enc2.contains(2)

    def test_hessian_l1_vs_moment(self):
        got = hessian_l1(DOUBLING)
        want = moment(LAM, phi_l1_diag)
        # realized mean sits within eps of the laminate moment
        assert abs(got - want).hi <= F(1, 4) * want.hi
        assert tally(DOUBLING, (phi_l1_diag,)).integrals[0] == got  # unit area

    def test_neg_part_two_sided(self):
        q = F(3, 2)
        enc = neg_part_lq(DOUBLING, q, 1)
        want = moment(LAM, phi_neg_pow(1, q))
        assert 0 < enc.lo <= enc.hi
        assert enc.lo >= F(1, 2) * want.lo
        assert enc.hi <= 2 * want.hi

    def test_neg_part_zero_when_sign_definite(self):
        # every Hessian in the simple pattern has H22 = 1
        enc = neg_part_lq(SIMPLE, F(3, 2), 1)
        assert enc == Iv(0)

    def test_neg_part_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            neg_part_lq(SIMPLE, F(1, 2), 0)
        with pytest.raises(ValueError):
            neg_part_lq(SIMPLE, F(3, 2), 2)
        # the functional itself refuses, so no caller can read a22 for i = 2
        with pytest.raises(ValueError, match="diagonal index"):
            phi_neg_pow(2, F(3, 2))
        with pytest.raises(ValueError, match="exponent"):
            phi_neg_pow(0, F(1, 2))

    def test_min_trace_simple(self):
        mt = tally(SIMPLE).min_trace
        assert mt.hi == 1  # the C atom's trace, exactly
        assert 0 < mt.lo <= 1

    def test_min_trace_staircase_nonnegative(self):
        # certified subharmonicity of the whole staircase
        assert tally(STAIR.potential).min_trace.lo >= 0

    def test_trail_proximity_within_band(self):
        # builders budget 3 eps / 4 for the Hessian band
        assert tally(SIMPLE).trail().hi <= F(3, 8)
        assert tally(DOUBLING).trail().hi <= F(3, 16)

    @pytest.mark.parametrize("build", [
        lambda: staircase_build(3).potential,
        lambda: realize_laminate(doubling_cascade(F(13, 10), 10)[0], UNIT, F(1, 16),
                                 dev_cap=F(1, 2)),
    ], ids=["staircase-J3", "cascade-m10"])
    def test_level_ball_is_max_over_its_nodes(self, build):
        # each level reads the build certificates of its own pattern nodes
        pot = build()
        t = tally(pot)
        want: dict = {}
        for node in pot.nodes():
            want[node.level] = max(want.get(node.level, F(0)), node.ball_sq.hi)
        assert want
        for lv, part in t.levels.items():
            assert part.ball_sq_hi == want.get(lv, 0)
        assert t.ball_sq_hi == max(want.values())
        if pot.frame_cells:
            # the staircase's level 0 holds frame cells only
            assert 0 not in want and t.levels[0].ball_sq_hi == 0


class TestFractionsAndAudit:
    def test_fraction_rows_certified(self):
        rows = area_fractions(DOUBLING, DOUBLING_EPS)
        assert [r.atom_tag for r in rows] == ["0.B", "0.C.B", "0.C.C"]
        for row in rows:
            assert row.ok and row.fraction >= row.required
        total_weight = sum((r.weight for r in rows), Iv(0))
        assert total_weight.contains(1)

    def test_staircase_terminal_fraction(self):
        rows = area_fractions(STAIR.potential, F(0))
        terminal = [r for r in rows if r.atom_tag.endswith(".C.B")]
        assert len(terminal) == 1
        # |Omega_{J+1}| summed straight from the classes
        direct = sum(cc.width * cc.height * cc.count for cc in STAIR.potential.cell_classes()
                     if cc.kind == "atom" and cc.atom_tag.endswith(".C.B"))
        assert terminal[0].area == direct

    def test_boundary_report(self):
        rep = continuity_audit(SIMPLE)
        assert rep["boundary_exact"] and rep["closure_width"] == 0

    def test_continuity_audit_rational_exact(self):
        audit = continuity_audit(SIMPLE)
        assert audit["checks"] == audit["exact"]
        assert audit["max_width"] == 0

    def test_continuity_audit_irrational_certified(self):
        audit = continuity_audit(DOUBLING)
        assert audit["max_width"] <= TINY
        assert audit["exact"] >= 3  # child handoff entries are exact

    def test_continuity_audit_interval_handoff(self):
        # atom matrices with an irrational entry: the child's base meets its
        # host atom only within their enclosure, so that handoff entry counts
        # toward the width and not as exact
        g = sqrt_iv(2) / 4
        one = SymMat2.diag(1, 1)
        lam = elementary_split(Laminate.dirac(one), 0, F(1, 2),
                               one + sym(g, 0, 0), one - sym(g, 0, 0))
        b = lam.atoms[0].matrix
        lam = elementary_split(lam, 0, F(1, 2),
                               b + SymMat2.diag(F(1, 2), 0), b - SymMat2.diag(F(1, 2), 0))
        audit = continuity_audit(realize_laminate(lam, UNIT, F(1, 4)))
        assert audit["exact"] == 2  # the child's a12 and a22 handoff entries
        assert 0 < audit["max_width"] <= TINY

    def test_dropped_atom_class_fails(self, monkeypatch, tmp_path):
        # planted fault: the first atom class vanishes from the walk
        orig = PiecewisePotential.cell_classes
        dropped = []

        def drop_first_atom(self):
            classes = orig(self)
            for cc in classes:
                if cc.kind == "atom":
                    dropped.append(cc.atom_tag)
                    break
                yield cc
            yield from classes

        monkeypatch.setattr(PiecewisePotential, "cell_classes", drop_first_atom)
        rows = {r.atom_tag: r for r in area_fractions(DOUBLING, DOUBLING_EPS)}
        assert not rows[dropped[0]].ok
        code = cli_main(["--out", str(tmp_path / "out"), "realize", "--p", "3/2", "--eps", "1/20"])
        assert code == 4

    def test_cascade_depth_neg_part_floor(self):
        # the certified floor must clear c0 * m up to the ramp-area loss
        lam, params = doubling_cascade(F(13, 10), 3)
        pot = realize_laminate(lam, UNIT, F(1, 10), dev_cap=F(3, 4))
        enc = neg_part_lq(pot, F(13, 10), 0)
        assert enc.lo > F(3, 10)



def shift_compensator(pot: PiecewisePotential) -> str:
    """Planted fault: the root's first compensator starts 2^-40 too high."""
    prof = pot.root.profile
    k = next(i for i, st in enumerate(prof.stripes) if st.role == "comp")
    moved = dataclasses.replace(prof.stripes[k], v0=prof.stripes[k].v0 + F(1, 2**40))
    pot.root.profile = dataclasses.replace(
        prof, stripes=prof.stripes[:k] + (moved,) + prof.stripes[k + 1:])
    return pot.root.tag


def shift_child_base(pot: PiecewisePotential) -> str:
    """Planted fault: the root's first child sits on a base 2^-40 off its host atom."""
    link = next(iter(pot.root.children.values()))
    link.node.base = link.node.base + SymMat2.diag(F(1, 2**40), 0)
    return pot.root.tag


class TestContinuityAuditFaults:
    """A C^1 fault raises BuildError naming the node, and `realize` exits 5."""

    @pytest.mark.parametrize("plant, message", [
        (shift_compensator, "profile knot mismatch in node"),
        (shift_child_base, "child base mismatch under node"),
    ], ids=["compensator-v0", "child-base"])
    def test_audit_raises(self, plant, message):
        pot = realize_laminate(LAM, UNIT, F(1, 4))
        continuity_audit(pot)
        tag = plant(pot)
        with pytest.raises(BuildError, match=f"{message} {tag}:"):
            continuity_audit(pot)

    @pytest.mark.parametrize("plant", [shift_compensator, shift_child_base],
                             ids=["compensator-v0", "child-base"])
    def test_realize_exits_5_naming_the_node(self, plant, monkeypatch, tmp_path):
        tags = []

        def faulty(*args, **kwargs):
            pot = realize_laminate(*args, **kwargs)
            tags.append(plant(pot))
            return pot

        monkeypatch.setattr(cli, "realize_laminate", faulty)
        out = tmp_path / "out"
        code = cli_main(["--out", str(out), "realize", "--p", "3/2", "--eps", "1/20"])
        assert code == 5
        note = json.loads((out / "manifest.json").read_text())["note"]
        assert note.startswith("could not certify: BuildError: ")
        assert f"node {tags[0]}:" in note

class TestReports:
    def test_potential_report_names_unique(self):
        items = potential_report(SIMPLE, q_list=[F(3, 2)])
        names = [it.name for it in items]
        assert len(names) == len(set(names))
        by_name = dict(zip(names, items))
        assert by_name["boundary_deviation"].value == Iv(0)

    def test_csv_rows_directed(self):
        items = [ReportItem("x", Iv(F(1, 3)))]
        rows = _report_items_rows(items, "certified-interval", 5)
        lo, hi = rows[1][1], rows[1][2]
        assert Fraction(lo) <= F(1, 3) <= Fraction(hi)
        assert lo != hi  # 1/3 has no exact 5-digit decimal

    def test_csv_deterministic(self, tmp_path):
        items = potential_report(SIMPLE)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text(_csv_text(_report_items_rows(items, "certified-interval", 30)))
        p2.write_text(_csv_text(_report_items_rows(potential_report(SIMPLE), "certified-interval", 30)))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().startswith(b"name,lower,upper,note")


class TestSinglePass:
    """Each measurement is one cell-class walk."""

    def test_report_one_pass(self, verifier_passes):
        potential_report(DOUBLING, q_list=[F(3, 2), F(13, 10)])
        assert verifier_passes() == 1

    @pytest.mark.parametrize("measure", [
        lambda pot: area_fractions(pot, DOUBLING_EPS),
        hessian_l1,
        lambda pot: neg_part_lq(pot, F(3, 2), 1),
    ], ids=["area_fractions", "hessian_l1", "neg_part_lq"])
    def test_functional_one_pass(self, verifier_passes, measure):
        measure(DOUBLING)
        assert verifier_passes() == 1

    def test_staircase_command_passes(self, class_walks, tmp_path):
        # the report and every per-level column read one tally
        for levels in (1, 2, 3, 4):
            class_walks.clear()
            out = tmp_path / f"J{levels}"
            assert cli_main(["--out", str(out), "staircase", "--J", str(levels)]) == 0
            assert class_walks == ["subhess.verifier"]

    def test_staircase_build_walks_none(self, class_walks):
        staircase_build(3)
        assert class_walks == []

    def test_realize_command_passes(self, class_walks, tmp_path):
        # the report and the area fractions read one tally
        out = tmp_path / "out"
        assert cli_main(["--out", str(out), "realize", "--p", "3/2", "--eps", "1/10"]) == 0
        assert class_walks == ["subhess.verifier"]

    def test_fractions_from_a_given_tally_walk_none(self, class_walks):
        rows = area_fractions(DOUBLING, DOUBLING_EPS)
        t = tally(DOUBLING)
        class_walks.clear()
        assert area_fractions(DOUBLING, DOUBLING_EPS, t=t) == rows
        assert class_walks == []
