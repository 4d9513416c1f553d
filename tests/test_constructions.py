from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subhess.constructions as constructions
from subhess.constructions import (
    MAX_LEVELS,
    DoublingParams,
    cascade_moment_table,
    doubling_cascade,
    doubling_laminate,
    l1_growth_constant,
    neg_moment_constant,
    p_threshold,
    staircase_params,
    verify_doubling,
)
from subhess.laminate import Laminate, barycenter, dumps, elementary_split, moment
from subhess.scalars import Iv, pow2
from subhess.sym2 import SymMat2

from oracles import l1_limit_constant, validate, weights

P13 = Fraction(13, 10)
TOL9 = Fraction(1, 10**9)


class TestDoublingLaminate:
    def test_structure_and_validation(self):
        lam, params = doubling_laminate(P13)
        assert len(lam) == 3 and lam.depth() == 2
        rep = validate(lam)
        assert rep["ok"], rep["problems"]
        bc = barycenter(lam)
        assert bc.a11.contains(1) and bc.a22.contains(1)
        # A-atom, doubling atom, B-atom in leaf order
        a, mid, b = lam.atoms
        assert mid.matrix.a11.contains(2) and mid.matrix.a22.contains(2)
        assert a.matrix.a11.certainly_lt(0)  # p < log2(3)
        assert b.matrix.a22.certainly_lt(0)

    def test_weights_closed_forms(self):
        # rational override 2^p = 5/2 makes every weight exact
        lam, params = doubling_laminate(P13, two_p=Fraction(5, 2))
        wa, wmid, wb = (atom.weight for atom in lam.atoms)
        assert wa == Iv(Fraction(3, 7))  # (s-1)/(s+1)
        assert wmid == Iv(Fraction(2, 5))  # 1/s
        assert wb == Iv(Fraction(6, 35))  # (1-beta)(1-alpha)
        assert wa.lo + wmid.lo + wb.lo == 1

    def test_doubling_weight_is_two_to_minus_p(self):
        lam, params = doubling_laminate(P13)
        target = 1 / pow2(P13)
        assert (lam.atoms[1].weight - target).contains(0)
        assert lam.atoms[1].weight.width < TOL9

    def test_frozen_constants_p13(self):
        # oracle values frozen from certified interval evaluation
        _, params = doubling_laminate(P13)
        c = l1_growth_constant(params)
        assert c.contains_iv(c) and c.width < TOL9
        assert Fraction("2.7798099102") < c.lo <= c.hi < Fraction("2.7798099104")
        ainf = l1_limit_constant(params)
        assert Fraction("6.1535012706") < ainf.lo <= ainf.hi < Fraction("6.1535012707")
        c0 = neg_moment_constant(params, P13, 0)
        assert Fraction("0.1150377917") < c0.lo <= c0.hi < Fraction("0.1150377918")
        c1 = neg_moment_constant(params, P13, 1)
        assert Fraction("0.2577073216") < c1.lo <= c1.hi < Fraction("0.2577073217")

    def test_growth_constant_closed_forms(self):
        # s < 3: C = 4/s + 4/(s+1); s >= 3: C = 2 + 4/(s(s+1)); both exact
        _, params = doubling_laminate(2, two_p=Fraction(5, 2))
        assert l1_growth_constant(params) == Iv(Fraction(96, 35))
        _, params = doubling_laminate(2)  # s = 4 exactly
        assert l1_growth_constant(params) == Iv(Fraction(11, 5))

    def test_trace_equality_of_outer_atoms(self):
        lam, _ = doubling_laminate(2, two_p=Fraction(5, 2))
        a, _, b = lam.atoms
        assert a.matrix.trace() == Iv(Fraction(2, 3))  # (2s-4)/(s-1)
        assert b.matrix.trace() == Iv(Fraction(2, 3))

    @given(
        st.fractions(min_value=Fraction(21, 10), max_value=8, max_denominator=50),
        st.sampled_from([Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2)]),
    )
    @settings(max_examples=60)
    def test_rational_mode_invariants(self, s, k):
        lam, params = doubling_laminate(Fraction(3, 2), k=k, two_p=s)
        rep = validate(lam)
        assert rep["ok"], rep["problems"]
        bc = barycenter(lam)
        assert bc.a11 == Iv(k) and bc.a22 == Iv(k) and bc.a12 == Iv(0)
        assert l1_growth_constant(params).certainly_gt(2)
        # l1 moment scales linearly in k
        assert moment(lam, "l1_diag") == Iv(k) * l1_growth_constant(params)
        # traces of the outer atoms agree and are positive
        a, mid, b = lam.atoms
        assert a.matrix.trace() == b.matrix.trace()
        assert a.matrix.trace().certainly_gt(0)

    def test_k_independence_of_constants(self):
        vals = []
        for k in (Fraction(1), Fraction(2), Fraction(4)):
            lam, params = doubling_laminate(P13, k=k)
            vals.append(moment(lam, "l1_diag") / k)
        assert (vals[0] - vals[1]).contains(0) and (vals[1] - vals[2]).contains(0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            doubling_laminate(Fraction(1, 2))
        with pytest.raises(ValueError):
            doubling_laminate(Fraction(3, 2), two_p=Fraction(3, 2))


class TestVerifyDoubling:
    def test_full_report_below_threshold(self):
        lam, params = doubling_laminate(P13)
        rep = verify_doubling(lam, params, q_list=[P13, Fraction(3, 2)])
        assert rep["ok"]
        assert rep["barycenter"]["ok"] and rep["mass"]["ok"]
        assert rep["doubling_weight"]["ok"]
        assert rep["trail_interior"]["ok"]
        assert rep["trail_interior"]["min_trace"].certainly_gt(0)
        assert rep["l1_moment"]["constant"].certainly_gt(2)
        key = f"neg_moment_q={Fraction(3, 2)}"
        assert rep[key]["i0"]["applicable"] and rep[key]["i1"]["applicable"]

    def test_above_threshold_marks_i0_not_applicable(self):
        lam, params = doubling_laminate(2)
        rep = verify_doubling(lam, params, q_list=[Fraction(3, 2)])
        assert rep["ok"]
        row = rep[f"neg_moment_q={Fraction(3, 2)}"]
        assert row["i0"]["applicable"] is False
        assert row["i0"]["measured"] == Iv(0)
        assert row["i1"]["ok"]

    def test_threshold_location(self):
        t = p_threshold()
        assert t.contains_iv(t) and float(t.lo) > 1.5849 and float(t.hi) < 1.585


class TestCascade:
    def test_structure(self):
        lam, rounds = doubling_cascade(P13, 4)
        assert len(lam) == 9 and len(rounds) == 4
        rep = validate(lam)
        assert rep["ok"], rep["problems"]
        assert barycenter(lam).a11.contains(1)
        # weight of the final doubling atom is 2^(-4p)
        target = (1 / pow2(P13)).pow_int(4)
        tail = [
            a for a in lam.atoms if a.matrix.a11.contains(16) and a.matrix.a22.contains(16)
        ]
        assert len(tail) == 1
        assert (tail[0].weight - target).contains(0)

    def test_direct_equals_recursion(self):
        rows = cascade_moment_table(P13, [P13, Fraction(3, 2)], 12)
        assert len(rows) == 13
        for row in rows:
            assert (row["a_direct"] - row["a_rec"]).contains(0)
            assert (row["a_direct"] - row["a_rec"]).width < TOL9
            for qi in (0, 1):
                for i in (0, 1):
                    d = row[f"b{i}_direct_q{qi}"] - row[f"b{i}_rec_q{qi}"]
                    assert d.contains(0) and d.width < TOL9

    def test_monotone_and_bounded_l1(self):
        rows = cascade_moment_table(P13, [], 12)
        _, params = doubling_laminate(P13)
        ceiling = l1_limit_constant(params)
        prev = None
        for row in rows:
            if prev is not None:
                assert row["a_direct"].certainly_gt(prev)
            assert row["a_direct"].certainly_lt(ceiling)
            prev = row["a_direct"]

    def test_critical_exponent_linear_growth(self):
        # at q = p the i=0 moment is exactly c0 * m
        rows = cascade_moment_table(P13, [P13], 10)
        _, params = doubling_laminate(P13)
        c0 = neg_moment_constant(params, P13, 0)
        for row in rows:
            assert (row["b0_direct_q0"] - c0 * row["m"]).contains(0)

    def test_supercritical_log_slope(self):
        # q > p: log2 increments of b1 march at slope q - p
        q = Fraction(3, 2)
        rows = cascade_moment_table(P13, [q], 10)
        incs = []
        for a, b in zip(rows, rows[1:]):
            incs.append(b["b1_direct_q0"] - a["b1_direct_q0"])
        import math

        slopes = [
            math.log2(float(b.mid)) - math.log2(float(a.mid)) for a, b in zip(incs, incs[1:])
        ]
        for s in slopes:
            assert abs(s - float(q - P13)) < 0.02 * float(q - P13) + 1e-9

    @pytest.mark.parametrize("p", [P13, Fraction(8, 5)])  # either side of log2(3)
    def test_direct_columns_equal_moment_of_cascade(self, p):
        qs = [Fraction(3, 2), Fraction(6, 5)]
        rows = cascade_moment_table(p, qs, 8)
        phis = {"a_direct": "l1_diag"}
        for qi, q in enumerate(qs):
            for i in (0, 1):
                phis[f"b{i}_direct_q{qi}"] = ("neg_pow", i, q)
        for m, row in enumerate(rows):
            lam = doubling_cascade(p, m)[0]
            for col, phi in phis.items():
                ref = moment(lam, phi)
                assert (row[col].lo, row[col].hi) == (ref.lo, ref.hi), (m, col)

    def test_cascade_matches_round_by_round_splits(self):
        # reference: each round rebuilt from scratch, 2^p recomputed every round
        lam, rounds = doubling_cascade(P13, 5)
        ref = Laminate.dirac(SymMat2.identity(1))
        for j in range(5):
            params = DoublingParams.make(P13, Fraction(2**j))
            ref = elementary_split(ref, j, params.alpha, params.mat_a, params.mat_m)
            ref = elementary_split(ref, j + 1, params.beta, params.mat_2id, params.mat_b)
            assert rounds[j] == params
        assert dumps(lam) == dumps(ref)
        assert lam.atoms == Laminate(ref.root).atoms

    def test_two_to_the_p_computed_once(self, monkeypatch):
        calls = []
        real = constructions.pow2
        monkeypatch.setattr(constructions, "pow2", lambda *args: calls.append(args) or real(*args))
        doubling_cascade(P13, 6)
        assert len(calls) == 1
        cascade_moment_table(P13, [Fraction(3, 2)], 6)
        assert len(calls) == 2

    def test_empty_and_bad(self):
        lam, rounds = doubling_cascade(P13, 0)
        assert len(lam) == 1 and rounds == []
        with pytest.raises(ValueError):
            doubling_cascade(P13, -1)


class TestStaircaseParams:
    def test_schedule_values(self):
        sched = staircase_params(5)
        assert [lvl.k for lvl in sched] == [1, 2, 4, 8, 16]
        # p_j = 1 + (2/ln 2)/j
        expected = [3.8854, 2.4427, 1.9618, 1.7213, 1.5771]
        for lvl, e in zip(sched, expected):
            assert abs(float(lvl.p.mid) - e) < 5e-4
            assert lvl.eps <= Fraction(1, 4**lvl.j)
            # the strengthening eps_j <= 2^-p_j
            assert Iv(lvl.eps).certainly_le(pow2(-lvl.p))
            assert lvl.eps > 0 and lvl.eps.denominator & (lvl.eps.denominator - 1) == 0

    def test_threshold_crossing_at_level_five(self):
        sched = staircase_params(5)
        t = p_threshold()
        for lvl in sched[:4]:
            assert lvl.p.certainly_gt(t)
        assert sched[4].p.certainly_lt(t)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            staircase_params(0)

    def test_depth_cap(self):
        # the CLI refuses depths past MAX_LEVELS without building the schedule
        assert staircase_params(MAX_LEVELS)[-1].eps > 0
        with pytest.raises(ValueError, match=f"level {MAX_LEVELS + 1} epsilon underflow"):
            staircase_params(MAX_LEVELS + 1)


class TestParams:
    def test_weights_sum(self):
        params = DoublingParams.make(P13)
        w = weights(params)
        total = w[0] + w[1] + w[2]
        assert total.contains(1) and total.width < TOL9

    def test_requires_override_consistency(self):
        # override is accepted as-is: callers pick rational stand-ins freely
        params = DoublingParams.make(Fraction(3, 2), two_p=Fraction(28, 10))
        assert params.two_p == Iv(Fraction(14, 5))
