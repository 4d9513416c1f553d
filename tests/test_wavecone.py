import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subhess.wavecone as wavecone
from subhess.cli import main
from subhess.wavecone import (
    CertificationError,
    agreement_suite,
    lattice_suite,
    member,
    member_bruteforce,
)

from oracles import exact_candidate, lp_primal, residual, vertex_optimum

F = Fraction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


class TestMember:
    def test_zero_vector(self):
        assert member((0, 0)) and member((0, 0, 0))

    def test_zeros_allowed_inside(self):
        assert member((1, 2, 0))
        assert member((F(-1, 3), 0, -2))

    def test_strict_conflict(self):
        assert not member((1, -1))
        assert not member((F(1, 1000), F(-1, 1000)))

    def test_negative_orthant(self):
        assert member((-3, -1, -2))

    @settings(max_examples=60, deadline=None)
    @given(v=st.lists(rationals, min_size=2, max_size=4), t=rationals)
    def test_cone_scaling(self, v, t):
        if t == 0:
            return
        assert member([t * x for x in v]) == member(v)

    @settings(max_examples=60, deadline=None)
    @given(v=st.lists(rationals, min_size=2, max_size=4))
    def test_permutation_invariance(self, v):
        m = member(v)
        for p in itertools.permutations(v):
            assert member(p) == m

    @settings(max_examples=60, deadline=None)
    @given(v=st.lists(rationals, min_size=2, max_size=4))
    def test_nonnegative_trace_members_are_nonnegative(self, v):
        if member(v) and sum(v) >= 0:
            assert all(x >= 0 for x in v)


class TestBruteForce:
    def test_member_has_exact_zero_residual(self):
        bf = member_bruteforce((F(4), F(1)))
        best_residual, best_zeta = lp_primal((F(4), F(1)))
        assert bf.member and best_residual == 0 and bf.floor == 0
        assert best_zeta == (F(4, 5), F(1, 5))

    def test_basis_vector_forced_by_zeros(self):
        bf = member_bruteforce((F(1), F(0), F(0)))
        assert bf.member and lp_primal((F(1), F(0), F(0)))[0] == 0

    def test_conflict_gets_positive_floor(self):
        bf = member_bruteforce((F(1), F(-1)))
        assert not bf.member
        assert bf.floor > 0
        assert bf.floor <= lp_primal((F(1), F(-1)))[0]

    def test_adversarial_small_conflict(self):
        eps = F(1, 1000)
        bf = member_bruteforce((eps, -eps))
        assert not bf.member and bf.floor > 0

    @settings(max_examples=40, deadline=None)
    @given(a=st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
           b=st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    def test_two_dim_floor_closed_form(self, a, b):
        # mixed signs: the true sphere minimum of the residual is min(|a|,|b|)
        bf = member_bruteforce((a, -b))
        assert bf.floor == min(a, b)
        assert not bf.member

    @settings(max_examples=40, deadline=None)
    @given(v=st.lists(rationals, min_size=2, max_size=6))
    def test_floor_sound(self, v):
        bf = member_bruteforce(v)
        best_residual, best_zeta = lp_primal(v)
        assert bf.member == member(v)
        if bf.member:
            assert best_residual == 0 and bf.patches == 0
        else:
            assert 0 < bf.floor <= best_residual and bf.patches == 1
        assert residual([F(x) for x in v], best_zeta) == best_residual
        assert sum(best_zeta) == 1 and min(best_zeta) >= 0

    @settings(max_examples=40, deadline=None)
    @given(v=st.lists(rationals, min_size=2, max_size=3))
    def test_floor_equals_vertex_optimum(self, v):
        assert member_bruteforce(v).floor == vertex_optimum(v)

    def test_floor_exact_on_acceptance_inputs(self):
        # the inputs of acceptance criterion 6: the exact floor meets the
        # rationalized float primal of an independent LP solve
        for n in (2, 3):
            rng = random.Random(0)
            vectors = [wavecone._random_vector(rng, n) for _ in range(1000)]
            vectors += itertools.product(range(-2, 3), repeat=n)
            for v in vectors:
                bf = member_bruteforce(v)
                assert bf.member == member(v)
                assert bf.floor == lp_primal(v)[0]

    @pytest.mark.parametrize("v", [
        (F(1, 10**12), F(-1)),
        (F(1, 10**12), F(-1, 10**12), F(5)),
        (F(10**9), F(-1), F(1, 3)),
        (F(1, 7**20), F(-3, 11**15), F(2)),
    ])
    def test_wide_magnitudes_certify(self, v):
        # entries across many orders of magnitude, where float duals cancel
        bf = member_bruteforce(v)
        assert not bf.member and bf.floor > 0
        assert bf.floor == vertex_optimum(v)

    def test_bland_rule_alone_reaches_the_optimum(self, monkeypatch):
        # no input met so far makes 2(n+1) degenerate pivots in a row; price
        # by Bland's rule from the first pivot and meet Dantzig's floors
        rng = random.Random(3)
        vectors = [wavecone._random_vector(rng, n) for n in (2, 3, 4, 5, 6) for _ in range(40)]
        vectors += itertools.product(range(-1, 2), repeat=4)
        dantzig = [member_bruteforce(v).floor for v in vectors]
        monkeypatch.setattr(wavecone, "_DEGENERATE_RUN", 0)
        assert [member_bruteforce(v).floor for v in vectors] == dantzig

    def test_equal_duals_cannot_certify(self, monkeypatch):
        # planted fault: equal weights on the +pair and -pair rows cancel,
        # so the dual bound is 0 and no verdict may come back
        solve = wavecone._solve_dual

        def flatten_duals(vs):
            y, zeta = solve(vs)
            return {(i, j, sign): F(1) for i, j, _ in y for sign in (1, -1)}, zeta

        monkeypatch.setattr(wavecone, "_solve_dual", flatten_duals)
        with pytest.raises(CertificationError, match="dual bound 0"):
            member_bruteforce((F(1), F(-1)))

    @pytest.mark.parametrize("delta", [
        (F(-1, 10**6), F(1, 10**6), F(0)),
        (F(2, 10**6), F(-3, 10**6), F(1, 10**6)),
        (F(0), F(0), F(-1, 10**6)),
    ], ids=["off-optimum", "negative-entry", "off-simplex"])
    def test_perturbed_primal_fails_strong_duality(self, monkeypatch, delta):
        # planted fault: the primal point (1/2, 0, 1/2) moves along the
        # simplex, off the optimum; or to a point with a negative entry, or
        # off the plane sum = 1, whose residual still reads the floor 3/2.
        # Each move fails exactly one of the three checks on the point.
        solve = wavecone._solve_dual

        def move_primal(vs):
            y, zeta = solve(vs)
            assert zeta == (F(1, 2), F(0), F(1, 2))
            return y, tuple(z + e for z, e in zip(zeta, delta))

        monkeypatch.setattr(wavecone, "_solve_dual", move_primal)
        with pytest.raises(CertificationError, match="primal point"):
            member_bruteforce((F(2), F(-3), F(1)))

    def test_residual_definition(self):
        v = (F(2), F(-3), F(1))
        zeta = (F(1, 2), F(1, 4), F(1, 4))
        want = max(
            abs(zeta[0] * v[1] - zeta[1] * v[0]),
            abs(zeta[0] * v[2] - zeta[2] * v[0]),
            abs(zeta[1] * v[2] - zeta[2] * v[1]),
        )
        assert residual(v, zeta) == want

    def test_candidate_of_zero_vector(self):
        assert exact_candidate((F(0), F(0), F(0))) == (F(1, 3), F(1, 3), F(1, 3))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            member_bruteforce((F(1),))


class TestSuites:
    def test_agreement_small(self):
        rep = agreement_suite(2, 120, seed=5)
        assert rep["all_agree"] and rep["trials"] == 120
        assert rep["members"] + rep["nonmembers"] == 120
        assert 0 < rep["members"] < 120

    def test_agreement_n3(self):
        rep = agreement_suite(3, 60, seed=6)
        assert rep["all_agree"]

    def test_agreement_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            agreement_suite(2, 0)

    def test_agreement_deterministic(self):
        r1 = agreement_suite(2, 40, seed=9)
        r2 = agreement_suite(2, 40, seed=9)
        assert r1 == r2

    def test_lattice_exhaustive_small(self):
        rep = lattice_suite(2, radius=2)
        assert rep["all_ok"] and rep["vectors"] == 25
        rep3 = lattice_suite(3, radius=1)
        assert rep3["all_ok"] and rep3["vectors"] == 27

    @pytest.mark.parametrize("kind, planted", [
        ("oracle", lambda exact, v: exact(v) != any(x == 0 for x in v)),
        ("scaling", lambda exact, v: exact(v) != any(abs(x) > 2 for x in v)),
        ("permutation", lambda exact, v: exact(v) != (v[0] < v[-1])),
        ("sign-step", lambda exact, v: exact(v) or sum(v) >= 0),
    ])
    def test_lattice_suite_names_each_planted_fault(self, monkeypatch, kind, planted):
        exact = wavecone.member
        monkeypatch.setattr(wavecone, "member", lambda v: planted(exact, tuple(v)))
        rep = lattice_suite(2, radius=2)
        assert not rep["all_ok"]
        assert kind in {name for name, _ in rep["failures"]}

    def test_gate_catches_flipped_member(self, monkeypatch, tmp_path):
        # planted fault: `member` misjudges every vector with a zero entry
        exact = wavecone.member
        monkeypatch.setattr(
            wavecone, "member", lambda v: exact(v) != any(x == 0 for x in v))
        assert agreement_suite(2, 200, seed=5)["disagreements"]
        argv = ["--out", str(tmp_path / "out"), "wavecone", "--n", "2", "--trials", "200"]
        assert main(argv) == 4
