from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subhess.laminate import (
    Atom,
    Laminate,
    barycenter,
    dumps,
    elementary_split,
    moment,
    phi_l1_diag,
    phi_neg_pow,
)
from subhess.scalars import Iv, pow2
from subhess.sym2 import SymMat2, rank_one_connected

from oracles import contains_iv, loads, phi_frobenius, phi_trace, sym, tree_atoms, validate


def two_level() -> Laminate:
    # Id = 1/2 diag(2,1) + 1/2 diag(0,1); then diag(2,1) = 1/3 diag(2,4) + 2/3 diag(2,-1/2)
    lam = Laminate.dirac(SymMat2.diag(1, 1))
    lam = elementary_split(lam, 0, Fraction(1, 2), SymMat2.diag(2, 1), SymMat2.diag(0, 1))
    lam = elementary_split(
        lam, 0, Fraction(1, 3), SymMat2.diag(2, 4), SymMat2.diag(2, Fraction(-1, 2))
    )
    return lam


class TestSplitting:
    def test_dirac(self):
        lam = Laminate.dirac(SymMat2.diag(3, 2))
        assert len(lam) == 1 and lam.depth() == 0
        assert lam.atoms[0].weight == Iv(1)
        assert validate(lam)["ok"]

    def test_two_level_structure(self):
        lam = two_level()
        assert len(lam) == 3 and lam.depth() == 2
        ws = [a.weight for a in lam.atoms]
        assert ws == [Iv(Fraction(1, 6)), Iv(Fraction(1, 3)), Iv(Fraction(1, 2))]
        # leaves stay in depth-first order: split children replace the parent slot
        mats = [a.matrix for a in lam.atoms]
        assert mats[0] == SymMat2.diag(2, 4)
        assert mats[2] == SymMat2.diag(0, 1)
        assert validate(lam)["splits"] == 2
        assert validate(lam)["ok"]

    def test_barycenter_restored(self):
        lam = two_level()
        bc = barycenter(lam)
        assert bc.a11 == Iv(1) and bc.a22 == Iv(1) and bc.a12 == Iv(0)

    def test_split_connections_axes(self):
        # root split along e1, the nested split along e2
        root = two_level().root
        nested = root.left
        assert rank_one_connected(root.left.matrix, root.right.matrix).axis == 0
        # diag(2,4) - diag(2,-1/2) is supported on e2
        assert rank_one_connected(nested.left.matrix, nested.right.matrix).axis == 1

    def test_rejects_bad_barycenter(self):
        lam = Laminate.dirac(SymMat2.diag(1, 1))
        with pytest.raises(ValueError, match="barycenter"):
            elementary_split(lam, 0, Fraction(1, 2), SymMat2.diag(3, 1), SymMat2.diag(0, 1))

    def test_rejects_non_rank_one(self):
        lam = Laminate.dirac(SymMat2.diag(1, 1))
        with pytest.raises(ValueError, match="rank-one"):
            elementary_split(lam, 0, Fraction(1, 2), SymMat2.diag(2, 2), SymMat2.diag(0, 0))

    def test_rejects_off_axis_rank_one(self):
        # B - C = (1,1)(x)(1,1) is rank one, but not along a coordinate axis
        lam = Laminate.dirac(SymMat2.diag(1, 1))
        half = Fraction(1, 2)
        b = sym(1 + half, half, 1 + half)
        c = sym(half, -half, half)
        with pytest.raises(ValueError, match="along a coordinate axis"):
            elementary_split(lam, 0, half, b, c)

    def test_rejects_bad_fraction_and_index(self):
        lam = Laminate.dirac(SymMat2.diag(1, 1))
        with pytest.raises(ValueError, match="fraction"):
            elementary_split(lam, 0, Fraction(3, 2), SymMat2.diag(2, 1), SymMat2.diag(0, 1))
        with pytest.raises(ValueError, match="index"):
            elementary_split(lam, 5, Fraction(1, 2), SymMat2.diag(2, 1), SymMat2.diag(0, 1))

    @given(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=30))
    @settings(max_examples=50)
    def test_random_split_keeps_mass_and_mean(self, s):
        m = SymMat2.diag(1, 2)
        b = SymMat2.diag(1 + (1 - s), 2)  # M + (1-s)*e1
        c = SymMat2.diag(1 - s, 2)  # M - s*e1
        lam = elementary_split(Laminate.dirac(m), 0, s, b, c)
        rep = validate(lam)
        assert rep["ok"], rep["problems"]
        assert barycenter(lam).a11 == Iv(1)


def split_e1(lam: Laminate, i: int, s) -> Laminate:
    """Split atom i along e1 into M + (1-s) e1e1 and M - s e1e1."""
    m = lam.atoms[i].matrix
    return elementary_split(lam, i, s, m + SymMat2.diag(1 - s, 0), m - SymMat2.diag(s, 0))


def assert_seeded_atoms_match_walk(lam: Laminate):
    seeded = lam.atoms
    walked = tree_atoms(lam.root)
    assert [a.matrix for a in seeded] == [a.matrix for a in walked]
    assert [(a.weight.lo, a.weight.hi) for a in seeded] == [
        (a.weight.lo, a.weight.hi) for a in walked
    ]


class TestSeededAtoms:
    S = pow2(Fraction(1, 3)) / 2  # an irrational split fraction, as an enclosure

    @pytest.mark.parametrize("i", [0, 1, 2])  # first, middle and last atom
    def test_split_of_each_position(self, i):
        lam = split_e1(two_level(), i, self.S)
        assert len(lam) == 4
        assert_seeded_atoms_match_walk(lam)

    def test_three_deep_sequence(self):
        lam = Laminate.dirac(SymMat2.diag(1, 1))
        for i, s in ((0, self.S), (1, Fraction(2, 5)), (1, 1 - self.S)):
            lam = split_e1(lam, i, s)
            assert_seeded_atoms_match_walk(lam)
        assert lam.depth() == 3 and len(lam) == 4

    def test_validate_ignores_seeded_atoms(self):
        lam = two_level()
        lam.atoms = tuple(Atom(a.matrix + SymMat2.diag(1, 0), a.weight * 2) for a in lam.atoms)
        assert moment(lam, lambda m: Iv(1)) == Iv(2)  # the planted tuple is read elsewhere
        rep = validate(lam)
        # mass and barycenter are those of the tree
        assert rep["ok"], rep["problems"]
        assert rep["mass"] == Iv(1) and rep["atoms"] == 3


class TestMoments:
    def test_registry(self):
        lam = two_level()
        assert moment(lam, phi_trace).contains(2)
        assert moment(lam, phi_l1_diag).certainly_gt(2)  # kinks added mass
        fro = moment(lam, phi_frobenius)
        assert fro.certainly_gt(0)
        custom = moment(lam, lambda m: m.a22)
        assert custom == Iv(1)

    def test_neg_pow(self):
        lam = two_level()
        # only diag(2,-1/2) has a negative entry: weight 1/3, |entry|^2 = 1/4
        v = moment(lam, phi_neg_pow(1, 2))
        assert v == Iv(Fraction(1, 12))
        assert moment(lam, phi_neg_pow(0, 2)) == Iv(0)
        # non-integer exponent through the certified power
        v = moment(lam, phi_neg_pow(1, Fraction(3, 2)))
        assert v.width < Fraction(1, 2**80)
        assert contains_iv(v, v)

    def test_interval_weights_flow_through(self):
        s = pow2(Fraction(1, 2)) / 4  # irrational fraction in (0,1)
        m = SymMat2.diag(1, 1)
        b = SymMat2.diag(1 + (1 - s), 1)
        c = SymMat2.diag(1 - s, 1)
        lam = elementary_split(Laminate.dirac(m), 0, s, b, c)
        rep = validate(lam)
        assert rep["ok"], rep["problems"]
        assert moment(lam, phi_trace).contains(2)


class TestSerialization:
    def test_roundtrip_exact(self):
        lam = two_level()
        again = loads(dumps(lam))
        assert len(again) == len(lam)
        assert [a.weight for a in again.atoms] == [a.weight for a in lam.atoms]
        assert [a.matrix for a in again.atoms] == [a.matrix for a in lam.atoms]
        assert validate(again)["ok"]

    def test_roundtrip_intervals(self):
        s = pow2(Fraction(1, 3)) / 2
        lam = elementary_split(
            Laminate.dirac(SymMat2.diag(1, 1)),
            0,
            s,
            SymMat2.diag(1 + (1 - s), 1),
            SymMat2.diag(1 - s, 1),
        )
        again = loads(dumps(lam))
        assert again.root.s == lam.root.s
        assert again.atoms[0].matrix.a11 == lam.atoms[0].matrix.a11

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            loads('{"kind": "other"}')
