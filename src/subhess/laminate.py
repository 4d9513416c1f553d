"""Finitely supported matrix measures built by rank-one splitting.

A `Laminate` is a binary split tree: the root carries the barycenter, each
split replaces a Dirac mass delta_M by s*delta_B + (1-s)*delta_C where
M = s*B + (1-s)*C and B - C has rank one, and the leaves in depth-first
order are the atoms. The tree is the object the synthesizer walks — the flat
atom list forgets the order of splits, which is exactly the data a nested
stripe construction needs.

All scalars are certified intervals. `elementary_split` certifies each
split (fraction range, barycenter identity, rank-one connection) as it is
made; `dumps` writes the tree as the `laminate.json` artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Union

from subhess.scalars import Iv, IvLike, as_iv, fr_str, rpow
from subhess.sym2 import SymMat2, rank_one_connected

PhiLike = Union[str, tuple, Callable[[SymMat2], Iv]]


@dataclass(frozen=True)
class SplitNode:
    """Leaf (s is None) or split of `matrix` into left=B (weight s), right=C."""

    matrix: SymMat2
    s: Optional[Iv] = None
    left: Optional["SplitNode"] = None
    right: Optional["SplitNode"] = None

    def is_leaf(self) -> bool:
        return self.s is None

    def depth(self) -> int:
        if self.is_leaf():
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass(frozen=True)
class Atom:
    matrix: SymMat2
    weight: Iv


class Laminate:
    """Immutable laminate; construct via `dirac` and `elementary_split`."""

    def __init__(self, root: SplitNode, atoms: Optional[tuple[Atom, ...]] = None):
        # `atoms` is seeded only by `elementary_split`
        self.root = root
        self._atoms = atoms

    @staticmethod
    def dirac(matrix: SymMat2) -> "Laminate":
        return Laminate(SplitNode(matrix))

    @property
    def atoms(self) -> tuple[Atom, ...]:
        if self._atoms is None:
            out: list[Atom] = []

            def walk(node: SplitNode, weight: Iv):
                if node.is_leaf():
                    out.append(Atom(node.matrix, weight))
                    return
                walk(node.left, weight * node.s)
                walk(node.right, weight * (1 - node.s))

            walk(self.root, Iv(1))
            self._atoms = tuple(out)
        return self._atoms

    def depth(self) -> int:
        return self.root.depth()

    def __len__(self) -> int:
        return len(self.atoms)


def elementary_split(
    lam: Laminate,
    atom_index: int,
    s: IvLike,
    b: SymMat2,
    c: SymMat2,
) -> Laminate:
    """Split atom `atom_index` into s*delta_B + (1-s)*delta_C.

    Certifies s in (0,1), M = s*B + (1-s)*C, and that B - C is rank one
    before rebuilding the tree. Raises ValueError on violations and
    Undecided when enclosures are too wide to certify. The child's atoms are
    the parent's with the split atom's weight w replaced by w*s and w*(1-s),
    the products a fresh tree walk forms, so no later call re-walks the tree.
    """
    sv = as_iv(s)
    if not (sv.certainly_gt(0) and sv.certainly_lt(1)):
        raise ValueError(f"split fraction not certainly in (0,1): {sv}")
    n = len(lam)
    if not 0 <= atom_index < n:
        raise ValueError(f"atom index {atom_index} out of range (have {n})")
    if rank_one_connected(b, c) is None:
        raise ValueError("split endpoints are not rank-one connected")

    atoms = lam.atoms
    target, w = atoms[atom_index].matrix, atoms[atom_index].weight
    recon = b.scale(sv) + c.scale(1 - sv)
    resid = recon - target
    for entry in resid.entries():
        if not entry.contains(0):
            raise ValueError(f"barycenter identity fails: residual {entry}")

    leaf_ids = iter(range(n))  # depth-first leaf order is atom order
    done = False  # set once the split leaf is replaced: the rest is untouched

    def rebuild(node: SplitNode) -> SplitNode:
        nonlocal done
        if node.is_leaf():
            if next(leaf_ids) == atom_index:
                done = True
                return SplitNode(node.matrix, sv, SplitNode(b), SplitNode(c))
            return node
        left = rebuild(node.left)
        right = node.right if done else rebuild(node.right)
        if left is node.left and right is node.right:
            return node
        return SplitNode(node.matrix, node.s, left, right)

    leaves = (Atom(b, w * sv), Atom(c, w * (1 - sv)))
    return Laminate(rebuild(lam.root), atoms[:atom_index] + leaves + atoms[atom_index + 1:])


def barycenter(lam: Laminate) -> SymMat2:
    total = SymMat2.diag(0, 0)
    for atom in lam.atoms:
        total = total + atom.matrix.scale(atom.weight)
    return total


# -- moment functionals -----------------------------------------------------------


def phi_l1_diag(m: SymMat2) -> Iv:
    return abs(m.a11) + abs(m.a22)


def phi_neg_pow(i: int, q: IvLike) -> Callable[[SymMat2], Iv]:
    qv = as_iv(q)

    def phi(m: SymMat2) -> Iv:
        entry = m.a11 if i == 0 else m.a22
        return rpow(entry.neg_part(), qv)

    return phi


def resolve_phi(phi: PhiLike) -> Callable[[SymMat2], Iv]:
    if callable(phi):
        return phi
    if isinstance(phi, str):
        try:
            return {"l1_diag": phi_l1_diag}[phi]
        except KeyError:
            raise ValueError(f"unknown moment functional {phi!r}") from None
    if isinstance(phi, tuple) and len(phi) == 3 and phi[0] == "neg_pow":
        return phi_neg_pow(int(phi[1]), phi[2])
    raise ValueError(f"unknown moment functional {phi!r}")


def moment(lam: Laminate, phi: PhiLike) -> Iv:
    fn = resolve_phi(phi)
    return sum((atom.weight * fn(atom.matrix) for atom in lam.atoms), Iv(0))


# -- serialization -----------------------------------------------------------------


def _iv_jsonable(v: Iv):
    if v.is_exact():
        return fr_str(v.lo)
    return {"lo": fr_str(v.lo), "hi": fr_str(v.hi)}


def _mat_jsonable(m: SymMat2):
    return [_iv_jsonable(m.a11), _iv_jsonable(m.a12), _iv_jsonable(m.a22)]


def _node_jsonable(node: SplitNode):
    if node.is_leaf():
        return {"matrix": _mat_jsonable(node.matrix)}
    return {
        "matrix": _mat_jsonable(node.matrix),
        "s": _iv_jsonable(node.s),
        "left": _node_jsonable(node.left),
        "right": _node_jsonable(node.right),
    }


def to_jsonable(lam: Laminate) -> dict:
    return {"kind": "laminate", "tree": _node_jsonable(lam.root)}


def dumps(lam: Laminate, indent: Optional[int] = None) -> str:
    return json.dumps(to_jsonable(lam), indent=indent, sort_keys=True)
