"""Reference oracles the test suite checks the package against.

No command reaches these, so they live with the tests (`test_reach.py` keeps
`src/` free of code only tests use). Each one computes its quantity by a
route of its own, so agreement with the package is evidence, not an echo:

* `eval_all` is the exact point evaluator: it descends the pattern tree at
  one point in certified intervals, through the same affine handoffs as the
  construction. The float sampler `obstacle.sample_potential` and the
  class-based measurement never call it.
* `iter_cells` materializes every geometric cell with its polynomial, built
  by Taylor shifts of the node data. The class walk (`cell_classes`) and the
  stored ramp boxes are checked against the Hessians, tiling, C^1 seams and
  divergence identity of these cells.
* `tree_atoms` walks a split tree for its atoms. `elementary_split` never
  walks the tree: it carries the atoms forward split by split, so the walk
  is a route of its own.
* `validate` re-derives every laminate invariant from `tree_atoms`, never
  from the atoms a laminate carries.
* `loads` parses the `laminate.json` artifact that `laminate.dumps` writes,
  and takes the atoms of the parsed tree from `tree_atoms`.
* `harmonic_extension` is a sparse direct solve of the unconstrained
  problem; projected SOR must reach it when the obstacle never binds.
* `radial_contact_radius_shooting` finds the radial free boundary by RK4
  shooting and bisection, independent of the closed-form root, and
  `radial_order_study` measures the solver's grid order against it.
* `hessian_plus_diagnostics` and `refinement_diagnostics` take float second
  differences of sampled grids; `hessian_negative_mass` is the certified
  value they approach, read from one tally.
* `trail_dist_sq` is the exact squared distance from the corners of a
  Hessian box to the segments [B, C] whose ends are corners of the atoms'
  enclosures, by projection onto each segment; the certified `ball_sq`
  must dominate it.
* `l1_limit_constant` and `weights` are closed forms of the doubling
  construction, checked against cascade moments and laminate atoms.
* `lp_primal` solves the wave-cone residual LP in floats with HiGHS
  (`scipy.optimize.linprog`) and rationalizes its primal: an exact residual
  that the exact floor of `member_bruteforce` must not exceed.
  `vertex_optimum` enumerates the vertices of the same LP in `Fraction`s,
  for n <= 3: the exact minimum that the floor must equal. `residual` and
  `exact_candidate` evaluate that LP's objective in `Fraction`s, the
  definition `member_bruteforce` checks in integers.

`one_split` is a test helper, not an oracle: the one-split laminate
realized by `realize_laminate`. `apply`, `frob`, `contains_iv`, `phi_trace`
and `phi_frobenius` are matrix and interval helpers and moment functionals
only tests use; `round_out` rounds each endpoint of an `Iv` to
`ENCLOSURE_BITS` significant bits, the reference the tests hold `Dy` to.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import spsolve

from subhess.constructions import DoublingParams, l1_growth_constant
from subhess.laminate import (
    Atom,
    Laminate,
    SplitNode,
    barycenter,
    elementary_split,
    phi_l1_diag,
)
from subhess.obstacle import (
    ObstacleInstance,
    radial_contact_radius,
    radial_instance,
    radial_profile,
    sample_potential,
    solve,
    square_instance,
)
from subhess.scalars import ENCLOSURE_BITS, Iv, IvLike, Undecided, as_iv, sqrt_iv
from subhess.sym2 import SymMat2, rank_one_connected
from subhess.synthesizer import (
    BudgetExceeded,
    EtaPiece,
    PatternNode,
    PiecewisePotential,
    realize_laminate,
)
from subhess.verifier import tally

ZERO = Iv(0)
HALF = Fraction(1, 2)
DELTA_FLOOR_BITS = 20  # materialization guard: never enumerate finer stripes
DEFAULT_BUDGET = 10**7


# -- test helpers ----------------------------------------------------------------------


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
    """Outward rounding of x to endpoints of ENCLOSURE_BITS significant bits
    each; x itself when it is exact or when no endpoint needs rounding. The
    per-endpoint reference for `Dy`, which shares one exponent."""
    if x.lo == x.hi:
        return x
    lo, hi = _round_endpoint(x.lo, False), _round_endpoint(x.hi, True)
    if lo is x.lo and hi is x.hi:
        return x
    return Iv(lo, hi)


def sym(a11: IvLike, a12: IvLike, a22: IvLike) -> SymMat2:
    """The symmetric matrix written entry by entry."""
    return SymMat2(as_iv(a11), as_iv(a12), as_iv(a22))


def apply(m: SymMat2, x: IvLike, y: IvLike) -> tuple[Iv, Iv]:
    """The matrix times the vector (x, y)."""
    xv, yv = as_iv(x), as_iv(y)
    return (m.a11 * xv + m.a12 * yv, m.a12 * xv + m.a22 * yv)


def frob(m: SymMat2) -> Iv:
    """Frobenius norm, counting the off-diagonal entry twice, matching
    integration of symmetric-matrix fields component by component."""
    return sqrt_iv(m.a11.sq() + 2 * m.a12.sq() + m.a22.sq())


def contains_iv(outer: Iv, inner: IvLike) -> bool:
    """Whether the interval `outer` encloses `inner`."""
    o = as_iv(inner)
    return outer.lo <= o.lo and o.hi <= outer.hi


def phi_trace(m: SymMat2) -> Iv:
    return m.trace()


def phi_frobenius(m: SymMat2) -> Iv:
    return frob(m)


def one_split(
    base: SymMat2,
    mat_b: SymMat2,
    mat_c: SymMat2,
    t,
    rect: tuple[Fraction, Fraction, Fraction, Fraction],
    eps: Fraction,
    dev_cap: Optional[Fraction] = None,
) -> PiecewisePotential:
    """Single-level realization: Hessian equals B on a t-fraction and C on a
    (1-t)-fraction up to eps losses, gradient exactly affine on the boundary;
    the level's gradient deviation is capped at dev_cap (default eps)."""
    lam = elementary_split(Laminate.dirac(base), 0, t, mat_b, mat_c)
    # realize_laminate gives level 0 half of its deviation allowance
    cap = eps if dev_cap is None else dev_cap
    return realize_laminate(lam, rect, eps, dev_cap=2 * Fraction(cap))


# -- the exact point evaluator ---------------------------------------------------------


def _locate_eta(node: PatternNode, u: Fraction) -> EtaPiece:
    for piece in node.etas:
        if u < piece.hi or piece.hi == node.perp:
            if u >= piece.lo or piece.lo == 0:
                return piece
    raise ValueError(f"perp coordinate {u} outside [0, {node.perp}]")


def _profile_state(node: PatternNode, xi: Fraction):
    """(stripe, dxi, pair_index) at profile coordinate xi; None at xi >= long
    where W = W' = 0 exactly."""
    prof = node.profile
    if xi >= node.long:
        return None
    period = prof.period
    k = int(xi // period)
    if k >= node.n_pairs:
        k = node.n_pairs - 1
    xp = xi - period * k
    for stripe in prof.stripes:
        if xp < stripe.x_hi or stripe.x_hi == period:
            if xp >= stripe.x_lo:
                return stripe, xp - stripe.x_lo, k
    raise AssertionError("unreachable: stripe lookup")


def _w_eval(node: PatternNode, xi: Fraction) -> tuple[Iv, Iv, Iv]:
    """(W, W', W'') at xi in [0, long]."""
    state = _profile_state(node, xi)
    if state is None:
        return ZERO, ZERO, ZERO
    stripe, dxi, _k = state
    w = stripe.v0 + stripe.s0 * dxi + stripe.w2 * dxi * dxi * HALF
    dw = stripe.s0 + stripe.w2 * dxi
    return w, dw, stripe.w2


def eval_all(pot: PiecewisePotential, x: Fraction, y: Fraction):
    """(value, (gx, gy), (h11, h12, h22)) of u at (x, y) as certified
    intervals, by an O(depth) descent of the pattern tree."""
    x = Fraction(x)
    y = Fraction(y)
    x0, y0, wd, hd = pot.domain
    if not (x0 <= x <= x0 + wd and y0 <= y <= y0 + hd):
        raise ValueError("point outside the domain")
    c = ZERO
    gx = ZERO
    gy = ZERO
    a_cur = pot.base_matrix
    ox, oy = pot.root_origin
    node = pot.root
    if node is not None:
        rx0, ry0 = ox, oy
        inside = rx0 <= x <= rx0 + node.rect_w and ry0 <= y <= ry0 + node.rect_h
    else:
        inside = False
    if not inside:
        # frame region: pure quadratic in the domain-local coordinates
        dx, dy = x - x0, y - y0
        hx, hy = apply(a_cur, dx, dy)
        val = c + gx * dx + gy * dy + (hx * dx + hy * dy) * HALF
        return val, (gx + hx, gy + hy), a_cur.entries()
    # frame origin shift to the pattern origin
    dx, dy = ox - x0, oy - y0
    hx, hy = apply(a_cur, dx, dy)
    c = c + gx * dx + gy * dy + (hx * dx + hy * dy) * HALF
    gx, gy = gx + hx, gy + hy

    while True:
        lx, ly = x - ox, y - oy
        xi, up = (lx, ly) if node.axis == 0 else (ly, lx)
        eta = _locate_eta(node, up)
        w, dw, ddw = _w_eval(node, xi)
        stripe_state = _profile_state(node, xi)
        link = None
        if (
            stripe_state is not None
            and eta.core
            and stripe_state[0].role in node.children
        ):
            link = node.children[stripe_state[0].role]
        if link is None:
            ev = Iv(eta.value(up))
            edv = Iv(eta.deriv(up))
            edd = Iv(eta.dd)
            psi = ev * w
            d_long = ev * dw
            d_perp = edv * w
            h_ll = ev * ddw
            h_lp = edv * dw
            h_pp = edd * w
            if node.axis == 0:
                pgx, pgy = d_long, d_perp
                hh = (h_ll, h_lp, h_pp)
            else:
                pgx, pgy = d_perp, d_long
                hh = (h_pp, h_lp, h_ll)
            hx, hy = apply(a_cur, lx, ly)
            val = c + gx * lx + gy * ly + (hx * lx + hy * ly) * HALF + psi
            grad = (gx + hx + pgx, gy + hy + pgy)
            hess = (a_cur.a11 + hh[0], a_cur.a12 + hh[1], a_cur.a22 + hh[2])
            return val, grad, hess
        # descend: locate the hosting core subcell
        stripe, dxi, k = stripe_state
        cell_xi0 = node.profile.period * k + stripe.x_lo
        sw = stripe.x_hi - stripe.x_lo
        ch = node.perp - 2 * node.rho
        # subcell indices in local (xi, up)
        n_xi = link.sub_nx if node.axis == 0 else link.sub_ny
        n_up = link.sub_ny if node.axis == 0 else link.sub_nx
        i_xi = int((xi - cell_xi0) // (sw / n_xi))
        i_xi = min(i_xi, n_xi - 1)
        i_up = int((up - node.rho) // (ch / n_up))
        i_up = min(i_up, n_up - 1)
        sub_xi0 = cell_xi0 + (sw / n_xi) * i_xi
        sub_up0 = node.rho + (ch / n_up) * i_up
        # handoff: value and gradient of this level at the subcell corner
        w0, dw0, _ = _w_eval(node, sub_xi0)
        lx0, ly0 = (sub_xi0, sub_up0) if node.axis == 0 else (sub_up0, sub_xi0)
        hx, hy = apply(a_cur, lx0, ly0)
        c = c + gx * lx0 + gy * ly0 + (hx * lx0 + hy * ly0) * HALF + w0  # eta == 1
        add_gx, add_gy = (dw0, ZERO) if node.axis == 0 else (ZERO, dw0)
        gx = gx + hx + add_gx
        gy = gy + hy + add_gy
        ox, oy = ox + lx0, oy + ly0
        a_cur = link.node.base
        node = link.node


# -- the cell materializer -------------------------------------------------------------


@dataclass(frozen=True)
class MaterialCell:
    rect: tuple[Fraction, Fraction, Fraction, Fraction]
    kind: str
    coeffs: dict[tuple[int, int], Iv]  # u restricted to the cell, local coords
    node_tag: str
    atom_tag: Optional[str]


def iter_cells(pot: PiecewisePotential, budget: int = DEFAULT_BUDGET) -> Iterator[MaterialCell]:
    """Enumerate geometric cells with their polynomials; budget-capped.

    Refuses to start when the exact cell count exceeds the budget, and also
    refuses patterns whose stripe width underruns the materialization floor
    long/2^DELTA_FLOOR_BITS (such potentials are measurement-only).
    """
    total = pot.cell_count()
    if total > budget:
        raise BudgetExceeded(f"{total} cells exceed the budget of {budget}")
    for node in pot.nodes():
        delta = node.profile.stripes[1].x_hi  # the first B C pair ends at delta
        if delta < node.long / (1 << DELTA_FLOOR_BITS):
            raise BudgetExceeded(
                f"node {node.tag}: stripe width below the materialization floor"
            )

    # the global function is the base quadratic centered at the domain corner,
    # plus the pattern's perturbations; every cell polynomial is cell-local
    dx0, dy0 = pot.domain[0], pot.domain[1]
    for fc in pot.frame_cells:
        x0, y0, _, _ = fc.rect
        c0, g0 = _shift_quad(ZERO, (ZERO, ZERO), fc.matrix, x0 - dx0, y0 - dy0)
        yield MaterialCell(fc.rect, "frame", _quad_coeffs(c0, g0, fc.matrix), fc.tag, None)
    if pot.root is None:
        return
    ox, oy = pot.root_origin
    c0, g0 = _shift_quad(ZERO, (ZERO, ZERO), pot.base_matrix, ox - dx0, oy - dy0)
    yield from _iter_node_cells(pot.root, ox, oy, c0, g0)


def _quad_coeffs(c: Iv, g: tuple[Iv, Iv], a: SymMat2) -> dict[tuple[int, int], Iv]:
    return {
        (0, 0): c,
        (1, 0): g[0],
        (0, 1): g[1],
        (2, 0): a.a11 * HALF,
        (1, 1): a.a12,
        (0, 2): a.a22 * HALF,
    }


def _shift_quad(c: Iv, g: tuple[Iv, Iv], a: SymMat2, dx: Fraction, dy: Fraction):
    """Re-center a quadratic at origin + (dx, dy)."""
    hx, hy = apply(a, dx, dy)
    c2 = c + g[0] * dx + g[1] * dy + (hx * dx + hy * dy) * HALF
    return c2, (g[0] + hx, g[1] + hy)


def _iter_node_cells(node: PatternNode, ox: Fraction, oy: Fraction, c: Iv, g: tuple[Iv, Iv]):
    """Cells of one node instance whose base quadratic is (c, g, node.base) at (ox, oy)."""
    period = node.profile.period
    for k in range(node.n_pairs):
        for stripe in node.profile.stripes:
            xi0 = period * k + stripe.x_lo
            yield from _stripe_cells(node, stripe, xi0, ox, oy, c, g)


def _stripe_cells(node, stripe, xi0, ox, oy, c, g):
    sw = stripe.x_hi - stripe.x_lo
    # profile quadratic on the stripe in local d = xi - xi0:
    # W(d) = w0 + w1 d + w2 d^2 / 2
    wq = (stripe.v0, stripe.s0, stripe.w2 * HALF)
    link = node.children.get(stripe.role)
    for eta in node.etas:
        up0, up1 = eta.lo, eta.hi
        if eta.core and link is not None:
            # child instances tile this core cell
            n_xi = link.sub_nx if node.axis == 0 else link.sub_ny
            n_up = link.sub_ny if node.axis == 0 else link.sub_nx
            ch = (up1 - up0) / n_up
            cw = sw / n_xi
            for ix in range(n_xi):
                for iu in range(n_up):
                    sub_xi0 = xi0 + cw * ix
                    sub_up0 = up0 + ch * iu
                    w_c = wq[0] + wq[1] * (cw * ix) + wq[2] * (cw * ix) ** 2
                    dw_c = wq[1] + stripe.w2 * (cw * ix)
                    lx0, ly0 = (sub_xi0, sub_up0) if node.axis == 0 else (sub_up0, sub_xi0)
                    c2, g2 = _shift_quad(c, g, node.base, lx0, ly0)
                    c2 = c2 + w_c
                    if node.axis == 0:
                        g2 = (g2[0] + dw_c, g2[1])
                    else:
                        g2 = (g2[0], g2[1] + dw_c)
                    yield from _iter_node_cells(link.node, ox + lx0, oy + ly0, c2, g2)
            continue
        # plain cell: u = base quadratic + eta(up) * W(xi), local to the cell corner
        lx0, ly0 = (xi0, up0) if node.axis == 0 else (up0, xi0)
        c2, g2 = _shift_quad(c, g, node.base, lx0, ly0)
        coeffs = _quad_coeffs(c2, g2, node.base)
        # shift eta to up-local: e(t) = e0 + e1 t + e2 t^2 at up = up0 + t
        e0 = Iv(eta.value(up0))
        e1 = Iv(eta.deriv(up0))
        e2 = Iv(eta.c2)
        for (i, wc) in ((0, wq[0]), (1, wq[1]), (2, wq[2])):
            for (j, ec) in ((0, e0), (1, e1), (2, e2)):
                key = (i, j) if node.axis == 0 else (j, i)
                add = wc * ec
                coeffs[key] = coeffs.get(key, ZERO) + add
        rect = (
            (ox + xi0, oy + up0, sw, up1 - up0)
            if node.axis == 0
            else (ox + up0, oy + xi0, up1 - up0, sw)
        )
        kind = "atom" if (eta.core and stripe.role != "comp") else "ramp"
        atom_tag = f"{node.tag}.{stripe.role}" if kind == "atom" else None
        yield MaterialCell(rect, kind, coeffs, node.tag, atom_tag)


# -- laminate validation and parsing ---------------------------------------------------


def tree_atoms(root: SplitNode) -> tuple[Atom, ...]:
    """The atoms of a split tree from a walk of it: its leaves in
    depth-first order, each weighted by the product of the split fractions
    (s to the left, 1 - s to the right) on its path."""
    out: list[Atom] = []

    def walk(node: SplitNode, weight: Iv):
        if node.is_leaf():
            out.append(Atom(node.matrix, weight))
            return
        walk(node.left, weight * node.s)
        walk(node.right, weight * (1 - node.s))

    walk(root, Iv(1))
    return tuple(out)


def validate(lam: Laminate, width_tol: Fraction = Fraction(1, 10**9)) -> dict:
    """Re-derive every laminate invariant; returns a report dict.

    report['ok'] is True only if all checks are certified. Splits are checked
    at the tree (not the flat view): weight bookkeeping, barycenter
    identities, rank-one connections, fraction ranges.
    """
    problems: list[str] = []
    # weights from a walk of the tree, never from the atoms a split carried
    walked = Laminate(lam.root, tree_atoms(lam.root))

    mass = Iv(0)
    for atom in walked.atoms:
        mass = mass + atom.weight
        if not atom.weight.certainly_gt(0):
            problems.append(f"weight not certainly positive: {atom.weight}")
    if not mass.contains(1):
        problems.append(f"total mass does not contain 1: {mass}")
    if mass.width > width_tol:
        problems.append(f"total mass enclosure too wide: {mass.width}")

    bc = barycenter(walked)
    resid = bc - lam.root.matrix
    for entry in resid.entries():
        if not entry.contains(0):
            problems.append(f"barycenter drifted from root: {entry}")

    splits = 0

    def walk(node: SplitNode):
        nonlocal splits
        if node.is_leaf():
            return
        splits += 1
        if not (node.s.certainly_gt(0) and node.s.certainly_lt(1)):
            problems.append(f"split fraction not in (0,1): {node.s}")
        recon = node.left.matrix.scale(node.s) + node.right.matrix.scale(1 - node.s)
        for entry in (recon - node.matrix).entries():
            if not entry.contains(0):
                problems.append(f"split identity residual off zero: {entry}")
            if entry.width > width_tol:
                problems.append(f"split identity residual too wide: {entry.width}")
        conn = rank_one_connected(node.left.matrix, node.right.matrix)
        if conn is None:
            problems.append("split endpoints not rank-one connected")
        walk(node.left)
        walk(node.right)

    walk(lam.root)

    return {
        "ok": not problems,
        "problems": problems,
        "atoms": len(walked),
        "splits": splits,
        "depth": lam.depth(),
        "mass": mass,
    }


def _iv_parse(obj) -> Iv:
    if isinstance(obj, str):
        return Iv(Fraction(obj))
    return Iv(Fraction(obj["lo"]), Fraction(obj["hi"]))


def _mat_parse(obj) -> SymMat2:
    return SymMat2(_iv_parse(obj[0]), _iv_parse(obj[1]), _iv_parse(obj[2]))


def _node_parse(obj) -> SplitNode:
    if "s" not in obj:
        return SplitNode(_mat_parse(obj["matrix"]))
    return SplitNode(
        _mat_parse(obj["matrix"]),
        _iv_parse(obj["s"]),
        _node_parse(obj["left"]),
        _node_parse(obj["right"]),
    )


def from_jsonable(obj: dict) -> Laminate:
    if obj.get("kind") != "laminate":
        raise ValueError("not a laminate payload")
    root = _node_parse(obj["tree"])
    return Laminate(root, tree_atoms(root))


def loads(payload: str) -> Laminate:
    return from_jsonable(json.loads(payload))


# -- obstacle cross-checks -------------------------------------------------------------


def harmonic_extension(instance: ObstacleInstance) -> np.ndarray:
    """Unconstrained 5-point solve with the instance's boundary data."""
    n = instance.n
    interior, boundary = instance.interior, instance.boundary
    idx = -np.ones((n, n), dtype=np.int64)
    k = int(interior.sum())
    idx[interior] = np.arange(k)
    rows = [idx[interior]]
    cols = [idx[interior]]
    vals = [np.full(k, 4.0)]
    b = np.zeros(k)
    ii, jj = np.nonzero(interior)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        nb_int = interior[ni, nj]
        rows.append(idx[ii[nb_int], jj[nb_int]])
        cols.append(idx[ni[nb_int], nj[nb_int]])
        vals.append(np.full(int(nb_int.sum()), -1.0))
        nb_bd = boundary[ni, nj]
        np.add.at(b, idx[ii[nb_bd], jj[nb_bd]], instance.g[ni[nb_bd], nj[nb_bd]])
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(k, k),
    )
    sol = spsolve(mat, b)
    out = np.zeros((n, n))
    out[boundary] = instance.g[boundary]
    out[interior] = sol
    return out


def _shoot_tail(c: float, steps: int) -> float:
    """RK4 integration of u'' = -u'/r from r = c with the C^1 contact data;
    returns u(1)."""
    r, u, v = c, 1.0 - 2.0 * c * c, -4.0 * c
    dr = (1.0 - c) / steps
    for _ in range(steps):
        k1u, k1v = v, -v / r
        k2u, k2v = v + 0.5 * dr * k1v, -(v + 0.5 * dr * k1v) / (r + 0.5 * dr)
        k3u, k3v = v + 0.5 * dr * k2v, -(v + 0.5 * dr * k2v) / (r + 0.5 * dr)
        k4u, k4v = v + dr * k3v, -(v + dr * k3v) / (r + dr)
        u += dr * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        v += dr * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        r += dr
    return u


def radial_contact_radius_shooting(steps: int = 4096, iters: int = 60) -> float:
    """Bisection on the shot boundary value; independent of the closed form."""
    lo, hi = 0.05, 0.95
    f_lo = _shoot_tail(lo, steps)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = _shoot_tail(mid, steps)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def radial_order_study(n_list: Sequence[int] = (65, 129, 257),
                       tol: float = 1e-12) -> dict:
    """Sup-norm error against the radial reference across refinements.

    The contact radius is cross-checked between the closed-form root and the
    shooting bisection before any grid work.
    """
    rstar = radial_contact_radius()
    rstar_shoot = radial_contact_radius_shooting()
    if abs(rstar - rstar_shoot) > 1e-10:
        raise RuntimeError(
            f"contact radius mismatch: {rstar} (root) vs {rstar_shoot} (shooting)"
        )
    rows = []
    for n in n_list:
        inst = radial_instance(n, pinned=True)
        sol = solve(inst, tol=tol)
        R = np.sqrt(inst.xs[:, None] ** 2 + inst.ys[None, :] ** 2)
        ref = radial_profile(R, rstar)
        err = float(np.abs((sol.u - ref)[inst.interior]).max())
        rows.append({
            "n": n,
            "h": inst.h,
            "error": err,
            "iterations": sol.iterations,
            "converged": sol.converged,
        })
    orders = []
    for a, b in zip(rows, rows[1:]):
        orders.append(math.log2(a["error"] / b["error"])
                      / math.log2(a["h"] / b["h"]))
    overall = (math.log2(rows[0]["error"] / rows[-1]["error"])
               / math.log2(rows[0]["h"] / rows[-1]["h"]))
    return {
        "rstar": rstar,
        "rstar_shooting": rstar_shoot,
        "rows": rows,
        "orders": orders,
        "order": overall,
    }


# -- positive-part diagnostics of discrete Hessians ------------------------------------


def hessian_plus_diagnostics(u: np.ndarray, h: float,
                             p_list: Sequence[float] = (1.0, 1.5),
                             mask: Optional[np.ndarray] = None) -> list:
    """Grid L^p norms of the positive parts of the pure second differences.

    Returns one row per exponent: {"p": p, "lp_sum": (sum over nodes of
    ((u_xx)_+^p + (u_yy)_+^p) h^2)^(1/p)}.  For a function whose Hessian
    positive part is integrable but not p-integrable the p > 1 rows keep
    growing under refinement while p = 1 stabilizes.
    """
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square nodal array")
    uxx = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / (h * h)
    uyy = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / (h * h)
    if mask is not None:
        inner = mask[1:-1, 1:-1]
        uxx = uxx[inner]
        uyy = uyy[inner]
    px = np.maximum(uxx, 0.0)
    py = np.maximum(uyy, 0.0)
    rows = []
    for p in p_list:
        if p < 1:
            raise ValueError(f"exponent {p} below 1")
        total = float((px ** p).sum() + (py ** p).sum()) * h * h
        rows.append({"p": float(p), "lp_sum": total ** (1.0 / p)})
    return rows


def hessian_negative_mass(pot) -> Iv:
    """Certified integral of (u_xx)_- + (u_yy)_- over the domain.

    Equals half the gap between the diagonal-l1 and trace integrals; the
    p = 1 diagnostics column of the negated potential approaches this number
    as the grid resolves the stripes.
    """
    l1, tr = tally(pot, (phi_l1_diag, phi_trace)).integrals
    return (l1 - tr) * Iv(Fraction(1, 2))


def refinement_diagnostics(pot, n_list: Sequence[int] = (65, 129, 257, 513),
                           p_list: Sequence[float] = (1.0, 1.5),
                           solve_tol: Optional[float] = None) -> dict:
    """Diagnostics columns for the negated potential across refinements.

    With solve_tol set, each grid is run through the obstacle solver first
    (self-obstacle data) and the diagnostics are taken on the discrete
    solution; otherwise they are taken on the sampled obstacle directly.
    """
    columns = {float(p): [] for p in p_list}
    rows = []
    for n in n_list:
        phi = sample_potential(pot, n, negate=True)
        if solve_tol is not None:
            inst = square_instance(n, phi)
            u = solve(inst, tol=solve_tol).u
        else:
            u = phi
        h = float(pot.domain[2]) / (n - 1)
        diag = hessian_plus_diagnostics(u, h, p_list)
        rows.append({"n": n, "rows": diag})
        for entry in diag:
            columns[entry["p"]].append(entry["lp_sum"])
    ref = hessian_negative_mass(pot)
    return {
        "n_list": list(n_list),
        "columns": {p: vals for p, vals in columns.items()},
        "negative_mass": (float(ref.lo), float(ref.hi)),
        "rows": rows,
    }


# -- the trail distance ------------------------------------------------------------------


def _seg_dist_sq(x, b, c) -> Fraction:
    # exact min over s in [0, 1] of |x - (s b + (1 - s) c)|^2, entries
    # (a11, a12, a22) weighted 1, 2, 1, the norm of the symmetric matrix
    w = (1, 2, 1)
    d = [bi - ci for bi, ci in zip(b, c)]
    r = [xi - ci for xi, ci in zip(x, c)]
    dd = sum(wi * di * di for wi, di in zip(w, d))
    s = min(max(sum(wi * ri * di for wi, ri, di in zip(w, r, d)) / dd, 0), 1) if dd else 0
    return sum(wi * (ri - s * di) ** 2 for wi, ri, di in zip(w, r, d))


def trail_dist_sq(b: SymMat2, c: SymMat2, box) -> Fraction:
    """The largest exact dist^2 from a corner of the Hessian box (a11, a12,
    a22) to a segment [B, C], B and C taken at the corners of their
    enclosures. A corner suffices for the box: the distance to a segment is
    convex in the point."""
    def corners(entries):
        return list(itertools.product(*({e.lo, e.hi} for e in entries)))

    return max(_seg_dist_sq(x, pb, pc) for x in corners(box)
               for pb in corners(b.entries()) for pc in corners(c.entries()))


# -- closed forms of the doubling construction -----------------------------------------


def l1_limit_constant(params: DoublingParams) -> Iv:
    """a_inf = 2 + (C-2)/(1 - 2^(1-p)): the cascade's l1-diagonal ceiling."""
    c = l1_growth_constant(params)
    lam_half = 2 / params.two_p  # 2^(1-p)
    if not lam_half.certainly_lt(1):
        raise Undecided(f"2^(1-p) not certainly < 1: {lam_half}")
    return 2 + (c - 2) / (1 - lam_half)


def weights(params: DoublingParams) -> tuple[Iv, Iv, Iv]:
    """(A-atom, doubling atom, B-atom) weights; middle one is 2^-p."""
    return (
        params.alpha,
        params.beta * (1 - params.alpha),
        (1 - params.beta) * (1 - params.alpha),
    )


# -- the wave-cone residual LP -----------------------------------------------------------


def residual(v, zeta) -> Fraction:
    """max over pairs of |zeta_i v_j - zeta_j v_i|, exact."""
    n = len(v)
    worst = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(zeta[i] * v[j] - zeta[j] * v[i]))
    return worst


def exact_candidate(v) -> tuple[Fraction, ...]:
    """zeta = |v| / sum|v|; the barycenter when v = 0."""
    total = sum(abs(x) for x in v)
    n = len(v)
    if total == 0:
        return tuple(Fraction(1, n) for _ in range(n))
    return tuple(abs(x) / total for x in v)

# largest denominator kept when rationalizing the LP's float primal
_MAX_DEN = 10**6


def _rational(x: float) -> Fraction:
    return Fraction(float(x)).limit_denominator(_MAX_DEN)


def _solve_lp(vs):
    """The LP min t s.t. +-(zeta_i v_j - zeta_j v_i) <= t, sum zeta = 1,
    zeta >= 0, solved in floats on v / max|v|."""
    n = len(vs)
    pairs = list(itertools.combinations(range(n), 2))
    scale = max(abs(x) for x in vs)
    w = [float(x / scale) for x in vs]
    rows = np.zeros((len(pairs), n))
    for r, (i, j) in enumerate(pairs):
        rows[r, i], rows[r, j] = w[j], -w[i]
    # variables (zeta, t); the first half of the rows is +pair, the second -pair
    a_ub = np.hstack([np.vstack([rows, -rows]), -np.ones((2 * len(pairs), 1))])
    return linprog(np.append(np.zeros(n), 1.0), A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                   A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[1.0], method="highs")


def lp_primal(v) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(residual, zeta) at the rationalized float primal of the residual LP;
    at the exact candidate for a member."""
    vs = tuple(Fraction(x) for x in v)
    cand = exact_candidate(vs)
    if residual(vs, cand) == 0:
        return Fraction(0), cand
    lp = _solve_lp(vs)
    assert lp.status == 0, lp.message
    zeta = [max(_rational(z), Fraction(0)) for z in lp.x[:len(vs)]]
    mass = sum(zeta)
    best_zeta = tuple(z / mass for z in zeta)
    return residual(vs, best_zeta), best_zeta


def _solve_square(a, b):
    """x with a x = b in exact arithmetic, or None when a is singular."""
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    size = len(m)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(size):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][size] / m[r][r] for r in range(size)]


def vertex_optimum(v) -> Fraction:
    """The exact minimum of `residual(v, .)` over the simplex, by vertex
    enumeration of the residual LP in (zeta, t): every choice of n of its
    inequality rows (the signed pair rows and zeta_k >= 0), together with
    sum zeta = 1, fixes a candidate point, and the minimum is attained at one
    of them.  C(n^2, n) exact solves, so small n only."""
    vs = tuple(Fraction(x) for x in v)
    n = len(vs)
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        for sign in (1, -1):
            row = [zero] * n + [-one]
            row[i], row[j] = sign * vs[j], -sign * vs[i]
            rows.append(row)
    rows += [[-one if c == k else zero for c in range(n)] + [zero] for k in range(n)]
    values = []
    for active in itertools.combinations(rows, n):
        x = _solve_square([*active, [one] * n + [zero]], [zero] * n + [one])
        if x is not None and min(x[:n]) >= 0:
            values.append(residual(vs, x[:n]))
    return min(values)
