"""Reference oracles the test suite checks the package against.

No command reaches these, so they live with the tests (`test_reach.py` keeps
`src/` free of code only tests use). Each one computes its quantity by a
route of its own, so agreement with the package is evidence, not an echo:

* `eval_all` is the exact point evaluator: it descends the pattern tree at
  one point in certified intervals, through the same affine handoffs as the
  construction. The float sampler `PiecewisePotential.sample` and the
  class-based measurement never call it.
* `iter_cells` materializes every geometric cell with its polynomial, built
  by Taylor shifts of the node data. The class walk (`cell_classes`) and the
  stored ramp boxes are checked against the Hessians, tiling, C^1 seams and
  divergence identity of these cells.
* `validate` re-derives every laminate invariant from a fresh walk of the
  split tree, never from the atoms `elementary_split` seeded.
* `loads` parses the `laminate.json` artifact that `laminate.dumps` writes.
* `harmonic_extension` is a sparse direct solve of the unconstrained
  problem; projected SOR must reach it when the obstacle never binds.
* `radial_contact_radius_shooting` finds the radial free boundary by RK4
  shooting and bisection, independent of the closed-form root, and
  `radial_order_study` measures the solver's grid order against it.
* `hessian_plus_diagnostics` and `refinement_diagnostics` take float second
  differences of sampled grids; `hessian_negative_mass` is the certified
  value they approach, read from one tally.
* `l1_limit_constant` and `weights` are closed forms of the doubling
  construction, checked against cascade moments and laminate atoms.
* `lp_primal` re-solves the wave-cone LP of `member_bruteforce` and
  rationalizes its primal: an exact residual that the certified dual floor
  must not exceed.

`one_split` is a test helper, not an oracle: the one-split laminate
realized by `realize_laminate`. `apply`, `frob`, `phi_trace` and
`phi_frobenius` are matrix helpers and moment functionals only tests use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from subhess.constructions import DoublingParams, l1_growth_constant
from subhess.laminate import Laminate, SplitNode, barycenter, elementary_split
from subhess.obstacle import (
    ObstacleInstance,
    radial_contact_radius,
    radial_instance,
    radial_profile,
    sample_potential,
    solve,
    square_instance,
)
from subhess.scalars import Iv, IvLike, Undecided, as_iv, sqrt_iv
from subhess.sym2 import SymMat2, rank_one_connected
from subhess.synthesizer import (
    BudgetExceeded,
    EtaPiece,
    PatternNode,
    PiecewisePotential,
    realize_laminate,
)
from subhess.verifier import tally
from subhess.wavecone import _rational, _solve_lp, exact_candidate, residual

ZERO = Iv(0)
HALF = Fraction(1, 2)
DELTA_FLOOR_BITS = 20  # materialization guard: never enumerate finer stripes
DEFAULT_BUDGET = 10**7


# -- test helpers ----------------------------------------------------------------------


def apply(m: SymMat2, x: IvLike, y: IvLike) -> tuple[Iv, Iv]:
    """The matrix times the vector (x, y)."""
    xv, yv = as_iv(x), as_iv(y)
    return (m.a11 * xv + m.a12 * yv, m.a12 * xv + m.a22 * yv)


def frob(m: SymMat2) -> Iv:
    """Frobenius norm, counting the off-diagonal entry twice, matching
    integration of symmetric-matrix fields component by component."""
    return sqrt_iv(m.a11.sq() + 2 * m.a12.sq() + m.a22.sq())


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


def validate(lam: Laminate, width_tol: Fraction = Fraction(1, 10**9)) -> dict:
    """Re-derive every laminate invariant; returns a report dict.

    report['ok'] is True only if all checks are certified. Splits are checked
    at the tree (not the flat view): weight bookkeeping, barycenter
    identities, rank-one connections, fraction ranges.
    """
    problems: list[str] = []
    # weights from a fresh walk of the tree, never from atoms a split seeded
    walked = Laminate(lam.root)

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
    return Laminate(_node_parse(obj["tree"]))


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
    l1, tr = tally(pot, ("l1_diag", phi_trace)).integrals
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


# -- the wave-cone LP primal -----------------------------------------------------------


def lp_primal(v) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(residual, zeta) at the rationalized primal of the LP that
    `member_bruteforce` solves; at the exact candidate for a member."""
    vs = tuple(Fraction(x) for x in v)
    cand = exact_candidate(vs)
    if residual(vs, cand) == 0:
        return Fraction(0), cand
    _, lp = _solve_lp(vs)
    assert lp.status == 0, lp.message
    zeta = [max(_rational(z), Fraction(0)) for z in lp.x[:len(vs)]]
    mass = sum(zeta)
    best_zeta = tuple(z / mass for z in zeta)
    return residual(vs, best_zeta), best_zeta
