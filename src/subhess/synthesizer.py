"""Piecewise-polynomial potentials whose Hessians realize a laminate.

One pattern level perturbs a quadratic base u0(x) = c + b.x + x.A x/2 by
psi(xi, ups) = eta(ups) * W(xi), where xi runs along the split axis and

* W is the second antiderivative of a periodic two-value wave taking the
  exact values (B-A) and (C-A) on the split axis, arranged in mirrored
  pairs so W and W' vanish at every pair boundary up to a tiny drift;
* eta is a piecewise-quadratic ramp, 0 at the perpendicular edges and 1 on
  the core, so the gradient matches the base affine map exactly on the
  whole rectangle boundary.

Cells whose Hessian equals an atom exactly host the next pattern level
through an exact affine handoff. The potential is stored symbolically: one
`PatternNode` per level with O(1) cell *classes* (all stripes of a class are
translates), so measurement is closed-form per class times multiplicity and
the object stays small even when the geometric cell count is astronomical:
nothing here enumerates geometric cells.

Two exactness devices make the symbolic representation certified:

* the split fraction t is irrational in general, so stripe widths use a
  dyadic rounding t_hat with |t_hat - t| <= 2^-T_BITS; each pair then fails
  to close by a tiny drift, which two compensator stripes of width
  sigma = delta * 2^-bits at the end of that same pair cancel exactly
  (their second-derivative offsets solve the 2x2 closure system), so
  W = W' = 0 at every pair boundary is an algebraic identity, every pair is
  an identical closed module, and no drift accumulates across the pattern
  (bits is SIGMA_BITS, raised for tiny ramp fractions so that compensators
  take at most half the area the ramps take);
* every numeric claim (Hessian boxes, segment distances, gradient
  deviations) is an interval computed from exact rational endpoints; each
  ramp Hessian box is rounded outward once (`round_out`), certified by the
  build and kept on its node as `PatternNode.ramp_rows`, so every
  measurement sums the very boxes the build certified. Geometry, areas,
  seams and closure residuals stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from subhess.laminate import Laminate, SplitNode
from subhess.scalars import Iv, IvLike, as_iv, dyadic_floor_iv, dyadic_round, round_out, sqrt_iv
from subhess.sym2 import SymMat2, rank_one_connected

T_BITS = 80
SIGMA_BITS = 20  # compensator width sigma = delta / 2^SIGMA_BITS at the least

ZERO = Iv(0)
HALF = Fraction(1, 2)


class BuildError(ValueError):
    pass


class NonAxisRankOne(BuildError):
    """Split direction is rank one but not a coordinate axis."""


class BudgetExceeded(RuntimeError):
    pass


def _ceil_div(a: Fraction, b: Fraction) -> int:
    q = a / b
    return -((-q.numerator) // q.denominator)


# -- ramp profile eta ---------------------------------------------------------------


@dataclass(frozen=True)
class EtaPiece:
    lo: Fraction
    hi: Fraction
    c0: Fraction
    c1: Fraction
    c2: Fraction
    rng: Iv
    d_rng: Iv
    dd: Fraction
    core: bool = False

    def value(self, u: Fraction) -> Fraction:
        return self.c0 + self.c1 * u + self.c2 * u * u

    def deriv(self, u: Fraction) -> Fraction:
        return self.c1 + 2 * self.c2 * u


def _build_etas(perp: Fraction, rho: Fraction) -> tuple[EtaPiece, ...]:
    if not 0 < 2 * rho < perp:
        raise BuildError(f"ramp height {rho} does not fit twice in {perp}")
    r2 = rho * rho
    p = perp
    pieces = (
        EtaPiece(0, rho / 2, Fraction(0), Fraction(0), 2 / r2, Iv(0, HALF), Iv(0, 2 / rho), 4 / r2),
        EtaPiece(rho / 2, rho, Fraction(-1), 4 / rho, -2 / r2, Iv(HALF, 1), Iv(0, 2 / rho), -4 / r2),
        EtaPiece(rho, p - rho, Fraction(1), Fraction(0), Fraction(0), Iv(1), Iv(0), Fraction(0), core=True),
        EtaPiece(
            p - rho,
            p - rho / 2,
            -1 + 4 * p / rho - 2 * p * p / r2,
            -4 / rho + 4 * p / r2,
            -2 / r2,
            Iv(HALF, 1),
            Iv(-2 / rho, 0),
            -4 / r2,
        ),
        EtaPiece(
            p - rho / 2,
            p,
            2 * p * p / r2,
            -4 * p / r2,
            2 / r2,
            Iv(0, HALF),
            Iv(-2 / rho, 0),
            4 / r2,
        ),
    )
    # seam identities are exact rational facts; fail loudly if broken
    assert pieces[0].value(Fraction(0)) == 0 and pieces[0].deriv(Fraction(0)) == 0
    assert pieces[0].value(rho / 2) == HALF == pieces[1].value(rho / 2)
    assert pieces[0].deriv(rho / 2) == 2 / rho == pieces[1].deriv(rho / 2)
    assert pieces[1].value(rho) == 1 and pieces[1].deriv(rho) == 0
    assert pieces[3].value(p - rho) == 1 and pieces[3].deriv(p - rho) == 0
    assert pieces[3].value(p - rho / 2) == HALF == pieces[4].value(p - rho / 2)
    assert pieces[3].deriv(p - rho / 2) == -2 / rho == pieces[4].deriv(p - rho / 2)
    assert pieces[4].value(p) == 0 and pieces[4].deriv(p) == 0
    return pieces


# -- stripe profile W ----------------------------------------------------------------


@dataclass(frozen=True)
class StripeClass:
    role: str  # 'B' | 'C' | 'comp'
    x_lo: Fraction  # offset within the pair period
    x_hi: Fraction
    w2: Iv  # W'' on the stripe
    s0: Iv  # W' at x_lo (every pair starts from the exact state (0, 0))
    v0: Iv  # W  at x_lo
    slope_rng: Iv
    value_rng: Iv


def _quad_ranges(v0: Iv, s0: Iv, w2: Iv, width: Fraction) -> tuple[Iv, Iv, Iv, Iv]:
    """(value range, slope range, end value, end slope) on [0, width]."""
    s1 = s0 + w2 * width
    v1 = v0 + s0 * width + w2 * width * width * HALF
    slope = s0.union(s1)
    vals = v0.union(v1)
    if slope.lo < 0 < slope.hi:
        # slope may vanish inside: add vertex value, or a coarse sweep bound
        # when w2's enclosure does not exclude zero
        if w2.lo > 0 or w2.hi < 0:
            vals = vals.union(v0 - s0.sq() / (2 * w2))
        else:
            vals = vals.union(v0 + Iv(0, width) * slope)
    return vals, slope, v1, s1


def _stripe(role: str, x_lo: Fraction, x_hi: Fraction, w2: Iv, s0: Iv, v0: Iv):
    """(stripe class, end slope, end value) of one stripe entered at state (s0, v0)."""
    vals, slope, v1, s1 = _quad_ranges(v0, s0, w2, x_hi - x_lo)
    return StripeClass(role, x_lo, x_hi, w2, s0, v0, slope, vals), s1, v1


@dataclass
class _Profile:
    stripes: tuple[StripeClass, ...]  # 4 two-value classes + 2 compensators
    period: Fraction  # 2*delta + 2*sigma
    c1: Iv
    c2: Iv
    closure_width: Fraction  # certification width of the residual identities
    w_sup: Iv  # sup |W| over the pattern
    dw_sup: Iv  # sup |W'|


def _build_profile(
    delta: Fraction,
    sigma: Fraction,
    t_hat: Fraction,
    w2_b: Iv,
    w2_c: Iv,
) -> _Profile:
    a = t_hat * delta
    b = (1 - t_hat) * delta
    # mirrored pair B C | C B telescoped from (0, 0); the residual drift from
    # t_hat != t is cancelled by the two compensators ending the same period
    segs = [
        (Fraction(0), a, "B", w2_b),
        (a, delta, "C", w2_c),
        (delta, delta + b, "C", w2_c),
        (delta + b, 2 * delta, "B", w2_b),
    ]
    stripes: list[StripeClass] = []
    s_cur, v_cur = ZERO, ZERO
    for x_lo, x_hi, role, w2 in segs:
        stripe, s_cur, v_cur = _stripe(role, x_lo, x_hi, w2, s_cur, v_cur)
        stripes.append(stripe)

    # compensators: close W and W' exactly at the period end
    end = 2 * delta
    c1 = -(v_cur / (sigma * sigma) + 3 * s_cur / (2 * sigma))
    comp1, s_cur, v_cur = _stripe("comp", end, end + sigma, c1, s_cur, v_cur)
    c2 = -s_cur / sigma
    comp2, resid_s, resid_v = _stripe("comp", end + sigma, end + 2 * sigma, c2, s_cur, v_cur)
    if not (resid_s.contains(0) and resid_v.contains(0)):
        raise BuildError("compensator closure identities failed")
    closure_width = max(resid_s.width, resid_v.width)
    stripes += (comp1, comp2)

    w_sup = Iv.hull([abs(s.value_rng) for s in stripes])
    dw_sup = Iv.hull([abs(s.slope_rng) for s in stripes])
    return _Profile(
        stripes=tuple(stripes),
        period=2 * delta + 2 * sigma,
        c1=c1,
        c2=c2,
        closure_width=closure_width,
        w_sup=Iv(0, w_sup.hi),
        dw_sup=Iv(0, dw_sup.hi),
    )


# -- pattern nodes -------------------------------------------------------------------


@dataclass
class ChildLink:
    node: "PatternNode"
    sub_nx: int  # subdivision of the hosting core cell along global x
    sub_ny: int


@dataclass
class PatternNode:
    tag: str
    level: int
    axis: int  # global axis the profile runs along
    long: Fraction  # extent along `axis`
    perp: Fraction
    base: SymMat2
    mat_b: SymMat2
    mat_c: SymMat2
    n_pairs: int
    rho: Fraction
    etas: tuple[EtaPiece, ...]
    profile: _Profile
    ball_sq: Iv  # certified sup over ramp cells of dist^2 to [B, C]
    # per stripe: the (row height, global Hessian box) rows ball_sq certifies
    ramp_rows: tuple[tuple[tuple[Fraction, tuple[Iv, Iv, Iv]], ...], ...]
    grad_dev: Iv  # certified sup |grad psi| of this level alone
    children: dict[str, ChildLink] = field(default_factory=dict)
    mult: int = 1

    # geometry helpers -----------------------------------------------------------

    @property
    def rect_w(self) -> Fraction:
        return self.long if self.axis == 0 else self.perp

    @property
    def rect_h(self) -> Fraction:
        return self.perp if self.axis == 0 else self.long

    def atom_for_role(self, role: str) -> SymMat2:
        return self.mat_b if role == "B" else self.mat_c


def split_dyadic(t: IvLike) -> Fraction:
    """The stripe split fraction t_hat: t rounded to T_BITS bits, refused
    unless it lies strictly inside (0, 1)."""
    t_hat = dyadic_round(as_iv(t).mid, T_BITS)
    if not 0 < t_hat < 1:
        raise BuildError(f"split fraction {as_iv(t)} rounds to {t_hat} at "
                         f"T_BITS = {T_BITS} bits, outside (0, 1)")
    return t_hat


def _seg_dist_sq_box(b: SymMat2, c: SymMat2, axis: int, h11: Iv, h12: Iv, h22: Iv) -> Iv:
    """Worst-case dist^2 from a global Hessian box to the segment [B, C],
    where B - C is supported on the (axis, axis) entry."""
    if axis == 0:
        seg_var, fix_off, fix_perp = b.a11.union(c.a11), b.a12, b.a22
        var, off, perp = h11, h12, h22
    else:
        seg_var, fix_off, fix_perp = b.a22.union(c.a22), b.a12, b.a11
        var, off, perp = h22, h12, h11

    def coord(viv: Iv, seg: Iv) -> Iv:
        below = (seg.lo - viv).pos_part()
        above = (viv - seg.hi).pos_part()
        return Iv(0, max(below.hi, above.hi))

    d_var = coord(var, seg_var)
    d_off = coord(off, fix_off)
    d_perp = coord(perp, fix_perp)
    return d_var.sq() + 2 * d_off.sq() + d_perp.sq()


def _ramp_rows(
    stripe: StripeClass,
    etas: tuple[EtaPiece, ...],
    base: SymMat2,
    axis: int,
) -> Iterator[tuple[Fraction, tuple[Iv, Iv, Iv]]]:
    """(row height, global Hessian box) for every ramp row of one stripe,
    then for its core row if it is a compensator; each box entry is rounded
    outward (`round_out`).

    Ramp rows add eta*W'' along the axis, eta'*W' mixed and eta''*W across
    it; a compensator core row (eta = 1) sits within |c_i| of the base.
    """
    rows = [
        (
            eta.hi - eta.lo,
            eta.rng * stripe.w2,
            eta.d_rng * stripe.slope_rng,
            Iv(eta.dd) * stripe.value_rng,
        )
        for eta in etas
        if not eta.core
    ]
    if stripe.role == "comp":
        core = next(eta for eta in etas if eta.core)
        rows.append((core.hi - core.lo, stripe.w2.union(ZERO), ZERO, ZERO))
    for height, h_long2, h_mixed, h_perp2 in rows:
        h11, h22 = (h_long2, h_perp2) if axis == 0 else (h_perp2, h_long2)
        yield height, (round_out(base.a11 + h11), round_out(base.a12 + h_mixed),
                       round_out(base.a22 + h22))


def _sigma_bits(eps_a: Fraction) -> int:
    """Compensator width exponent: SIGMA_BITS, or more when eps_a is tiny, so
    that the compensators' share 2^-bits of a period stays within eps_a / 2
    and a level loses less atom area to them than to its ramps (eps_a)."""
    return max(SIGMA_BITS, (_ceil_div(Fraction(1), eps_a) - 1).bit_length() + 1)


def _split_waves(mat_b: SymMat2, mat_c: SymMat2, t: Iv) -> tuple[int, Iv, Iv, Iv]:
    """(axis, gamma, W'' on B, W'' on C) of a split: B - C is supported on
    (axis, axis) with entry gamma, and W'' averages to 0 at fraction t."""
    conn = rank_one_connected(mat_b, mat_c)
    if conn is None:
        raise BuildError("targets are not rank-one connected")
    if conn.axis is None:
        raise NonAxisRankOne("only axis-aligned rank-one directions are realizable")
    gamma = conn.scale
    return conn.axis, gamma, gamma * (1 - t), -(gamma * t)


def _check_compensators(profile: _Profile, w2_b: Iv, w2_c: Iv, t: Iv, bits: int) -> None:
    """Raise BuildError unless both compensator offsets stay within |W''| of
    each stripe, which keeps the compensator core rows on [B, C].

    The offsets cancel the drift of t_hat against t, up to 2^-T_BITS, so they
    grow like 2^(2*bits - T_BITS). They do not depend on delta (the drift and
    sigma^2 both scale like delta^2): a split that fails at one n_pairs fails
    at every n_pairs."""
    if not all(abs(ci).certainly_le(abs(w2_b)) and abs(ci).certainly_le(abs(w2_c))
               for ci in (profile.c1, profile.c2)):
        raise BuildError(
            f"compensators 2^-{bits} of a period wide cannot cancel the drift of "
            f"split fraction {t} rounded to T_BITS = {T_BITS} bits: their offsets "
            "leave the segment [B, C]")


def build_pattern_node(
    *,
    tag: str,
    level: int,
    base: SymMat2,
    mat_b: SymMat2,
    mat_c: SymMat2,
    t: IvLike,
    rect_w: Fraction,
    rect_h: Fraction,
    eps_h: Fraction,
    eps_a: Fraction,
    dev_cap: Fraction,
) -> PatternNode:
    """One certified pattern level on a rect of the given size, whose
    gradient deviates from the base affine map by at most dev_cap.

    Raises NonAxisRankOne when B - C is not supported on a coordinate axis,
    BuildError when the barycenter identity or any certification fails.
    """
    t_iv = as_iv(t)
    if not (t_iv.certainly_gt(0) and t_iv.certainly_lt(1)):
        raise BuildError(f"volume fraction not certainly in (0,1): {t_iv}")
    recon = mat_b.scale(t_iv) + mat_c.scale(1 - t_iv) - base
    for entry in recon.entries():
        if not entry.contains(0):
            raise BuildError(f"base is not the t-average of the targets: residual {entry}")
    axis, gamma, w2_b, w2_c = _split_waves(mat_b, mat_c, t_iv)
    long = rect_w if axis == 0 else rect_h
    perp = rect_h if axis == 0 else rect_w

    t_hat = split_dyadic(t_iv)
    rho = eps_a * perp / 2
    if not 0 < 2 * rho < perp:
        raise BuildError("ramp fraction too large for the rect")

    g_hi = abs(gamma).hi
    m_hi = (t_iv * (1 - t_iv)).hi
    if g_hi == 0:
        raise BuildError("degenerate split: targets coincide on the axis")
    dev_cap = Fraction(dev_cap)
    delta_cap = min(rho * eps_h / (4 * m_hi * g_hi), rho, dev_cap / (2 * m_hi * g_hi))
    bits = _sigma_bits(eps_a)
    # period = 2*delta*(1 + 2^-bits) and n_pairs * period = long exactly
    pscale = 2 * (1 + Fraction(1, 1 << bits))
    n_pairs = max(1, _ceil_div(long, delta_cap * pscale))

    eps_h_sq = Iv(eps_h * eps_h)
    etas = _build_etas(perp, rho)
    for _attempt in range(64):
        period = long / n_pairs
        delta = period / pscale
        sigma = delta / (1 << bits)
        profile = _build_profile(delta, sigma, t_hat, w2_b, w2_c)
        _check_compensators(profile, w2_b, w2_c, t_iv, bits)

        # ramp-cell certification: every ramp-row Hessian box within eps_h of
        # [B, C]; the only place a box is derived or its segment distance
        # computed
        ramp_rows = tuple(tuple(_ramp_rows(stripe, etas, base, axis))
                          for stripe in profile.stripes)
        ball_sq = Iv(0, max(
            _seg_dist_sq_box(mat_b, mat_c, axis, *box).hi
            for rows in ramp_rows
            for _, box in rows
        ))

        grad_long = profile.dw_sup
        grad_perp = Iv(0, Fraction(2) / rho) * profile.w_sup
        grad_dev = Iv(
            0, sqrt_iv(grad_long.sq() + grad_perp.sq()).hi
        )  # Euclidean sup bound

        if ball_sq.certainly_le(eps_h_sq) and grad_dev.certainly_le(Iv(dev_cap)):
            return PatternNode(
                tag=tag,
                level=level,
                axis=axis,
                long=long,
                perp=perp,
                base=base,
                mat_b=mat_b,
                mat_c=mat_c,
                n_pairs=n_pairs,
                rho=rho,
                etas=etas,
                profile=profile,
                ball_sq=ball_sq,
                ramp_rows=ramp_rows,
                grad_dev=grad_dev,
            )
        n_pairs *= 2
    raise BuildError(f"certification did not converge for node {tag}")


# -- cell classes (the measurement interface) -----------------------------------------


@dataclass(frozen=True)
class CellClass:
    """All translates of one cell shape in a pattern node, or one frame cell.
    A ramp class's `h_box` is a box the build certified and stored
    (`PatternNode.ramp_rows`), not derived again. It carries no trail
    distance: the build certifies that once per node (`PatternNode.ball_sq`)
    and the verifier reads it from the nodes."""

    kind: str  # 'atom' | 'ramp' | 'frame'
    area: Fraction  # of one cell
    count: int  # across the whole potential
    hess: Optional[SymMat2]  # exact Hessian ('atom'/'frame')
    h_box: Optional[tuple[Iv, Iv, Iv]]  # global entry enclosures ('ramp')
    level: int
    atom_tag: Optional[str]  # terminal atom id for fraction accounting


def _node_cell_classes(node: PatternNode) -> Iterator[CellClass]:
    count = node.n_pairs * node.mult
    for stripe, rows in zip(node.profile.stripes, node.ramp_rows):
        w = stripe.x_hi - stripe.x_lo
        for height, box in rows:
            yield CellClass(
                kind="ramp",
                area=w * height,
                count=count,
                hess=None,
                h_box=box,
                level=node.level,
                atom_tag=None,
            )
        if stripe.role != "comp" and stripe.role not in node.children:
            yield CellClass(
                kind="atom",
                area=w * (node.perp - 2 * node.rho),
                count=count,
                hess=node.atom_for_role(stripe.role),
                h_box=None,
                level=node.level,
                atom_tag=f"{node.tag}.{stripe.role}",
            )


# -- the potential --------------------------------------------------------------------


@dataclass(frozen=True)
class FrameCell:
    rect: tuple[Fraction, Fraction, Fraction, Fraction]
    matrix: SymMat2
    tag: str
    level: int


@dataclass(frozen=True)
class AtomInfo:
    """A terminal atom: a leaf of the split tree that no deeper level hosts."""

    matrix: SymMat2
    weight: Iv  # laminate weight (product of fractions along the split path)


class PiecewisePotential:
    """u on a rectangle, gradient equal to base affine map on the boundary.

    `root` may be None (pure frame). `sample` is the float grid sampler: it
    descends the pattern tree in O(depth) on float midpoints, vectorized over
    one grid line at a time, through the affine handoffs of the construction
    (the exact interval descent that checks it lives with the tests).
    Measurements aggregate cell classes. The base map is
    grad u0 = A0 (x - origin) + b0 with u0(origin) = c0.
    """

    def __init__(
        self,
        domain: tuple[Fraction, Fraction, Fraction, Fraction],
        base_matrix: SymMat2,
        root: Optional[PatternNode],
        root_origin: Optional[tuple[Fraction, Fraction]] = None,
        frame_cells: tuple[FrameCell, ...] = (),
        atoms: Optional[dict[str, AtomInfo]] = None,
    ):
        self.domain = domain
        self.base_matrix = base_matrix
        self.root = root
        self.root_origin = root_origin if root_origin is not None else (domain[0], domain[1])
        self.frame_cells = frame_cells
        self.atoms = atoms or {}

    # ---- aggregation ------------------------------------------------------------

    def cell_classes(self) -> Iterator[CellClass]:
        for fc in self.frame_cells:
            x0, y0, w, h = fc.rect
            yield CellClass(
                kind="frame",
                area=w * h,
                count=1,
                hess=fc.matrix,
                h_box=None,
                level=fc.level,
                atom_tag=None,
            )
        for node in self.nodes():
            yield from _node_cell_classes(node)

    def nodes(self) -> Iterator[PatternNode]:
        def walk(n: PatternNode) -> Iterator[PatternNode]:
            yield n
            for link in n.children.values():
                yield from walk(link.node)

        if self.root is not None:
            yield from walk(self.root)

    def cell_count(self) -> int:
        total = len(self.frame_cells)
        for node in self.nodes():
            rows = len(node.etas)
            total += node.mult * 6 * node.n_pairs * rows
            # hosted cores are replaced by child instances, subtract them
            total -= len(node.children) * node.mult * 2 * node.n_pairs
        return total

    def grad_deviation(self) -> Iv:
        """Certified sup over the domain of |grad u - base affine| (per axis)."""

        def walk(n: PatternNode) -> Iv:
            worst_child = ZERO
            for link in n.children.values():
                child_dev = walk(link.node)
                worst_child = Iv(0, max(worst_child.hi, child_dev.hi))
            return n.grad_dev + worst_child

        if self.root is None:
            return ZERO
        return walk(self.root)

    def boundary_report(self) -> dict:
        """Structural boundary exactness + compensator closure widths."""
        closure = Fraction(0)
        exact = True
        for node in self.nodes():
            closure = max(closure, node.profile.closure_width)
            first = node.profile.stripes[0]
            exact = exact and first.s0 == ZERO and first.v0 == ZERO
            eta0, eta_last = node.etas[0], node.etas[-1]
            exact = exact and eta0.value(eta0.lo) == 0 and eta0.deriv(eta0.lo) == 0
            exact = exact and eta_last.value(eta_last.hi) == 0 and eta_last.deriv(eta_last.hi) == 0
        return {"exact": exact, "closure_width": closure}

    # ---- float sampling -------------------------------------------------------

    def sample(self, xs, ys) -> np.ndarray:
        """u(xs[i], ys[j]) in floats: the pattern-tree descent on float
        midpoints, vectorized over one x-line of the grid at a time."""
        x0, y0 = float(self.domain[0]), float(self.domain[1])
        a0 = tuple(float(e.mid) for e in self.base_matrix.entries())
        tabs = {id(n): _NodeFloats(n) for n in self.nodes()}
        ys = np.asarray(ys, dtype=float)
        out = np.empty((len(xs), len(ys)))
        for i, x in enumerate(xs):
            a11, a12, a22 = a0
            dx, dy = x - x0, ys - y0
            out[i] = 0.5 * (a11 * dx * dx + 2 * a12 * dx * dy + a22 * dy * dy)
            if self.root is None:
                continue
            ox, oy = float(self.root_origin[0]), float(self.root_origin[1])
            rw, rh = float(self.root.rect_w), float(self.root.rect_h)
            j = np.flatnonzero((ox <= x) & (x <= ox + rw) & (oy <= ys) & (ys <= oy + rh))
            dx, dy = ox - x0, oy - y0
            c = 0.5 * (a11 * dx * dx + 2 * a12 * dx * dy + a22 * dy * dy)
            gx, gy = a11 * dx + a12 * dy, a12 * dx + a22 * dy
            work = [(self.root, a0, j) + tuple(np.full(len(j), v) for v in (ox, oy, c, gx, gy))]
            while work:
                node, (a11, a12, a22), j, ox, oy, c, gx, gy = work.pop()
                t = tabs[id(node)]
                lx, ly = x - ox, ys[j] - oy
                xi, up = (lx, ly) if node.axis == 0 else (ly, lx)
                w, _, s, cell0 = t.wave(xi)
                e = np.searchsorted(t.eta_hi, up, "right")
                hosted = (xi < t.long) & t.core[e] & t.hosted[s]
                hx, hy = a11 * lx + a12 * ly, a12 * lx + a22 * ly
                ev = t.c0[e] + t.c1[e] * up + t.c2[e] * up * up
                val = c + gx * lx + gy * ly + 0.5 * (hx * lx + hy * ly) + ev * w
                out[i, j[~hosted]] = val[~hosted]
                for role, link in node.children.items():
                    m = hosted & (t.role[s] == role)
                    if not m.any():
                        continue
                    # the hosting core subcell, then the affine handoff at its corner
                    sub = (link.sub_nx, link.sub_ny)
                    n_xi, n_up = sub if node.axis == 0 else sub[::-1]
                    sw = t.width[s[m]]
                    i_xi = np.minimum((xi[m] - cell0[m]) / (sw / n_xi), n_xi - 1).astype(int)
                    i_up = np.minimum((up[m] - t.rho) / (t.ch / n_up), n_up - 1).astype(int)
                    sub_xi0 = cell0[m] + (sw / n_xi) * i_xi
                    sub_up0 = t.rho + (t.ch / n_up) * i_up
                    w0, dw0, _, _ = t.wave(sub_xi0)
                    lx0, ly0 = (sub_xi0, sub_up0) if node.axis == 0 else (sub_up0, sub_xi0)
                    dgx, dgy = (dw0, 0.0) if node.axis == 0 else (0.0, dw0)
                    hx, hy = a11 * lx0 + a12 * ly0, a12 * lx0 + a22 * ly0
                    c_sub = c[m] + (gx[m] * lx0 + gy[m] * ly0 + 0.5 * (hx * lx0 + hy * ly0) + w0)
                    work.append((link.node, tabs[id(link.node)].base, j[m], ox[m] + lx0,
                                 oy[m] + ly0, c_sub, gx[m] + (hx + dgx), gy[m] + (hy + dgy)))
        return out


class _NodeFloats:
    """Float tables of one pattern node for `PiecewisePotential.sample`."""

    def __init__(self, node: PatternNode):
        stripes = node.profile.stripes
        self.base = tuple(float(e.mid) for e in node.base.entries())
        self.long, self.rho = float(node.long), float(node.rho)
        self.ch = float(node.perp) - 2 * self.rho
        self.period, self.last_pair = float(node.profile.period), float(node.n_pairs - 1)
        # a point past the last boundary falls in the last stripe or ramp piece
        self.x_hi = np.array([float(st.x_hi) for st in stripes[:-1]])
        self.x_lo, self.width, self.w2, self.s0, self.v0 = np.array([
            (float(st.x_lo), float(st.x_hi - st.x_lo), float(st.w2.mid), float(st.s0.mid),
             float(st.v0.mid)) for st in stripes
        ]).T
        self.role = np.array([st.role for st in stripes])
        self.hosted = np.array([st.role in node.children for st in stripes])
        eta_hi = [float(e.hi) for e in node.etas]
        self.eta_hi = np.array(eta_hi[: eta_hi.index(float(node.perp))])
        self.c0, self.c1, self.c2 = np.array([(float(e.c0), float(e.c1), float(e.c2))
                                              for e in node.etas]).T
        self.core = np.array([e.core for e in node.etas])

    def wave(self, xi: np.ndarray):
        """(W, W', stripe index, stripe start) at profile coordinates xi."""
        k = np.minimum(xi // self.period, self.last_pair)
        xp = xi - self.period * k
        s = np.searchsorted(self.x_hi, xp, "right")
        d = xp - self.x_lo[s]
        w = self.v0[s] + self.s0[s] * d + 0.5 * self.w2[s] * d * d
        dw = self.s0[s] + self.w2[s] * d
        beyond = xi >= self.long  # W = W' = 0 past the pattern
        return np.where(beyond, 0.0, w), np.where(beyond, 0.0, dw), s, self.period * k + self.x_lo[s]


# -- builders ---------------------------------------------------------------------------


def _ramp_fraction(lam: Laminate, eps: Fraction) -> Fraction:
    """eps_a of every level of `realize_laminate`: the ramps of all levels
    together take at most eps / 2 of the area."""
    return eps / (2 * lam.depth())


def check_compensators(lam: Laminate, eps: Fraction) -> None:
    """Raise BuildError, before any build, when a split of `lam` cannot be
    realized at `eps` by `realize_laminate`: its fraction rounds out of (0, 1)
    at T_BITS, or its compensators cannot cancel that rounding's drift."""
    bits = _sigma_bits(_ramp_fraction(lam, Fraction(eps)))

    def walk(split: SplitNode) -> None:
        if split.is_leaf():
            return
        _, _, w2_b, w2_c = _split_waves(split.left.matrix, split.right.matrix, split.s)
        # offsets do not depend on delta: check them at delta = 1
        profile = _build_profile(Fraction(1), Fraction(1, 1 << bits),
                                 split_dyadic(split.s), w2_b, w2_c)
        _check_compensators(profile, w2_b, w2_c, split.s, bits)
        walk(split.left)
        walk(split.right)

    walk(lam.root)


def realize_laminate(
    lam: Laminate,
    rect: tuple[Fraction, Fraction, Fraction, Fraction],
    eps: Fraction,
    dev_cap: Optional[Fraction] = None,
) -> PiecewisePotential:
    """Realize a laminate's split tree: each split is one pattern level and
    child levels live inside the exact-atom core cells of their parents."""
    x0, y0, w, h = (Fraction(v) for v in rect)
    eps = Fraction(eps)
    if eps <= 0 or eps >= 1:
        raise BuildError("eps must be in (0,1)")
    if lam.root.is_leaf():
        raise BuildError("laminate has no splits to realize")
    eps_h = eps * Fraction(3, 4)
    eps_a = _ramp_fraction(lam, eps)
    total_dev = Fraction(dev_cap) if dev_cap is not None else eps
    atoms: dict[str, AtomInfo] = {}

    def build(split: SplitNode, tag: str, level: int, rw: Fraction, rh: Fraction, weight: Iv) -> PatternNode:
        node = build_pattern_node(
            tag=tag,
            level=level,
            base=split.matrix,
            mat_b=split.left.matrix,
            mat_c=split.right.matrix,
            t=split.s,
            rect_w=rw,
            rect_h=rh,
            eps_h=eps_h,
            eps_a=eps_a,
            dev_cap=total_dev / (2 ** (level + 1)),
        )
        for role, child, share in (
            ("B", split.left, split.s),
            ("C", split.right, 1 - split.s),
        ):
            child_weight = weight * share
            if child.is_leaf():
                atoms[f"{tag}.{role}"] = AtomInfo(child.matrix, child_weight)
                continue
            crw, crh = _core_cell_dims(node, role)
            child_node = build(child, f"{tag}.{role}", level + 1, crw, crh, child_weight)
            node.children[role] = ChildLink(child_node, 1, 1)
        return node

    root = build(lam.root, "0", 0, w, h, Iv(1))
    _fix_mults(root)
    return PiecewisePotential(
        domain=(x0, y0, w, h),
        base_matrix=lam.root.matrix,
        root=root,
        root_origin=(x0, y0),
        atoms=atoms,
    )


def _core_cell_dims(node: PatternNode, role: str) -> tuple[Fraction, Fraction]:
    """(width, height) of the core cell of the first `role` stripe of a pair."""
    stripe = next(s for s in node.profile.stripes if s.role == role)
    sw = stripe.x_hi - stripe.x_lo
    ch = node.perp - 2 * node.rho
    return (sw, ch) if node.axis == 0 else (ch, sw)


def _fix_mults(node: PatternNode, mult: int = 1):
    node.mult = mult
    for link in node.children.values():
        _fix_mults(link.node, mult * 2 * node.n_pairs * link.sub_nx * link.sub_ny)


# -- the staircase ------------------------------------------------------------------------


@dataclass
class StairLayerReport:
    j: int
    p: Iv
    k: Fraction
    eps: Fraction
    grad_step: Iv  # certified sup |grad u_j - grad u_{j-1}|


@dataclass
class StaircaseResult:
    potential: PiecewisePotential
    layers: list[StairLayerReport]


def staircase_build(levels: int) -> StaircaseResult:
    """Nested realization over the schedule `staircase_params(levels)`.

    Layer j realizes the doubling laminate at (p_j, k_j = 2^(j-1)) inside
    every current doubling cell, after subdividing those cells to diameter
    <= eps_j. u = |x|^2/2 outside the inner rectangle Omega_1, whose margin
    is eps_1 / 4 floored to 30 bits. Raises ValueError when levels < 1.
    """
    from subhess.constructions import DoublingParams, staircase_params

    schedule = staircase_params(levels)
    m = dyadic_floor_iv(Iv(schedule[0].eps / 4), 30)
    side = Fraction(1)
    inner = side - 2 * m
    domain = (Fraction(0), Fraction(0), side, side)
    frame = (
        FrameCell((Fraction(0), Fraction(0), m, side), SymMat2.identity(1), "frame.L", 0),
        FrameCell((side - m, Fraction(0), m, side), SymMat2.identity(1), "frame.R", 0),
        FrameCell((m, Fraction(0), inner, m), SymMat2.identity(1), "frame.B", 0),
        FrameCell((m, side - m, inner, m), SymMat2.identity(1), "frame.T", 0),
    )

    atoms: dict[str, AtomInfo] = {}
    layers: list[StairLayerReport] = []

    def build_layer(idx: int, rw: Fraction, rh: Fraction, weight: Iv, tag: str) -> PatternNode:
        """Level `idx` (nodes a and b) and every deeper level; returns node a."""
        lvl = schedule[idx]
        params = DoublingParams.make(lvl.p, lvl.k)
        j = lvl.j
        dev_cap = Fraction(1, 2**j) / 4
        eps_h = lvl.eps / 2
        eps_a = lvl.eps / 8
        node_a = build_pattern_node(
            tag=f"{tag}.a",
            level=j,
            base=params.mat_id,
            mat_b=params.mat_a,
            mat_c=params.mat_m,
            t=params.alpha,
            rect_w=rw,
            rect_h=rh,
            eps_h=eps_h,
            eps_a=eps_a,
            dev_cap=dev_cap,
        )
        atoms[f"{tag}.a.B"] = AtomInfo(params.mat_a, weight * params.alpha)
        arw, arh = _core_cell_dims(node_a, "C")
        w_mid = weight * (1 - params.alpha)
        node_b = build_pattern_node(
            tag=f"{tag}.b",
            level=j,
            base=params.mat_m,
            mat_b=params.mat_2id,
            mat_c=params.mat_b,
            t=params.beta,
            rect_w=arw,
            rect_h=arh,
            eps_h=eps_h,
            eps_a=eps_a,
            dev_cap=dev_cap,
        )
        node_a.children["C"] = ChildLink(node_b, 1, 1)
        atoms[f"{tag}.b.C"] = AtomInfo(params.mat_b, w_mid * (1 - params.beta))
        w_dbl = w_mid * params.beta

        brw, brh = _core_cell_dims(node_b, "B")
        if idx + 1 < len(schedule):
            nxt = schedule[idx + 1]
            nx = max(1, _ceil_div(brw, nxt.eps / 2))
            ny = max(1, _ceil_div(brh, nxt.eps / 2))
            child = build_layer(idx + 1, brw / nx, brh / ny, w_dbl, f"{tag}.b.B")
            node_b.children["B"] = ChildLink(child, nx, ny)
        else:
            atoms[f"{tag}.b.B"] = AtomInfo(params.mat_2id, w_dbl)
        return node_a

    root = build_layer(0, inner, inner, Iv(1), "s1")
    _fix_mults(root)

    pot = PiecewisePotential(
        domain=domain,
        base_matrix=SymMat2.identity(1),
        root=root,
        root_origin=(m, m),
        frame_cells=frame,
        atoms=atoms,
    )

    grads: dict[int, Iv] = {}
    for node in pot.nodes():
        grads[node.level] = grads.get(node.level, ZERO) + node.grad_dev

    for lvl in schedule:
        layers.append(
            StairLayerReport(
                j=lvl.j,
                p=lvl.p,
                k=lvl.k,
                eps=lvl.eps,
                grad_step=grads.get(lvl.j, ZERO),
            )
        )
    return StaircaseResult(potential=pot, layers=layers)
