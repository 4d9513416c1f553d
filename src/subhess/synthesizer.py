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
  deviations) is an interval that encloses the exact value; each ramp
  Hessian box is a dyadic enclosure (`Dy`), certified by the build and kept
  on its node as `PatternNode.ramp_rows`, so every measurement sums the very
  boxes the build certified. Geometry, areas, seams and closure residuals
  stay exact. Each node builds its profiles at unit scale and scales them
  exactly (`_scale_profile`, `_scale_etas`), so its cost does not grow with
  the bits its geometry gains per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from subhess.constructions import StairLevel, doubling_laminate, staircase_params
from subhess.laminate import Atom, Laminate, SplitNode
from subhess.scalars import Dy, Iv, IvLike, as_iv, dyadic_floor_iv, dyadic_round, sqrt_iv
from subhess.sym2 import SymMat2, rank_one_connected

T_BITS = 80
SIGMA_BITS = 20  # compensator width sigma = delta / 2^SIGMA_BITS at the least

ZERO = Iv(0)
DZERO = Dy(0, 0, 0)
HALF = Fraction(1, 2)


class BuildError(ValueError):
    pass


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

    @property
    def height(self) -> Fraction:
        return self.hi - self.lo

    def value(self, u: Fraction) -> Fraction:
        return self.c0 + self.c1 * u + self.c2 * u * u

    def deriv(self, u: Fraction) -> Fraction:
        return self.c1 + 2 * self.c2 * u


def _build_etas(rho: Fraction) -> tuple[EtaPiece, ...]:
    """The ramp profile across height 1, with ramps of height rho < 1/2."""
    r2 = rho * rho
    one = Fraction(1)
    pieces = (
        EtaPiece(0, rho / 2, Fraction(0), Fraction(0), 2 / r2, Iv(0, HALF), Iv(0, 2 / rho), 4 / r2),
        EtaPiece(rho / 2, rho, Fraction(-1), 4 / rho, -2 / r2, Iv(HALF, 1), Iv(0, 2 / rho), -4 / r2),
        EtaPiece(rho, one - rho, one, Fraction(0), Fraction(0), Iv(1), Iv(0), Fraction(0), core=True),
        EtaPiece(one - rho, one - rho / 2, -1 + 4 / rho - 2 / r2, -4 / rho + 4 / r2, -2 / r2,
                 Iv(HALF, 1), Iv(-2 / rho, 0), -4 / r2),
        EtaPiece(one - rho / 2, one, 2 / r2, -4 / r2, 2 / r2, Iv(0, HALF), Iv(-2 / rho, 0), 4 / r2),
    )
    # seam identities are exact rational facts; fail loudly if broken
    assert pieces[0].value(Fraction(0)) == 0 and pieces[0].deriv(Fraction(0)) == 0
    assert pieces[0].value(rho / 2) == HALF == pieces[1].value(rho / 2)
    assert pieces[0].deriv(rho / 2) == 2 / rho == pieces[1].deriv(rho / 2)
    assert pieces[1].value(rho) == 1 and pieces[1].deriv(rho) == 0
    assert pieces[3].value(1 - rho) == 1 and pieces[3].deriv(1 - rho) == 0
    assert pieces[3].value(1 - rho / 2) == HALF == pieces[4].value(1 - rho / 2)
    assert pieces[3].deriv(1 - rho / 2) == -2 / rho == pieces[4].deriv(1 - rho / 2)
    assert pieces[4].value(one) == 0 and pieces[4].deriv(one) == 0
    return pieces


def _scale_etas(unit: tuple[EtaPiece, ...], perp: Fraction) -> tuple[EtaPiece, ...]:
    """The ramp profile across height perp from its build at perp = 1: u
    scales by perp, eta' by 1 / perp and eta'' by 1 / perp^2, exactly, so
    the seam identities checked at perp = 1 hold."""
    p2 = perp * perp
    return tuple(EtaPiece(e.lo * perp, e.hi * perp, e.c0, e.c1 / perp, e.c2 / p2, e.rng,
                          e.d_rng / perp, e.dd / p2, e.core) for e in unit)


# -- stripe profile W ----------------------------------------------------------------


@dataclass(frozen=True)
class StripeClass:
    role: str  # 'B' | 'C' | 'comp'
    x_lo: Fraction  # offset within the pair period
    x_hi: Fraction
    w2: Iv  # W'' on the stripe
    s0: Iv  # W' at x_lo (every pair starts from the exact state (0, 0))
    v0: Iv  # W  at x_lo
    # ranges of W' and W: exact at delta = 1, rounded (`Dy`) once scaled
    slope_rng: Iv | Dy
    value_rng: Iv | Dy


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
    closure: tuple[Fraction, Fraction]  # widths of the W' and W residual identities
    w_sup: Iv | Dy  # sup |W| over the pattern
    dw_sup: Iv | Dy  # sup |W'|

    @property
    def closure_width(self) -> Fraction:  # certification width of the residual identities
        return max(self.closure)


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
    stripes += (comp1, comp2)

    w_sup = Iv.hull([abs(s.value_rng) for s in stripes])
    dw_sup = Iv.hull([abs(s.slope_rng) for s in stripes])
    return _Profile(
        stripes=tuple(stripes),
        period=2 * delta + 2 * sigma,
        c1=c1,
        c2=c2,
        closure=(resid_s.width, resid_v.width),
        w_sup=Iv(0, w_sup.hi),
        dw_sup=Iv(0, dw_sup.hi),
    )


def _scale_profile(unit: _Profile, delta: Fraction) -> _Profile:
    """The profile of half-period delta from its build at delta = 1. The
    closure identities are scale-invariant: x and W' scale by delta and W by
    delta^2, exactly, while W'' and the compensator offsets stay. The ranges
    only ramp boxes read are scaled as rounded enclosures."""
    d1, delta2 = Dy.of(delta), delta * delta
    d2 = d1.sq()
    stripes = tuple(StripeClass(st.role, st.x_lo * delta, st.x_hi * delta, st.w2, st.s0 * delta,
                                st.v0 * delta2, Dy.of(st.slope_rng) * d1,
                                Dy.of(st.value_rng) * d2) for st in unit.stripes)
    w_s, w_v = unit.closure
    return _Profile(stripes, unit.period * delta, unit.c1, unit.c2, (w_s * delta, w_v * delta2),
                    Dy.of(unit.w_sup) * d2, Dy.of(unit.dw_sup) * d1)


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
    ramp_rows: tuple[tuple[tuple[Fraction, tuple[Dy, Dy, Dy]], ...], ...]
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


def _seg_dist_sq_box(b: SymMat2, c: SymMat2, axis: int, h11: Dy | Iv, h12: Dy | Iv,
                     h22: Dy | Iv) -> Dy | Iv:
    """Worst-case dist^2 from a global Hessian box to the segment [B, C] for
    any B and C in their enclosures: a `Dy` for a ramp box, exact for Ivs.
    B - C is supported on the (axis, axis) entry, so the other entries are
    equal points. With g = min(B.hi, C.hi), G = max(B.lo, C.lo), each such
    segment contains [g, G] if g <= G, else meets [G, g], measured to its far end."""
    if axis == 0:
        seg_b, seg_c, fix_off, fix_perp = b.a11, c.a11, b.a12, b.a22
        var, off, perp = h11, h12, h22
    else:
        seg_b, seg_c, fix_off, fix_perp = b.a22, c.a22, b.a12, b.a11
        var, off, perp = h22, h12, h11

    def coord(viv: Dy | Iv, lo: Fraction, hi: Fraction) -> Dy | Iv:
        # [0, sup over viv of the distance to [lo, hi]], or with lo > hi, of
        # the distance to the farthest point of [hi, lo]
        return (-viv + lo).union(viv - hi).pos_part().union(ZERO)

    d_var = coord(var, min(seg_b.hi, seg_c.hi), max(seg_b.lo, seg_c.lo))
    d_off = coord(off, fix_off.lo, fix_off.hi)
    d_perp = coord(perp, fix_perp.lo, fix_perp.hi)
    return d_var.sq() + 2 * d_off.sq() + d_perp.sq()


def _ramp_rows(
    stripe: StripeClass,
    etas: tuple[EtaPiece, ...],
    base: SymMat2,
    axis: int,
) -> Iterator[tuple[Fraction, tuple[Dy, Dy, Dy]]]:
    """(row height, global Hessian box) for every ramp row of one stripe,
    then for its core row if it is a compensator; each box entry is a `Dy`.

    Ramp rows add eta*W'' along the axis, eta'*W' mixed and eta''*W across
    it; a compensator core row (eta = 1) sits within |c_i| of the base.
    """
    w2 = Dy.of(stripe.w2)
    rows = [
        (
            eta.height,
            Dy.of(eta.rng) * w2,
            Dy.of(eta.d_rng) * stripe.slope_rng,
            Dy.of(eta.dd) * stripe.value_rng,
        )
        for eta in etas
        if not eta.core
    ]
    if stripe.role == "comp":
        core = next(eta for eta in etas if eta.core)
        rows.append((core.height, Dy.of(stripe.w2.union(ZERO)), DZERO, DZERO))
    a11, a12, a22 = (Dy.of(entry) for entry in base.entries())
    for height, h_long2, h_mixed, h_perp2 in rows:
        h11, h22 = (h_long2, h_perp2) if axis == 0 else (h_perp2, h_long2)
        yield height, (a11 + h11, a12 + h_mixed, a22 + h22)


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
        raise BuildError("targets are not rank-one connected along a coordinate axis: "
                         "only B - C = c e_i (x) e_i is realizable")
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


def _unit_profile(mat_b: SymMat2, mat_c: SymMat2, t: Iv,
                  eps_a: Fraction) -> tuple[int, Iv, _Profile]:
    """(axis, gamma, stripe profile at delta = 1) of the split of fraction t
    into B and C on a level of ramp fraction eps_a: the one place a profile
    is built. Raises BuildError when B - C is not supported on a coordinate
    axis, t rounds out of (0, 1) at T_BITS, or the compensators cannot cancel
    that rounding's drift (the offsets do not depend on delta)."""
    axis, gamma, w2_b, w2_c = _split_waves(mat_b, mat_c, t)
    bits = _sigma_bits(eps_a)
    unit = _build_profile(Fraction(1), Fraction(1, 1 << bits), split_dyadic(t), w2_b, w2_c)
    _check_compensators(unit, w2_b, w2_c, t, bits)
    return axis, gamma, unit


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

    Raises BuildError when B - C is not supported on a coordinate axis, and
    when the barycenter identity or any certification fails.
    """
    t_iv = as_iv(t)
    if not (t_iv.certainly_gt(0) and t_iv.certainly_lt(1)):
        raise BuildError(f"volume fraction not certainly in (0,1): {t_iv}")
    recon = mat_b.scale(t_iv) + mat_c.scale(1 - t_iv) - base
    for entry in recon.entries():
        if not entry.contains(0):
            raise BuildError(f"base is not the t-average of the targets: residual {entry}")
    axis, gamma, unit = _unit_profile(mat_b, mat_c, t_iv, eps_a)
    long = rect_w if axis == 0 else rect_h
    perp = rect_h if axis == 0 else rect_w

    rho = eps_a * perp / 2
    if not 0 < 2 * rho < perp:
        raise BuildError("ramp fraction too large for the rect")

    # rank_one_connected never returns an exact 0 scale, so g_hi > 0
    g_hi = abs(gamma).hi
    m_hi = (t_iv * (1 - t_iv)).hi
    dev_cap = Fraction(dev_cap)
    delta_cap = min(rho * eps_h / (4 * m_hi * g_hi), rho, dev_cap / (2 * m_hi * g_hi))
    # the unit period is 2 * (1 + 2^-bits), so n_pairs periods of half-period
    # delta fill `long` exactly; delta_cap is sized for both certificates
    # below, and every node of the documented inputs certifies at this
    # n_pairs, so there is one attempt
    n_pairs = max(1, _ceil_div(long, delta_cap * unit.period))

    etas = _scale_etas(_build_etas(eps_a / 2), perp)
    profile = _scale_profile(unit, long / n_pairs / unit.period)

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
    grad_perp = Dy.of(Iv(0, Fraction(2) / rho)) * profile.w_sup
    grad_dev = Iv(
        0, sqrt_iv(grad_long.sq() + grad_perp.sq()).hi
    )  # Euclidean sup bound

    if not ball_sq.certainly_le(Iv(eps_h * eps_h)):
        raise BuildError(f"node {tag}: ramp Hessian boxes not certified within the eps_h "
                         f"ball: squared distance {ball_sq} exceeds eps_h^2 = {eps_h * eps_h}")
    if not grad_dev.certainly_le(Iv(dev_cap)):
        raise BuildError(f"node {tag}: gradient deviation {grad_dev} not certified "
                         f"within the cap {dev_cap}")
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


# -- cell classes (the measurement interface) -----------------------------------------


@dataclass(frozen=True)
class CellClass:
    """All translates of one cell shape in a pattern node, or one frame cell.
    A ramp class's `h_box` is a box the build certified and stored
    (`PatternNode.ramp_rows`), not derived again. It carries no trail
    distance: the build certifies that once per node (`PatternNode.ball_sq`)
    and the verifier reads it from the nodes."""

    kind: str  # 'atom' | 'ramp' | 'frame'
    width: Fraction  # of one cell: its area is width * height
    height: Fraction
    count: int  # across the whole potential
    hess: Optional[SymMat2]  # exact Hessian ('atom'/'frame')
    h_box: Optional[tuple[Dy, Dy, Dy]]  # global entry enclosures ('ramp')
    level: int
    atom_tag: Optional[str]  # terminal atom id, on 'atom' classes only


def _node_cell_classes(node: PatternNode) -> Iterator[CellClass]:
    count = node.n_pairs * node.mult
    core = node.perp - 2 * node.rho
    for stripe, rows in zip(node.profile.stripes, node.ramp_rows):
        w = stripe.x_hi - stripe.x_lo
        for height, box in rows:
            yield CellClass(
                kind="ramp",
                width=w,
                height=height,
                count=count,
                hess=None,
                h_box=box,
                level=node.level,
                atom_tag=None,
            )
        if stripe.role != "comp" and stripe.role not in node.children:
            yield CellClass(
                kind="atom",
                width=w,
                height=core,
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


class PiecewisePotential:
    """u on a rectangle, gradient equal to base affine map on the boundary.

    `root` is the pattern tree's root node, whose rect has its lower-left
    corner at `root_origin`. Measurements aggregate cell classes;
    the float grid sampler lives with its one caller, the obstacle check
    (`obstacle.sample_potential`). The base map is
    grad u0 = A0 (x - origin) + b0 with u0(origin) = c0. `atoms` maps each
    terminal atom's tag (a split-tree leaf no deeper level hosts) to its
    `Atom`, weighted by the product of fractions along its split path.
    """

    def __init__(
        self,
        domain: tuple[Fraction, Fraction, Fraction, Fraction],
        base_matrix: SymMat2,
        root: PatternNode,
        root_origin: tuple[Fraction, Fraction],
        atoms: dict[str, Atom],
        frame_cells: tuple[FrameCell, ...] = (),
    ):
        self.domain = domain
        self.base_matrix = base_matrix
        self.root = root
        self.root_origin = root_origin
        self.atoms = atoms
        self.frame_cells = frame_cells

    # ---- aggregation ------------------------------------------------------------

    def cell_classes(self) -> Iterator[CellClass]:
        for fc in self.frame_cells:
            x0, y0, w, h = fc.rect
            yield CellClass(
                kind="frame",
                width=w,
                height=h,
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

        yield from walk(self.root)

    def cell_count(self) -> int:
        # per node, so that the one cell_classes() walk stays the measurement's
        return len(self.frame_cells) + sum(cc.count for node in self.nodes()
                                           for cc in _node_cell_classes(node))

    def grad_deviation(self) -> Iv:
        """Certified sup over the domain of |grad u - base affine| (per axis)."""

        def walk(n: PatternNode) -> Iv:
            worst_child = ZERO
            for link in n.children.values():
                child_dev = walk(link.node)
                worst_child = Iv(0, max(worst_child.hi, child_dev.hi))
            return n.grad_dev + worst_child

        return walk(self.root)


# -- builders ---------------------------------------------------------------------------


def _ramp_fraction(lam: Laminate, eps: Fraction) -> Fraction:
    """eps_a of every level of `realize_laminate`: the ramps of all levels
    together take at most eps / 2 of the area."""
    return eps / (2 * lam.depth())


def check_compensators(lam: Laminate, eps: Fraction) -> None:
    """Raise BuildError, before any build, when a split of `lam` cannot be
    realized at `eps` by `realize_laminate`: the build's own per-split check
    (`_unit_profile`) refuses it."""
    eps_a = _ramp_fraction(lam, Fraction(eps))

    def walk(split: SplitNode) -> None:
        if split.is_leaf():
            return
        _unit_profile(split.left.matrix, split.right.matrix, split.s, eps_a)
        walk(split.left)
        walk(split.right)

    walk(lam.root)


def _build_tree(split: SplitNode, tag: str, level: int, step: int, rw: Fraction, rh: Fraction,
                weight: Iv, mult: int, eps_h: Fraction, eps_a: Fraction, dev_cap: Fraction,
                atoms: dict[str, Atom]) -> PatternNode:
    """One pattern node per split of the tree under `split`, on a rw x rh
    rect that the potential holds `mult` times; returns the root node. Each
    leaf is recorded in `atoms` as `<tag>.<role>` weighted by `weight` times
    its path's split fractions, and each child split lives in the core cells
    of its role (two a pair), `step` levels deeper under `dev_cap / 2**step`."""
    node = build_pattern_node(tag=tag, level=level, base=split.matrix, mat_b=split.left.matrix,
                              mat_c=split.right.matrix, t=split.s, rect_w=rw, rect_h=rh,
                              eps_h=eps_h, eps_a=eps_a, dev_cap=dev_cap)
    node.mult = mult
    for role, child, share in (("B", split.left, split.s), ("C", split.right, 1 - split.s)):
        if child.is_leaf():
            atoms[f"{tag}.{role}"] = Atom(child.matrix, weight * share)
            continue
        child_node = _build_tree(child, f"{tag}.{role}", level + step, step,
                                 *_core_cell_dims(node, role), weight * share,
                                 mult * 2 * node.n_pairs, eps_h, eps_a, dev_cap / 2**step, atoms)
        node.children[role] = ChildLink(child_node, 1, 1)
    return node


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
    atoms: dict[str, Atom] = {}
    root = _build_tree(lam.root, "0", 0, 1, w, h, Iv(1), 1, eps_h, eps_a, total_dev / 2, atoms)
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


# -- the staircase ------------------------------------------------------------------------


@dataclass
class StairLayerReport:
    level: StairLevel
    grad_step: Iv  # certified sup |grad u_j - grad u_{j-1}|


@dataclass
class StaircaseResult:
    potential: PiecewisePotential
    layers: list[StairLayerReport]


def staircase_build(levels: int) -> StaircaseResult:
    """Nested realization over the schedule `staircase_params(levels)`.

    Layer j is `doubling_laminate(p_j, k_j = 2^(j-1))` realized by
    `_build_tree` at level j, inside every doubled 2k*Id cell of layer j-1
    after subdividing those cells to diameter <= eps_j. Tags follow the
    split roles: layer 1's nodes are `s1` and `s1.C`, its atoms `s1.B` and
    `s1.C.C`, and its doubled cell `s1.C.B` is the root of layer 2 (or, at
    the last layer, the terminal atom). u = |x|^2/2 outside the inner
    rectangle Omega_1, whose margin is eps_1 / 4 floored to 30 bits. Raises
    ValueError when levels < 1.
    """
    schedule = staircase_params(levels)
    m = dyadic_floor_iv(Iv(schedule[0].eps / 4), 30)
    side = Fraction(1)
    inner = side - 2 * m
    domain = (Fraction(0), Fraction(0), side, side)
    frame = (
        FrameCell((Fraction(0), Fraction(0), m, side), SymMat2.identity(), "frame.L", 0),
        FrameCell((side - m, Fraction(0), m, side), SymMat2.identity(), "frame.R", 0),
        FrameCell((m, Fraction(0), inner, m), SymMat2.identity(), "frame.B", 0),
        FrameCell((m, side - m, inner, m), SymMat2.identity(), "frame.T", 0),
    )

    atoms: dict[str, Atom] = {}

    def build_layer(idx: int, rw: Fraction, rh: Fraction, weight: Iv, mult: int,
                    tag: str) -> PatternNode:
        """Level `idx`, whose rect the potential holds `mult` times, and every
        deeper level, each hosted in the doubled 2k*Id cell `<tag>.C.B` of the
        level above; returns the level's root."""
        lvl = schedule[idx]
        root = _build_tree(doubling_laminate(lvl.p, lvl.k)[0].root, tag, lvl.j, 0, rw, rh,
                           weight, mult, lvl.eps / 2, lvl.eps / 8, Fraction(1, 2**lvl.j) / 4,
                           atoms)
        if idx + 1 < len(schedule):
            dbl = f"{tag}.C.B"
            host = root.children["C"].node
            brw, brh = _core_cell_dims(host, "B")
            nxt = schedule[idx + 1]
            nx = max(1, _ceil_div(brw, nxt.eps / 2))
            ny = max(1, _ceil_div(brh, nxt.eps / 2))
            child = build_layer(idx + 1, brw / nx, brh / ny, atoms.pop(dbl).weight,
                                host.mult * 2 * host.n_pairs * nx * ny, dbl)
            host.children["B"] = ChildLink(child, nx, ny)
        return root

    root = build_layer(0, inner, inner, Iv(1), 1, "s1")

    pot = PiecewisePotential(
        domain=domain,
        base_matrix=SymMat2.identity(),
        root=root,
        root_origin=(m, m),
        frame_cells=frame,
        atoms=atoms,
    )

    grads: dict[int, Iv] = {}
    for node in pot.nodes():
        grads[node.level] = grads.get(node.level, ZERO) + node.grad_dev

    return StaircaseResult(pot, [StairLayerReport(lvl, grads.get(lvl.j, ZERO))
                                 for lvl in schedule])
