"""Certified measurement of piecewise potentials.

Every functional aggregates the potential's cell *classes*: exact rational
areas and counts, Hessians that are either exact atom matrices or interval
boxes. Results are intervals that provably bracket the true value of the
functional for the exact piecewise-polynomial function the synthesizer
defines; nothing here samples or approximates. `tally` makes the one walk
over the classes and sums each construction level; every measurement below
reads what it sums. Within a level, each term and running sum of an
integral is rounded outward to `ENCLOSURE_BITS` significant bits
(`round_out`), so it still brackets the true value. Exact sums, areas and
the fold of the levels are not rounded, so the levels add up to the whole
exactly. `Tally.over(region)` folds the levels a region selects:

* None: the whole domain;
* ("level", j): cells built at construction level j;
* ("omega", j): cells built at level j or deeper, the nested region
  Omega_j of a staircase.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from subhess.laminate import PhiLike, resolve_phi
from subhess.scalars import Iv, as_iv, round_out, sqrt_iv
from subhess.sym2 import SymMat2
from subhess.synthesizer import BuildError, PiecewisePotential

Region = Optional[tuple]

ZERO = Iv(0)


@dataclass(frozen=True)
class Tally:
    """Every functional of one region, summed in a single walk over its cells."""

    area: Fraction
    integrals: tuple[Iv, ...]  # per phi: integral over every cell
    exact_integrals: tuple[Iv, ...]  # per phi: over exact-Hessian cells only
    min_trace: Iv  # enclosure of min over the region of trace(D^2 u)
    # largest certified dist^2 to a node's two-target segment: node.ball_sq,
    # certified once per node at build time; 0 on a frame-only level
    ball_sq_hi: Fraction
    atom_areas: dict[str, Fraction]  # exact area per terminal atom tag
    levels: dict[int, "Tally"] = dataclasses.field(default_factory=dict)  # per level

    def mean(self, k: int) -> Iv:
        return self.integrals[k] / self.area

    def bracket(self, k: int) -> Iv:
        """Two-sided mean of a nonnegative phi.

        The lower endpoint uses exact-Hessian cells only (perturbation cells
        contribute >= 0, so dropping them keeps a valid lower bound and avoids
        the spurious negative parts an interval box would suggest); the upper
        endpoint includes every cell through its enclosure.
        """
        return Iv(max(Fraction(0), (self.exact_integrals[k] / self.area).lo), self.mean(k).hi)

    def trail(self) -> Iv:
        """Upper-bounds the distance of perturbation cells to the nearest trail segment."""
        return sqrt_iv(Iv(0, self.ball_sq_hi))

    def over(self, region: Region) -> "Tally":
        """The tally of a region: the fold of the levels it selects."""
        if region is None:
            return self
        kind, j = region
        if kind not in ("level", "omega"):
            raise ValueError(f"unknown region selector: {region!r}")
        parts = [t for lv, t in self.levels.items() if lv == j or (kind == "omega" and lv > j)]
        if not parts:
            raise ValueError(f"region {region!r} has no cells")
        return _fold(parts)


def _fold(parts: list[Tally]) -> Tally:
    """One tally from disjoint parts; exact sums do not depend on the order."""
    atom_areas: dict[str, Fraction] = {}
    for t in parts:
        for tag, area in t.atom_areas.items():
            atom_areas[tag] = atom_areas.get(tag, Fraction(0)) + area
    return Tally(
        sum((t.area for t in parts), Fraction(0)),
        tuple(sum(col, ZERO) for col in zip(*(t.integrals for t in parts))),
        tuple(sum(col, ZERO) for col in zip(*(t.exact_integrals for t in parts))),
        Iv(min(t.min_trace.lo for t in parts), min(t.min_trace.hi for t in parts)),
        max(t.ball_sq_hi for t in parts),
        atom_areas,
    )


class _LevelSums:
    """Running sums of one construction level during the walk."""

    def __init__(self, n_phis: int):
        self.area = Fraction(0)
        self.total = [ZERO] * n_phis
        self.exact = [ZERO] * n_phis
        self.trace: Optional[Iv] = None  # min of lo and of hi over the cells
        self.atom_areas: dict[str, Fraction] = {}


def tally(pot: PiecewisePotential, phis: Iterable[PhiLike] = ()) -> Tally:
    """Certified integrals of each phi(D^2 u), min trace, trail distance and
    per-atom areas, per construction level and over the whole domain, from
    one cell_classes() walk. The trail distance is each level's largest
    node certificate `node.ball_sq`, not re-derived from the classes."""
    fns = [resolve_phi(phi) for phi in phis]
    sums: dict[int, _LevelSums] = {}
    for cc in pot.cell_classes():
        s = sums.get(cc.level)
        if s is None:
            s = sums[cc.level] = _LevelSums(len(fns))
        w = cc.area * cc.count
        s.area += w
        h = cc.hess if cc.hess is not None else SymMat2.of(*cc.h_box)
        for k, fn in enumerate(fns):
            v = fn(h)
            if v.lo == v.hi == 0:
                continue  # exact zeros add nothing
            term = round_out(v * w)
            s.total[k] = round_out(s.total[k] + term)
            if cc.hess is not None:
                s.exact[k] = round_out(s.exact[k] + term)
        tr = h.trace()
        s.trace = tr if s.trace is None else Iv(min(s.trace.lo, tr.lo), min(s.trace.hi, tr.hi))
        if cc.kind == "atom" and cc.atom_tag is not None:
            s.atom_areas[cc.atom_tag] = s.atom_areas.get(cc.atom_tag, Fraction(0)) + w
    if not sums:
        raise ValueError("potential has no cells")
    ball_sq_hi = dict.fromkeys(sums, Fraction(0))
    for node in pot.nodes():
        ball_sq_hi[node.level] = max(ball_sq_hi[node.level], node.ball_sq.hi)
    levels = {lv: Tally(s.area, tuple(s.total), tuple(s.exact), s.trace, ball_sq_hi[lv],
                        s.atom_areas) for lv, s in sums.items()}
    return dataclasses.replace(_fold(list(levels.values())), levels=levels)


def hessian_l1(pot: PiecewisePotential) -> Iv:
    """Mean over the domain of |H11| + |H22|."""
    return tally(pot, ("l1_diag",)).mean(0)


def _neg_phi(q, i: int) -> tuple:
    qv = as_iv(q)
    if not qv.certainly_ge(1):
        raise ValueError(f"exponent must be >= 1, got {qv}")
    if i not in (0, 1):
        raise ValueError("diagonal index must be 0 or 1")
    return ("neg_pow", i, q)


def neg_part_lq(pot: PiecewisePotential, q, i: int) -> Iv:
    """Mean over the domain of ((H_ii)_-)^q, bracketed two-sided (`Tally.bracket`)."""
    return tally(pot, (_neg_phi(q, i),)).bracket(0)


@dataclass(frozen=True)
class FractionRow:
    atom_tag: str
    matrix: SymMat2
    weight: Iv
    area: Fraction  # exact cell area carrying this atom's Hessian
    fraction: Fraction  # area / domain area
    required: Fraction  # (1 - eps) * weight, certified upper endpoint
    ok: bool


def area_fractions(pot: PiecewisePotential, eps: Fraction,
                   t: Optional[Tally] = None) -> list[FractionRow]:
    """Exact per-atom area fractions with the (1-eps) * weight floor check,
    read from the tally `t` of `pot` when one is given (else one walk)."""
    dom_area = pot.domain[2] * pot.domain[3]
    got = (t if t is not None else tally(pot)).atom_areas
    rows = []
    for tag in sorted(pot.atoms):
        info = pot.atoms[tag]
        area = got.get(tag, Fraction(0))
        fraction = area / dom_area
        required = ((1 - Fraction(eps)) * info.weight).hi
        rows.append(
            FractionRow(
                atom_tag=tag,
                matrix=info.matrix,
                weight=info.weight,
                area=area,
                fraction=fraction,
                required=required,
                ok=fraction >= required,
            )
        )
    return rows


def continuity_audit(pot: PiecewisePotential) -> dict:
    """Cross-cell C^1 audit at shared edges, certified per class.

    Checks, per pattern node: ramp seam values/derivatives (exact rational
    identities), stripe-to-stripe profile knots (re-derived; exact when the
    data is rational, else an interval containing 0), period closure
    residuals, and parent-core-to-child base Hessian residuals. Returns the
    number of exactly-zero checks and the largest certification width;
    raises BuildError, naming the node, on a knot or child-base mismatch.
    """
    exact = 0
    width = Fraction(0)
    checks = 0
    half = Fraction(1, 2)
    for node in pot.nodes():
        prof = node.profile
        for left, right in zip(prof.stripes, prof.stripes[1:]):
            wspan = left.x_hi - left.x_lo
            v_end = left.v0 + left.s0 * wspan + left.w2 * wspan * wspan * half
            s_end = left.s0 + left.w2 * wspan
            for resid in (v_end - right.v0, s_end - right.s0):
                checks += 1
                if not resid.contains(0):
                    raise BuildError(
                        f"profile knot mismatch in node {node.tag}: {resid}"
                    )
                if resid.lo == 0 and resid.hi == 0:
                    exact += 1
                else:
                    width = max(width, resid.width)
        checks += 1
        if prof.closure_width == 0:
            exact += 1
        else:
            width = max(width, prof.closure_width)
        for role, link in node.children.items():
            host = node.atom_for_role(role)
            resid_mat = host - link.node.base
            for entry in resid_mat.entries():
                checks += 1
                if not entry.contains(0):
                    raise BuildError(
                        f"child base mismatch under node {node.tag}: {entry}"
                    )
                if entry.lo == 0 and entry.hi == 0:
                    exact += 1
                else:
                    width = max(width, entry.width)
    return {"checks": checks, "exact": exact, "max_width": width}


# -- report serialization ------------------------------------------------------------


@dataclass(frozen=True)
class ReportItem:
    name: str
    value: Iv
    note: str = ""


def report_phis(q_list: Iterable = ()) -> list:
    """What `report_items` reads: l1_diag, then neg parts of H_00, H_11 per q."""
    return ["l1_diag", *(_neg_phi(q, i) for q in q_list for i in (0, 1))]


def report_items(pot: PiecewisePotential, t: Tally, q_list: Iterable = ()) -> list[ReportItem]:
    """Standard measurement set from a tally of `report_phis(q_list)`."""
    items = [
        ReportItem("hessian_l1_mean", t.mean(0)),
        ReportItem("min_trace", t.min_trace),
        ReportItem("trail_proximity", t.trail()),
        ReportItem("grad_deviation", pot.grad_deviation()),
    ]
    items += [ReportItem(f"neg_part_l{q}_i{i}", t.bracket(k))
              for k, (_, i, q) in enumerate(report_phis(q_list)[1:], start=1)]
    bd = pot.boundary_report()
    items.append(
        ReportItem(
            "boundary_deviation",
            Iv(0) if bd["exact"] else Iv(0, 1),
            note="exact" if bd["exact"] else "NOT EXACT",
        )
    )
    items.append(ReportItem("closure_width", Iv(0, bd["closure_width"])))
    audit = continuity_audit(pot)
    items.append(
        ReportItem(
            "continuity_width",
            Iv(0, audit["max_width"]),
            note=f"{audit['exact']}/{audit['checks']} exact",
        )
    )
    return items


def potential_report(pot: PiecewisePotential, q_list: Iterable = ()) -> list[ReportItem]:
    """Standard measurement set for one realization."""
    q_list = list(q_list)
    return report_items(pot, tally(pot, report_phis(q_list)), q_list)
