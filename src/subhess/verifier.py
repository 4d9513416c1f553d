"""Certified measurement of piecewise potentials.

Every functional aggregates the potential's cell *classes*: exact rational
areas and counts, Hessians that are either exact atom matrices or interval
boxes. Results are intervals that provably bracket the true value of the
functional for the exact piecewise-polynomial function the synthesizer
defines; nothing here samples or approximates. `tally` makes the one walk
over the classes and sums each construction level; every measurement below
reads what it sums. Within a level, each phi value, each term (the phi
value times the rounded enclosure of area * count) and each running sum of
an integral is a dyadic enclosure (`Dy`), rounded outward to
`ENCLOSURE_BITS` bits, so it still brackets the true value. Areas, the cell
count and the fold of the levels are exact, so the levels add up to the
whole exactly. The tally itself is the whole domain, and `Tally.over(region)`
folds the levels a region selects:

* ("level", j): cells built at construction level j;
* ("omega", j): cells built at level j or deeper, the nested region
  Omega_j of a staircase.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from subhess.laminate import phi_l1_diag, phi_neg_pow
from subhess.scalars import Dy, Iv, as_iv, sqrt_iv
from subhess.sym2 import SymMat2
from subhess.synthesizer import BuildError, PiecewisePotential

Region = tuple[str, int]

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
    cells: int  # geometric cells, each translate of a class counted
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
        sum(t.cells for t in parts),
    )


class _LevelSums:
    """Running sums of one construction level during the walk."""

    def __init__(self, n_phis: int):
        self.area: dict[int, int] = {}  # exact area, summed as numerators per denominator
        self.cells = 0
        self.total = [Dy(0, 0, 0)] * n_phis
        self.exact = [Dy(0, 0, 0)] * n_phis
        self.trace: Optional[Iv] = None  # min of lo and of hi over the cells
        self.atom_areas: dict[str, Fraction] = {}


def tally(pot: PiecewisePotential, phis: Iterable[Callable[[SymMat2], Iv]] = ()) -> Tally:
    """Certified integrals of each phi(D^2 u), min trace, trail distance,
    per-atom areas and the cell count, per construction level and over the
    whole domain, from one cell_classes() walk. The trail distance is each
    level's largest node certificate `node.ball_sq`, not re-derived from the
    classes."""
    fns = list(phis)
    sums: dict[int, _LevelSums] = {}
    for cc in pot.cell_classes():
        s = sums.get(cc.level)
        if s is None:
            s = sums[cc.level] = _LevelSums(len(fns))
        n = cc.width.numerator * cc.height.numerator * cc.count  # area * count = n / d
        d = cc.width.denominator * cc.height.denominator
        s.area[d] = s.area.get(d, 0) + n
        s.cells += cc.count
        w_dy = Dy.quot(n, d) if fns else None
        h = cc.hess if cc.hess is not None else SymMat2(*cc.h_box)
        for k, fn in enumerate(fns):
            v = fn(h)
            if v == ZERO:
                continue  # exact zeros add nothing
            term = Dy.of(v) * w_dy
            s.total[k] += term
            if cc.hess is not None:
                s.exact[k] += term
        tr = as_iv(h.trace())
        s.trace = tr if s.trace is None else Iv(min(s.trace.lo, tr.lo), min(s.trace.hi, tr.hi))
        if cc.kind == "atom":
            s.atom_areas[cc.atom_tag] = s.atom_areas.get(cc.atom_tag, 0) + Fraction(n, d)
    if not sums:
        raise ValueError("potential has no cells")
    ball_sq_hi = dict.fromkeys(sums, Fraction(0))
    for node in pot.nodes():
        ball_sq_hi[node.level] = max(ball_sq_hi[node.level], node.ball_sq.hi)
    levels = {lv: Tally(sum((Fraction(n, d) for d, n in s.area.items()), Fraction(0)),
                        tuple(v.iv() for v in s.total), tuple(v.iv() for v in s.exact),
                        s.trace, ball_sq_hi[lv], s.atom_areas, s.cells) for lv, s in sums.items()}
    return dataclasses.replace(_fold(list(levels.values())), levels=levels)


def hessian_l1(pot: PiecewisePotential) -> Iv:
    """Mean over the domain of |H11| + |H22|."""
    return tally(pot, (phi_l1_diag,)).mean(0)


def neg_part_lq(pot: PiecewisePotential, q, i: int) -> Iv:
    """Mean over the domain of ((H_ii)_-)^q, bracketed two-sided (`Tally.bracket`)."""
    return tally(pot, (phi_neg_pow(i, q),)).bracket(0)


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
    """C^1 audit of the seams and the boundary, in one walk over the nodes.

    Checks, per pattern node: the value and slope residual at each knot
    between consecutive profile stripes (re-derived; exact when the data is
    rational, else an interval containing 0), the profile's period closure
    width, and each entry of every child's base minus its host atom. Counts
    these in "checks", the exactly-zero ones in "exact", and keeps the
    largest nonzero width in "max_width"; raises BuildError, naming the
    node, on a knot or child-base mismatch. "boundary_exact" says whether
    every profile starts at value and slope 0 and every node's eta pieces
    vanish with their derivative at both ends; "closure_width" is the
    largest period closure width.
    """
    exact = checks = 0
    width = closure = Fraction(0)
    boundary_exact = True
    half = Fraction(1, 2)

    def count(resid: Iv, mismatch: str, tag: str) -> None:
        # one check: raise unless resid holds 0, else count it exact or widen
        nonlocal exact, checks, width
        checks += 1
        if not resid.contains(0):
            raise BuildError(f"{mismatch} {tag}: {resid}")
        if resid.lo == 0 and resid.hi == 0:
            exact += 1
        else:
            width = max(width, resid.width)

    for node in pot.nodes():
        prof = node.profile
        first, eta0, eta_last = prof.stripes[0], node.etas[0], node.etas[-1]
        boundary_exact = (boundary_exact and first.s0 == ZERO and first.v0 == ZERO
                          and eta0.value(eta0.lo) == 0 and eta0.deriv(eta0.lo) == 0
                          and eta_last.value(eta_last.hi) == 0
                          and eta_last.deriv(eta_last.hi) == 0)
        closure = max(closure, prof.closure_width)
        for left, right in zip(prof.stripes, prof.stripes[1:]):
            wspan = left.x_hi - left.x_lo
            v_end = left.v0 + left.s0 * wspan + left.w2 * wspan * wspan * half
            s_end = left.s0 + left.w2 * wspan
            for resid in (v_end - right.v0, s_end - right.s0):
                count(resid, "profile knot mismatch in node", node.tag)
        count(Iv(0, prof.closure_width), "period closure in node", node.tag)
        for role, link in node.children.items():
            for entry in (node.atom_for_role(role) - link.node.base).entries():
                count(entry, "child base mismatch under node", node.tag)
    return {"checks": checks, "exact": exact, "max_width": width,
            "boundary_exact": boundary_exact, "closure_width": closure}


# -- report serialization ------------------------------------------------------------


@dataclass(frozen=True)
class ReportItem:
    name: str
    value: Iv
    note: str = ""


def _neg_rows(q_list: Iterable) -> list[tuple]:
    """(q, i) of each negative-part row of a report: H_00, then H_11, per q."""
    return [(q, i) for q in q_list for i in (0, 1)]


def report_phis(q_list: Iterable = ()) -> list:
    """What `report_items` reads: l1_diag, then the `_neg_rows` negative parts."""
    return [phi_l1_diag, *(phi_neg_pow(i, q) for q, i in _neg_rows(q_list))]


def report_columns(q_list: Iterable) -> dict:
    """The index of each functional in `report_phis(q_list)`, and so in a
    tally of it: "l1_diag", then each (q, i) of `_neg_rows`, in order."""
    return {key: k for k, key in enumerate(["l1_diag", *_neg_rows(q_list)])}


def report_items(pot: PiecewisePotential, t: Tally, q_list: Iterable = ()) -> list[ReportItem]:
    """Standard measurement set from a tally of `report_phis(q_list)`."""
    cols = report_columns(q_list)
    items = [
        ReportItem("hessian_l1_mean", t.mean(cols.pop("l1_diag"))),
        ReportItem("min_trace", t.min_trace),
        ReportItem("trail_proximity", t.trail()),
        ReportItem("grad_deviation", pot.grad_deviation()),
    ]
    items += [ReportItem(f"neg_part_l{q}_i{i}", t.bracket(k)) for (q, i), k in cols.items()]
    audit = continuity_audit(pot)
    exact = audit["boundary_exact"]
    return items + [
        ReportItem("boundary_deviation", Iv(0) if exact else Iv(0, 1),
                   note="exact" if exact else "NOT EXACT"),
        ReportItem("closure_width", Iv(0, audit["closure_width"])),
        ReportItem("continuity_width", Iv(0, audit["max_width"]),
                   note=f"{audit['exact']}/{audit['checks']} exact"),
    ]


def potential_report(pot: PiecewisePotential, q_list: Iterable = ()) -> list[ReportItem]:
    """Standard measurement set for one realization."""
    q_list = list(q_list)
    return report_items(pot, tally(pot, report_phis(q_list)), q_list)
