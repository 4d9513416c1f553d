"""Certified measurement of piecewise potentials.

Every functional aggregates the potential's cell *classes*: exact rational
areas and counts, Hessians that are either exact atom matrices or interval
boxes. Results are intervals that provably bracket the true value of the
functional for the exact piecewise-polynomial function the synthesizer
defines; nothing here samples or approximates.

Regions select subsets of cells by construction bookkeeping:

* None: the whole domain;
* ("omega", j): cells inside the j-th nested construction region;
* ("level", j): cells created by construction level j only;
* ("atom", tag): the exact-Hessian cells of one terminal atom.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from subhess.laminate import PhiLike, resolve_phi
from subhess.scalars import Iv, as_iv, rpow, sqrt_iv
from subhess.sym2 import SymMat2
from subhess.synthesizer import CellClass, PiecewisePotential

Region = Optional[tuple]

ZERO = Iv(0)


def _cell_matches(cc: CellClass, region: Region) -> bool:
    if region is None:
        return True
    kind, arg = region
    if kind == "omega":
        return cc.omega >= arg
    if kind == "level":
        return cc.level == arg
    if kind == "atom":
        return cc.atom_tag == arg
    raise ValueError(f"unknown region selector: {region!r}")


def region_cells(pot: PiecewisePotential, region: Region = None) -> Iterable[CellClass]:
    for cc in pot.cell_classes():
        if _cell_matches(cc, region):
            yield cc


def region_area(pot: PiecewisePotential, region: Region = None) -> Fraction:
    return sum((cc.area * cc.count for cc in region_cells(pot, region)), Fraction(0))


def _cell_hess(cc: CellClass) -> SymMat2:
    if cc.hess is not None:
        return cc.hess
    return SymMat2.of(*cc.h_box)


def integrate_phi(pot: PiecewisePotential, phi: PhiLike, region: Region = None) -> Iv:
    """Certified enclosure of the integral of phi(D^2 u) over the region."""
    fn = resolve_phi(phi)
    total = ZERO
    for cc in region_cells(pot, region):
        total = total + fn(_cell_hess(cc)) * (cc.area * cc.count)
    return total


def mean_phi(pot: PiecewisePotential, phi: PhiLike, region: Region = None) -> Iv:
    area = region_area(pot, region)
    if area == 0:
        raise ValueError(f"region {region!r} has zero area")
    return integrate_phi(pot, phi, region) / area


def hessian_l1(pot: PiecewisePotential, region: Region = None) -> Iv:
    """Mean over the region of |H11| + |H22|."""
    return mean_phi(pot, "l1_diag", region)


def neg_part_lq(
    pot: PiecewisePotential,
    q,
    i: int,
    region: Region = None,
) -> Iv:
    """Mean over the region of ((H_ii)_-)^q, bracketed two-sided.

    The lower endpoint uses exact-Hessian cells only (perturbation cells
    contribute >= 0, so dropping them keeps a valid lower bound and avoids
    the spurious negative parts an interval box would suggest); the upper
    endpoint includes every cell through its enclosure.
    """
    qv = as_iv(q)
    if not qv.certainly_ge(1):
        raise ValueError(f"exponent must be >= 1, got {qv}")
    if i not in (0, 1):
        raise ValueError("diagonal index must be 0 or 1")
    lower = ZERO
    upper = ZERO
    area = Fraction(0)
    for cc in region_cells(pot, region):
        area += cc.area * cc.count
        h = _cell_hess(cc)
        entry = h.a11 if i == 0 else h.a22
        neg = entry.neg_part()
        if neg.hi == 0:
            continue
        term = rpow(neg, qv) * (cc.area * cc.count)
        upper = upper + term
        if cc.hess is not None:
            lower = lower + term
    if area == 0:
        raise ValueError(f"region {region!r} has zero area")
    return Iv(max(Fraction(0), (lower / area).lo), (upper / area).hi)


def min_trace(pot: PiecewisePotential, region: Region = None) -> Iv:
    """Enclosure of min over the region of trace(D^2 u)."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for cc in region_cells(pot, region):
        tr = _cell_hess(cc).trace()
        lo = tr.lo if lo is None else min(lo, tr.lo)
        hi = tr.hi if hi is None else min(hi, tr.hi)
    if lo is None:
        raise ValueError(f"region {region!r} has no cells")
    return Iv(lo, hi)


def trail_proximity(pot: PiecewisePotential) -> Iv:
    """Max over perturbation cells of the certified distance to the owning
    two-target segment (upper-bounds the distance to the nearest trail
    segment)."""
    worst = ZERO
    for cc in pot.cell_classes():
        if cc.ball_sq.hi > worst.hi:
            worst = cc.ball_sq
    return sqrt_iv(Iv(0, worst.hi))


@dataclass(frozen=True)
class FractionRow:
    atom_tag: str
    matrix: SymMat2
    weight: Iv
    area: Fraction  # exact cell area carrying this atom's Hessian
    fraction: Fraction  # area / domain area
    required: Fraction  # (1 - eps) * weight, certified upper endpoint
    ok: bool


def area_fractions(pot: PiecewisePotential, eps: Optional[Fraction] = None) -> list[FractionRow]:
    """Exact per-atom area fractions with the (1-eps) * weight floor check."""
    if eps is None:
        eps = Fraction(pot.meta.get("eps", 0))
    dom_area = pot.domain[2] * pot.domain[3]
    got: dict[str, Fraction] = {}
    for cc in pot.cell_classes():
        if cc.kind == "atom" and cc.atom_tag is not None:
            got[cc.atom_tag] = got.get(cc.atom_tag, Fraction(0)) + cc.area * cc.count
    rows = []
    for tag in sorted(pot.atoms):
        info = pot.atoms[tag]
        if not info.terminal:
            continue
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


def boundary_check(pot: PiecewisePotential) -> dict:
    return pot.boundary_report()


def continuity_audit(pot: PiecewisePotential) -> dict:
    """Cross-cell C^1 audit at shared edges, certified per class.

    Checks, per pattern node: ramp seam values/derivatives (exact rational
    identities), stripe-to-stripe profile knots (re-derived; exact when the
    data is rational, else an interval containing 0), period closure
    residuals, and parent-core-to-child base Hessian residuals. Returns the
    number of exactly-zero checks and the largest certification width.
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
                    raise AssertionError(
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
                    raise AssertionError(
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


def write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def potential_report(pot: PiecewisePotential, q_list: Iterable = ()) -> list[ReportItem]:
    """Standard measurement set for one realization."""
    items = [
        ReportItem("hessian_l1_mean", hessian_l1(pot)),
        ReportItem("min_trace", min_trace(pot)),
        ReportItem("trail_proximity", trail_proximity(pot)),
        ReportItem("grad_deviation", pot.grad_deviation()),
    ]
    for q in q_list:
        for i in (0, 1):
            items.append(
                ReportItem(f"neg_part_l{q}_i{i}", neg_part_lq(pot, q, i))
            )
    bd = boundary_check(pot)
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
