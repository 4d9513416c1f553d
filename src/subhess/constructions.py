"""The specific laminate families the rest of the package realizes.

`doubling_laminate(p, k)` splits k*Id in two rank-one moves into

    alpha * delta_{kA}  +  beta(1-alpha) * delta_{2k Id}  +  (1-beta)(1-alpha) * delta_{kB}

with s = 2^p, alpha = (s-1)/(s+1), beta = (s+1)/(2s),
A = diag((s-3)/(s-1), 1), B = diag(2, -2/(s-1)). The surviving large atom
doubles the scale and carries weight exactly 2^-p, which is what makes the
cascade (`doubling_cascade`) produce diagonal-moment growth while the trace
stays positive: for p < log2(3) the A-atom's first entry is negative, and the
q-th negative-part moments grow geometrically in the cascade whenever q > p.

`staircase_params` produces the level schedule p_j = 1 + kappa/j with
kappa = 2/ln 2, where the running product of level weights 2^-p_j equals
4^-j * (j!)^... — what matters downstream is only 2^(-kappa*H_j) <= (j+1)^-2,
i.e. summable level contributions against exploding negative parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from subhess.laminate import Laminate, barycenter, elementary_split, moment, phi_l1_diag, phi_neg_pow
from subhess.scalars import (
    Iv,
    IvLike,
    Undecided,
    as_iv,
    dyadic_floor_iv,
    ln_iv,
    log2_iv,
    pow2,
    rpow,
)
from subhess.sym2 import SymMat2

WIDTH_TOL = Fraction(1, 10**9)  # widest enclosure verify_doubling accepts as exact


@dataclass(frozen=True)
class DoublingParams:
    p: Iv
    two_p: Iv
    k: Fraction
    alpha: Iv
    beta: Iv
    mat_a: SymMat2
    mat_b: SymMat2
    mat_m: SymMat2
    mat_id: SymMat2
    mat_2id: SymMat2

    @staticmethod
    def make(
        p: IvLike,
        k: Fraction = Fraction(1),
        two_p: Optional[IvLike] = None,
    ) -> "DoublingParams":
        pv = as_iv(p)
        if not pv.certainly_gt(1):
            raise ValueError(f"exponent must be certainly > 1, got {pv}")
        s = as_iv(two_p) if two_p is not None else pow2(pv)
        if not s.certainly_gt(2):
            raise ValueError(f"2^p must be certainly > 2, got {s}")
        alpha = (s - 1) / (s + 1)
        beta = (s + 1) / (2 * s)
        a11 = (s - 3) / (s - 1)
        b22 = -2 / (s - 1)
        kk = Iv(k)
        return DoublingParams(
            p=pv,
            two_p=s,
            k=k,
            alpha=alpha,
            beta=beta,
            mat_a=SymMat2.diag(kk * a11, kk),
            mat_b=SymMat2.diag(2 * kk, kk * b22),
            mat_m=SymMat2.diag(2 * kk, kk),
            mat_id=SymMat2.diag(kk, kk),
            mat_2id=SymMat2.diag(2 * kk, 2 * kk),
        )


def p_threshold() -> Iv:
    """Exponent below which the A-atom's first diagonal entry is negative."""
    return log2_iv(3)


def doubling_laminate(
    p: IvLike,
    k: Fraction = Fraction(1),
    two_p: Optional[IvLike] = None,
) -> tuple[Laminate, DoublingParams]:
    params = DoublingParams.make(p, k, two_p)
    return _double(Laminate.dirac(params.mat_id), 0, params), params


def _double(lam: Laminate, idx: int, params: DoublingParams) -> Laminate:
    """One doubling round on atom `idx`, the matrix k*Id."""
    # split along e1: k*Id = alpha * kA + (1-alpha) * kM
    lam = elementary_split(lam, idx, params.alpha, params.mat_a, params.mat_m)
    # split along e2: k*M = beta * 2k*Id + (1-beta) * kB
    return elementary_split(lam, idx + 1, params.beta, params.mat_2id, params.mat_b)


def l1_growth_constant(params: DoublingParams) -> Iv:
    """C(p): the l1-diagonal moment of the unit-scale laminate.

    Closed form 4/s + 4/(s+1) for s < 3 and 2 + 4/(s(s+1)) for s >= 3;
    certified > 2 for every p > 1. Computed here from the definition so the
    closed forms can be cross-checked in tests.
    """
    s = params.two_p
    alpha, beta = params.alpha, params.beta
    a11_abs = abs((s - 3) / (s - 1))
    w_mid = beta * (1 - alpha)
    w_b = (1 - beta) * (1 - alpha)
    return alpha * (a11_abs + 1) + w_mid * 4 + w_b * (2 + 2 / (s - 1))


def neg_moment_constant(params: DoublingParams, q: IvLike, i: int) -> Iv:
    """c_i(p, q): q-th negative-part moment of diagonal entry i, unit scale.

    i = 0 is zero (not just small) when p >= log2(3); i = 1 is positive for
    every p > 1.
    """
    s = params.two_p
    qv = as_iv(q)
    if i == 0:
        neg = ((s - 3) / (s - 1)).neg_part()
        if neg.hi == 0:
            return Iv(0)
        return params.alpha * rpow(neg, qv)
    if i == 1:
        w_b = (1 - params.beta) * (1 - params.alpha)
        return w_b * rpow(2 / (s - 1), qv)
    raise ValueError(f"diagonal index must be 0 or 1, got {i}")


def verify_doubling(
    lam: Laminate,
    params: DoublingParams,
    q_list: Sequence[IvLike] = (),
) -> dict:
    """Certified item-by-item report on a doubling laminate.

    Each item: {'ok': bool, ...values...}; 'ok' asserts the certified claim.
    The negative-part item for i = 0 reports applicable=False (and ok=True
    vacuously) when p >= log2(3) certified.
    """
    report: dict[str, dict] = {}
    k = Iv(params.k)

    atoms = lam.atoms
    resid = list((barycenter(lam) - SymMat2.diag(k, k)).entries())
    ok = all(entry.contains(0) and entry.width <= WIDTH_TOL for entry in resid)
    report["barycenter"] = {"ok": ok, "residual": resid}

    mass = sum((atom.weight for atom in atoms), Iv(0))
    report["mass"] = {"ok": mass.contains(1) and mass.width <= WIDTH_TOL, "mass": mass}

    # the doubling atom is the unique one equal to 2k*Id
    mid = atoms[1]
    lam_weight = 1 / params.two_p
    diff = mid.weight - lam_weight
    report["doubling_weight"] = {
        "ok": diff.contains(0) and diff.width <= WIDTH_TOL,
        "weight": mid.weight,
        "target": lam_weight,
    }

    diag_ok = all(a.matrix.a12 == 0 for a in atoms)
    traces = [a.matrix.trace() for a in atoms]
    tr_pos = all(t.certainly_gt(0) for t in traces)
    tr_ab = atoms[0].matrix.trace() - atoms[2].matrix.trace()
    report["trail_interior"] = {
        "ok": diag_ok and tr_pos and tr_ab.contains(0),
        "diagonal": diag_ok,
        "min_trace": Iv.hull(traces),
        "trace_a_minus_b": tr_ab,
    }

    c_val = l1_growth_constant(params)
    measured = moment(lam, phi_l1_diag) / k
    report["l1_moment"] = {
        "ok": c_val.certainly_gt(2)
        and (measured - c_val).contains(0)
        and measured.width <= WIDTH_TOL,
        "constant": c_val,
        "measured": measured,
    }

    def neg_item(i: int, qv: Iv) -> dict:
        c = neg_moment_constant(params, qv, i)
        measured = moment(lam, phi_neg_pow(i, qv)) / rpow(k, qv)
        ok = c.certainly_gt(0) and (measured - c).contains(0)
        return {"applicable": True, "ok": ok, "constant": c, "measured": measured}

    thresh = p_threshold()
    for q in q_list:
        qv = as_iv(q)
        if params.p.certainly_lt(thresh):
            i0 = neg_item(0, qv)
        elif params.p.certainly_gt(thresh):
            m0 = moment(lam, phi_neg_pow(0, qv))
            i0 = {"applicable": False, "ok": m0 == Iv(0), "measured": m0}
        else:
            raise Undecided(f"p vs log2(3) undecided: {params.p}")
        i1 = neg_item(1, qv)
        report[f"neg_moment_q={qv.mid}"] = {"i0": i0, "i1": i1, "ok": i1["ok"] and i0["ok"]}

    report["ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report


# -- the cascade -------------------------------------------------------------------


def _cascade_rounds(
    p: IvLike,
    m: int,
    two_p: Optional[IvLike] = None,
) -> Iterator[tuple[Laminate, DoublingParams]]:
    """(laminate, params) after each of m doubling rounds from delta_Id.

    Round j splits atom j, the weight-(2^-p)^j atom at 2^j * Id, into the
    A-atom at j, the doubled atom at j + 1 and the B-atom at j + 2. 2^p is
    computed in round 0 only.
    """
    lam = Laminate.dirac(SymMat2.identity())
    for j in range(m):
        params = DoublingParams.make(p, Fraction(2**j), two_p)
        two_p = params.two_p
        lam = _double(lam, j, params)
        yield lam, params


def doubling_cascade(p: IvLike, m: int) -> tuple[Laminate, list[DoublingParams]]:
    """m rounds of doubling starting from delta_Id; scale doubles each round.

    Returns the final laminate and the per-round params (`_cascade_rounds`).
    """
    if m < 0:
        raise ValueError("cascade length must be >= 0")
    lam, rounds = Laminate.dirac(SymMat2.identity()), []
    for lam, params in _cascade_rounds(p, m):
        rounds.append(params)
    return lam, rounds


def cascade_moment_table(p: IvLike, q_list: Sequence[IvLike], m_max: int) -> list[dict]:
    """Direct vs recursion values of the cascade moments, m = 0..m_max.

    Row fields: m, a_direct, a_rec (l1 diagonal), and per q: b0/b1 direct and
    recursion values. The recursions are
        a_m = a_{m-1} + (C-2) * 2^((1-p)(m-1)),
        b_{m,i} = b_{m-1,i} + c_i * 2^((q-p)(m-1)),
    seeded at a_0 = 2, b_{0,i} = 0. A direct value is the sum of one term
    weight * phi(matrix) per atom, each formed once, when its atom appears.
    Its endpoints are running sums (interval subtraction would widen): each
    round subtracts the split atom's lo and hi and adds its three children's,
    and exact Fraction steps keep every row equal to `moment(lam, phi)`.
    """
    params0 = DoublingParams.make(p)
    lam_w = 1 / params0.two_p
    q_vals = [as_iv(q) for q in q_list]
    # per functional: its CSV column stem, phi, and the unit-scale constant of
    # its recursion step, which scales by 2^m (l1) or (2^m)^q (negative parts)
    cols = {"a": ("a_{}", phi_l1_diag, l1_growth_constant(params0) - 2)}
    for qi, qv in enumerate(q_vals):
        for i in (0, 1):
            cols[(i, qi)] = (f"b{i}_{{}}_q{qi}", phi_neg_pow(i, qv),
                             neg_moment_constant(params0, qv, i))
    # m = 0 is delta_Id: one atom of weight 1
    terms = {key: [phi(SymMat2.identity())] for key, (_, phi, _) in cols.items()}
    sums = {key: (t[0].lo, t[0].hi) for key, t in terms.items()}
    recs = {key: Iv(2) if key == "a" else Iv(0) for key in cols}

    rows: list[dict] = []
    rounds = _cascade_rounds(p, m_max, params0.two_p)
    for m in range(m_max + 1):
        row: dict = {"m": m}
        for key, (stem, _, _) in cols.items():
            row[stem.format("direct")] = Iv(*sums[key])
            row[stem.format("rec")] = recs[key]
        rows.append(row)
        if m == m_max:
            break
        # advance: the doubling atom's term gives way to its three children's
        lam, _params = next(rounds)
        two_m = Iv(2).pow_int(m)
        scales = [rpow(two_m, qv) for qv in q_vals]  # (2^m)^q
        for key, (_, phi, const) in cols.items():
            children = [a.weight * phi(a.matrix) for a in lam.atoms[m:m + 3]]
            gone = terms[key][m]
            terms[key][m:m + 1] = children
            lo, hi = sums[key]
            sums[key] = (lo - gone.lo + sum(c.lo for c in children),
                         hi - gone.hi + sum(c.hi for c in children))
            scale = two_m if key == "a" else scales[key[1]]
            recs[key] = recs[key] + const * lam_w.pow_int(m) * scale
    return rows


# -- staircase schedule --------------------------------------------------------------


@dataclass(frozen=True)
class StairLevel:
    j: int
    p: Iv
    k: Fraction
    eps: Fraction


# eps_j floors to 30 fractional bits, so eps_j = 4^-j floors to 0 from level 16 on
MAX_LEVELS = 15


def staircase_params(levels: int) -> list[StairLevel]:
    """Level schedule: p_j = 1 + kappa/j (kappa = 2/ln 2), k_j = 2^(j-1),
    eps_j = dyadic floor of min(4^-j, 2^-p_j) to 30 bits.

    The eps_j <= 2^-p_j strengthening keeps the level-area two-sided bounds
    inside a factor-2 corridor of prod 2^-p_m.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    kappa = 2 / ln_iv(2)
    out: list[StairLevel] = []
    for j in range(1, levels + 1):
        pj = 1 + kappa / j
        cap = Iv.hull([pow2(-pj)])
        eps_cap = min(Fraction(1, 4**j), cap.lo)
        eps = dyadic_floor_iv(Iv(eps_cap), 30)
        if eps <= 0:
            raise ValueError(f"level {j} epsilon underflow")
        out.append(StairLevel(j=j, p=pj, k=Fraction(2 ** (j - 1)), eps=eps))
    return out
