"""Admissible oscillation directions for diagonal second-derivative systems.

A direction vector v collects the pure second derivatives (d_11 v, ..., d_nn v)
that a one-dimensional profile oscillating along a frequency xi can produce;
those are proportional to (xi_1^2, ..., xi_n^2), so v is attainable exactly
when its entries share one sign (zero entries allowed, since frequency
components may vanish): the wave cone of the system (De Philippis and Rindler,
Ann. Math. 184, 2016). `member` decides that in exact arithmetic.

`member_bruteforce` is the independent oracle: it minimizes the pairwise
residual max_{i<j} |xi_i^2 v_j - xi_j^2 v_i| over the frequency sphere.
The residual depends on xi only through zeta = xi^2, and |xi| = 1 makes zeta
range over the probability simplex, so the search runs in zeta: the
candidate zeta = |v| / sum|v| pins members at residual zero, and a
non-member's minimum over the simplex is a small LP, solved exactly at an
optimal basis (Applegate, Cook, Dash and Espinoza, "Exact solutions to
linear programming problems", Oper. Res. Lett. 35, 2007). That basis gives
both a dual bound from below and a primal point that attains it, so the
floor is the exact minimum, certified from both sides. Every check runs in
integers, on v scaled to coprime integers once.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

Vec = Sequence[Fraction]

# consecutive degenerate pivots, per row of the dual LP, before Bland's rule prices
_DEGENERATE_RUN = 2


class CertificationError(RuntimeError):
    """The wave-cone dual bound did not certify a positive residual floor for
    a non-member, or the primal point did not attain it."""


def member(v: Iterable) -> bool:
    """Exact sign-consistency test: all entries >= 0 or all <= 0."""
    vs = [Fraction(x) for x in v]
    return all(x >= 0 for x in vs) or all(x <= 0 for x in vs)


@dataclass(frozen=True)
class BruteForceResult:
    member: bool
    floor: Fraction  # exact min residual over the whole sphere (0 for members)
    patches: int  # LP solves: 0 for members, 1 for non-members


def _over_one_denominator(xs) -> tuple[list[int], int]:
    """(numerators, d): the rationals xs as numerators / d."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _integers(vs: Vec) -> tuple[list[int], int, int]:
    """(w, g, den): v = w * g / den with w coprime integers."""
    w, den = _over_one_denominator(vs)
    g = math.gcd(*w) or 1
    return [x // g for x in w], g, den


def _solve_dual(vs: Vec) -> tuple[dict[tuple[int, int, int], Fraction], tuple[Fraction, ...]]:
    """(y, zeta) at an optimal basis of the dual LP of a non-member

        maximize s  subject to  coef_k(y) >= s for k < n,  sum y = 1,  y >= 0,

    whose columns are the signed pair rows (i, j, sign) of the residual LP:
    coef_i(y) gains sign * y * v_j and coef_j(y) loses sign * y * v_i.  y maps
    each basic pair row to its weight, and zeta = -pi[:n] is the primal point
    of the basis's dual prices pi.

    A revised simplex in integers (Edmonds' integer pivoting).  v is scaled to
    coprime integers, which keeps every basis and its optimality, and B^-1 is
    held as M / d with M integer and d = |det B|, so each pivot's division is
    exact, and the ratio test compares by cross-multiplication.  pi is the
    s-row of B^-1, so a reduced cost is a 3-term dot product.
    The start basis holds s, the first cross pair (v_i v_j < 0) with the sign
    that makes both of its coefficients positive, and the slacks of every row
    but the first of least coefficient: the pivot that brings s in, done in
    closed form.  Entering column: Dantzig's rule (largest reduced cost, the
    first on ties); after 2(n+1) consecutive degenerate pivots, Bland's rule
    (the first column with a positive reduced cost) until a pivot moves the
    objective.  Leaving row: the least ratio, ties to the least column index.
    Bland's rule cannot cycle and every other pivot raises the objective, so
    no basis repeats and the method terminates.
    """
    n = len(vs)
    pairs = list(itertools.combinations(range(n), 2))
    # column 2p is pair p's +row, 2p + 1 its -row; the slack of row k is column m + k
    signed = [(i, j, sign) for i, j in pairs for sign in (1, -1)]
    m = len(signed)
    w, _, _ = _integers(vs)

    i, j = next((i, j) for i, j in pairs if w[i] * w[j] < 0)
    sign = 1 if w[j] > 0 else -1
    a = [0] * n
    a[i], a[j] = sign * w[j], -sign * w[i]
    low = min(range(n), key=a.__getitem__)
    # rows of M: s, the pair, then the slacks; the last column is the basic solution
    rows = [[-(k == low) for k in range(n)] + [a[low]], [0] * n + [1]]
    basis = [m + n, signed.index((i, j, sign))]
    for k in range(n):
        if k != low:
            rows.append([(c == low) - (c == k) for c in range(n)] + [a[k] - a[low]])
            basis.append(m + k)
    d = 1
    degenerate = 0

    def reduced_costs(pi):
        for p, (i, j) in enumerate(pairs):
            q = pi[i] * w[j] - pi[j] * w[i]
            yield 2 * p, -q - pi[n]
            yield 2 * p + 1, q - pi[n]
        for k in range(n):
            yield m + k, pi[k]

    while True:
        entering = ((col, rc) for col, rc in reduced_costs(rows[0]) if rc > 0)
        enter = (next(entering, None) if degenerate >= _DEGENERATE_RUN * (n + 1)
                 else max(entering, key=itemgetter(1), default=None))
        if enter is None:
            break
        col = enter[0]
        if col < m:
            i, j, sign = signed[col]
            alpha = [sign * (r[i] * w[j] - r[j] * w[i]) + r[n] for r in rows]
        else:
            alpha = [-r[col - m] for r in rows]
        # s is free and never leaves; the dual LP is bounded, so some row
        # limits: the least ratio rows[pos][n] / alpha[pos], then the least column
        out = None
        for pos in range(1, n + 1):
            if alpha[pos] > 0 and (out is None or (rows[pos][n] * alpha[out], basis[pos])
                                   < (rows[out][n] * alpha[pos], basis[out])):
                out = pos
        degenerate = degenerate + 1 if rows[out][n] == 0 else 0
        pivot, pivot_row = alpha[out], rows[out]
        for pos, r in enumerate(rows):
            if pos != out:
                rows[pos] = [(x * pivot - alpha[pos] * z) // d for x, z in zip(r, pivot_row)]
        d = pivot
        basis[out] = col

    y = {signed[col]: Fraction(r[n], d) for col, r in zip(basis, rows) if col < m}
    return y, tuple(Fraction(-x, d) for x in rows[0][:n])


def member_bruteforce(v: Iterable) -> BruteForceResult:
    """Members return at their exact candidate.  For a non-member, solve the
    dual LP of `_solve_dual` exactly.  Its weights y >= 0 bound every residual
    below by min_k coef_k(y) / sum y (weak duality), and its primal point zeta
    on the simplex attains that floor, so the floor is the exact minimum.
    Raises CertificationError when the floor is not positive or zeta does not
    attain it."""
    vs = tuple(Fraction(x) for x in v)
    n = len(vs)
    if n < 2:
        raise ValueError("need dimension >= 2")
    w, g, den = _integers(vs)
    pairs = list(itertools.combinations(range(n), 2))
    # the candidate |v| / sum|v| has residual 0 exactly when |w_i| w_j = |w_j| w_i
    if all(abs(w[i]) * w[j] == abs(w[j]) * w[i] for i, j in pairs):
        return BruteForceResult(True, Fraction(0), 0)

    y, zeta = _solve_dual(vs)
    weights, d_y = _over_one_denominator(y.values())
    coef = [0] * n  # d_y * den / g times coef_k(y)
    for (i, j, sign), weight in zip(y, weights):
        coef[i] += sign * weight * w[j]
        coef[j] -= sign * weight * w[i]
    total = sum(weights)
    floor = Fraction(min(coef) * g, total * den) if total else Fraction(0)
    if floor <= 0 or min(weights) < 0:
        raise CertificationError(f"dual bound {floor} does not certify {vs}")
    z, d_z = _over_one_denominator(zeta)
    # d_z * den / g times the residual of zeta, which must equal the floor
    worst = max(abs(z[i] * w[j] - z[j] * w[i]) for i, j in pairs)
    if min(z) < 0 or sum(z) != d_z or worst * total != min(coef) * d_z:
        raise CertificationError(f"primal point {zeta} does not attain the floor {floor} "
                                 f"of {vs}")
    return BruteForceResult(False, floor, 1)


# ---- suites ---------------------------------------------------------------------------


def _random_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    out = []
    for _ in range(n):
        if rng.random() < Fraction(1, 8):
            out.append(Fraction(0))
        else:
            num = rng.randint(1, 9) * rng.choice((1, -1))
            out.append(Fraction(num, rng.randint(1, 9)))
    return tuple(out)


def agreement_suite(n: int, trials: int, seed: int = 0) -> dict:
    """member vs member_bruteforce on random rational vectors."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    disagreements = []
    members = 0
    for _ in range(trials):
        v = _random_vector(rng, n)
        m = member(v)
        bf = member_bruteforce(v)
        members += m
        if bf.member != m:
            disagreements.append({"v": v, "member": m, "bruteforce": bf})
    return {
        "n": n,
        "trials": trials,
        "members": members,
        "nonmembers": trials - members,
        "disagreements": disagreements,
        "all_agree": not disagreements,
    }


def lattice_suite(n: int, radius: int = 2) -> dict:
    """Exhaustive oracle agreement and cone invariants on the integer lattice.

    Checks, for every v in {-radius..radius}^n: oracle agreement, scaling
    invariance member(t v) = member(v) for t != 0, permutation invariance,
    and the sign step: a member with nonnegative trace is entrywise
    nonnegative.
    """
    scales = (Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 2))
    checked = 0
    failures = []
    for raw in itertools.product(range(-radius, radius + 1), repeat=n):
        v = tuple(Fraction(x) for x in raw)
        m = member(v)
        checked += 1
        if member_bruteforce(v).member != m:
            failures.append(("oracle", v))
        if any(member(tuple(t * x for x in v)) != m for t in scales):
            failures.append(("scaling", v))
        if any(member(p) != m for p in itertools.permutations(v)):
            failures.append(("permutation", v))
        if m and sum(v) >= 0 and not all(x >= 0 for x in v):
            failures.append(("sign-step", v))
    return {
        "n": n,
        "radius": radius,
        "vectors": checked,
        "failures": failures,
        "all_ok": not failures,
    }
