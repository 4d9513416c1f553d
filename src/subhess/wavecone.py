"""Admissible oscillation directions for diagonal second-derivative systems.

A direction vector v collects the pure second derivatives (d_11 v, ..., d_nn v)
that a one-dimensional profile oscillating along a frequency xi can produce;
those are proportional to (xi_1^2, ..., xi_n^2), so v is attainable exactly
when its entries share one sign (zero entries allowed, since frequency
components may vanish). `member` decides that in exact arithmetic.

`member_bruteforce` is the independent oracle: it minimizes the pairwise
residual max_{i<j} |xi_i^2 v_j - xi_j^2 v_i| over the frequency sphere.
The residual depends on xi only through zeta = xi^2, and |xi| = 1 makes zeta
range over the probability simplex, so the search runs in zeta: an exact
candidate zeta = |v| / sum|v| pins members at residual zero, and a
non-member's minimum over the simplex is a small LP whose rationalized duals
bound it from below exactly (never just a solver-reported minimum; Neumaier
and Shcherbina, Math. Program. 99, 2004).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linprog

Vec = Sequence[Fraction]

# largest denominator kept when rationalizing the LP's float duals
_MAX_DEN = 10**6


class CertificationError(RuntimeError):
    """The wave-cone LP failed, or its dual bound did not certify a positive
    residual floor for a non-member."""


def member(v: Iterable) -> bool:
    """Exact sign-consistency test: all entries >= 0 or all <= 0."""
    vs = [Fraction(x) for x in v]
    return all(x >= 0 for x in vs) or all(x <= 0 for x in vs)


def residual(v: Vec, zeta: Vec) -> Fraction:
    """max over pairs of |zeta_i v_j - zeta_j v_i|, exact."""
    n = len(v)
    worst = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(zeta[i] * v[j] - zeta[j] * v[i]))
    return worst


def exact_candidate(v: Vec) -> tuple[Fraction, ...]:
    """zeta = |v| / sum|v|; the barycenter when v = 0."""
    total = sum(abs(x) for x in v)
    n = len(v)
    if total == 0:
        return tuple(Fraction(1, n) for _ in range(n))
    return tuple(abs(x) / total for x in v)


@dataclass(frozen=True)
class BruteForceResult:
    member: bool
    floor: Fraction  # certified min residual over the whole sphere (0 for members)
    patches: int  # LP solves: 0 for members, 1 for non-members


def _rational(x: float) -> Fraction:
    return Fraction(float(x)).limit_denominator(_MAX_DEN)


def _solve_lp(vs: Vec):
    """(pairs, result) of the LP min t s.t. +-(zeta_i v_j - zeta_j v_i) <= t,
    sum zeta = 1, zeta >= 0, solved in floats on v / max|v|."""
    n = len(vs)
    pairs = list(itertools.combinations(range(n), 2))
    scale = max(abs(x) for x in vs)
    w = [float(x / scale) for x in vs]
    rows = np.zeros((len(pairs), n))
    for r, (i, j) in enumerate(pairs):
        rows[r, i], rows[r, j] = w[j], -w[i]
    # variables (zeta, t); the first half of the rows is +pair, the second -pair
    a_ub = np.hstack([np.vstack([rows, -rows]), -np.ones((2 * len(pairs), 1))])
    lp = linprog(np.append(np.zeros(n), 1.0), A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                 A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[1.0], method="highs")
    return pairs, lp


def member_bruteforce(v: Iterable) -> BruteForceResult:
    """Members return at their exact candidate.  For a non-member, solve the
    LP of `_solve_lp`.  Any row duals y >= 0 bound every residual below by
    min_k (A^T y)_k / sum y (weak duality), so the rationalized duals give an
    exact floor.  Raises CertificationError when the LP fails or that floor
    is not positive."""
    vs = tuple(Fraction(x) for x in v)
    n = len(vs)
    if n < 2:
        raise ValueError("need dimension >= 2")
    cand = exact_candidate(vs)
    if residual(vs, cand) == 0:
        return BruteForceResult(True, Fraction(0), 0)

    pairs, lp = _solve_lp(vs)
    if lp.status != 0:
        raise CertificationError(f"wave-cone LP failed for {vs}: {lp.message}")

    # marginals of <= rows are <= 0 when minimizing; y is their negation
    y = [max(-_rational(d), Fraction(0)) for d in lp.ineqlin.marginals]
    coef = [Fraction(0)] * n
    for (i, j), up, down in zip(pairs, y, y[len(pairs):]):
        coef[i] += (up - down) * vs[j]
        coef[j] -= (up - down) * vs[i]
    floor = min(coef) / sum(y) if any(y) else Fraction(0)
    if floor <= 0:
        raise CertificationError(f"dual bound {floor} does not certify {vs}")
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
