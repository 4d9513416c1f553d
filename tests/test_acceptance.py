"""Acceptance suite: every shipped guarantee, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; `-v` alone reads the same from the test names.  Golden
constants live in tests/goldens.json, frozen on the first certified run;
the whole pipeline is deterministic, so reruns must reproduce them.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from subhess.cli import main as cli_main
from subhess.constructions import (
    cascade_moment_table,
    doubling_cascade,
    doubling_laminate,
    l1_growth_constant,
    neg_moment_constant,
    verify_doubling,
)
from subhess.laminate import moment, phi_l1_diag, phi_neg_pow
from subhess.obstacle import (
    self_obstacle_check,
    solve,
    square_instance,
)
from subhess.scalars import Iv, log2_iv, pow2
from subhess.synthesizer import realize_laminate, staircase_build
from subhess.verifier import (
    area_fractions,
    continuity_audit,
    hessian_l1,
    neg_part_lq,
    tally,
)
from subhess.wavecone import agreement_suite, lattice_suite

from oracles import (
    harmonic_extension,
    l1_limit_constant,
    phi_frobenius,
    phi_trace,
    radial_order_study,
)

F = Fraction
UNIT = (F(0), F(0), F(1), F(1))
WIDTH_TOL = F(1, 10**9)

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def _verdict(num: int, ok: bool, detail: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    line = (f"ACCEPTANCE {num}: {'PASS' if ok and elapsed < budget else 'FAIL'}"
            f" - {detail} [{elapsed:.2f}s / {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_doubling_splitting_suite():
    t0 = time.perf_counter()
    qs = (F(1), F(5, 4), F(3, 2))
    ok = True
    widths = []
    for p in (F(6, 5), F(27, 20), F(3, 2)):
        growth = []
        for k in (F(1), F(2), F(4)):
            lam, params = doubling_laminate(p, k)
            rep = verify_doubling(lam, params, qs)
            # barycenter/mass, trail interior, doubling weight: exact claims
            ok &= rep["barycenter"]["ok"] and rep["mass"]["ok"]
            ok &= rep["trail_interior"]["ok"]
            ok &= rep["doubling_weight"]["ok"]
            ok &= rep["l1_moment"]["ok"]
            growth.append(rep["l1_moment"]["measured"])
            for q in qs:
                row = rep[f"neg_moment_q={q}"]
                ok &= row["i0"]["ok"] and row["i1"]["ok"]
        hull = Iv.hull(growth)  # growth constant must not depend on the scale
        widths.append(hull.width)
        ok &= hull.width <= WIDTH_TOL
    _verdict(1, ok, f"27 certified reports, scale-independence width "
             f"<= {float(max(widths)):.2e}", t0, 1.0)


def test_criterion_2_cascade_moment_recursions():
    t0 = time.perf_counter()
    p = F(13, 10)
    qs = (F(13, 10), F(3, 2))
    table = cascade_moment_table(p, qs, 12)
    params = doubling_laminate(p, F(1))[1]
    growth = l1_growth_constant(params)
    limit = l1_limit_constant(params)
    ok = True
    for m in range(13):
        row = table[m]
        ok &= abs(row["a_direct"] - row["a_rec"]).hi <= WIDTH_TOL
        ok &= row["a_direct"].hi < limit.lo  # bounded by the series limit
        if m >= 1:
            inc = row["a_direct"] - table[m - 1]["a_direct"]
            want = (growth - 2) * pow2((1 - p) * (m - 1))
            ok &= abs(inc - want).hi <= WIDTH_TOL
    for qi, q in enumerate(qs):
        slope_tol = max(F(2, 100) * abs(q - p), WIDTH_TOL)
        for i in (0, 1):
            const = neg_moment_constant(params, q, i)
            bs = [table[m][f"b{i}_direct_q{qi}"] for m in range(13)]
            incs = []
            for m in range(1, 13):
                ok &= abs(bs[m] - bs[m - 1]
                          - table[m][f"b{i}_rec_q{qi}"]
                          + table[m - 1][f"b{i}_rec_q{qi}"]).hi <= WIDTH_TOL
                inc = bs[m] - bs[m - 1]
                want = const * pow2((q - p) * (m - 1))
                ok &= abs(inc - want).hi <= WIDTH_TOL
                ok &= bs[m].lo > bs[m - 1].hi  # strictly increasing
                incs.append(inc)
            for m in range(1, len(incs)):
                slope = log2_iv(incs[m] / incs[m - 1])
                ok &= slope.lo >= (q - p) - slope_tol
                ok &= slope.hi <= (q - p) + slope_tol
    _verdict(2, ok, "direct == recursion to 1e-9, increments and "
             "log2 slope certified for q in {p, 3/2}", t0, 1.0)


def test_criterion_3_realization_moment_convergence():
    t0 = time.perf_counter()
    lam, _ = doubling_laminate(F(3, 2), F(1))
    ok = True
    devs = {phi: [] for phi in (phi_trace, phi_l1_diag, phi_frobenius)}
    for eps in (F(1, 10), F(1, 20), F(1, 40)):
        pot = realize_laminate(lam, UNIT, eps)
        ok &= continuity_audit(pot)["boundary_exact"]
        t = tally(pot, devs)
        ok &= t.trail().hi <= eps
        ok &= all(row.ok for row in area_fractions(pot, eps))
        for k, phi in enumerate(devs):
            devs[phi].append(abs(t.mean(k) - moment(lam, phi)))
    for phi, seq in devs.items():
        ok &= seq[0].hi > seq[1].hi > seq[2].hi
    worst = max(float(seq[-1].hi) for seq in devs.values())
    _verdict(3, ok, "boundary exact, Hessians on the eps-trail, fractions "
             f"certified, deviations shrink to <= {worst:.2e}", t0, 120.0)


def test_criterion_4_bounded_hessian_unbounded_negative_part():
    t0 = time.perf_counter()
    p = F(13, 10)
    golden = F(GOLDENS["hessian_l1_upper"])
    ok = True
    measured = []
    for j, m in ((1, 10), (2, 20)):
        lam, _ = doubling_cascade(p, m)
        pot = realize_laminate(lam, UNIT, F(1, 16), dev_cap=F(1, 2 * j))
        ok &= pot.grad_deviation().hi <= F(1, j)
        ok &= tally(pot).min_trace.lo >= 0
        h1 = hessian_l1(pot)
        ok &= h1.hi <= golden
        measured.append(float(h1.hi))
        for i in (0, 1):
            ok &= neg_part_lq(pot, p, i).lo >= j
    _verdict(4, ok, f"gradient pinned, trace certified >= 0, L1 bounded by "
             f"golden {float(golden):.4f} (measured {measured[0]:.4f}, "
             f"{measured[1]:.4f}), negative q-mass >= j for both diagonals",
             t0, 300.0)


def test_criterion_5_staircase_divergence():
    t0 = time.perf_counter()
    q = F(3, 2)
    results = {J: staircase_build(J) for J in (1, 2, 3, 4)}
    r4 = results[4]
    pot4 = r4.potential
    layers = [lay.level for lay in r4.layers]
    ok = True
    # (a) successive gradient steps under the dyadic caps
    ok &= all(lay.grad_step.hi <= F(1, 2**lay.level.j) for lay in r4.layers)
    # (b) nested-region areas inside the two-sided product bounds
    t4 = tally(pot4, (phi_l1_diag,))
    (terminal,) = [a for tag, a in t4.atom_areas.items() if tag.endswith(".C.B")]
    areas = [t4.over(("omega", lay.j)).area for lay in layers] + [terminal]
    ok &= (1 - layers[0].eps) <= areas[0] <= 1
    for idx in range(1, 5):
        ratio = areas[idx] / areas[idx - 1]
        weight = pow2(-layers[idx - 1].p)
        ok &= (1 - layers[idx - 1].eps) * weight.lo <= ratio <= weight.hi
    # (c) per-level L1 contributions summable against the golden constant
    golden = F(GOLDENS["staircase_level_l1_constant"])
    for j in (1, 2, 3, 4):
        contrib = t4.over(("level", j)).integrals[0]
        ok &= contrib.hi * (j + 1) ** 2 <= golden
    # (d) negative q-mass on the first region grows with certified increments
    vals = {J: tally(results[J].potential, (phi_neg_pow(1, q),)).over(("omega", 1)).bracket(0)
            for J in (1, 2, 3, 4)}
    ok &= vals[3].lo > vals[2].hi and vals[4].lo > vals[3].hi
    factors = []
    for J in (3, 4):
        inc = vals[J] - vals[J - 1]
        prev = vals[J - 1] - vals[J - 2]
        factor = (inc / prev) / pow2(q - layers[J - 1].p)
        factors.append((float(factor.lo), float(factor.hi)))
        ok &= factor.lo >= F(1, 2) and factor.hi <= 2
    # (e)
    ok &= t4.min_trace.lo >= 0
    _verdict(5, ok, "steps, areas, summable levels, growing negative mass "
             f"(increment factors {factors[0][1]:.2f}, {factors[1][1]:.2f}), "
             "trace >= 0", t0, 900.0)


def test_criterion_6_oscillation_cone_agreement():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3):
        agree = agreement_suite(n, 1000, seed=0)
        ok &= agree["all_agree"] and agree["trials"] == 1000
        lattice = lattice_suite(n, radius=2)
        ok &= lattice["all_ok"]
    _verdict(6, ok, "2000 random rational vectors agree with the certified "
             "brute force, lattice invariants exhaustive", t0, 10.0)


def test_criterion_7_obstacle_suite():
    t0 = time.perf_counter()
    ok = True
    # unconstrained limit against the direct discrete harmonic extension
    surrogate = square_instance(65, lambda X, Y: 0 * X - 1e6,
                                lambda X, Y: X * X - Y * Y)
    sol = solve(surrogate, tol=1e-13)
    gap = float(np.abs(sol.u - harmonic_extension(surrogate))[surrogate.active].max())
    ok &= gap <= 1e-8
    # radial free boundary against the shooting oracle, grid order >= 1.8
    study = radial_order_study((65, 129, 257))
    ok &= study["order"] >= 1.8
    # the certified construction is a fixed point of projected relaxation
    check = self_obstacle_check(staircase_build(3).potential, 257)
    fitted = check["dev_over_h"]
    ok &= check["converged"] and fitted <= GOLDENS["selfcheck_fitted_c"]
    # negative control: a strictly subharmonic obstacle must detach
    bowl = square_instance(65, lambda X, Y: 0.5 * ((X - 0.5) ** 2
                                                   + (Y - 0.5) ** 2))
    tol = 1e-10
    bowl_sol = solve(bowl, tol=tol)
    detach = float((bowl_sol.u - bowl.phi)[bowl.interior].max())
    ok &= detach >= 10 * tol
    _verdict(7, ok, f"harmonic gap {gap:.2e}, order {study['order']:.3f}, "
             f"fitted C = {fitted} at depth 3 on a 257 grid, control "
             f"detaches by {detach:.3f}", t0, 300.0)


def test_criterion_8_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    suites = [
        ("laminate", ["laminate", "--p", "27/20", "--m", "6", "--q", "5/4"]),
        ("staircase", ["staircase", "--J", "2"]),
        ("wavecone", ["wavecone", "--n", "2", "--trials", "200"]),
        ("selfcheck", ["obstacle", "selfcheck", "--depth", "1", "--n", "33"]),
    ]
    ok = True
    compared = 0
    for name, argv in suites:
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        ok &= cli_main(["--out", str(out_a)] + argv) == 0
        ok &= cli_main(["--out", str(out_b)] + argv) == 0
        for artifact in sorted(out_a.iterdir()):
            if artifact.name == "manifest.json":
                man_a = json.loads(artifact.read_text())
                man_b = json.loads((out_b / artifact.name).read_text())
                ok &= man_a["outputs"] == man_b["outputs"]
                ok &= man_a["config_sha256"] == man_b["config_sha256"]
                continue
            ok &= artifact.read_bytes() == (out_b / artifact.name).read_bytes()
            compared += 1
    _verdict(8, ok, f"{compared} report artifacts byte-identical across "
             "reruns of four suites", t0, 300.0)
