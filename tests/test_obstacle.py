"""Obstacle solver: projected relaxation, radial reference, coincidence checks."""

import math
import sys
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subhess import obstacle
from subhess.constructions import doubling_laminate
from subhess.obstacle import (
    disk_instance,
    radial_contact_radius,
    radial_instance,
    radial_profile,
    sample_potential,
    self_obstacle_check,
    self_obstacle_suite,
    solve,
    sor_factor,
    square_instance,
    _neighbor_sum,
    _residual_triple,
    _residual_workspace,
)
from subhess.sym2 import SymMat2
from subhess.synthesizer import realize_laminate, staircase_build
from subhess.verifier import tally

from oracles import (
    eval_all,
    harmonic_extension,
    hessian_negative_mass,
    hessian_plus_diagnostics,
    one_split,
    radial_contact_radius_shooting,
    radial_order_study,
    refinement_diagnostics,
)

UNIT = (F(0), F(0), F(1), F(1))


def band_potential():
    # oscillation in the vertical axis between yy = 7/2 and yy = -3/2; every
    # cell keeps trace >= 1/2, so the negated samples are strictly
    # superharmonic at any grid resolution
    return one_split(
        SymMat2.diag(2, 1),
        SymMat2.diag(2, F(7, 2)),
        SymMat2.diag(2, F(-3, 2)),
        F(1, 2),
        UNIT,
        F(1, 2),
    )


BAND = band_potential()
STAIR2 = staircase_build(2).potential
# split along the vertical axis with a negative-trace atom
AXIS1 = one_split(
    SymMat2.diag(1, 0), SymMat2.diag(1, -2), SymMat2.diag(1, 2), F(1, 2), UNIT, eps=F(1, 2),
)


def bowl(X, Y):
    return 0.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)


def dirichlet_energy(u, active):
    """Half the sum of squared differences over active-active grid edges."""
    dx = u[1:, :] - u[:-1, :]
    mx = active[1:, :] & active[:-1, :]
    dy = u[:, 1:] - u[:, :-1]
    my = active[:, 1:] & active[:, :-1]
    return 0.5 * (float((dx[mx] ** 2).sum()) + float((dy[my] ** 2).sum()))


class TestInstances:
    def test_square_masks(self):
        inst = square_instance(9, lambda X, Y: 0 * X - 1.0)
        assert inst.boundary.sum() == 4 * 9 - 4
        assert inst.interior.sum() == 7 * 7
        assert inst.active.all()
        assert inst.h == pytest.approx(1 / 8)

    def test_disk_masks(self):
        inst = disk_instance(33, lambda X, Y: 0 * X - 1.0)
        X, Y = np.meshgrid(inst.xs, inst.ys, indexing="ij")
        act = X * X + Y * Y < 1.0
        assert np.array_equal(inst.active, act)
        assert not (inst.interior & inst.boundary).any()
        # every interior node has four active neighbours
        ii, jj = np.nonzero(inst.interior)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert inst.active[ii + di, jj + dj].all()
        # boundary nodes each miss at least one
        ii, jj = np.nonzero(inst.boundary)
        missing = np.zeros(len(ii), dtype=bool)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            missing |= ~inst.active[ii + di, jj + dj]
        assert missing.all()

    def test_g_defaults_to_phi(self):
        inst = square_instance(9, bowl)
        assert np.array_equal(inst.g, inst.phi)

    def test_array_and_callable_agree(self):
        xs = np.arange(9) / 8
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        a = square_instance(9, bowl)
        b = square_instance(9, bowl(X, Y))
        assert np.array_equal(a.phi, b.phi)

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            square_instance(7, bowl)
        with pytest.raises(ValueError):
            disk_instance(7, bowl)

    def test_incompatible_boundary(self):
        with pytest.raises(ValueError, match="incompatible"):
            square_instance(9, lambda X, Y: 0 * X + 1.0, lambda X, Y: 0 * X)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            square_instance(9, np.zeros((9, 8)))

    def test_non_finite(self):
        phi = np.zeros((9, 9))
        phi[4, 4] = np.nan
        with pytest.raises(ValueError):
            square_instance(9, phi)


class TestSolveBasics:
    def test_full_contact_quadratic(self):
        # superharmonic obstacle with g = phi: cannot be lifted anywhere
        inst = square_instance(33, lambda X, Y: -0.5 * (X * X + Y * Y))
        sol = solve(inst, 1.8, tol=1e-12)
        assert sol.converged
        assert sol.iterations == 0
        assert np.array_equal(sol.u, inst.phi)
        assert sol.residuals == (0.0, 0.0, 0.0)

    def test_unconstrained_limit_matches_harmonic_extension(self):
        g = lambda X, Y: X * X - Y * Y
        inst = square_instance(65, lambda X, Y: 0 * X - 1e6, g)
        sol = solve(inst, sor_factor(65), tol=1e-13, max_iter=50_000)
        assert sol.converged
        ext = harmonic_extension(inst)
        assert np.abs(sol.u - ext).max() <= 1e-8
        # x^2 - y^2 is in the kernel of the 5-point stencil, so the discrete
        # extension reproduces it exactly and the solver must land on it too
        X, Y = np.meshgrid(inst.xs, inst.ys, indexing="ij")
        assert np.abs(sol.u - (X * X - Y * Y)).max() <= 1e-9
        # unconstrained: no contact anywhere
        assert (sol.u - inst.phi).min() > 1.0

    def test_superharmonic_verdict_and_feasibility(self):
        # g = phi makes the superharmonic paraboloid its own solution: full
        # contact, and the verdict residual stays nonpositive
        inst = radial_instance(65, pinned=False)
        sol = solve(inst, sor_factor(65), tol=1e-12)
        assert sol.converged
        assert sol.residuals[0] <= 1e-12          # -L_h u >= -tol
        assert sol.residuals[1] == 0.0            # u >= phi exactly
        assert sol.complementarity_min <= 1e-12
        contact = (sol.u - inst.phi)[inst.interior] <= 1e-8
        assert contact.all()

    def test_partial_contact_with_lifted_boundary(self):
        # exact-profile data detaches the solution near the rim: the contact
        # set is the inner disk only
        inst = radial_instance(65, pinned=True)
        sol = solve(inst, sor_factor(65), tol=1e-12)
        contact = (sol.u - inst.phi)[inst.interior] <= 1e-8
        assert contact.any() and not contact.all()
        rs = radial_contact_radius()
        ii, jj = np.nonzero(inst.interior)
        r = np.sqrt(inst.xs[ii] ** 2 + inst.ys[jj] ** 2)
        # nodes well inside the contact radius touch, nodes well outside do not
        assert ((sol.u - inst.phi)[ii, jj][r < rs - 0.1] <= 1e-8).all()
        assert ((sol.u - inst.phi)[ii, jj][r > rs + 0.1] > 1e-6).all()

    def test_boundary_exact(self):
        inst = radial_instance(65, pinned=True)
        sol = solve(inst, sor_factor(65), tol=1e-10)
        assert np.array_equal(sol.u[inst.boundary], inst.g[inst.boundary])

    def test_non_convergence_reported(self):
        inst = square_instance(33, lambda X, Y: 0 * X - 1e6, lambda X, Y: X * X - Y * Y)
        sol = solve(inst, 1.5, tol=1e-13, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert all(np.isfinite(r) for r in sol.residuals)
        assert (sol.u >= inst.phi).all()

    def test_parameter_validation(self):
        inst = square_instance(9, bowl)
        for omega in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                solve(inst, omega)
        with pytest.raises(ValueError):
            solve(inst, 1.8, tol=0.0)

    def test_default_relaxation_factor(self):
        inst = radial_instance(33, pinned=True)
        a, b = solve(inst), solve(inst, sor_factor(inst.n))
        assert np.array_equal(a.u, b.u)
        assert (a.iterations, a.residuals) == (b.iterations, b.residuals)

    def test_deterministic(self):
        a = solve(radial_instance(33), 1.8, tol=1e-11)
        b = solve(radial_instance(33), 1.8, tol=1e-11)
        assert np.array_equal(a.u, b.u)
        assert a.residuals == b.residuals
        assert a.iterations == b.iterations


class TestRadialReference:
    def test_contact_radius_two_routes(self):
        root = radial_contact_radius()
        shoot = radial_contact_radius_shooting()
        # the root of the C^1 gluing condition, to the last bit a bracketing
        # root finder (brentq, xtol 1e-15) gives
        assert abs(1.0 - 2.0 * root * root + 4.0 * root * root * math.log(root)) <= 1e-14
        assert root == 0.43206748182527815
        assert abs(root - shoot) <= 1e-10

    def test_contact_radius_is_the_lambert_w_closed_form(self):
        # the literal is sqrt(-1 / (2 W_{-1}(-1/(2e)))) evaluated at 53 bits
        with mpmath.workprec(53):
            w = mpmath.lambertw(-1 / (2 * mpmath.e), -1)
        c = radial_contact_radius()
        assert c == math.sqrt(-1 / (2 * float(w.real)))
        assert abs(1 - 2 * c * c + 4 * c * c * math.log(c)) <= sys.float_info.epsilon

    def test_profile_is_c1_at_the_junction(self):
        rs = radial_contact_radius()
        r = np.array([rs - 1e-9, rs, rs + 1e-9])
        vals = radial_profile(r, rs)
        assert abs(vals[0] - vals[2]) <= 1e-8
        assert abs(radial_profile(1.0, rs)) == 0.0  # zero on the circle

    def test_order_study(self):
        rep = radial_order_study((65, 129, 257))
        errs = [row["error"] for row in rep["rows"]]
        assert all(row["converged"] for row in rep["rows"])
        assert errs[0] > errs[1] > errs[2]
        assert rep["order"] >= 1.8
        assert errs[-1] <= 4e-5

    def test_pinned_boundary_values(self):
        inst = radial_instance(33, pinned=True)
        rs = radial_contact_radius()
        ii, jj = np.nonzero(inst.boundary)
        r = np.sqrt(inst.xs[ii] ** 2 + inst.ys[jj] ** 2)
        assert np.allclose(inst.g[ii, jj], radial_profile(r, rs), atol=0, rtol=1e-12)


class TestInvariants:
    def test_obstacle_monotonicity(self):
        hi = radial_instance(65, pinned=True)
        lo = disk_instance(65, lambda X, Y: 1.0 - 2.0 * (X * X + Y * Y) - 0.3, hi.g.copy())
        u_hi = solve(hi, sor_factor(65), tol=1e-12).u
        u_lo = solve(lo, sor_factor(65), tol=1e-12).u
        assert float((u_lo - u_hi)[hi.interior].max()) <= 1e-10

    def test_dominates_harmonic_extension(self):
        inst = radial_instance(65, pinned=True)
        sol = solve(inst, sor_factor(65), tol=1e-12)
        ext = harmonic_extension(inst)
        assert float((sol.u - ext)[inst.interior].min()) >= -1e-10

    def test_energy_descent(self):
        inst = radial_instance(65, pinned=True)
        # a solve cut at max_iter = k is the full solve's iterate after k sweeps
        trace, k, converged = [], 0, False
        while not converged:
            k += 20
            sol = solve(inst, sor_factor(65), tol=1e-12, max_iter=k)
            trace.append(dirichlet_energy(sol.u, inst.active))
            converged = sol.converged
        assert len(trace) > 3
        scale = trace[0]
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-13 * scale

    def test_energy_helper_counts_active_edges_only(self):
        inst = disk_instance(9, lambda X, Y: 0 * X - 1.0)
        u = np.ones((9, 9)) * 7.0  # constant on active nodes: zero energy
        u[~inst.active] = 100.0    # junk outside must not contribute
        assert dirichlet_energy(u, inst.active) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 14))
        xs = np.arange(n) / (n - 1)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        g = rng.uniform(-1, 1, (n, n))
        phi = np.minimum(rng.uniform(-1.5, 0.5, (n, n)), g - 1e-6)
        inst = square_instance(n, phi, g)
        sol = solve(inst, 1.6, tol=1e-11, max_iter=20_000)
        assert sol.converged
        assert (sol.u >= inst.phi - 1e-11).all()
        assert np.array_equal(sol.u[inst.boundary], inst.g[inst.boundary])
        ext = harmonic_extension(inst)
        assert float((sol.u - ext)[inst.interior].min()) >= -1e-9
        assert sol.complementarity_min <= 1e-11


def masked_sweep_solve(instance, omega, tol, max_iter):
    """Reference projected SOR: each colour relaxes the whole array, then a
    boolean-mask scatter keeps that colour's interior nodes.  Test oracle for
    the strided sweep of `solve`, which must reproduce it bit for bit."""
    phi, interior, boundary = instance.phi, instance.interior, instance.boundary
    n = instance.n
    u = np.zeros((n, n))
    u[interior] = phi[interior]
    u[boundary] = instance.g[boundary]
    parity = (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2
    colors = (interior & (parity == 0), interior & (parity == 1))
    scratch = np.zeros_like(u)
    workspace = _residual_workspace(interior)
    iterations = 0
    triple = _residual_triple(u, phi, workspace)
    converged = max(triple[0], triple[1], triple[3]) <= tol
    while not converged and iterations < max_iter:
        iterations += 1
        for mask in colors:
            ns = _neighbor_sum(u, scratch)
            cand = (1.0 - omega) * u + (0.25 * omega) * ns
            np.maximum(cand, phi, out=cand)
            u[mask] = cand[mask]
        if iterations % 4 == 0 or iterations == max_iter:
            triple = _residual_triple(u, phi, workspace)
            converged = max(triple[0], triple[1], triple[3]) <= tol
    if iterations % 4 != 0 and iterations != max_iter:
        triple = _residual_triple(u, phi, workspace)
    return u, iterations, triple[:3], triple[3], converged


def masked_residual_triple(u, phi, interior):
    """Reference residual triple: boolean-mask gathers and fresh arrays, in
    the operation order of `_residual_triple`."""
    u_i, phi_i = u[interior], phi[interior]
    s = _neighbor_sum(u, np.zeros_like(u))[interior] - u_i * 4.0
    slack = np.maximum(u_i - phi_i, 0.0)
    ell = np.maximum(-s, 0.0)
    return (max(float(s.max(initial=0.0)), 0.0),
            max(float((phi_i - u_i).max(initial=0.0)), 0.0),
            float((slack * ell).max(initial=0.0)),
            float(np.minimum(slack, ell).max(initial=0.0)))


class TestSweepOracle:
    @pytest.mark.parametrize("inst", [radial_instance(65), square_instance(33, bowl)],
                             ids=["radial", "bowl"])
    def test_residual_triple_matches_mask_gathers(self, inst):
        # the first 25 iterates of a solve, each checked on its last sweep
        for max_iter in range(1, 26):
            sol = solve(inst, max_iter=max_iter)
            want = masked_residual_triple(sol.u, inst.phi, inst.interior)
            assert (*sol.residuals, sol.complementarity_min) == want, max_iter

    @pytest.mark.parametrize("shape", ["square", "disk"])
    @pytest.mark.parametrize("n", [8, 9, 16, 17, 33])
    def test_bit_identical_to_masked_sweeps(self, shape, n):
        rng = np.random.default_rng(1000 * n + len(shape))
        g = rng.uniform(-1, 1, (n, n))
        phi = np.minimum(rng.uniform(-1.5, 0.5, (n, n)), g - 1e-6)
        make = square_instance if shape == "square" else disk_instance
        inst = make(n, phi, g)
        for omega in (sor_factor(n), 1.3, 1.9):
            for max_iter in (1, 5, 200_000):
                sol = solve(inst, omega, tol=1e-11, max_iter=max_iter)
                u, iterations, residuals, comp_min, converged = masked_sweep_solve(
                    inst, omega, 1e-11, max_iter)
                assert np.array_equal(sol.u, u), (omega, max_iter)
                assert sol.iterations == iterations
                assert sol.residuals == residuals
                assert sol.complementarity_min == comp_min
                assert sol.converged == converged
                assert converged == (max_iter == 200_000)

    def test_radial_reference_instance(self):
        inst = radial_instance(65)
        sol = solve(inst, tol=1e-10)
        u, iterations, residuals, comp_min, converged = masked_sweep_solve(
            inst, sor_factor(65), 1e-10, 200_000)
        assert np.array_equal(sol.u, u)
        assert (sol.iterations, sol.residuals, sol.complementarity_min, sol.converged) \
            == (iterations, residuals, comp_min, converged)


class TestSelfObstacle:
    def test_requires_trace_certificate(self):
        assert tally(AXIS1).min_trace.lo < 0
        with pytest.raises(ValueError, match="certificate"):
            self_obstacle_check(AXIS1, 33)

    def test_quadratic_frame_full_contact(self):
        # the staircase is the quadratic |x|^2 / 2 on its frame, which no
        # pattern node moves, and its negation is its own discrete solution
        pot = STAIR2
        assert all(fc.matrix == pot.base_matrix for fc in pot.frame_cells)
        rep = self_obstacle_check(pot, 33, tol=1e-12)
        assert rep["sup_dev"] == 0.0
        assert rep["iterations"] == 0
        assert rep["converged"]

    def test_band_coincidence_exact(self):
        # every stencil window mixes a horizontal xx average (constant 2)
        # with a vertical yy average (>= -3/2), so the negated samples are
        # superharmonic node by node and projected relaxation never moves
        rep = self_obstacle_suite(BAND, (65, 129), tol=1e-10)
        for row in rep["rows"]:
            assert row["sup_dev"] == 0.0
            assert row["phi_stencil_pos"] == 0.0
            assert row["converged"]
        assert rep["fitted_c"] == 0.0
        assert rep["shrinking"]
        assert rep["suggestion"] is None

    def test_growing_deviation_gets_a_suggestion(self, monkeypatch):
        # a planted deviation column that grows under refinement
        devs = {65: 1e-3, 129: 2e-3}
        monkeypatch.setattr(obstacle, "self_obstacle_check", lambda pot, n, tol: {
            "n": n, "h": 1 / (n - 1), "sup_dev": devs[n], "dev_over_h": devs[n] * (n - 1)})
        rep = self_obstacle_suite(BAND, (65, 129))
        assert rep["fitted_c"] == 2e-3 * 128
        assert not rep["shrinking"]
        assert "does not shrink" in rep["suggestion"]

    def test_staircase_fixed_point(self):
        rep = self_obstacle_check(STAIR2, 129, tol=1e-10)
        assert rep["sup_dev"] == 0.0
        assert rep["iterations"] == 0
        assert rep["phi_stencil_pos"] == 0.0

    def test_sample_requires_square_domain(self):
        pot = realize_laminate(doubling_laminate(F(3, 2))[0], (F(0), F(0), F(1), F(1, 2)),
                               F(1, 20))
        with pytest.raises(ValueError, match="square"):
            sample_potential(pot, 9)

    def test_sample_frame_values(self):
        # the staircase's frame region, the two outer node rings at n = 65,
        # samples the quadratic |x|^2 / 2
        pot = STAIR2
        grid = sample_potential(pot, 65)
        xs = np.arange(65) / 64
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        m = float(pot.root_origin[0])
        frame = (X < m) | (X > 1 - m) | (Y < m) | (Y > 1 - m)
        assert frame.sum() == 64 * 4 + 62 * 4
        assert np.allclose(grid[frame], 0.5 * (X * X + Y * Y)[frame], atol=1e-15)
        assert np.array_equal(sample_potential(pot, 65, negate=True), -grid)

    @pytest.mark.parametrize("pot", [
        BAND,
        STAIR2,
        AXIS1,
        realize_laminate(doubling_laminate(F(3, 2))[0], UNIT, F(1, 20)),
    ], ids=["band", "stair2", "axis1", "laminate"])
    def test_sample_matches_exact_evaluator(self, pot):
        x0, y0, w, _ = (float(v) for v in pot.domain)
        grid = sample_potential(pot, 17)
        for i in range(17):
            for j in range(17):
                x, y = x0 + w * i / 16, y0 + w * j / 16
                exact = float(eval_all(pot, F(x), F(y))[0].mid)
                assert abs(grid[i, j] - exact) <= 1e-13, (x, y)


class TestDiagnostics:
    def test_quadratic_closed_form(self):
        n, h = 33, 1 / 32
        xs = np.arange(n) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        rows = hessian_plus_diagnostics(X * X - 0.5 * Y * Y, h, (1.0, 1.5, 2.0))
        cnt = (n - 2) ** 2
        for row in rows:
            p = row["p"]
            want = (cnt * h * h * 2.0 ** p) ** (1.0 / p)  # yy part is negative
            assert row["lp_sum"] == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            hessian_plus_diagnostics(np.zeros((9, 8)), 0.1)
        with pytest.raises(ValueError):
            hessian_plus_diagnostics(np.zeros((9, 9)), 0.1, (0.5,))

    def test_smooth_instance_stabilizes(self):
        rs = radial_contact_radius()
        sums = {1.0: [], 1.5: []}
        for n in (65, 129):
            inst = radial_instance(n, pinned=True)
            u = solve(inst, sor_factor(n), tol=1e-12).u
            for row in hessian_plus_diagnostics(u, inst.h, (1.0, 1.5), inst.interior):
                sums[row["p"]].append(row["lp_sum"])
        for p, (a, b) in sums.items():
            assert b == pytest.approx(a, rel=0.08), (p, a, b)

    def test_band_columns_grow_until_resolved(self):
        rep = refinement_diagnostics(BAND, (65, 129, 257, 513), (1.0, 1.5))
        for p in (1.0, 1.5):
            col = rep["columns"][p]
            # coarsest grid averages whole oscillation periods: nothing left
            assert col[0] == 0.0
            assert col[1] > 0.0
            assert col[1] < col[2] < col[3]
        lo, hi = rep["negative_mass"]
        assert 0 < lo < hi
        # the p = 1 column approaches the certified mass from below
        assert rep["columns"][1.0][-1] <= hi
        assert rep["columns"][1.0][-1] >= 0.6 * lo

    def test_staircase_scales_are_subgrid(self):
        # the certified construction oscillates far below these grids, so the
        # sampled positive parts vanish even though the continuum mass is
        # strictly positive: the growth in N only starts once h reaches the
        # stripe widths
        rep = refinement_diagnostics(STAIR2, (65, 129), (1.0, 1.5))
        for p in (1.0, 1.5):
            assert rep["columns"][p] == [0.0, 0.0]
        assert rep["negative_mass"][0] > 0

    def test_solved_diagnostics_match_sampled(self):
        sampled = refinement_diagnostics(BAND, (129,), (1.0, 1.5))
        solved = refinement_diagnostics(BAND, (129,), (1.0, 1.5), solve_tol=1e-10)
        assert sampled["columns"] == solved["columns"]

    def test_negative_mass_closed_form(self):
        # base diag(2,1) with yy in {7/2, -3/2}: the only negative entries are
        # the -3/2 bands, carried on half of the pattern area; the certified
        # interval must contain that product
        iv = hessian_negative_mass(BAND)
        assert iv.lo > 0.4
        assert iv.hi < 0.8
