"""Finite-difference obstacle solver on the square and the disk.

Projected successive over-relaxation (red-black sweeps over strided
sublattice views) for the discrete variational inequality

    u >= phi,   -L_h u >= 0,   min(u - phi, -L_h u) = 0   at interior nodes,

with L_h the 5-point Laplacian and Dirichlet data fixed on the boundary
layer.  Residuals are reported in stencil units (the raw 5-point sum, i.e.
h^2 times the Laplacian), so tolerances transfer across grid sizes.

Two node sets are supported: the full square grid, where sampled piecewise
potentials live, and the grid approximation of the unit disk (active nodes
strictly inside the circle, with the data imposed on the discrete boundary
layer).  `self_obstacle_check` negates a certified trace-nonnegative
potential, uses it as its own obstacle and boundary datum, and measures how
far the discrete solution moves away from it; for a superharmonic obstacle
the projected sweeps cannot lift the iterate off the obstacle by more than
the truncation error, so the distance must vanish like the grid spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import mpmath
import numpy as np

from subhess.verifier import tally

GridData = Union[np.ndarray, Callable, float, int]

_COMPAT_SLACK = 1e-12  # float slack when checking g >= phi on the boundary
_CHECK_EVERY = 4  # sweeps between residual checks


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True, eq=False)
class ObstacleInstance:
    """N x N nodal data; `interior` is solved, `boundary` carries g.

    Inactive nodes (outside the disk) belong to neither mask and are never
    read: every interior node has its four neighbours inside
    interior | boundary.
    """

    shape: str
    n: int
    h: float
    xs: np.ndarray
    ys: np.ndarray
    phi: np.ndarray
    g: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray

    @property
    def active(self) -> np.ndarray:
        return self.interior | self.boundary

    def validate(self):
        n = self.n
        if n < 8:
            raise ValueError(f"grid size {n} below the minimum of 8")
        for name in ("phi", "g"):
            arr = getattr(self, name)
            if arr.shape != (n, n):
                raise ValueError(f"{name} has shape {arr.shape}, expected {(n, n)}")
        if np.any(self.interior & self.boundary):
            raise ValueError("interior and boundary masks overlap")
        if not self.interior.any():
            raise ValueError("no interior nodes")
        act = self.active
        if not np.all(np.isfinite(self.phi[act])) or not np.all(np.isfinite(self.g[act])):
            raise ValueError("non-finite nodal data on active nodes")
        # every interior node must see four active neighbours
        inner = self.interior[1:-1, 1:-1]
        if self.interior[0, :].any() or self.interior[-1, :].any() \
                or self.interior[:, 0].any() or self.interior[:, -1].any():
            raise ValueError("interior mask touches the array edge")
        ok = act[:-2, 1:-1] & act[2:, 1:-1] & act[1:-1, :-2] & act[1:-1, 2:]
        if np.any(inner & ~ok):
            raise ValueError("interior node with an inactive neighbour")
        gap = self.g[self.boundary] - self.phi[self.boundary]
        worst = float(gap.min(initial=0.0))
        scale = max(1.0, float(np.abs(self.phi[self.boundary]).max(initial=0.0)))
        if worst < -_COMPAT_SLACK * scale:
            raise ValueError(
                f"incompatible boundary data: g < phi by {-worst:.3e} on the boundary"
            )
        return self


def _sample(data: GridData, X, Y) -> np.ndarray:
    if callable(data):
        out = np.asarray(data(X, Y), dtype=float)
        return np.broadcast_to(out, X.shape).copy()
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full(X.shape, float(arr))
    return arr.copy()


def square_instance(n: int, phi: GridData, g: Optional[GridData] = None) -> ObstacleInstance:
    """The unit square, all nodes active; the edge ring is the boundary.  g
    defaults to phi."""
    if n < 8:
        raise ValueError(f"grid size {n} below the minimum of 8")
    xs = np.arange(n) / (n - 1)
    ys = np.arange(n) / (n - 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    phi_a = _sample(phi, X, Y)
    g_a = phi_a.copy() if g is None else _sample(g, X, Y)
    boundary = np.zeros((n, n), dtype=bool)
    boundary[0, :] = boundary[-1, :] = boundary[:, 0] = boundary[:, -1] = True
    interior = ~boundary
    inst = ObstacleInstance("square", n, 1 / (n - 1), xs, ys, phi_a, g_a,
                            interior, boundary)
    return inst.validate()


def disk_instance(n: int, phi: GridData, g: Optional[GridData] = None) -> ObstacleInstance:
    """Nodes of the [-1,1]^2 grid strictly inside the unit circle.

    Interior nodes have all four neighbours active; the remaining active
    nodes form the discrete boundary layer and carry g.
    """
    if n < 8:
        raise ValueError(f"grid size {n} below the minimum of 8")
    xs = np.linspace(-1.0, 1.0, n)
    ys = xs.copy()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    act = X * X + Y * Y < 1.0
    interior = np.zeros((n, n), dtype=bool)
    interior[1:-1, 1:-1] = (
        act[1:-1, 1:-1]
        & act[:-2, 1:-1] & act[2:, 1:-1] & act[1:-1, :-2] & act[1:-1, 2:]
    )
    boundary = act & ~interior
    phi_a = _sample(phi, X, Y)
    g_a = phi_a.copy() if g is None else _sample(g, X, Y)
    inst = ObstacleInstance("disk", n, 2.0 / (n - 1), xs, ys, phi_a, g_a,
                            interior, boundary)
    return inst.validate()


# ---------------------------------------------------------------------------
# projected relaxation


@dataclass
class VISolution:
    """Solver output.  `residuals` holds, in stencil units,

    (max positive 5-point sum, max obstacle violation, max complementarity
    product (u - phi) * (-L_h u)); `complementarity_min` is the max over
    interior nodes of min(u - phi, -L_h u) clipped at zero, the quantity the
    termination test uses alongside the first two entries.
    """

    u: np.ndarray
    iterations: int
    residuals: tuple
    complementarity_min: float
    converged: bool


def _neighbor_sum(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[1:-1, 1:-1] = u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
    return out


def _residual_triple(u, phi, interior, scratch):
    """(positive 5-point sum, obstacle violation, complementarity product,
    complementarity min) over the interior, as `VISolution` reports them.

    Gathers u, phi and the neighbour sum once each, then works in place;
    `scratch` holds the neighbour sum and then serves as the work buffer.
    phi - u and u - phi stay two subtractions: negating one would turn +0.0
    into -0.0 at contact nodes.
    """
    u_i, phi_i = u[interior], phi[interior]
    s = _neighbor_sum(u, scratch)[interior]
    work = scratch.reshape(-1)[:s.size]
    s -= np.multiply(u_i, 4.0, out=work)
    neg_lap = max(float(s.max(initial=0.0)), 0.0)
    violation = max(float(np.subtract(phi_i, u_i, out=work).max(initial=0.0)), 0.0)
    slack = np.maximum(np.subtract(u_i, phi_i, out=work), 0.0, out=work)
    ell = np.maximum(np.negative(s, out=s), 0.0, out=s)
    comp_prod = float(np.multiply(slack, ell, out=u_i).max(initial=0.0))
    comp_min = float(np.minimum(slack, ell, out=phi_i).max(initial=0.0))
    return neg_lap, violation, comp_prod, comp_min


def sor_factor(n: int) -> float:
    """Near-optimal over-relaxation factor for an n x n Laplace grid."""
    return 2.0 / (1.0 + math.sin(math.pi / (n - 1)))


def _sweep_plan(u, phi, interior) -> list:
    """Strided views of the four sublattices of the block [1, n-1)^2.

    Red is row/column offsets (1, 1) and (2, 2), black (1, 2) and (2, 1);
    red comes first.  Each entry holds the node view of u, its four
    neighbour views in the order of `_neighbor_sum`, the matching slices of
    phi and interior, and two work buffers.  Nodes of one colour never read
    each other, so relaxing a colour view by view gives the same iterate as
    relaxing the whole colour at once.
    """
    n = u.shape[0]

    def lane(a, shift=0):
        return slice(a + shift, n - 1 + shift, 2)

    plan = []
    for a, b in ((1, 1), (2, 2), (1, 2), (2, 1)):
        r, c = lane(a), lane(b)
        node = u[r, c]
        nbrs = (u[lane(a, -1), c], u[lane(a, 1), c], u[r, lane(b, -1)], u[r, lane(b, 1)])
        plan.append((node, nbrs, phi[r, c], interior[r, c],
                     np.empty(node.shape), np.empty(node.shape)))
    return plan


def solve(instance: ObstacleInstance, omega: Optional[float] = None, tol: float = 1e-10,
          max_iter: int = 200_000) -> VISolution:
    """Projected SOR: relax each node, then clip to max(., phi).

    omega defaults to sor_factor(instance.n).  A sweep updates the four
    strided sublattices of `_sweep_plan` in a fixed order, red then black,
    so the result is deterministic.  Terminates once the positive 5-point
    sum, the obstacle violation and the min-form complementarity residual
    are all at most tol; hitting max_iter is reported, not raised.
    """
    if omega is None:
        omega = sor_factor(instance.n)
    if not (0.0 < omega < 2.0):
        raise ValueError(f"relaxation factor {omega} outside (0, 2)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    instance.validate()

    phi, interior, boundary = instance.phi, instance.interior, instance.boundary
    n = instance.n
    u = np.zeros((n, n))
    u[interior] = phi[interior]
    u[boundary] = instance.g[boundary]

    plan = _sweep_plan(u, phi, interior)
    keep, pull = 1.0 - omega, 0.25 * omega
    scratch = np.zeros_like(u)

    iterations = 0
    converged = False
    triple = _residual_triple(u, phi, interior, scratch)
    if max(triple[0], triple[1], triple[3]) <= tol:
        converged = True
    while not converged and iterations < max_iter:
        iterations += 1
        for node, (up, dn, lf, rt), phi_v, interior_v, ns, cand in plan:
            # (1 - omega) u + (omega / 4) (up + dn + lf + rt) with the operand
            # order of a whole-array update, so every iterate is bit-identical
            np.add(up, dn, out=ns)
            ns += lf
            ns += rt
            np.multiply(node, keep, out=cand)
            ns *= pull
            cand += ns
            np.maximum(cand, phi_v, out=cand)
            np.copyto(node, cand, where=interior_v)
        if iterations % _CHECK_EVERY == 0 or iterations == max_iter:
            triple = _residual_triple(u, phi, interior, scratch)
            if max(triple[0], triple[1], triple[3]) <= tol:
                converged = True
    if iterations % _CHECK_EVERY != 0 and iterations != max_iter:
        triple = _residual_triple(u, phi, interior, scratch)

    return VISolution(
        u=u,
        iterations=iterations,
        residuals=(triple[0], triple[1], triple[2]),
        complementarity_min=triple[3],
        converged=converged,
    )


# ---------------------------------------------------------------------------
# radial reference on the disk (obstacle 1 - 2|x|^2)

def radial_contact_radius() -> float:
    """Contact radius of the radial obstacle: the harmonic tail -4c^2 log r
    glued C^1 at r = c reaches 0 at r = 1 iff 1 - 2c^2 + 4c^2 log c = 0, whose
    root in (0, 1) is c = sqrt(-1 / (2 W_{-1}(-1/(2e)))) (Lambert W)."""
    w = mpmath.lambertw(-1 / (2 * mpmath.e), -1)
    return math.sqrt(-1 / (2 * float(w.real)))


def radial_profile(r, rstar: float):
    """Exact solution for obstacle 1 - 2r^2 with zero data on the circle."""
    r = np.asarray(r, dtype=float)
    tail = -4.0 * rstar * rstar * np.log(np.maximum(r, rstar))
    return np.where(r <= rstar, 1.0 - 2.0 * r * r, tail)


def radial_instance(n: int, pinned: bool = True) -> ObstacleInstance:
    """Disk instance with the radial obstacle.

    pinned=True imposes the exact profile on the stair-step boundary layer
    (the layer sits at distance O(h) inside the circle, so zero data there
    would pollute the interior order of accuracy); pinned=False keeps the
    plain g = phi datum.
    """
    rstar = radial_contact_radius()

    def phi(X, Y):
        return 1.0 - 2.0 * (X * X + Y * Y)

    if pinned:
        def g(X, Y):
            return radial_profile(np.sqrt(X * X + Y * Y), rstar)
    else:
        g = None
    return disk_instance(n, phi, g)


# ---------------------------------------------------------------------------
# a potential as its own obstacle


def sample_potential(pot, n: int, negate: bool = False) -> np.ndarray:
    """Nodal samples of a piecewise potential on its (square) domain."""
    x0, y0, w, h = pot.domain
    if w != h:
        raise ValueError("potential domain is not square")
    xf, wf = float(x0), float(w)
    coords = [xf + wf * i / (n - 1) for i in range(n - 1)] + [xf + wf]
    out = pot.sample(coords, coords)
    return -out if negate else out


def self_obstacle_check(pot, n: int, tol: float = 1e-10) -> dict:
    """Negated potential as obstacle and boundary datum; measures coincidence.

    Requires the potential to be certified trace-nonnegative; the negation is
    then superharmonic, and the solution can only leave the obstacle by the
    truncation error of the 5-point stencil, i.e. by O(h).
    """
    mt = tally(pot).min_trace
    if not mt.lo >= 0:
        raise ValueError(
            f"potential lacks a nonnegative trace certificate (lower bound {mt.lo})"
        )
    phi = sample_potential(pot, n, negate=True)
    inst = square_instance(n, phi)
    sol = solve(inst, tol=tol)
    dev = float(np.abs(sol.u - phi).max())
    scratch = np.zeros_like(phi)
    ns = _neighbor_sum(phi, scratch)
    s_phi = ns[inst.interior] - 4.0 * phi[inst.interior]
    return {
        "n": n,
        "h": inst.h,
        "sup_dev": dev,
        "dev_over_h": dev / inst.h,
        "phi_stencil_pos": max(float(s_phi.max(initial=0.0)), 0.0),
        "iterations": sol.iterations,
        "converged": sol.converged,
        "residuals": sol.residuals,
    }


def self_obstacle_suite(pot, n_list: Sequence[int] = (65, 129, 257),
                        tol: float = 1e-10) -> dict:
    """Coincidence across refinements with the fitted allowance constant.

    fitted_c is the largest observed sup_dev / h; every row then trivially
    satisfies sup_dev <= tol + fitted_c * h, so the constant itself is the
    reported quantity (gate it against an expected budget).  A non-shrinking
    deviation column comes back with a refinement suggestion instead of an
    exception.
    """
    rows = [self_obstacle_check(pot, n, tol=tol) for n in n_list]
    fitted_c = max(r["dev_over_h"] for r in rows)
    shrinking = all(a["sup_dev"] >= b["sup_dev"] for a, b in zip(rows, rows[1:]))
    suggestion = None
    if not shrinking:
        suggestion = ("deviation does not shrink under refinement; rerun at "
                      "finer n or re-certify the potential's trace bound")
    return {
        "rows": rows,
        "fitted_c": fitted_c,
        "shrinking": shrinking,
        "suggestion": suggestion,
    }
