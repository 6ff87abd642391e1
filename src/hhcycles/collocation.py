"""Periodic BVP solver: piecewise-cubic collocation at 3 Lobatto points.

The cycle is scaled to tau in [0,1] (u' = T f(u)) and represented per
subinterval by the collocation cubic whose derivative is the quadratic
interpolating T*f at the Lobatto points {0, 1/2, 1}.  Eliminating the
polynomial gives the classical Hermite-Simpson equations in the endpoint and
midpoint values, which is what Newton solves; periodicity is exact because the
first and last endpoint are the same unknown.  Mesh refinement is driven by
the sampled interior residual.

Each Newton step solves the bordered system by its structure, in three
stages.  The second defect of an interval has the identity as its block in
that interval's midpoint, so the midpoints are condensed out exactly,
interval by interval, as in AUTO (Doedel, Keller & Kernévez, Int. J.
Bifurcation Chaos 1, 1991).  What remains is a ring: the condensed rows of
interval i couple y_i to y_{i+1} (mod N), beside the T and I columns and
the phase row.  Cyclic reduction halves the ring level by level: each pair
of intervals eliminates the breakpoint between them by the Householder QR
of its two blocks in it.  Orthogonal reductions are stable on such chains,
where Gaussian elimination with partial pivoting can grow exponentially
(Wright, SIAM J. Sci. Stat. Comput. 13, 1992, and SIAM J. Sci. Comput. 14,
1993).  The one-interval ring left, with the phase and constraint rows, is
a dense (dim+2)-square system for newton.dense_step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import newton
from .cycles import PeriodicOrbit
from .errors import DegenerateCycle, MeshTooCoarse, SingularJacobian
from .fields import VectorField, constant_family

NEWTON_TOL = 1e-11     # algebraic stopping tolerance of the discrete system
NEWTON_MAX_ITER = 30


@dataclass(frozen=True)
class Mesh:
    breakpoints: np.ndarray  # (N+1,) increasing, endpoints 0 and 1

    def __post_init__(self):
        b = self.breakpoints
        if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must increase from 0 to 1")

    @property
    def N(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)


@dataclass(frozen=True)
class CollocationSolution(PeriodicOrbit):
    """Converged collocation cycle: mesh values plus the period."""

    mesh: Mesh
    y: np.ndarray    # (N, dim) breakpoint values, wraps periodically
    mid: np.ndarray  # (N, dim) midpoint values
    period: float
    field: VectorField

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    @cached_property
    def node_fields(self):
        """(f(y), f(mid)): the field at the breakpoints and midpoints."""
        return self.field.f(self.y), self.field.f(self.mid)

    def evaluate(self, tau):
        """Evaluate the collocation cubic at tau in [0,1] (scalar or array)."""
        scalar = np.ndim(tau) == 0
        tau = np.atleast_1d(np.asarray(tau, dtype=float)) % 1.0
        b = self.mesh.breakpoints
        idx = np.clip(np.searchsorted(b, tau, side="right") - 1, 0, self.mesh.N - 1)
        h = (b[idx + 1] - b[idx])
        s = ((tau - b[idx]) / h)[:, None]
        f_y, f_m = self.node_fields
        f0 = f_y[idx]
        fm = f_m[idx]
        f1 = f_y[(idx + 1) % self.mesh.N]
        out = _cubic(self.y[idx], f0, fm, f1, (h * self.period)[:, None], s)
        return out[0] if scalar else out

    def evaluate_time(self, t):
        return self.evaluate(np.asarray(t, dtype=float) / self.period)

    def to_json(self) -> dict:
        return {"period": float(self.period),
                "mesh_tau": self.mesh.breakpoints.tolist(),
                "mesh_states": self.y.tolist(), "mesh_mid": self.mid.tolist()}

    @classmethod
    def from_json(cls, doc: dict, field: VectorField) -> "CollocationSolution":
        return cls(mesh=Mesh(np.array(doc["mesh_tau"], dtype=float)),
                   y=np.array(doc["mesh_states"], dtype=float),
                   mid=np.array(doc["mesh_mid"], dtype=float),
                   period=float(doc["period"]), field=field)

    def residual_profile(self) -> np.ndarray:
        """Max relative interior residual ||P'/T - f(P)||/(1+||f||) per
        subinterval, computed once per solution and read-only."""
        return self._residual_profile

    @cached_property
    def _residual_profile(self) -> np.ndarray:
        h = self.mesh.widths[:, None, None]
        sigma = np.linspace(0.0, 1.0, 12)[1:-1]   # 10 interior samples
        s = sigma[None, :, None]
        fy, fm = self.node_fields
        f0 = fy[:, None, :]
        fm = fm[:, None, :]
        f1 = np.roll(fy, -1, axis=0)[:, None, :]
        P = _cubic(self.y[:, None, :], f0, fm, f1, h * self.period, s)
        q = (f0 * (2 * (s - 0.5) * (s - 1))
             + fm * (-4 * s * (s - 1))
             + f1 * (2 * s * (s - 0.5)))
        fP = self.field.f(P.reshape(-1, self.dim)).reshape(P.shape)
        scale = 1.0 + np.max(np.abs(fP), axis=(1, 2), keepdims=True)
        profile = np.max(np.abs(q - fP) / scale, axis=(1, 2))
        profile.flags.writeable = False
        return profile


def _cubic(y0, f0, fm, f1, hT, s):
    """Collocation cubic at fraction s of a subinterval of length hT in time."""
    return y0 + hT * (f0 * (2 * s**3 / 3 - 1.5 * s**2 + s)
                      + fm * (-4 * s**3 / 3 + 2 * s**2)
                      + f1 * (2 * s**3 / 3 - 0.5 * s**2))


def _defects(mesh, y, mid, T, fy, fm):
    """The two defects of every interval, from the field values fy at the
    breakpoints y and fm at the midpoints mid."""
    h = mesh.widths
    y1 = np.roll(y, -1, axis=0)
    fy1 = np.roll(fy, -1, axis=0)
    hT = (h * T)[:, None]
    r1 = y1 - y - hT / 6.0 * (fy + 4.0 * fm + fy1)
    r2 = mid - 0.5 * (y + y1) - hT / 8.0 * (fy - fy1)
    return r1, r2


@dataclass(frozen=True)
class PhaseReference:
    """Integral phase condition data: the previous solution on the current
    mesh, its tau-derivatives T*f(ref), and the Simpson weights pairing
    each unknown with <., dref>."""

    y: np.ndarray      # (N, dim) breakpoint values
    mid: np.ndarray    # (N, dim) midpoint values
    dy: np.ndarray     # (N, dim) T*f(ref) at the breakpoints
    dmid: np.ndarray   # (N, dim) T*f(ref) at the midpoints
    wy: np.ndarray     # (N,) breakpoint weights
    wm: np.ndarray     # (N,) midpoint weights

    @classmethod
    def from_cycle(cls, cycle: PeriodicOrbit, mesh: Mesh, field: VectorField):
        """Any cycle sampled at the breakpoints and midpoints of mesh."""
        T = cycle.period
        h = mesh.widths
        N = mesh.N
        tau_b = mesh.breakpoints[:-1]
        tau_m = 0.5 * (mesh.breakpoints[:-1] + mesh.breakpoints[1:])
        y = cycle.evaluate_time(tau_b * T)
        m = cycle.evaluate_time(tau_m * T)
        wy = np.zeros(N)
        np.add.at(wy, np.arange(N), h / 6.0)
        np.add.at(wy, (np.arange(N) + 1) % N, h / 6.0)
        return cls(y, m, T * field.f(y), T * field.f(m), wy, 4.0 * h / 6.0)


def _phase_residual(y, mid, ref: PhaseReference):
    return float(np.sum(ref.wy[:, None] * (y - ref.y) * ref.dy)
                 + np.sum(ref.wm[:, None] * (mid - ref.mid) * ref.dmid))


def _reduce_ring(E, F, B, q, c):
    """Cyclic reduction of the ring E_i x_i + F_i x_{i+1} + B_i w = g_i
    (i = 0..n-1, x_n = x_0) and its phase row sum_i q_i x_i + c w.

    A level pairs rows 2k and 2k+1, the only rows in x_{2k+1}, and takes the
    Householder QR of their blocks [F_2k; E_2k+1] in it.  The top rows of
    Q^T give x_{2k+1} from x_2k, x_2k+2 and w; the bottom rows are a row of
    the next level's ring over x_0, x_2, ...  An odd last row is carried up
    as it is, and the phase row takes x_{2k+1} through R^-1.  Returns the
    levels, each (W, P, q_odd): W = diag(R^-1, I) Q^T for the right-hand
    sides, P = R^-1 times the top rows in the x_2k, x_2k+2 and w columns,
    and the phase weights of the eliminated unknowns; then the one-row ring
    (E_0 + F_0, B_0) and its phase row (q_0, c).  A rank-deficient R
    raises SingularJacobian.
    """
    d = E.shape[-1]
    levels = []
    while len(E) > 1:
        p = len(E) // 2
        Q, R = np.linalg.qr(np.concatenate([F[0:2 * p:2], E[1::2]], axis=1),
                            mode="complete")
        R = R[:, :d]
        pivots = np.abs(np.diagonal(R, axis1=1, axis2=2))
        if np.any(pivots <= d * np.finfo(float).eps
                  * np.max(np.abs(R), axis=(1, 2))[:, None]):
            raise SingularJacobian("collocation Newton matrix singular")
        W = Q.swapaxes(1, 2)
        W[:, :d] = np.linalg.inv(R) @ W[:, :d]
        cols = np.zeros((p, 2 * d, 2 * d + 2))
        cols[:, :d, :d] = E[0:2 * p:2]
        cols[:, d:, d:2 * d] = F[1::2]
        cols[:, :d, 2 * d:] = B[0:2 * p:2]
        cols[:, d:, 2 * d:] = B[1::2]
        M = W @ cols
        P = M[:, :d]
        q_odd = q[1::2]
        v = np.einsum("ki,kij->kj", q_odd, P)
        q = q[0::2].copy()
        q[:p] -= v[:, :d]
        # x_{2k+2} is x_0 for the last pair of an even ring
        q[(np.arange(p) + 1) % len(q)] -= v[:, d:2 * d]
        c = c - v[:, 2 * d:].sum(axis=0)
        E = np.concatenate([M[:, d:, :d], E[2 * p:]])
        F = np.concatenate([M[:, d:, d:2 * d], F[2 * p:]])
        B = np.concatenate([M[:, d:, 2 * d:], B[2 * p:]])
        levels.append((W, P, q_odd))
    return levels, E[0] + F[0], B[0], q[0], c


def _reduce_rhs(levels, g, rho):
    """The ring's right-hand sides g and phase value rho through the levels
    of _reduce_ring: returns the one-row ring's g and rho, and per level
    the R^-1-scaled top rows that the back-substitution starts from."""
    tops = []
    d = g.shape[1]
    for W, _, q_odd in levels:
        p = len(W)
        pair = np.concatenate([g[0:2 * p:2], g[1::2]], axis=1)
        t = (W @ pair[..., None])[..., 0]
        tops.append(t[:, :d])
        rho = rho - np.sum(q_odd * t[:, :d])
        g = np.concatenate([t[:, d:], g[2 * p:]])
    return g[0], rho, tops


def _back_substitute(levels, tops, x0, w):
    """The ring's unknowns x_0..x_{n-1} from x_0 and w, level by level."""
    x = x0[None]
    for (_, P, _), top in zip(reversed(levels), reversed(tops)):
        p = len(P)
        known = np.concatenate([x[:p], np.roll(x, -1, axis=0)[:p],
                                np.broadcast_to(w, (p, len(w)))], axis=1)
        full = np.empty((len(x) + p, x.shape[1]))
        full[0::2] = x
        full[1::2] = top - (P @ known[..., None])[..., 0]
        x = full
    return x


def _newton_collocation(field_at, mesh, y, mid, T, I, ref, row):
    """The shared damped Newton on the bordered Hermite-Simpson system.

    The unknowns are the breakpoint and midpoint values, interval by
    interval, then T and I; the rows are the defects, the phase condition
    and a_T*T + a_I*I = b for row = (a_T, a_I, b).  The T and I columns
    are exact: I enters the field additively (field.dfdI), so it enters
    only the first defects, as -hT dfdI.  A step condenses the midpoints,
    reduces the ring (_reduce_ring) and solves the last small system with
    newton.dense_step; its again replays the stored reductions and the
    small system's LU factors on a new right-hand side.
    """
    N, dim = mesh.N, y.shape[1]
    nun = 2 * N * dim + 2
    h = mesh.widths
    a_T, a_I, b = row
    at = {}   # the field values at the latest residual point, for its step

    def unpack(z):
        u = z[:-2].reshape(N, 2, dim)
        return u[:, 0], u[:, 1], z[-2], z[-1]

    def residual(z):
        yz, mz, Tz, Iz = unpack(z)
        if Tz <= 0:
            return np.full(nun, np.inf)
        fld = field_at(Iz)
        at["fy"], at["fm"] = fld.f(yz), fld.f(mz)
        r1, r2 = _defects(mesh, yz, mz, Tz, at["fy"], at["fm"])
        ph = _phase_residual(yz, mz, ref)
        return np.concatenate([np.stack([r1, r2], axis=1).ravel(),
                               [ph, a_T * Tz + a_I * Iz - b]])

    Id = np.eye(dim)
    p_y = ref.wy[:, None] * ref.dy     # the phase row in y and in mid
    p_m = ref.wm[:, None] * ref.dmid

    def step(z, r):
        yz, mz, Tz, Iz = unpack(z)
        fld = field_at(Iz)
        fy, fm = at["fy"], at["fm"]
        fy1 = np.roll(fy, -1, axis=0)
        Jy, Jm = fld.jac(yz), fld.jac(mz)
        if not (np.all(np.isfinite(Jy)) and np.all(np.isfinite(Jm))):
            raise SingularJacobian("collocation Newton matrix not finite")
        Jy1 = np.roll(Jy, -1, axis=0)
        hT = (h * Tz)[:, None, None]
        # the second defect of interval i is D_i y_i + mid_i + G_i y_{i+1}
        # + dr2_i T to first order; the first has Bm_i as its mid_i block
        Bm = -hT * 2.0 / 3.0 * Jm
        D = -0.5 * Id - hT / 8.0 * Jy
        G = -0.5 * Id + hT / 8.0 * Jy1
        dr2 = -(h[:, None] / 8.0) * (fy - fy1)
        # stage 1: mid_i from the second defect into the first and the phase
        E = -Id - hT / 6.0 * Jy - Bm @ D
        F = Id - hT / 6.0 * Jy1 - Bm @ G
        B = np.empty((N, dim, 2))
        B[..., 0] = (-(h[:, None] / 6.0) * (fy + 4.0 * fm + fy1)
                     - (Bm @ dr2[..., None])[..., 0])
        B[..., 1] = -(h * Tz)[:, None] * fld.dfdI
        q = (p_y - np.einsum("ni,nij->nj", p_m, D)
             - np.roll(np.einsum("ni,nij->nj", p_m, G), 1, axis=0))
        c = np.array([-np.sum(p_m * dr2), 0.0])
        # stage 2: the ring, down to one interval
        levels, E0, B0, q0, c = _reduce_ring(E, F, B, q, c)
        # stage 3: the ring closed on y_0, the phase and the constraint row
        small = np.zeros((dim + 2, dim + 2))
        small[:dim, :dim] = E0
        small[:dim, dim:] = B0
        small[dim, :dim] = q0
        small[dim, dim:] = c
        small[dim + 1, dim:] = a_T, a_I

        def reduce(r):
            u = r[:-2].reshape(N, 2, dim)
            g = -u[:, 0] + (Bm @ u[:, 1, :, None])[..., 0]
            g0, rho, tops = _reduce_rhs(levels, g,
                                        np.sum(p_m * u[:, 1]) - r[-2])
            return np.concatenate([g0, [rho, -r[-1]]]), tops, u[:, 1]

        def expand(xw, tops, r2):
            dy = _back_substitute(levels, tops, xw[:dim], xw[dim:])
            dmid = (-r2 - (D @ dy[..., None])[..., 0]
                    - (G @ np.roll(dy, -1, axis=0)[..., None])[..., 0]
                    - dr2 * xw[dim])
            delta = np.concatenate([np.stack([dy, dmid], axis=1).ravel(),
                                    xw[dim:]])
            if not np.all(np.isfinite(delta)):
                raise SingularJacobian("collocation Newton step not finite")
            return delta

        rhs, tops, r2 = reduce(r)
        xw, small_again = newton.dense_step(small, -rhs, "collocation")
        if small_again is None:
            return expand(xw, tops, r2), None

        def again(r):
            rhs, tops, r2 = reduce(r)
            return expand(small_again(-rhs), tops, r2)
        return expand(xw, tops, r2), again

    z0 = np.concatenate([np.stack([y, mid], axis=1).ravel(), [T, I]])
    z, _ = newton.damped_newton(residual, step, z0, NEWTON_TOL,
                                NEWTON_MAX_ITER, "collocation")
    return unpack(z)


def refine_mesh(mesh: Mesh, residual_profile: np.ndarray, target: float,
                max_N: int = 2000) -> Mesh:
    """Split every subinterval whose residual exceeds the target.

    Each is split into ceil((res/target)^(1/4)) pieces (capped at 16),
    equidistributing the order-4 residual so refinement reaches the target
    in a few rounds.
    """
    pieces = np.ones(mesh.N, dtype=int)
    above = residual_profile > target
    pieces[above] = np.clip(
        np.ceil((residual_profile[above] / target) ** 0.25).astype(int), 2, 16)
    extra = int(np.sum(pieces - 1))
    if mesh.N + extra > max_N:
        # scale the split counts down to fit the cap, biggest residuals first
        budget = max_N - mesh.N
        if budget <= 0:
            raise MeshTooCoarse(
                f"refinement would exceed {max_N} subintervals")
        order = np.argsort(-residual_profile)
        want = pieces[order] - 1
        pieces[order] = 1 + np.clip(budget - (np.cumsum(want) - want), 0,
                                    want)
    b = mesh.breakpoints
    cuts = pieces - 1
    i = np.repeat(np.arange(mesh.N), cuts)               # interval of a cut
    j = np.arange(i.size) - np.repeat(np.cumsum(cuts) - cuts, cuts) + 1
    return Mesh(np.unique(np.concatenate(
        [b, b[i] + (b[i + 1] - b[i]) * j / pieces[i]])))


def solve_bvp(field: VectorField, init, tol: float = 1e-8,
              N: int = 100, max_N: int = 2000, max_refinements: int = 8,
              mesh: Mesh | None = None) -> CollocationSolution:
    """Solve the periodic BVP with residual-driven mesh refinement.

    This is solve_bvp_bordered with a field that does not depend on I and
    the row pinning I at 0.
    """
    if mesh is None:
        mesh = Mesh(np.linspace(0.0, 1.0, N + 1))
    return solve_bvp_bordered(constant_family(field), init, 0.0,
                              (0.0, 1.0, 0.0), tol, max_N, max_refinements,
                              mesh)[0]


def solve_bvp_bordered(field_at, init, I_guess: float, row, tol: float,
                       max_N: int, max_refinements: int, mesh: Mesh):
    """Solve over (cycle, T, I) with the row a_T*T + a_I*I = b appended.

    field_at(I) returns the VectorField at I; init, any cycle, is sampled on
    mesh, its period the initial T.  tol bounds the sampled interior residual
    ||P'/T - f(P)|| everywhere; NEWTON_TOL is the algebraic one.  Returns
    (CollocationSolution, I).
    """
    ref = PhaseReference.from_cycle(init, mesh, field_at(I_guess))
    if np.max(np.abs(ref.dy)) < 1e-8:
        raise DegenerateCycle("initial guess has no motion along the orbit")
    y, mid, T, I = ref.y, ref.mid, init.period, I_guess
    for _ in range(max_refinements + 1):
        y, mid, T, I = _newton_collocation(field_at, mesh, y, mid, T, I, ref,
                                           row)
        sol = CollocationSolution(mesh=mesh, y=y, mid=mid, period=float(T),
                                  field=field_at(I))
        prof = sol.residual_profile()
        if np.max(prof) < tol:
            return sol, float(I)
        mesh = refine_mesh(mesh, prof, 0.25 * tol, max_N)
        ref = PhaseReference.from_cycle(sol, mesh, sol.field)
        y, mid = ref.y, ref.mid   # the solution resampled on the new mesh
    raise MeshTooCoarse(
        f"residual {np.max(prof):.3g} above {tol:.3g} after refinement cap")


def solve_bvp_fixed_period(field_at, init, I_guess: float):
    """solve_bvp_bordered with T pinned at init.period on init's own mesh,
    accepted as it is (infinite tol); returns (CollocationSolution, I)."""
    if not isinstance(init, CollocationSolution):
        raise TypeError("fixed-period solve needs a CollocationSolution seed")
    return solve_bvp_bordered(field_at, init, I_guess, (1.0, 0.0, init.period),
                              np.inf, init.mesh.N, 0, init.mesh)
