"""Periodic BVP solver: piecewise-cubic collocation at 3 Lobatto points.

The cycle is scaled to tau in [0,1] (u' = T f(u)) and represented per
subinterval by the collocation cubic whose derivative is the quadratic
interpolating T*f at the Lobatto points {0, 1/2, 1}.  Eliminating the
polynomial gives the classical Hermite-Simpson equations in the endpoint and
midpoint values, which is what Newton solves; periodicity is exact because the
first and last endpoint are the same unknown.  Mesh refinement is driven by
the sampled interior residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import newton
from .cycles import PeriodicOrbit
from .errors import DegenerateCycle, MeshTooCoarse, SingularJacobian
from .fields import VectorField

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

    source = "collocation"

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def evaluate(self, tau):
        """Evaluate the collocation cubic at tau in [0,1] (scalar or array)."""
        scalar = np.ndim(tau) == 0
        tau = np.atleast_1d(np.asarray(tau, dtype=float)) % 1.0
        b = self.mesh.breakpoints
        idx = np.clip(np.searchsorted(b, tau, side="right") - 1, 0, self.mesh.N - 1)
        h = (b[idx + 1] - b[idx])
        s = ((tau - b[idx]) / h)[:, None]
        f_y = self.field.f(self.y)
        f_m = self.field.f(self.mid)
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
        """Max relative interior residual ||P'/T - f(P)||/(1+||f||) per subinterval."""
        h = self.mesh.widths[:, None, None]
        sigma = np.linspace(0.0, 1.0, 12)[1:-1]   # 10 interior samples
        s = sigma[None, :, None]
        fy = self.field.f(self.y)
        f0 = fy[:, None, :]
        fm = self.field.f(self.mid)[:, None, :]
        f1 = np.roll(fy, -1, axis=0)[:, None, :]
        P = _cubic(self.y[:, None, :], f0, fm, f1, h * self.period, s)
        q = (f0 * (2 * (s - 0.5) * (s - 1))
             + fm * (-4 * s * (s - 1))
             + f1 * (2 * s * (s - 0.5)))
        fP = self.field.f(P.reshape(-1, self.dim)).reshape(P.shape)
        scale = 1.0 + np.max(np.abs(fP), axis=(1, 2), keepdims=True)
        return np.max(np.abs(q - fP) / scale, axis=(1, 2))


def _cubic(y0, f0, fm, f1, hT, s):
    """Collocation cubic at fraction s of a subinterval of length hT in time."""
    return y0 + hT * (f0 * (2 * s**3 / 3 - 1.5 * s**2 + s)
                      + fm * (-4 * s**3 / 3 + 2 * s**2)
                      + f1 * (2 * s**3 / 3 - 0.5 * s**2))


def _defects(field, mesh, y, mid, T):
    N = mesh.N
    h = mesh.widths
    y1 = np.roll(y, -1, axis=0)
    fy = field.f(y)
    fy1 = np.roll(fy, -1, axis=0)
    fm = field.f(mid)
    hT = (h * T)[:, None]
    r1 = y1 - y - hT / 6.0 * (fy + 4.0 * fm + fy1)
    r2 = mid - 0.5 * (y + y1) - hT / 8.0 * (fy - fy1)
    return r1, r2


class PhaseReference:
    """Integral phase condition data: previous solution on the current mesh."""

    def __init__(self, mesh: Mesh, y_ref, mid_ref, dy_ref, dmid_ref):
        self.mesh = mesh
        self.y = y_ref
        self.mid = mid_ref
        self.dy = dy_ref      # tau-derivatives T*f(ref) at breakpoints
        self.dmid = dmid_ref

    @classmethod
    def from_cycle(cls, cycle: PeriodicOrbit, mesh: Mesh, field: VectorField):
        """Any cycle sampled at the breakpoints and midpoints of mesh."""
        T = cycle.period
        tau_b = mesh.breakpoints[:-1]
        tau_m = 0.5 * (mesh.breakpoints[:-1] + mesh.breakpoints[1:])
        y = cycle.evaluate_time(tau_b * T)
        m = cycle.evaluate_time(tau_m * T)
        return cls(mesh, y, m, T * field.f(y), T * field.f(m))

    def weights(self):
        """Simpson weights pairing each unknown with <., dref>."""
        h = self.mesh.widths
        N = self.mesh.N
        wy = np.zeros(N)
        np.add.at(wy, np.arange(N), h / 6.0)
        np.add.at(wy, (np.arange(N) + 1) % N, h / 6.0)
        wm = 4.0 * h / 6.0
        return wy, wm


def _phase_residual(mesh, y, mid, ref: PhaseReference):
    wy, wm = ref.weights()
    return float(np.sum(wy[:, None] * (y - ref.y) * ref.dy)
                 + np.sum(wm[:, None] * (mid - ref.mid) * ref.dmid))


def _newton_collocation(field_at, mesh, y, mid, T, I, ref, row):
    """The shared damped Newton on the bordered Hermite-Simpson system.

    The unknowns are the breakpoint and midpoint values, interval by
    interval, then T and I; the rows are the defects, the phase condition
    and a_T*T + a_I*I = b for row = (a_T, a_I, b).  The T column is exact,
    the I column dF/dI one forward difference of the residual.
    """
    N, dim = mesh.N, y.shape[1]
    nun = 2 * N * dim + 2
    h = mesh.widths
    a_T, a_I, b = row

    def unpack(z):
        u = z[:-2].reshape(N, 2, dim)
        return u[:, 0], u[:, 1], z[-2], z[-1]

    def residual(z):
        yz, mz, Tz, Iz = unpack(z)
        if Tz <= 0:
            return np.full(nun, np.inf)
        r1, r2 = _defects(field_at(Iz), mesh, yz, mz, Tz)
        ph = _phase_residual(mesh, yz, mz, ref)
        return np.concatenate([np.stack([r1, r2], axis=1).ravel(),
                               [ph, a_T * Tz + a_I * Iz - b]])

    # sparsity pattern: per interval i the rows of both defects, against the
    # columns of y_i, mid_i and y_{i+1}; then the T and I columns and the
    # phase row (the constraint row is the last entry of those columns)
    Id = np.eye(dim)
    cy0 = 2 * np.arange(N) * dim   # first-defect rows and y_i columns
    cm = cy0 + dim                 # second-defect rows and mid_i columns
    cy1 = np.roll(cy0, -1)         # y_{i+1} columns
    rr, cc = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    wy, wm = ref.weights()
    ph_row = np.zeros(nun - 2)
    blocks = ph_row.reshape(2 * N, dim)
    blocks[0::2] = wy[:, None] * ref.dy
    blocks[1::2] = wm[:, None] * ref.dmid

    def step(z, r):
        yz, mz, Tz, Iz = unpack(z)
        fld = field_at(Iz)
        fy = fld.f(yz)
        fm = fld.f(mz)
        fy1 = np.roll(fy, -1, axis=0)
        Jy = fld.jac(yz)
        Jm = fld.jac(mz)
        Jy1 = np.roll(Jy, -1, axis=0)
        hT = (h * Tz)[:, None, None]
        rows, cols, vals = [], [], []

        def add_blocks(rbase, cbase, B):
            # B has shape (N, dim, dim), or broadcasts to it
            rows.append((rbase[:, None, None] + rr[None]).ravel())
            cols.append((cbase[:, None, None] + cc[None]).ravel())
            vals.append(np.broadcast_to(B, (N, dim, dim)).ravel())

        add_blocks(cy0, cy0, -Id - hT / 6.0 * Jy)
        add_blocks(cy0, cm, -hT * 2.0 / 3.0 * Jm)
        add_blocks(cy0, cy1, Id - hT / 6.0 * Jy1)
        add_blocks(cm, cy0, -0.5 * Id - hT / 8.0 * Jy)
        add_blocks(cm, cm, Id)
        add_blocks(cm, cy1, -0.5 * Id + hT / 8.0 * Jy1)

        dr1 = -(h[:, None] / 6.0) * (fy + 4.0 * fm + fy1)
        dr2 = -(h[:, None] / 8.0) * (fy - fy1)
        col_T = np.concatenate([np.stack([dr1, dr2], axis=1).ravel(),
                                [0.0, a_T]])
        dI = 1e-6 * max(1.0, abs(Iz))
        zp = z.copy()
        zp[-1] = Iz + dI
        col_I = (residual(zp) - r) / dI
        col_I[-1] = a_I
        rows += [np.arange(nun), np.arange(nun), np.full(nun - 2, nun - 2)]
        cols += [np.full(nun, nun - 2), np.full(nun, nun - 1),
                 np.arange(nun - 2)]
        vals += [col_T, col_I, ph_row]

        A = sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(nun, nun)).tocsc()
        A.eliminate_zeros()   # dF/dI vanishes off the rows that I enters
        try:
            # minimum degree on A^T + A fills ~40x less than COLAMD here
            lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularJacobian(f"collocation Newton matrix singular: {exc}")
        delta = lu.solve(-r)
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("collocation Newton step not finite")
        return delta

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
        scaled = np.ones(mesh.N, dtype=int)
        for i in order:
            want = pieces[i] - 1
            take = min(want, budget)
            scaled[i] = 1 + take
            budget -= take
            if budget == 0:
                break
        pieces = scaled
    pts = [mesh.breakpoints[0]]
    for i in range(mesh.N):
        for j in range(1, pieces[i]):
            pts.append(mesh.breakpoints[i]
                       + (mesh.breakpoints[i + 1] - mesh.breakpoints[i])
                       * j / pieces[i])
        pts.append(mesh.breakpoints[i + 1])
    return Mesh(np.array(sorted(set(pts))))


def solve_bvp(field: VectorField, init, tol: float = 1e-8,
              N: int = 100, max_N: int = 2000, max_refinements: int = 8,
              mesh: Mesh | None = None) -> CollocationSolution:
    """Solve the periodic BVP with residual-driven mesh refinement.

    This is solve_bvp_bordered with a field that does not depend on I and
    the row pinning I at 0.
    """
    if mesh is None:
        mesh = Mesh(np.linspace(0.0, 1.0, N + 1))
    return solve_bvp_bordered(lambda _: field, init, 0.0, (0.0, 1.0, 0.0),
                              tol, max_N, max_refinements, mesh)[0]


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
