"""Floquet multipliers of periodic orbits and unit-circle crossing detection.

The monodromy matrix is obtained from the variational flow around one period
(module integrate).  When the cycle is available as a Fourier series or a
collocation solution the variational system is driven by the closed-form
x(t), which keeps the multiplier accuracy at the level of the variational
integrator alone.  The RK4 half-step times of the period's subintervals then
form one uniform grid: x(t) is synthesized on it in one call (one inverse
FFT for a Fourier series), the subinterval monodromies are products of RK4
step matrices all built from one Jacobian call, and the same Jacobians give
the Liouville check (log det of the monodromy against the integral of
trace J).  A sampled (shooting) cycle has no x(t) between its samples, so
the state is RK4-integrated from x(0) over the period in one pass; its step
matrices and its Liouville check come from one Jacobian call at the stage
states of that pass.  Every monodromy matrix is a period-subdivided product
accumulated through successive QR factorizations, so on strongly unstable
cycles (multiplier magnitudes in the thousands) the small multipliers are
not washed out by the ill-conditioned explicit product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import integrate
from .cycles import check_orbit
from .errors import NoSignChange, TrackingLost
from .fields import VectorField

NEAR_THRESHOLD = 0.05
SPECTRUM_CHUNKS = 16      # subintervals of the period in the monodromy product
CROSSING_MAX_ITER = 60    # bisection and secant budget of detect_crossing


@dataclass(frozen=True)
class FloquetSpectrum:
    """Monodromy eigenvalues with the trivial multiplier singled out.

    multipliers holds the nontrivial eigenvalues sorted by modulus
    descending; the trivial one (the eigenvalue designated as the unit
    multiplier along the flow direction) is kept separately together with
    its deviation from 1.  liouville_error is |log|det M| - integral of
    trace J| over the period.
    """

    multipliers: np.ndarray   # (dim-1,) complex, |.| descending
    trivial: complex
    trivial_error: float
    stability: str            # "stable" | "unstable"
    flags: frozenset
    liouville_error: float

    def all_multipliers(self) -> np.ndarray:
        """Trivial first, then the nontrivial ones in stored order."""
        return np.concatenate([[self.trivial], self.multipliers])


def _monodromy_matrix(cycle, field: VectorField, nsteps: int):
    """Chunk monodromies over SPECTRUM_CHUNKS equal subintervals, plus x(0)
    and the integral of trace J over the period.

    Returns (chunks, x0, trace) where chunks[j] maps variations at t_j to
    t_{j+1}.
    """
    T = check_orbit(cycle).period
    per_chunk = max(1, nsteps // SPECTRUM_CHUNKS)
    if cycle.dense:
        # the RK4 half-step times of all chunks: one uniform grid, closed
        # by x(0) again at t = T
        xs = cycle.states_on_grid(2 * SPECTRUM_CHUNKS * per_chunk)
        chunks, traces = integrate.variational_along(
            field, np.concatenate([xs, xs[:1]]),
            T / (SPECTRUM_CHUNKS * per_chunk), SPECTRUM_CHUNKS)
        return chunks, xs[0], float(np.sum(traces))
    # sampled cycle: one RK4 pass of the state over the period, the
    # fundamental matrix restarting at each chunk boundary
    x0 = np.asarray(cycle.evaluate_time(0.0), dtype=float)
    _, chunks, traces = integrate.variational_flow(
        field, x0, T / SPECTRUM_CHUNKS / per_chunk, SPECTRUM_CHUNKS,
        per_chunk)
    return chunks, x0, float(np.sum(traces))


def _stabilized_product(chunks) -> np.ndarray:
    """Product of the chunk matrices via successive QR accumulation."""
    dim = chunks[0].shape[0]
    Q = np.eye(dim)
    R_acc = np.eye(dim)
    for M in chunks:
        Q, R = np.linalg.qr(M @ Q)
        R_acc = R @ R_acc
    return Q @ R_acc


def _designate_trivial(mu: np.ndarray, vecs: np.ndarray,
                       flow_dir: np.ndarray) -> int:
    """Index of the trivial multiplier: closest to 1, ties broken by
    eigenvector alignment with the flow direction."""
    dist = np.abs(mu - 1.0)
    order = np.argsort(dist)
    best = order[0]
    # a fold puts a second multiplier near +1; use the eigenvector then
    contenders = [i for i in order if dist[i] < dist[best] + 0.02]
    if len(contenders) > 1:
        fhat = flow_dir / np.linalg.norm(flow_dir)
        align = [abs(np.vdot(vecs[:, i], fhat)) / np.linalg.norm(vecs[:, i])
                 for i in contenders]
        best = contenders[int(np.argmax(align))]
    return int(best)


DEFAULT_SPECTRUM_STEPS = 4000


def spectrum(cycle, field: VectorField,
             nsteps: int = DEFAULT_SPECTRUM_STEPS) -> FloquetSpectrum:
    """Floquet spectrum of a converged cycle (any cycles.PeriodicOrbit).

    The eigenvalues are those of the QR-accumulated chunk product.
    """
    chunks, x0, trace = _monodromy_matrix(cycle, field, nsteps)
    mu, vecs = np.linalg.eig(_stabilized_product(chunks))
    k = _designate_trivial(mu, vecs, field.f(x0))
    trivial = complex(mu[k])
    rest = np.delete(mu, k)
    rest = rest[np.argsort(-np.abs(rest))]

    flags = set()
    for m in rest:
        if abs(m - 1.0) < NEAR_THRESHOLD:
            flags.add("near_fold")
        if abs(m + 1.0) < NEAR_THRESHOLD:
            flags.add("near_pd")
        if 0.95 <= abs(m) <= 1.05 and abs(m.imag) > 1e-8:
            flags.add("near_torus")
    stability = "stable" if np.all(np.abs(rest) < 1.0) else "unstable"
    liouville = abs(integrate.signed_log_determinant(chunks)[1] - trace)
    return FloquetSpectrum(multipliers=rest, trivial=trivial,
                           trivial_error=float(abs(trivial - 1.0)),
                           stability=stability, flags=frozenset(flags),
                           liouville_error=liouville)


def _tracked_value(spec: FloquetSpectrum, previous: complex,
                   threshold: float) -> complex:
    """The nontrivial multiplier nearest previous, if within threshold."""
    mus = spec.multipliers
    d = np.abs(mus - previous)
    j = int(np.argmin(d))
    if d[j] > threshold * max(1.0, abs(previous)):
        raise TrackingLost(
            f"multiplier moved {d[j]:.3g} between consecutive spectra")
    return complex(mus[j])


def detect_crossing(points: Sequence[Tuple[float, FloquetSpectrum]],
                    spectrum_at: Callable[[float], FloquetSpectrum],
                    tol: float = 1e-6) -> float:
    """Parameter value where the tracked multiplier crosses -1.

    points is a sequence of (p, FloquetSpectrum) monotone in the search
    parameter p.  The signed distance g(p) = Re(mu_tracked) + 1 must change
    sign between two consecutive points; the root is then refined by secant
    steps on fresh spectra from spectrum_at.  With no sampled sign change,
    the intervals next to the sample of least |g| are bisected until one
    brackets a sign change or shrinks below tol.
    """
    target = -1.0
    if len(points) < 2:
        raise NoSignChange("need at least two sampled spectra")

    # per-point candidate: the real multiplier nearest the target.  Tracking
    # from the first point alone fails when the crossing multiplier starts
    # far from the target while another one idles nearby.
    def candidate(spec):
        mus = spec.multipliers
        real = mus[np.abs(mus.imag) < 1e-6 * np.maximum(1.0, np.abs(mus))]
        if len(real) == 0:
            return None
        return complex(real[int(np.argmin(np.abs(real - target)))])

    tracked = [(I, candidate(spec)) for I, spec in points]
    tracked = [(I, m) for I, m in tracked if m is not None]
    for I, m in tracked[:-1]:
        if m.real == target:
            return I

    def tightest():
        # among all sign changes keep the tightest one; eigenvalue collisions
        # (real pairs merging into complex) can fake a distant sign flip
        g = [m.real - target for _, m in tracked]
        bracket, best = None, np.inf
        for a in range(len(g) - 1):
            if g[a] * g[a + 1] < 0.0 and abs(g[a]) + abs(g[a + 1]) < best:
                best = abs(g[a]) + abs(g[a + 1])
                bracket = a
        return bracket

    bracket = tightest()
    # a multiplier pair can pass the target, collide and leave the real axis
    # between two samples, so no sampled sign change shows; bisect the
    # intervals next to the sample nearest the target until one does
    for _ in range(CROSSING_MAX_ITER):
        if bracket is not None or not tracked:
            break
        k = int(np.argmin([abs(m.real - target) for _, m in tracked]))
        sides = [a for a in (k, k - 1) if 0 <= a < len(tracked) - 1
                 and abs(tracked[a + 1][0] - tracked[a][0]) >= tol]
        if not sides:
            break
        for a in sides:  # right side first keeps the left index valid
            Ic = 0.5 * (tracked[a][0] + tracked[a + 1][0])
            mc = candidate(spectrum_at(Ic))
            if mc is not None:
                tracked.insert(a + 1, (Ic, mc))
        bracket = tightest()
    if bracket is None:
        raise NoSignChange("no period-doubling crossing in the sampled range")

    (Ia, ma), (Ib, mb) = tracked[bracket], tracked[bracket + 1]
    ga, gb = ma.real - target, mb.real - target
    prev = mb
    # the crossing multiplier may move fast across the bracket; scale the
    # continuity threshold to the observed endpoint spread
    thr = max(0.5, 2.0 * abs(mb - ma))
    def finish(I_out):
        if abs(prev.real - target) > 0.5:
            raise TrackingLost(
                f"refinement converged on a multiplier at {prev:.4g}, "
                f"far from the target {target:+g}")
        return I_out

    for _ in range(CROSSING_MAX_ITER):
        Ic = Ib - gb * (Ib - Ia) / (gb - ga)
        if abs(Ic - Ib) < tol or abs(Ic - Ia) < tol:
            return finish(Ic)
        mc = _tracked_value(spectrum_at(Ic), prev, thr)
        prev = mc
        gc = mc.real - target
        if gc == 0.0:
            return finish(Ic)
        # keep the bracket if the new point preserves a sign change
        if ga * gc < 0.0:
            Ib, gb = Ic, gc
        else:
            Ia, ga = Ic, gc
        if abs(Ib - Ia) < tol:
            return finish(0.5 * (Ia + Ib))
    return finish(0.5 * (Ia + Ib))
