"""Floquet multipliers of periodic orbits and period-doubling detection.

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

A period doubling is a sign change of prod(mu + 1) over the nontrivial
multipliers, det(M + I) / 2, refined by the regula falsi of
newton.bracketed_root; no multiplier is tracked from spectrum to spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import integrate
from .cycles import check_orbit
from .errors import NoSignChange, TrackingLost
from .fields import VectorField
from .newton import bracketed_root

NEAR_THRESHOLD = 0.05
SPECTRUM_CHUNKS = 16      # subintervals of the period in the monodromy product


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


def _pd_test(spec: FloquetSpectrum) -> float:
    """prod(mu + 1) over the nontrivial multipliers, det(M + I) / 2.  A
    complex pair contributes |mu + 1|^2 > 0, so the sign flips exactly
    where a real multiplier crosses -1."""
    return float(np.prod(spec.multipliers + 1.0).real)


def _gap(spec: FloquetSpectrum) -> float:
    """Distance from -1 to the nearest nontrivial multiplier."""
    return float(np.min(np.abs(spec.multipliers + 1.0)))


def detect_crossing(points: Sequence[Tuple[float, FloquetSpectrum]],
                    spectrum_at: Callable[[float], FloquetSpectrum],
                    tol: float = 1e-6) -> float:
    """Parameter value where a real multiplier crosses -1.

    points is a sequence of (p, FloquetSpectrum) monotone in the search
    parameter p.  The test function prod(mu + 1) over the nontrivial
    multipliers (Kuznetsov, Elements of Applied Bifurcation Theory, 10.2)
    changes sign exactly where a real multiplier crosses -1, also when it
    then collides with another and leaves the real axis before the next
    sample.  Of the sampled sign changes, the one whose ends hold
    multipliers nearest -1 is refined by newton.bracketed_root on fresh
    spectra from spectrum_at, until a step is below tol.  A jump of the
    test function is a sign change but no crossing, so the last spectrum
    evaluated must hold a multiplier within 0.5 of -1, or TrackingLost is
    raised.
    """
    if len(points) < 2:
        raise NoSignChange("need at least two sampled spectra")
    ps = [p for p, _ in points]
    psi = [_pd_test(spec) for _, spec in points]
    flips = [a for a in range(len(ps) - 1) if psi[a] * psi[a + 1] < 0.0]
    if not flips:
        raise NoSignChange("no period-doubling crossing in the sampled range")
    gaps = [_gap(spec) for _, spec in points]
    a = min(flips, key=lambda a: gaps[a] + gaps[a + 1])
    evaluated = [points[a + 1][1]]

    def psi_at(p):
        evaluated.append(spectrum_at(p))
        return _pd_test(evaluated[-1])

    p_star = bracketed_root(psi_at, ps[a], ps[a + 1], psi[a], psi[a + 1], tol)
    gap = _gap(evaluated[-1])
    if gap > 0.5:
        raise TrackingLost(
            f"prod(mu + 1) changes sign at {p_star:.8g}, but no multiplier "
            f"lies within 0.5 of -1 there (nearest {gap:.3g} away)")
    return p_star
