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
states of that pass.  The monodromy matrix is the explicit product of the
step matrices, formed in pairwise levels (integrate.ordered_product):
within each of SPECTRUM_CHUNKS subintervals, then across them.  Its
eigenvalues are taken of that product, so a QR accumulation of the factors
would protect nothing; along a pairwise tree the rounding of a product of
thousands of factors grows more slowly than along a sequential chain.

The step count is a whole number of steps per subinterval, so a spectrum
of nsteps takes taken_steps(nsteps) = 16 * max(1, nsteps // 16) steps
(992 for 1000, 16 for 10) and records that count.  Asked to, a dense
cycle's spectrum also estimates the RK4 error of each nontrivial
multiplier, at no extra Jacobian call: the Jacobians at every other node
of its grid give the monodromy of half as many steps
(integrate.variational_along).  The nontrivial eigenvalues of the two
matrices are paired one to one, the trivial one of each set aside, and
by Richardson extrapolation a multiplier's distance to its partner, over
2^4 - 1 = 15, estimates its own error (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4).  Were a multiplier matched to the nearest eigenvalue
instead, one near +1 could match the trivial one, and a large one an
eigenvalue near 0, so its estimate would stay below the distance it must
be checked against whatever its error.  The continuation takes its
branch points' spectra at a quarter of the count where these estimates
certify the stability label and the sign of det(M + I).

A period doubling is a sign change of prod(mu + 1) over the nontrivial
multipliers, det(M + I) / 2, refined by the regula falsi of
newton.bracketed_root; no multiplier is tracked from spectrum to spectrum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import integrate
from .cycles import check_orbit
from .errors import NoSignChange, TrackingLost
from .fields import VectorField
from .newton import bracketed_root

NEAR_THRESHOLD = 0.05
SPECTRUM_CHUNKS = 16      # subintervals of the period in the monodromy product
# a multiplier's distance to its half-count value over this estimates its
# RK4 error: 2^4 - 1 for a fourth-order method
RICHARDSON = 15.0


@dataclass(frozen=True)
class FloquetSpectrum:
    """Monodromy eigenvalues with the trivial multiplier singled out.

    multipliers holds the nontrivial eigenvalues sorted by modulus
    descending; the trivial one (the eigenvalue designated as the unit
    multiplier along the flow direction) is kept separately together with
    its deviation from 1.  liouville_error is |log|det M| - integral of
    trace J| over the period.  steps is the RK4 step count the spectrum
    was taken at (taken_steps), and multiplier_errors the Richardson
    estimate of each nontrivial multiplier's RK4 error, in the order of
    multipliers; None unless asked for, and for a sampled cycle or an odd
    step count per subinterval, where no half-count monodromy exists.
    """

    multipliers: np.ndarray   # (dim-1,) complex, |.| descending
    trivial: complex
    trivial_error: float
    stability: str            # "stable" | "unstable"
    flags: frozenset
    liouville_error: float
    steps: int
    multiplier_errors: Optional[np.ndarray]   # (dim-1,) or None

    def all_multipliers(self) -> np.ndarray:
        """Trivial first, then the nontrivial ones in stored order."""
        return np.concatenate([[self.trivial], self.multipliers])


def taken_steps(nsteps: int) -> int:
    """The RK4 step count of a spectrum asked for nsteps: a whole number
    of steps, at least one, in each of the SPECTRUM_CHUNKS subintervals."""
    return SPECTRUM_CHUNKS * max(1, nsteps // SPECTRUM_CHUNKS)


def _monodromy_matrix(cycle, field: VectorField, nsteps: int,
                      half_count: bool = False):
    """Chunk monodromies over SPECTRUM_CHUNKS equal subintervals, plus x(0),
    the integral of trace J over the period and, if half_count, the
    half-count chunks.

    Returns (chunks, x0, trace, half) where chunks[j] maps variations at
    t_j to t_{j+1}, and half holds the same of half as many steps, or is
    None (not asked for, a sampled cycle, or no half count:
    integrate.variational_along).
    """
    T = check_orbit(cycle).period
    per_chunk = taken_steps(nsteps) // SPECTRUM_CHUNKS
    if cycle.dense:
        # the RK4 half-step times of all chunks: one uniform grid, closed
        # by x(0) again at t = T
        xs = cycle.states_on_grid(2 * SPECTRUM_CHUNKS * per_chunk)
        chunks, traces, half = integrate.variational_along(
            field, np.concatenate([xs, xs[:1]]),
            T / (SPECTRUM_CHUNKS * per_chunk), SPECTRUM_CHUNKS, half_count)
        return chunks, xs[0], float(np.sum(traces)), half
    # sampled cycle: one RK4 pass of the state over the period, the
    # fundamental matrix restarting at each chunk boundary
    x0 = np.asarray(cycle.evaluate_time(0.0), dtype=float)
    h = T / SPECTRUM_CHUNKS / per_chunk
    chunks, traces = integrate.variational_of_pass(
        field, integrate.integrate_rk4(field, x0, 0.0, T, h).states, h,
        SPECTRUM_CHUNKS)
    return chunks, x0, float(np.sum(traces)), None


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


def _paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_p(i)| for the one-to-one pairing p of a with b of least
    total distance."""
    d = np.abs(a[:, None] - b)
    rows = np.arange(len(a))
    pairings = np.array(list(itertools.permutations(rows)))
    return d[rows, pairings[np.argmin(d[rows, pairings].sum(axis=1))]]


def spectrum(cycle, field: VectorField,
             nsteps: int = DEFAULT_SPECTRUM_STEPS, *,
             estimate: bool = False) -> FloquetSpectrum:
    """Floquet spectrum of a converged cycle (any cycles.PeriodicOrbit).

    The eigenvalues are those of the explicit product of the
    SPECTRUM_CHUNKS subinterval monodromies, formed pairwise
    (integrate.ordered_product) like the step products inside each of them,
    of taken_steps(nsteps) RK4 steps in all.  With estimate, a dense cycle
    with an even count of steps per subinterval also gets
    multiplier_errors, from the half-count monodromy.
    """
    chunks, x0, trace, half = _monodromy_matrix(cycle, field, nsteps,
                                                half_count=estimate)
    flow_dir = field.f(x0)
    mu, vecs = np.linalg.eig(integrate.ordered_product(chunks))
    k = _designate_trivial(mu, vecs, flow_dir)
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
    errors = None
    if half is not None:
        coarse, cvecs = np.linalg.eig(integrate.ordered_product(half))
        coarse = np.delete(coarse, _designate_trivial(coarse, cvecs, flow_dir))
        errors = _paired_distances(rest, coarse) / RICHARDSON
    return FloquetSpectrum(multipliers=rest, trivial=trivial,
                           trivial_error=float(abs(trivial - 1.0)),
                           stability=stability, flags=frozenset(flags),
                           liouville_error=liouville,
                           steps=taken_steps(nsteps),
                           multiplier_errors=errors)


def _pd_test(spec: FloquetSpectrum) -> float:
    """prod(mu + 1) over the nontrivial multipliers, det(M + I) / 2.  A
    complex pair contributes |mu + 1|^2 > 0, so the sign flips exactly
    where a real multiplier crosses -1."""
    return float(np.prod(spec.multipliers + 1.0).real)


def _gap(spec: FloquetSpectrum) -> float:
    """Distance from -1 to the nearest nontrivial multiplier."""
    return float(np.min(np.abs(spec.multipliers + 1.0)))


def detect_crossing(points: Sequence[Tuple[float, FloquetSpectrum]],
                    spectrum_at: Callable[[float, int], FloquetSpectrum],
                    tol: float = 1e-6) -> Tuple[float, int]:
    """Parameter value where a real multiplier crosses -1, and the index a
    of the samples points[a], points[a + 1] that bracket it.

    points is a sequence of (p, FloquetSpectrum) in the order of the
    branch they sample, so each neighbouring pair brackets an interval of
    the search parameter p.  The test function prod(mu + 1) over the
    nontrivial multipliers (Kuznetsov, Elements of Applied Bifurcation
    Theory, 10.2) changes sign exactly where a real multiplier crosses -1,
    also when it then collides with another and leaves the real axis before
    the next sample.  Of the sign changes between neighbours, the one whose
    ends hold multipliers nearest -1 is refined by newton.bracketed_root on
    fresh spectra spectrum_at(p, a), until a step is below tol.  A jump of
    the test function is a sign change but no crossing, so the last
    spectrum evaluated must hold a multiplier within 0.5 of -1, or
    TrackingLost is raised.
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
        evaluated.append(spectrum_at(p, a))
        return _pd_test(evaluated[-1])

    p_star = bracketed_root(psi_at, ps[a], ps[a + 1], psi[a], psi[a + 1], tol)
    gap = _gap(evaluated[-1])
    if gap > 0.5:
        raise TrackingLost(
            f"prod(mu + 1) changes sign at {p_star:.8g}, but no multiplier "
            f"lies within 0.5 of -1 there (nearest {gap:.3g} away)")
    return p_star, a
