"""The interface shared by the three periodic-orbit representations.

shooting.Cycle (one period of RK4 samples), hb.FourierCycle (a truncated
Fourier series) and collocation.CollocationSolution (the collocation cubic on
a mesh) derive from PeriodicOrbit; the rest of the package reaches a cycle
only through it, and each of the three solvers takes any of them as its
guess.
"""

from __future__ import annotations

import numpy as np


class PeriodicOrbit:
    """Base of the cycle classes, frozen dataclasses with a `period` field.

    Subclasses implement evaluate_time, to_json and from_json, and may
    override states_on_grid with a faster synthesis.  `dense` is
    False for an orbit known only at sample points, whose evaluate_time
    interpolates linearly between them; Floquet analysis re-integrates such
    an orbit instead.
    """

    dense = True

    def evaluate_time(self, t):
        """State at time t (scalar or array; shape (dim,) or (m, dim))."""
        raise NotImplementedError

    def states_on_grid(self, m: int) -> np.ndarray:
        """States at t_j = j*T/m for j = 0..m-1, shape (m, dim)."""
        return self.evaluate_time(np.linspace(0.0, self.period, m,
                                              endpoint=False))

    def v_extrema(self):
        """Extrema of the first state component over one period."""
        V = self.states_on_grid(1024)[:, 0]
        return float(V.min()), float(V.max())

    def to_fourier(self, K: int):
        """Least-squares K-harmonic series through 8K+1 equispaced states."""
        from .hb import from_trajectory  # hb's FourierCycle subclasses this
        t = np.linspace(0.0, self.period, 8 * K + 1, endpoint=False)
        return from_trajectory(self.evaluate_time(t), self.period, K)

    def to_json(self) -> dict:
        """Period and representation, as stored in a cycle artifact."""
        raise NotImplementedError

    @classmethod
    def from_json(cls, doc: dict, field):
        """Inverse of to_json; field is the vector field of the cycle."""
        raise NotImplementedError


def check_orbit(obj) -> PeriodicOrbit:
    """obj itself if it is a PeriodicOrbit; TypeError otherwise."""
    if not isinstance(obj, PeriodicOrbit):
        raise TypeError(f"unsupported cycle type {type(obj)!r}")
    return obj
