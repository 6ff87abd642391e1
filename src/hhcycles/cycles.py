"""The interface shared by the three periodic-orbit representations.

shooting.Cycle (one period of RK4 samples), hb.FourierCycle (a truncated
Fourier series) and collocation.CollocationSolution (the collocation cubic on
a mesh) derive from PeriodicOrbit; the rest of the package reaches a cycle
only through it.
"""

from __future__ import annotations

import numpy as np

from .integrate import Trajectory


class PeriodicOrbit:
    """Base of the cycle classes, frozen dataclasses with a `period` field.

    Subclasses implement evaluate_time, to_json and from_json, and name the
    solver that made them in `source`.  `dense` is False for an orbit known
    only at sample points, whose evaluate_time interpolates linearly between
    them; Floquet analysis re-integrates such an orbit instead.
    """

    dense = True

    def evaluate_time(self, t):
        """State at time t (scalar or array; shape (dim,) or (m, dim))."""
        raise NotImplementedError

    def v_extrema(self):
        """Extrema of the first state component over one period."""
        t = np.linspace(0.0, self.period, 1024, endpoint=False)
        V = self.evaluate_time(t)[:, 0]
        return float(V.min()), float(V.max())

    def to_fourier(self, K: int):
        """Least-squares K-harmonic series through 8K+1 equispaced states."""
        from .hb import from_trajectory  # hb's FourierCycle subclasses this
        t = np.linspace(0.0, self.period, 8 * K + 1, endpoint=False)
        return from_trajectory(self.evaluate_time(t), self.period, K)

    def to_time_cycle(self):
        """One closed period in 400 equal steps, as a shooting.Cycle."""
        from .shooting import Cycle  # Cycle subclasses this
        t = np.linspace(0.0, self.period, 401)
        states = self.evaluate_time(t)
        states[-1] = states[0]
        return Cycle(period=self.period, anchor_state=states[0].copy(),
                     samples=Trajectory(t, states), source=self.source)

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
