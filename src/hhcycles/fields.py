"""Generic vector-field bundle used by the integrators and solvers.

Every solver in this package works against a (f, jacobian) pair so the cheap
analytic oracles (harmonic oscillator) can be swapped in for testing; the
Hodgkin-Huxley binding is the default in the CLI.  The RK4 loop of
integrate steps one state as Python floats, through the field's f_floats
member, with one loop written out per state dimension: the Hodgkin-Huxley
field binds model.float_field there (one function frame per call), any
other field gets a wrapper around f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import model


@dataclass(frozen=True)
class VectorField:
    """A vector field with analytic Jacobian.

    f and jac must accept either a single state (dim,) or a batch (m, dim)
    and return matching shapes ((m, dim) and (m, dim, dim) for batches).
    f_floats is f on one state given as dim Python floats, returning its
    dim components as floats; it defaults to a wrapper around f.  dfdI is
    the derivative of f with respect to the stimulus current I of the
    field's family, a constant (dim,) tuple since I enters additively; the
    bordered correctors write their I column from it.  It defaults to
    zeros, a field that does not depend on I.
    """

    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    name: str = "field"
    f_floats: Optional[Callable[..., tuple]] = None
    dfdI: Optional[tuple] = None

    def __post_init__(self):
        if self.dfdI is None:
            object.__setattr__(self, "dfdI", (0.0,) * self.dim)
        if self.f_floats is None:
            f = self.f
            object.__setattr__(self, "f_floats",
                               lambda *x: tuple(f(np.array(x)).tolist()))


def hh_field(p: model.HHParams = model.DEFAULT_PARAMS, I: float = 0.0) -> VectorField:
    """Hodgkin-Huxley field at fixed stimulus current."""
    return VectorField(
        dim=4,
        f=lambda x: model.vector_field(x, p, I),
        jac=lambda x: model.jacobian(x, p, I),
        name=f"hh(I={I:g})",
        f_floats=model.float_field(p, I),
        dfdI=(-1.0 / p.C, 0.0, 0.0, 0.0),
    )


def constant_family(field: VectorField) -> Callable[[float], VectorField]:
    """The family I -> field, for a solve whose field does not depend on I:
    its members have dfdI zero."""
    fixed = replace(field, dfdI=None)
    return lambda _: fixed


def harmonic_oscillator(omega: float = 1.0) -> VectorField:
    """Test field xdot = y, ydot = -omega^2 x; period 2*pi/omega."""
    J = np.array([[0.0, 1.0], [-omega * omega, 0.0]])

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], -omega * omega * x[..., 0]], axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(J, x.shape[:-1] + (2, 2)).copy()

    return VectorField(dim=2, f=f, jac=jac, name=f"sho(omega={omega:g})")
