"""Shared fixtures; the expensive cycle solves are session-scoped."""

import pytest

from hhcycles import hb, model, shooting
from hhcycles.fields import hh_field


@pytest.fixture(scope="session")
def field20():
    return hh_field(I=20.0)


@pytest.fixture(scope="session")
def stable_cycle_20():
    """Converged shooting cycle on the stable branch at I=20."""
    return shooting.cold_start(20.0, tol=1e-12)


@pytest.fixture(scope="session")
def hb_ops_50():
    return hb.build_operators(50)


@pytest.fixture(scope="session")
def hb_cycle_20(field20, stable_cycle_20, hb_ops_50):
    """Harmonic-balance representation (K=50) of the I=20 cycle."""
    seed = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                              stable_cycle_20.period, 50)
    return hb.solve_hb(seed, field20, hb_ops_50)


@pytest.fixture(scope="session")
def hopf_points():
    """Both equilibrium eigenvalue crossings (low and high current)."""
    low = model.detect_hopf(9.0, 10.5)
    high = model.detect_hopf(154.0, 155.0)
    return low, high
