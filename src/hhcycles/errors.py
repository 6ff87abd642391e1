"""Exception hierarchy for the solvers and detectors."""


class HHCyclesError(Exception):
    """Base class for all numerical failures raised by this package."""


class NoConvergence(HHCyclesError):
    """An iterative solver exhausted its iteration budget."""


class SingularJacobian(HHCyclesError):
    """Newton matrix is (numerically) rank deficient, typically near a fold."""


class NoSignChange(HHCyclesError):
    """A bracketing root finder was given an invalid bracket."""


class NoOscillation(HHCyclesError):
    """A transient settled onto an equilibrium instead of a limit cycle."""


class NonFinite(HHCyclesError):
    """Blow-up (inf/nan) detected during time integration."""


class MeshTooCoarse(HHCyclesError):
    """Mesh refinement hit the subinterval cap with residual above tolerance."""


class DegenerateCycle(HHCyclesError):
    """The candidate cycle is actually an equilibrium (zero amplitude)."""


class TrackingLost(HHCyclesError):
    """A multiplier test function changed sign with no multiplier at its
    target: a jump across a gap in the branch, not a crossing."""


class NoExtremum(HHCyclesError):
    """No interior parameter extremum found in the bracketed branch window."""


class StartInvalid(HHCyclesError):
    """Continuation starting point failed to re-converge."""
