"""Exception hierarchy shared across the package."""


class NlqdError(Exception):
    """Base class for all package errors."""


class ValidationError(NlqdError):
    """Input fails a structural precondition (shape, hermiticity, trace...)."""


class DegenerateConstraintError(NlqdError):
    """The 2x2 constraint system for the energy-conserving family is singular.

    Happens iff the Hamiltonian acts as a scalar on the support of the state.
    """


class StepSizeError(NlqdError):
    """Single-step norm drift exceeded the configured bound; reduce dt.

    ``step`` and ``t`` are the step at which the drift fired and its time,
    step * dt on the clock of the integration that failed (a measurement
    phase starts its own at 0).
    """

    def __init__(self, message: str, step: int, t: float):
        super().__init__(message)
        self.step = step
        self.t = t


class SubspaceInvarianceError(NlqdError):
    """Operators do not leave the measured subspaces invariant."""
