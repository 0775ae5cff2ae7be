"""Exception hierarchy for chain validation, solvers, and bound hypotheses."""


class McPerturbError(Exception):
    """Base class for all package errors."""


class ValidationError(McPerturbError):
    """A matrix or vector fails its structural invariants."""


class ReducibleChain(McPerturbError):
    """Operation requires an irreducible chain."""


class PeriodicChain(McPerturbError):
    """Operation requires an aperiodic chain."""


class SolverFailure(McPerturbError):
    """A linear solve is numerically singular or its residual check failed."""


class HypothesisFailed(McPerturbError):
    """A bound's hypothesis does not hold for the supplied chain.

    Carries the hypothesis name and a numeric detail (e.g. the margin by
    which the condition fails) so callers can render it inline.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        self.detail = detail
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)


class NoSmallSet(HypothesisFailed):
    """No step count up to the search limit gives positive common mass."""

    def __init__(self, detail: str = ""):
        super().__init__("whole-space small-set mass positive", detail)


class DriftViolated(McPerturbError):
    """A drift inequality fails entrywise; reports the first violating state."""

    def __init__(self, state: int, amount: float, message: str = "drift inequality violated"):
        self.state = state
        self.amount = amount
        super().__init__(f"{message} at state {state} by {amount:.3e}")


class DivergentHittingTimes(McPerturbError):
    """Hitting times do not stabilize (transient or truncation pathology)."""


class InvalidParameters(McPerturbError):
    """Model parameters are structurally invalid."""


class InvalidStep(McPerturbError):
    """Discretization step is outside the admissible range."""


class NotErgodic(McPerturbError):
    """Chain parameters fail the ergodicity criterion."""


class NoPositiveLambda(McPerturbError):
    """Drift-rate search found no positive decay rate."""


class OutOfRadius(McPerturbError):
    """Perturbation size exceeds the series' admissible radius."""


class SeriesDivergent(McPerturbError):
    """A matrix series does not converge (spectral radius at or above one)."""


class ParseError(McPerturbError):
    """A chain file cannot be parsed; carries field-level diagnostics."""
