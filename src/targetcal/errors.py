"""Exception types shared across the package."""


class TargetcalError(Exception):
    """Base class for all errors raised by this package."""


class ModeError(TargetcalError):
    """Dataset sample structure is incompatible with the requested operation."""


class SchemaError(TargetcalError):
    """Input file does not conform to the expected CSV schema."""


class ConfigError(TargetcalError):
    """Invalid run configuration."""


class RankDeficientError(TargetcalError):
    """A design or constraint matrix is numerically column-rank deficient."""


class NonFiniteError(TargetcalError):
    """A transformation or computation produced NaN or infinity."""


class EmptyTargetError(TargetcalError):
    """No target-sample units available."""


class EmptyArmError(TargetcalError):
    """A required treatment arm contains no units."""


class ZeroVarianceError(TargetcalError):
    """Pooled standard deviation is zero for a non-constant comparison."""


class AllZeroError(TargetcalError):
    """All weights are zero."""


class OutOfRangeError(TargetcalError):
    """A probability fell outside the open interval (0, 1)."""


class NotConvergedError(TargetcalError):
    """A solver stopped without meeting its constraints.

    The entropy dual raises it in two cases: it proved the primal infeasible
    with a Farkas certificate (``direction`` is set), or it reached its
    iteration limit or stalled, which usually means the same but proves
    nothing (``direction`` is None). Either signals an overlap violation.

    Attributes:
        worst_constraint: index of the constraint with the largest relative
            violation at the last iterate, to aid overlap diagnosis.
        direction: unit vector d over the constraints, zero outside one
            block, with a_i . d >= 0 on that block's rows and b . d < 0 (up to
            tolerance), or None. Its largest entries point at the constraints
            that cannot be met together.
        iterations: Newton iterations run, as ``DualSolution.iterations`` counts them;
            0 when a candidate certificate passed before the first step.
    """

    def __init__(self, message: str, worst_constraint: int | None = None,
                 direction=None, iterations: int | None = None):
        super().__init__(message)
        self.worst_constraint = worst_constraint
        self.direction = direction
        self.iterations = iterations


class DegenerateOutcomeError(TargetcalError):
    """Outcome has zero range on the study sample (Y+ equals Y-)."""


class DegenerateDrawError(TargetcalError):
    """A simulated draw produced an empty sample or treatment arm."""


class DimensionMismatchError(TargetcalError):
    """Design column count does not match the fitted model."""


class SingularJacobianError(TargetcalError):
    """The stacked estimating-equation Jacobian is numerically singular."""


class MissingComponentsError(TargetcalError):
    """A variance computation is missing required nuisance components."""


class InvalidLevelError(TargetcalError):
    """Confidence level outside (0, 1)."""
