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

    The entropy dual raises it about its first failing block (a treatment
    arm, or the study sample): it proved the block's primal infeasible with a
    Farkas certificate (``direction`` is set), or it reached its iteration
    limit or stalled, which usually means the same but proves nothing
    (``direction`` is None). Either signals an overlap violation.

    Attributes:
        worst_constraint: the block's constraint (balance column) with the
            largest relative violation at its last iterate.
        direction: unit m-vector d with a_i . d >= 0 on the block's rows and
            b . d < 0 (up to tolerance), or None. Its largest entries point
            at the balance columns that cannot be met together.
        iterations: the block's Newton iterations; 0 when a candidate
            certificate passed before its first step.
        block: the failing block's index: the arm, or 0 for the sampling problem.
    """

    def __init__(self, message: str, worst_constraint: int | None = None,
                 direction=None, iterations: int | None = None, block: int | None = None):
        super().__init__(message)
        self.worst_constraint = worst_constraint
        self.direction = direction
        self.iterations = iterations
        self.block = block


class DegenerateOutcomeError(TargetcalError):
    """Outcome has zero range on the study sample (Y+ equals Y-)."""


class DegenerateDrawError(TargetcalError):
    """A simulated draw produced an empty sample or treatment arm."""


class DimensionMismatchError(TargetcalError):
    """Design column count does not match the fitted model."""


class MissingComponentsError(TargetcalError):
    """A variance computation is missing required nuisance components."""


class InvalidLevelError(TargetcalError):
    """Confidence level outside (0, 1)."""
