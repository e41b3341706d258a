"""Exception hierarchy shared across the package.

Three broad families matter to callers (and to the CLI exit codes):
precondition violations, budget exhaustion, and failed internal
verification of a construction that should have succeeded.
"""


class ExactLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(ExactLabError):
    """An operation was called outside its contract."""


class BudgetError(ExactLabError):
    """A bounded search ran out of its configured budget."""


class VerificationError(ExactLabError):
    """A constructed object failed its own correctness check."""


# -- exact numbers -----------------------------------------------------------

class RadicandMismatch(PreconditionError):
    """Arithmetic between two irrational values with different radicands."""


class DivisionByZero(PreconditionError, ZeroDivisionError):
    pass


# -- discrete sets -----------------------------------------------------------

class NoSuccessor(PreconditionError):
    pass


class NotAMember(PreconditionError):
    pass


class OracleDomainError(PreconditionError):
    """A table oracle was queried outside its key set."""


class EmptySet(PreconditionError):
    pass


class NotASegment(PreconditionError):
    """Input failed a unit-step-segment precondition."""


class ShiftTooLarge(PreconditionError):
    pass


class EpsTooLarge(PreconditionError):
    pass


class CapExceeded(BudgetError):
    """A growable set hit its index cap. Never silently truncates."""


# -- best approximations -----------------------------------------------------

class NoLeftValue(PreconditionError):
    """No oracle value below the cut within the given bound."""


class NoRightValue(PreconditionError):
    """No oracle value above the cut within the given bound."""


class CutInImage(PreconditionError):
    pass


class NotInJ(PreconditionError):
    """The ratio family is not admissible (not strictly increasing, or the
    cut lies on the materialized image)."""


# -- extraction --------------------------------------------------------------

class DegenerateOracle(PreconditionError):
    pass


class PreconditionFailed(PreconditionError):
    pass


class StepVerificationFailed(VerificationError):
    """An extraction step produced a set failing its own check; indicates a
    bug, surfaced loudly with the offending data."""


class TargetBelowOne(PreconditionError):
    pass


# -- coding ------------------------------------------------------------------

class ExpansionTerminated(PreconditionError):
    """A rational number ran out of continued-fraction digits.

    Carries the digits produced so far in ``digits``.
    """

    def __init__(self, message, digits):
        super().__init__(message)
        self.digits = list(digits)


class InsufficientDigits(PreconditionError):
    pass


class NegativeSummand(PreconditionError):
    pass


# -- piecewise-linear analysis ----------------------------------------------

class UnboundedInterval(PreconditionError):
    pass


class NotMonotone(PreconditionError):
    pass


class OutOfDomain(PreconditionError):
    pass


class NotStrictlyIncreasing(PreconditionError):
    pass
