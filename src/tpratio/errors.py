"""Exception types shared across the library."""

from __future__ import annotations


class TpratioError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(TpratioError, ValueError):
    """A caller's bad argument: a value outside the documented domain."""


class RatioSyntaxError(InvalidInput):
    """Ratio text does not match the grammar; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class St0Violation(TpratioError):
    """An index appears a different number of times in numerator and denominator."""

    def __init__(self, index: int, numerator_count: int, denominator_count: int):
        self.index = index
        self.numerator_count = numerator_count
        self.denominator_count = denominator_count
        super().__init__(
            f"index {index} appears {numerator_count} time(s) in the numerator "
            f"but {denominator_count} time(s) in the denominator"
        )


class ConditionMViolation(TpratioError):
    """The majorization condition fails on some arc; carries the witness."""

    def __init__(self, arc, m_numerator, m_denominator):
        self.arc = arc
        self.m_numerator = m_numerator
        self.m_denominator = m_denominator
        super().__init__(
            f"majorization fails on arc {set(arc.members)}: "
            f"{m_numerator} does not majorize {m_denominator}"
        )


class NotTotallyPositive(TpratioError):
    """Operation requires a totally positive input matrix."""


class BudgetExceeded(TpratioError):
    """Requested computation exceeds the configured size budget."""


class InvariantViolation(TpratioError):
    """An internal invariant that should hold for every legal input failed.

    Raised loudly instead of proceeding; seeing this means either the input
    sneaked past validation or there is a genuine bug.
    """
