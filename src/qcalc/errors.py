"""Exception hierarchy and warning categories for qcalc."""

from __future__ import annotations

__all__ = [
    "QcalcError",
    "DomainError",
    "PoleError",
    "SingularityError",
    "ParseError",
    "UnknownBuiltinError",
    "MissingDerivativeError",
    "DegenerateSecantError",
    "InverseMismatchError",
    "ToleranceWarning",
    "EVAL_ERRORS",
]


class QcalcError(Exception):
    """Base class for all qcalc errors."""


class DomainError(QcalcError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(QcalcError, ValueError):
    """Evaluation exactly at the pole x = -1/(1-q) of the deformation."""


class SingularityError(QcalcError, ValueError):
    """Integration range crosses the pole and the mode forbids reflection."""


class ParseError(QcalcError, ValueError):
    """Expression text failed to parse.

    Attributes:
        offset: byte offset of the offending input position (UTF-8).
        expected: tuple of token descriptions that would have been legal.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            return f"{base} at byte offset {self.offset} (expected {', '.join(self.expected)})"
        return f"{base} at byte offset {self.offset}"


class UnknownBuiltinError(QcalcError, KeyError):
    """Requested builtin function name is not registered."""


class MissingDerivativeError(QcalcError, ValueError):
    """Closed-form operator requires a function with an attached derivative."""


class DegenerateSecantError(QcalcError, ValueError):
    """Secant endpoints collide in the transformed coordinate (no finite slope)."""


class InverseMismatchError(QcalcError, ValueError):
    """Claimed inverse function fails the round-trip check at the anchor."""


class ToleranceWarning(UserWarning):
    """A numerical routine finished without reaching its requested tolerance."""


# What evaluating an expression raises at a point outside its domain: the
# errors a compiled function's domain predicate and the derivative stencils
# treat as "outside".
EVAL_ERRORS = (DomainError, PoleError, OverflowError, ValueError, ZeroDivisionError)
