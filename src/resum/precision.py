"""Working-precision control for coefficient arithmetic.

Coefficients of factorially divergent series grow like ``k!`` while the
mapped polynomials cancel many leading digits against each other, so double
precision is unusable beyond order ~30.  Everything in this package therefore
computes with mpmath floats under an explicit decimal working precision;
the helpers here wrap the recurring patterns (a validated precision value,
a context manager, tolerance scales, and lossless parsing of decimal or
rational coefficient strings).
"""

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import UsageError

MIN_DIGITS = 30
DEFAULT_DIGITS = 64


@dataclass(frozen=True)
class Precision:
    """Number of decimal digits carried by all coefficient arithmetic."""

    decimal_digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if int(self.decimal_digits) != self.decimal_digits:
            raise UsageError("decimal_digits must be an integer")
        if self.decimal_digits < MIN_DIGITS:
            raise UsageError(
                "decimal_digits must be >= %d, got %r"
                % (MIN_DIGITS, self.decimal_digits)
            )

    def workdps(self):
        """Context manager installing this precision on the mpmath context."""
        return mp.workdps(self.decimal_digits)


def workdps(digits):
    """``mp.workdps`` accepting ``None`` as "keep the active precision"."""
    return mp.workdps(mp.dps if digits is None else Precision(digits).decimal_digits)


def tolerance(offset=0):
    """``10**(offset - dps)``: the standard accuracy scale at the active
    precision.  ``tolerance(6)`` is the loose scale used by root solvers,
    ``tolerance(8)`` the residual scale for polynomial roots."""
    return mpf(10) ** (offset - mp.dps)


def to_mpf(value):
    """Convert to ``mpf`` keeping every digit of strings and Fractions.

    Strings may be plain decimal literals or rationals like ``"-308/729"``;
    both parse at the active working precision.
    """
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return mpf(num.strip()) / mpf(den.strip())
        return mpf(text)
    return mpf(value)
