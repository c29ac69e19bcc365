"""Working-precision control for coefficient arithmetic.

Coefficients of factorially divergent series grow like ``k!`` while the
mapped polynomials cancel many leading digits against each other, so double
precision is unusable beyond order ~30.  Everything in this package therefore
computes with mpmath floats under an explicit decimal working precision;
the helpers here wrap the recurring patterns (a validated precision
context manager, tolerance scales, lossless parsing of decimal or rational
coefficient strings, and printing numbers).
"""

from fractions import Fraction

from mpmath import mp, mpf

from .errors import UsageError

MIN_DIGITS = 30
DEFAULT_DIGITS = 64


def workdps(digits):
    """``mp.workdps(digits)`` for a whole number of digits >= ``MIN_DIGITS``;
    anything else raises :class:`UsageError` naming the value."""
    if not isinstance(digits, int) or digits < MIN_DIGITS:
        raise UsageError("precision must be a whole number >= %d, got %r"
                         % (MIN_DIGITS, digits))
    return mp.workdps(digits)


def tolerance(offset=0):
    """``10**(offset - dps)``: the standard accuracy scale at the active
    precision.  ``tolerance(6)`` is the loose scale used by root solvers,
    ``tolerance(8)`` the residual scale for polynomial roots."""
    return mpf(10) ** (offset - mp.dps)


def to_mpf(value):
    """Convert to ``mpf`` keeping every digit of strings and Fractions.

    Strings may be plain decimal literals or rationals like ``"-308/729"``;
    both parse at the active working precision.  Text that is not a number,
    or a zero denominator, raises :class:`UsageError` naming the text.
    """
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            return mpf(num.strip()) / mpf(den.strip()) if slash else mpf(num)
        except (ValueError, ZeroDivisionError):
            raise UsageError("cannot read %r as a number" % value) from None
    return mpf(value)


def finite_mpf(value, name):
    """``to_mpf(value)``, raising :class:`UsageError` that names ``name``
    unless the result is finite."""
    x = to_mpf(value)
    if not mp.isfinite(x):
        raise UsageError("%s must be finite, got %s" % (name, x))
    return x


def nstr(x, digits):
    """``mp.nstr(x, digits)``, and ``""`` for ``None`` (a blank table cell)."""
    return "" if x is None else mp.nstr(x, digits)
