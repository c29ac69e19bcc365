"""Working-precision control for coefficient arithmetic.

Coefficients of factorially divergent series grow like ``k!`` while the
mapped polynomials cancel many leading digits against each other, so double
precision is unusable beyond order ~30.  Everything in this package therefore
computes with mpmath floats under an explicit decimal working precision;
the helpers here wrap the recurring patterns (a validated precision
context manager, tolerance scales, lossless parsing of decimal or rational
coefficient strings, and printing numbers).

This module is also the one reader of public inputs: every entry of the
package turns a number, an order or a choice into a checked value through
:func:`to_mpf`, :func:`finite_mpf`, :func:`finite_point` (which passes an
mpc through), :func:`positive_mpf`, :func:`whole_number` or :func:`member`,
each raising :class:`UsageError` that names the parameter.
"""

from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import UsageError

MIN_DIGITS = 30
DEFAULT_DIGITS = 64


def workdps(digits):
    """``mp.workdps(digits)`` for a whole number of digits >= ``MIN_DIGITS``;
    anything else raises :class:`UsageError` naming the value."""
    return mp.workdps(whole_number(digits, "precision", MIN_DIGITS))


def tolerance(offset=0):
    """``10**(offset - dps)``: the standard accuracy scale at the active
    precision.  ``tolerance(6)`` is the loose scale used by root solvers,
    ``tolerance(8)`` the residual scale for polynomial roots."""
    return mpf(10) ** (offset - mp.dps)


def to_mpf(value, name=None):
    """Convert to ``mpf`` keeping every digit of strings and Fractions.

    Strings may be plain decimal literals or rationals like ``"-308/729"``;
    both parse at the active working precision, and a Fraction or a ``p/q``
    of two integers is rounded once.  Text that is not a number, a zero
    denominator, or a value that is not real (a complex, ``None``) raises
    :class:`UsageError` naming the parameter ``name``.
    """
    if isinstance(value, Fraction):
        return mp.fdiv(value.numerator, value.denominator)
    try:
        if isinstance(value, str):
            num, slash, den = value.strip().partition("/")
            if not slash:
                return mpf(num)
            try:
                return mp.fdiv(int(num), int(den))
            except ValueError:  # a decimal part
                return mpf(num.strip()) / mpf(den.strip())
        return mpf(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError("%s must be a real number, got %r" % (name or "value", value)) from None


def finite_mpf(value, name):
    """``to_mpf(value)``, raising :class:`UsageError` that names ``name``
    unless the result is finite."""
    x = to_mpf(value, name)
    if not mp.isfinite(x):
        raise UsageError("%s must be finite, got %s" % (name, x))
    return x


def finite_point(value, name):
    """An mpc as it is; any other value through :func:`finite_mpf`."""
    return value if isinstance(value, mpc) else finite_mpf(value, name)


def positive_mpf(value, name):
    """:func:`finite_mpf`, and also :class:`UsageError` unless the value is
    above zero."""
    x = finite_mpf(value, name)
    if not x > 0:
        raise UsageError("%s must be positive, got %s" % (name, x))
    return x


def whole_number(value, name, low, high=None):
    """``value`` when it is an ``int`` in ``low..high`` (no upper end for
    ``high=None``); anything else, ``2.0`` and ``True`` included, raises
    :class:`UsageError` naming ``name``."""
    if isinstance(value, int) and not isinstance(value, bool) \
            and low <= value and (high is None or value <= high):
        return value
    bounds = ">= %d" % low if high is None else "in %d..%d" % (low, high)
    raise UsageError("%s must be a whole number %s, got %r" % (name, bounds, value))


def member(enum, value, name):
    """``value`` when it is a member of ``enum``; anything else, the member's
    string value included, raises :class:`UsageError` naming ``name``."""
    if isinstance(value, enum):
        return value
    raise UsageError("%s must be a %s member (%s), got %r"
                     % (name, enum.__name__, ", ".join(m.name for m in enum), value))


def nstr(x, digits):
    """``mp.nstr(x, digits)``, and ``""`` for ``None`` (a blank table cell)."""
    return "" if x is None else mp.nstr(x, digits)
