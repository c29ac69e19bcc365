"""Truncated power-series arithmetic at extended precision.

A :class:`PowerSeries` is a dense list of mpmath coefficients indexed by the
power of the expansion variable, cut at a fixed truncation order.  This is
the common currency of the package: perturbative inputs, Borel transforms,
mapped series and prefactor expansions are all instances of it.

All operations are pure and return new objects; results are truncated at the
shortest input, so pad operands first when a longer result is wanted.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DiagnosticError, DomainError, UsageError
from .poly import horner
from .precision import finite_mpf, whole_number


def _mul_trunc(a, b, order):
    """Cauchy product of coefficient tuples, truncated at ``order``.

    Each output coefficient is an exact sum of rounded products, so the
    product is bit-for-bit symmetric in its arguments.
    """
    out = []
    for n in range(order + 1):
        lo = max(0, n - (len(b) - 1))
        hi = min(n, len(a) - 1)
        out.append(mp.fsum(a[i] * b[n - i] for i in range(lo, hi + 1)))
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated formal power series: ``coeffs[k]`` multiplies ``var**k``.

    ``order`` is implied by the coefficient list (``len(coeffs) - 1``).
    Coefficients are normalized to finite mpmath floats on construction.
    """

    coeffs: tuple
    var: str = "g"

    def __post_init__(self):
        coeffs = tuple(finite_mpf(c, "coeffs[%d]" % k) for k, c in enumerate(self.coeffs))
        if not coeffs:
            raise UsageError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def truncate(self, order):
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        return PowerSeries(self.coeffs[: whole_number(order, "order", 0, self.order) + 1],
                           self.var)

    def eval(self, x):
        """The sum of every coefficient's term at the finite real ``x``; a
        partial sum is ``truncate(order).eval(x)``."""
        return horner(self.coeffs, finite_mpf(x, "x"))


def multiply(a, b):
    """Cauchy product truncated at ``min(a.order, b.order)``."""
    if a.var != b.var:
        raise UsageError("variable mismatch: %r vs %r" % (a.var, b.var))
    order = min(a.order, b.order)
    return PowerSeries(_mul_trunc(a.coeffs, b.coeffs, order), a.var)


def _binomial_coeffs(p, order):
    """The list ``c_0 .. c_order`` of ``(1 - x)**p`` for an mpf ``p`` and a
    whole ``order``, unchecked: the ratio recursion behind
    :func:`binomial_series`, which the power-cut table builder also runs."""
    coeffs = [mpf(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * (k - 1 - p) / k)
    return coeffs


def binomial_series(p, order, var="x"):
    """Taylor coefficients of ``(1 - x)**p`` through ``order``.

    Uses the stable ratio recursion ``c_k = c_{k-1} (k - 1 - p) / k`` with
    ``c_0 = 1``; for non-negative integer ``p`` the tail is exactly zero.
    """
    return PowerSeries(_binomial_coeffs(finite_mpf(p, "p"), whole_number(order, "order", 0)),
                       var)


def compose(outer, inner):
    """Coefficients of ``outer(inner(x))`` through ``min(outer.order, inner.order)``.

    ``inner`` must have zero constant term, otherwise the substitution is not
    defined order by order.
    """
    if inner.coeffs[0] != 0:
        raise DomainError("inner series must have zero constant term")
    order = min(outer.order, inner.order)
    # Horner accumulation in the truncated ring.
    acc = [mpf(0)] * (order + 1)
    acc[0] = outer.coeffs[order]
    for k in range(order - 1, -1, -1):
        acc = _mul_trunc(acc, inner.coeffs, order)
        acc[0] += outer.coeffs[k]
    return PowerSeries(acc, inner.var)


def ratio_growth_constant(s, tail):
    """First-order estimate of the inverse growth rate of ``(-1)^k a^k k!`` tails.

    For coefficients behaving like ``f_k ~ (-1)^k k^b a^k k!`` the ratio
    ``-k f_{k-1} / f_k`` tends to ``A = 1/a`` up to an ``O(1/k)`` correction
    from the power prefactor.  Returns the plain average of that ratio over
    the last ``tail`` orders.
    """
    lo = s.order - whole_number(tail, "tail", 4, s.order)
    window = s.coeffs[lo:]
    for k in range(len(window) - 1):
        if window[k] == 0 or window[k + 1] == 0 or window[k] * window[k + 1] > 0:
            raise DiagnosticError(
                "coefficients do not alternate in sign over the tail "
                "(orders %d..%d)" % (lo, s.order)
            )
    acc = mpf(0)
    for k in range(lo + 1, s.order + 1):
        acc += -k * s.coeffs[k - 1] / s.coeffs[k]
    return acc / tail
