"""Truncated power-series arithmetic at extended precision.

A :class:`PowerSeries` is a dense list of mpmath coefficients indexed by the
power of the expansion variable, cut at a fixed truncation order.  This is
the common currency of the package: perturbative inputs, Borel transforms,
mapped series and prefactor expansions are all instances of it.

All operations are pure and return new objects; results are truncated at the
shortest input, so pad operands first when a longer result is wanted.
"""

from dataclasses import dataclass

from mpmath import isfinite, mp, mpf

from .errors import DiagnosticError, DomainError, UsageError
from .poly import derivative_coeffs, horner
from .precision import to_mpf


def _as_coeffs(values):
    return tuple(to_mpf(c) for c in values)


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
        coeffs = _as_coeffs(self.coeffs)
        if not coeffs:
            raise UsageError("a series needs at least its constant coefficient")
        for k, c in enumerate(coeffs):
            if not isfinite(c):
                raise UsageError("coefficient of %s^%d is not finite" % (self.var, k))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def truncate(self, order):
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        if order < 0 or order > self.order:
            raise UsageError("cannot truncate order-%d series at %d" % (self.order, order))
        return PowerSeries(self.coeffs[: order + 1], self.var)

    def pad(self, order):
        """Extend with zero coefficients up to ``order``."""
        if order < self.order:
            raise UsageError("pad target %d below current order %d" % (order, self.order))
        return PowerSeries(self.coeffs + (mpf(0),) * (order - self.order), self.var)

    def eval(self, x, terms=None):
        """Partial sum of the first ``terms`` coefficients (all by default) at ``x``."""
        return horner(self.coeffs if terms is None else self.coeffs[:max(terms, 0)], x)


def multiply(a, b):
    """Cauchy product truncated at ``min(a.order, b.order)``."""
    if a.var != b.var:
        raise UsageError("variable mismatch: %r vs %r" % (a.var, b.var))
    order = min(a.order, b.order)
    return PowerSeries(_mul_trunc(a.coeffs, b.coeffs, order), a.var)


def add(a, b):
    if a.var != b.var:
        raise UsageError("variable mismatch: %r vs %r" % (a.var, b.var))
    order = min(a.order, b.order)
    return PowerSeries(
        tuple(a.coeffs[k] + b.coeffs[k] for k in range(order + 1)), a.var
    )


def scale(s, factor):
    c = to_mpf(factor)
    return PowerSeries(tuple(c * x for x in s.coeffs), s.var)


def binomial_series(p, order, var="x"):
    """Taylor coefficients of ``(1 - x)**p`` through ``order``.

    Uses the stable ratio recursion ``c_k = c_{k-1} (k - 1 - p) / k`` with
    ``c_0 = 1``; for non-negative integer ``p`` the tail is exactly zero.
    """
    if order < 0:
        raise UsageError("order must be >= 0")
    p = to_mpf(p)
    coeffs = [mpf(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * (k - 1 - p) / k)
    return PowerSeries(coeffs, var)


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


def derivative(s):
    """Termwise derivative; the order drops by one (a constant gives zero)."""
    return PowerSeries(derivative_coeffs(s.coeffs) or (mpf(0),), s.var)


def reciprocal(s):
    """Series of ``1/s`` through ``s.order``; requires nonzero constant term."""
    if s.coeffs[0] == 0:
        raise DomainError("cannot invert a series with zero constant term")
    inv = [1 / s.coeffs[0]]
    for k in range(1, s.order + 1):
        acc = mpf(0)
        for j in range(1, k + 1):
            acc += s.coeffs[j] * inv[k - j]
        inv.append(-acc / s.coeffs[0])
    return PowerSeries(inv, s.var)


def revert(s, var=None):
    """Compositional inverse of ``s``: the series ``t(w)`` with ``s(t(w)) = w``.

    Requires ``s[0] == 0`` and ``s[1] != 0``.  Solved order by order by
    matching coefficients of ``s(t(w))`` against ``w``.
    """
    if s.coeffs[0] != 0:
        raise DomainError("series reversion needs zero constant term")
    if s.coeffs[1] == 0:
        raise DomainError("series reversion needs nonzero linear term")
    order = s.order
    out_var = var if var is not None else s.var
    t = [mpf(0), 1 / s.coeffs[1]]
    for m in range(2, order + 1):
        # Coefficient of w^m in s(t(w)) with the unknown t_m isolated:
        # s_1 * t_m + (terms from s_j, j >= 2, using t_1..t_{m-1}) == 0.
        # [w^m] t^j for j >= 2 never touches t_m because t has no constant term.
        tm = t + [mpf(0)]
        coeff = mpf(0)
        cur = tm[: m + 1]
        for j in range(2, m + 1):
            cur = _mul_trunc(cur, tm[: m + 1], m)
            coeff += s.coeffs[j] * cur[m]
        t.append(-coeff / s.coeffs[1])
    return PowerSeries(t, out_var)


def ratio_growth_constant(s, tail):
    """First-order estimate of the inverse growth rate of ``(-1)^k a^k k!`` tails.

    For coefficients behaving like ``f_k ~ (-1)^k k^b a^k k!`` the ratio
    ``-k f_{k-1} / f_k`` tends to ``A = 1/a`` up to an ``O(1/k)`` correction
    from the power prefactor.  Returns the plain average of that ratio over
    the last ``tail`` orders.
    """
    if tail < 4:
        raise UsageError("tail must be >= 4")
    if s.order < tail:
        raise UsageError("series order %d shorter than tail %d" % (s.order, tail))
    lo = s.order - tail
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
