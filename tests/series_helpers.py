"""Series operations that only the tests use: scaling and reversion.

The lambda(g) round-trip tests build their reference inversion of
``g = rho * zeta(lambda)`` from these, independently of the package's own
inversion in ``resum.mapping``.
"""

from mpmath import mpf

from resum import DomainError, PowerSeries, multiply
from resum.precision import to_mpf


def scale(s, factor):
    """``factor * s``, coefficient by coefficient."""
    c = to_mpf(factor)
    return PowerSeries(tuple(c * x for x in s.coeffs), s.var)


def revert(s, var=None):
    """Compositional inverse of ``s``: the series ``t(w)`` with ``s(t(w)) = w``.

    Requires ``s[0] == 0`` and ``s[1] != 0``.  Solved order by order by
    matching coefficients of ``s(t(w))`` against ``w``.
    """
    if s.coeffs[0] != 0:
        raise DomainError("series reversion needs zero constant term")
    if s.order < 1 or s.coeffs[1] == 0:
        raise DomainError("series reversion needs nonzero linear term")
    t = [mpf(0), 1 / s.coeffs[1]]
    for m in range(2, s.order + 1):
        # Coefficient of w^m in s(t(w)) with the unknown t_m isolated:
        # s_1 * t_m + (terms from s_j, j >= 2, using t_1..t_{m-1}) == 0.
        # [w^m] t^j for j >= 2 never touches t_m because t has no constant term.
        tm = PowerSeries(t + [mpf(0)])
        coeff = mpf(0)
        cur = tm
        for j in range(2, m + 1):
            cur = multiply(cur, tm)
            coeff += s.coeffs[j] * cur.coeffs[m]
        t.append(-coeff / s.coeffs[1])
    return PowerSeries(t, s.var if var is None else var)
