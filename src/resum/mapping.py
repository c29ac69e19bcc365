"""The order-dependent change of variables.

A mapping ``g = rho * zeta(lambda)`` trades the physical coupling for a
variable confined to the unit interval, with an adjustable scale ``rho``.
Re-expanding a series through the mapping (optionally with a ``(1-lambda)^p``
prefactor split off, or with the covariant weight used for beta functions)
produces coefficients that are polynomials in ``rho`` -- the raw material the
order-by-order tuning in :mod:`resum.odm` works on.  The shifted-power
family inverts in closed form; the power-cut inversion ``lambda(g)`` uses the
bracketed solver of :mod:`resum.poly`.
"""

import enum
from dataclasses import dataclass, field
from itertools import zip_longest

from mpmath import mp, mpc, mpf

from .errors import DomainError, UsageError
from .poly import Polynomial, bracket_solve
from .precision import finite_mpf, finite_point, member, positive_mpf, to_mpf, tolerance, whole_number
from .series import PowerSeries, binomial_series, _binomial_coeffs, _mul_trunc


class MappingFamily(enum.Enum):
    # g = rho * lambda / (1 - lambda)^alpha: power-law growth with a cut
    POWER_CUT = "power-cut"
    # g = rho * ((1 - lambda)^(-alpha) - 1): no new singularity at lambda = 1
    SHIFTED_POWER = "shifted-power"


@dataclass(frozen=True)
class MappingSpec:
    """A mapping family with its exponent, prefactor and covariance flag.

    ``prefactor_p`` declares the split ``physical(g) = (1-lambda)^p * f(lambda)``
    whose lambda-side series the table construction expands.
    ``beta_covariant`` instead applies the flow-covariance weight
    ``(1-lambda)^(alpha+1) / (alpha rho)``; it requires a source that starts
    at first order and excludes a plain prefactor.
    """

    family: MappingFamily
    alpha: object
    prefactor_p: object = 0
    beta_covariant: bool = False

    def __post_init__(self):
        member(MappingFamily, self.family, "family")
        alpha = finite_mpf(self.alpha, "alpha")
        p = finite_mpf(self.prefactor_p, "prefactor_p")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "prefactor_p", p)
        if self.family is MappingFamily.POWER_CUT and not alpha > 1:
            raise UsageError("power-cut mapping requires alpha > 1")
        if self.family is MappingFamily.SHIFTED_POWER and not alpha > 0:
            raise UsageError("shifted-power mapping requires alpha > 0")
        if self.beta_covariant and p != 0:
            raise UsageError("beta-covariant tables exclude a plain prefactor")
        if self.beta_covariant and self.family is not MappingFamily.SHIFTED_POWER:
            raise UsageError(
                "the covariant weight (1-lambda)^(alpha+1)/(alpha rho) belongs "
                "to the shifted-power family"
            )


def zeta_series(mapping, order, var="lambda"):
    """Taylor coefficients of the mapping profile ``zeta(lambda)`` through ``order``.

    Power-cut: ``lambda (1-lambda)^(-alpha)``; shifted-power:
    ``(1-lambda)^(-alpha) - 1`` (linear coefficient ``alpha``; the scale is
    absorbed by ``rho``, so rho values are not comparable across families).
    """
    binom = binomial_series(-mapping.alpha, whole_number(order, "order", 1), var)
    if mapping.family is MappingFamily.POWER_CUT:
        coeffs = (mpf(0),) + binom.coeffs[:order]
    else:
        coeffs = (mpf(0),) + binom.coeffs[1:]
    return PowerSeries(coeffs, var)


def zeta_value(mapping, lam):
    """``zeta`` evaluated pointwise; accepts real or complex ``lambda != 1``."""
    one_minus = 1 - lam
    if mapping.family is MappingFamily.POWER_CUT:
        return lam * one_minus ** (-mapping.alpha)
    return one_minus ** (-mapping.alpha) - 1


def g_of_lambda(lam, rho, mapping):
    """The physical coupling at a point of the mapped interval.

    A real ``lambda`` must be finite and below 1, where ``zeta`` is infinite
    (:class:`DomainError`), and a real ``rho`` positive; a complex ``lambda``
    or ``rho`` (a complex-pair fixed point) is used as given."""
    if not isinstance(rho, mpc):
        rho = positive_mpf(rho, "rho")
    if not isinstance(lam, mpc):
        lam = finite_mpf(lam, "lambda")
        if not lam < 1:
            raise DomainError("lambda must lie below 1 (g is infinite at lambda = 1), "
                              "got lambda = %s" % lam)
    return rho * zeta_value(mapping, lam)


def lambda_of_g(g, rho, mapping):
    """Invert ``g = rho zeta(lambda)`` on the principal branch ``lambda in [0, 1)``.

    ``g = inf`` maps to ``lambda = 1`` exactly.  The shifted-power family
    inverts in closed form, ``lambda = 1 - (1 + g/rho)^(-1/alpha)``, computed
    as ``-expm1(-log1p(g/rho)/alpha)`` so small ``g/rho`` does not cancel; it
    also carries a complex-pair ``rho`` into the complex plane.  The
    power-cut family needs a real ``rho`` and is solved by Anderson-Bjorck
    steps on ``[0, min(g/rho, 1 - d)]``: ``zeta(x) >= x`` puts the root below
    ``g/rho``, and ``d = min(1/2, (2 + 2g/rho)^(-1/alpha))`` puts ``zeta``
    above ``g/rho``, so ``lambda = 1`` (where ``zeta`` is infinite) is never
    evaluated; accurate to ``10^(6 - digits)`` relative.
    """
    shifted = mapping.family is MappingFamily.SHIFTED_POWER
    if isinstance(rho, mpc):
        if not shifted:
            raise UsageError("a complex-pair rho needs the shifted-power family")
    else:
        rho = positive_mpf(rho, "rho")
    g = to_mpf(g, "g")
    if g == mp.inf:
        return mpf(1)
    if not g >= 0:
        raise DomainError("inversion implemented on the real branch g >= 0 only, got %s" % g)
    if g == 0:
        return mpf(0)
    alpha = mapping.alpha
    w = g / rho
    if shifted:
        lam = -mp.expm1(-mp.log1p(w) / alpha)
    else:
        hi = min(w, 1 - min(mpf("0.5"), (2 + 2 * w) ** (-1 / alpha)))
        lam = hi if hi == 1 else bracket_solve(
            lambda x: zeta_value(mapping, x) - w, mpf(0), hi, tolerance(6))
    if lam == 1:
        raise DomainError("g/rho = %s is too large to resolve lambda below 1 at %d digits"
                          % (mp.nstr(w, 8), mp.dps))
    return lam


@dataclass(frozen=True)
class RhoPolynomialTable:
    """Coefficients of the mapped series as polynomials in the scale ``rho``.

    ``rows[k]`` is the order-``k`` lambda coefficient ``P_k``, a
    :class:`resum.poly.Polynomial` of degree at most ``k`` whose ``P_k[j]``
    (its ``coeffs[j]``) multiplies ``rho^j``.  The constructor takes each
    row as a sequence of coefficients and makes it a ``Polynomial`` once (a
    coefficient that is not a finite mpf is a :class:`UsageError` naming
    its row); ``source_order`` is the last order, ``len(rows) - 1``.
    """

    rows: tuple
    mapping: MappingSpec
    _prefix: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(
            Polynomial(row, "rows[%d]" % k) for k, row in enumerate(self.rows)))

    def prefix_row(self, k):
        """``Q_k``, the :class:`resum.poly.Polynomial` of the exact column
        sums ``Q_k[n] = sum_{l<=k} P_l[n]``: row ``k`` of the table at
        prefactor ``p + 1``, as ``sum_{l<=k} [lambda^l] G = [lambda^k]
        G/(1-lambda)``.  Built lazily through ``k``, each row from the last
        and ``rows[l]`` by exact mpf additions, and kept."""
        prefix = self._prefix
        for l in range(len(prefix), whole_number(k, "k", 0, self.source_order) + 1):
            last = prefix[-1].coeffs if prefix else ()
            prefix.append(Polynomial(mp.fadd(q, c, exact=True) for q, c in zip_longest(
                last, self.rows[l].coeffs, fillvalue=mpf(0))))
        return prefix[k]

    @property
    def source_order(self):
        return len(self.rows) - 1

    def lambda_coeffs(self, rho, order):
        """The numeric lambda-series ``P_0(rho) .. P_order(rho)``, ``order``
        in ``0..source_order``, each from its row evaluator: a real ``rho``
        is read at the working precision, and each row evaluated there in
        integers and rounded once; a complex ``rho`` goes through
        :func:`resum.poly.horner`.
        """
        rows = self.rows[:whole_number(order, "order", 0, self.source_order) + 1]
        rho = finite_point(rho, "rho")
        return tuple(row(rho) for row in rows)


def build_rho_table(source, mapping):
    """Expand ``source`` through the mapping into polynomials in ``rho``.

    Plain case: the table holds the series of
    ``(1-lambda)^(-p) * source(rho zeta(lambda))``, i.e.
    ``P_k[n] = f_n [lambda^k] (1-lambda)^(-p) zeta^n``.
    Covariant case (source starting at first order):
    ``(1-lambda)^(alpha+1)/(alpha rho) * source(rho zeta(lambda))`` with the
    leading ``rho`` cancelled against the source's vanishing constant term.

    Power-cut columns have a closed form: ``(1-lambda)^(-p) zeta^n =
    lambda^n (1-lambda)^(-(p + n alpha))``, so column ``n`` is ``f_n`` times
    the binomial recursion's coefficients, stored straight into the rows.
    The shifted-power ``zeta^n = ((1-lambda)^(-alpha) - 1)^n`` has none, so
    that family keeps the running product of the weight with ``zeta``.
    """
    if source.order < 1:
        raise UsageError("source series must have order >= 1")
    if mapping.beta_covariant and source.coeffs[0] != 0:
        raise UsageError("beta-covariant tables need a source with zero constant term")
    K = source.order
    rows = [[mpf(0)] * (k + 1) for k in range(K + 1)]
    if mapping.family is MappingFamily.POWER_CUT:
        for n, fn in enumerate(source.coeffs):
            if fn != 0:
                col = _binomial_coeffs(-(mapping.prefactor_p + n * mapping.alpha), K - n)
                for k, c in enumerate(col, n):
                    rows[k][n] = fn * c
    else:
        shift = 1 if mapping.beta_covariant else 0
        zeta = zeta_series(mapping, K).coeffs
        # Running product weight * zeta^n.
        cur = list(binomial_series(mapping.alpha + 1 if shift else -mapping.prefactor_p, K).coeffs)
        for n, fn in enumerate(source.coeffs):
            if n > 0:
                cur = _mul_trunc(cur, zeta, K)
            if shift:
                fn = fn / mapping.alpha  # f_0 = 0 leaves no rho^(-1) column
            if fn != 0:
                # cur[k] vanishes below k = n because zeta starts at first order.
                for k in range(n, K + 1):
                    rows[k][n - shift] += fn * cur[k]
    return RhoPolynomialTable(rows, mapping)
