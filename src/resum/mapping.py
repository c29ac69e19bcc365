"""The order-dependent change of variables.

A mapping ``g = rho * zeta(lambda)`` trades the physical coupling for a
variable confined to the unit interval, with an adjustable scale ``rho``.
Re-expanding a series through the mapping (optionally with a ``(1-lambda)^p``
prefactor split off, or with the covariant weight used for beta functions)
produces coefficients that are polynomials in ``rho`` -- the raw material the
order-by-order tuning in :mod:`resum.odm` works on.  The inversion
``lambda(g)`` uses the bracketed solver of :mod:`resum.poly`.
"""

import enum
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .errors import DomainError, UsageError
from .poly import bracket_solve, horner
from .precision import to_mpf, tolerance
from .series import PowerSeries, binomial_series, _mul_trunc


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
        alpha = to_mpf(self.alpha)
        p = to_mpf(self.prefactor_p)
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
    if order < 1:
        raise UsageError("order must be >= 1")
    binom = binomial_series(-mapping.alpha, order, var)
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
    """The physical coupling at a point of the mapped interval."""
    return rho * zeta_value(mapping, lam)


def lambda_of_g(g, rho, mapping):
    """Invert ``g = rho zeta(lambda)`` on the principal branch ``lambda in [0, 1)``.

    ``g = inf`` maps to ``lambda = 1`` exactly.  Finite ``g`` is solved by
    bracketed Newton on ``[0, 1 - d]``, where ``d = min(1/2, (2 + 2g/rho)^(-1/alpha))``
    puts ``zeta`` above ``g/rho`` in both families, so ``lambda = 1`` (where
    ``zeta`` is infinite) is never evaluated; accurate to ``10^(6 - digits)``
    relative.
    """
    rho = to_mpf(rho)
    if not rho > 0:
        raise UsageError("rho must be positive")
    if g == mp.inf:
        return mpf(1)
    g = to_mpf(g)
    if not g >= 0:
        raise DomainError("inversion implemented on the real branch g >= 0 only, got %s" % g)
    if g == 0:
        return mpf(0)
    alpha = mapping.alpha
    w = g / rho
    hi = 1 - min(mpf("0.5"), (2 + 2 * w) ** (-1 / alpha))
    if hi == 1:
        raise DomainError("g/rho = %s is too large to resolve lambda below 1 at %d digits"
                          % (mp.nstr(w, 8), mp.dps))
    if mapping.family is MappingFamily.POWER_CUT:
        def f(lam):
            return lam * (1 - lam) ** (-alpha) - w

        def df(lam):
            return (1 - lam) ** (-alpha - 1) * (1 + (alpha - 1) * lam)
    else:
        def f(lam):
            return (1 - lam) ** (-alpha) - 1 - w

        def df(lam):
            return alpha * (1 - lam) ** (-alpha - 1)
    return bracket_solve(f, mpf(0), hi, tolerance(6), df=df)


@dataclass(frozen=True)
class RhoPolynomialTable:
    """Coefficients of the mapped series as polynomials in the scale ``rho``.

    ``polys[k][j]`` multiplies ``rho^j`` in the order-``k`` lambda
    coefficient; each polynomial has degree at most ``k``.
    """

    polys: tuple
    mapping: MappingSpec
    source_order: int
    source: PowerSeries = field(repr=False, compare=False, default=None)

    def eval_poly(self, k, rho):
        return horner(self.polys[k], rho)

    def lambda_coeffs(self, rho, order=None):
        """The numeric lambda-series ``P_0(rho) .. P_order(rho)``."""
        if order is None:
            order = self.source_order
        return tuple(self.eval_poly(k, rho) for k in range(order + 1))


def build_rho_table(source, mapping, order=None):
    """Expand ``source`` through the mapping into polynomials in ``rho``.

    Plain case: the table holds the series of
    ``(1-lambda)^(-p) * source(rho zeta(lambda))``, i.e.
    ``polys[k][n] = f_n [lambda^k] (1-lambda)^(-p) zeta^n``.
    Covariant case (source starting at first order):
    ``(1-lambda)^(alpha+1)/(alpha rho) * source(rho zeta(lambda))`` with the
    leading ``rho`` cancelled against the source's vanishing constant term.
    """
    if source.order < 1:
        raise UsageError("source series must have order >= 1")
    if mapping.beta_covariant and source.coeffs[0] != 0:
        raise UsageError("beta-covariant tables need a source with zero constant term")
    K = source.order if order is None else min(order, source.order)
    if mapping.beta_covariant:
        weight = binomial_series(mapping.alpha + 1, K, "lambda")
    else:
        weight = binomial_series(-mapping.prefactor_p, K, "lambda")
    zeta = zeta_series(mapping, K)
    polys = [[mpf(0)] * (k + 1) for k in range(K + 1)]
    shift = 1 if mapping.beta_covariant else 0
    cur = list(weight.coeffs)  # running product weight * zeta^n
    for n in range(0, K + 1):
        if n > 0:
            cur = _mul_trunc(cur, zeta.coeffs, K)
        fn = source.coeffs[n]
        if mapping.beta_covariant:
            if n == 0:
                continue
            fn = fn / mapping.alpha
        if fn == 0:
            continue
        col = n - shift
        # cur[k] vanishes below k = n because zeta starts at first order.
        for k in range(n, K + 1):
            polys[k][col] += fn * cur[k]
    return RhoPolynomialTable(
        polys=tuple(tuple(p) for p in polys),
        mapping=mapping,
        source_order=K,
        source=source,
    )
