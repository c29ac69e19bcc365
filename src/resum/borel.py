"""Borel-Leroy summation with conformal mapping, plus the Borel-Pade variant.

The transform divides coefficient ``k`` by ``Gamma(k + sigma + 1)``, giving a
series with a finite radius of convergence ``1/a`` in the Borel plane.  The
truncated transform is continued beyond that circle either by re-expanding in
the variable of the standard cut-plane-to-disk map ``z = (4/a) u / (1-u)^2``
or by a rational approximant; the Laplace integral with weight
``t^sigma e^(-t)`` then restores the function.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import ResourceError, SummabilityError, UsageError
from .pade import pade_fit
from .poly import horner, polynomial_real_roots
from .precision import finite_mpf, to_mpf, tolerance
from .series import PowerSeries, compose


@dataclass(frozen=True)
class BorelConfig:
    """Parameters of the transform, the map and the Laplace quadrature."""

    a: object                    # Borel-plane singularity parameter (> 0)
    sigma: object = 0            # Leroy shift in the Gamma divisor (>= 0)
    truncation: int = None       # mapped-series truncation order (default: all)
    quad_rel_tol: object = None  # relative tolerance (default 10^(8 - digits))

    def __post_init__(self):
        a = finite_mpf(self.a, "a")
        sigma = finite_mpf(self.sigma, "sigma")
        if not a > 0:
            raise UsageError("singularity parameter a must be positive")
        if sigma < 0:
            raise UsageError("Leroy parameter sigma must be >= 0")
        if self.truncation is not None and self.truncation < 1:
            raise UsageError("truncation must be >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma", sigma)
        if self.quad_rel_tol is not None:
            object.__setattr__(self, "quad_rel_tol",
                               finite_mpf(self.quad_rel_tol, "quad_rel_tol"))

    def rel_tol(self):
        return self.quad_rel_tol if self.quad_rel_tol is not None else tolerance(8)


@dataclass(frozen=True)
class BorelSumResult:
    """Value plus the separated truncation and quadrature error estimates."""

    value: object
    truncation_error: object
    quadrature_error: object


def borel_leroy_transform(s, sigma):
    """Divide coefficient ``k`` by ``Gamma(k + sigma + 1)``."""
    sigma = finite_mpf(sigma, "sigma")
    if sigma < 0:
        raise UsageError("sigma must be >= 0")
    return PowerSeries(
        tuple(c / mp.gamma(k + sigma + 1) for k, c in enumerate(s.coeffs)),
        s.var,
    )


def _map_series(order, a, var="u"):
    """Taylor series of ``z(u) = (4/a) u / (1-u)^2`` through ``order``."""
    four_over_a = 4 / to_mpf(a)
    return PowerSeries(
        (mpf(0),) + tuple(four_over_a * k for k in range(1, order + 1)), var
    )


def u_of_z(z, a):
    """Inverse map ``u = (sqrt(1+az) - 1) / (sqrt(1+az) + 1)``; sends the cut
    ``z <= -1/a`` onto the unit circle and fixes the origin."""
    root = mp.sqrt(1 + to_mpf(a) * z)
    return (root - 1) / (root + 1)


def conformal_map_coeffs(b, a):
    """Re-expand a Borel-plane series in the disk variable ``u``."""
    if not to_mpf(a) > 0:
        raise UsageError("singularity parameter a must be positive")
    return compose(b, _map_series(b.order, a))


def _laplace_quad(f, sigma, rel_tol):
    """Adaptive Laplace integral ``int_0^inf t^sigma e^-t f(t) dt``.

    The weight decides the upper cutoff: beyond ``t_max`` the incomplete-Gamma
    tail of ``t^sigma e^-t max|f|`` is below tolerance and is dropped.  The
    tanh-sinh node budget is 2^10 levels, then 2^12 if that misses
    ``rel_tol``.
    """
    # Solve t - sigma ln t = ln(1/tol) + margin for the cutoff.
    target = -mp.log(rel_tol) + mp.log(mpf(10)) * 6
    t_max = target + 5
    for _ in range(60):
        nxt = target + sigma * mp.log(t_max)
        if abs(nxt - t_max) < mpf("0.5"):
            break
        t_max = nxt

    def integrand(t):
        return t ** sigma * mp.exp(-t) * f(t)

    for degree in (10, 12):
        val, err = mp.quad(integrand, [0, t_max / 16, t_max], error=True,
                           maxdegree=degree)
        if err <= rel_tol * max(abs(val), mpf(1)):
            return val, err
    raise ResourceError(
        "Laplace quadrature stuck at error %s (tolerance %s)"
        % (mp.nstr(err, 3), mp.nstr(rel_tol, 3))
    )


def borel_sum(s, cfg, g, full_output=False):
    """Sum ``s`` at ``g > 0`` through the mapped Borel-Leroy transform.

    The Borel transform is truncated at ``cfg.truncation``, re-expanded in
    the disk variable, and evaluated at ``u(g t)`` inside the Laplace
    integral.  With ``full_output`` the mapped-series truncation error (the
    difference against the order ``K-1`` result) and the quadrature error
    estimate are returned alongside the value.
    """
    g = to_mpf(g)
    if not g > 0:
        raise UsageError("borel_sum needs g > 0")
    K = s.order if cfg.truncation is None else min(cfg.truncation, s.order)
    if K < 1:
        raise UsageError("need at least two coefficients")
    b = borel_leroy_transform(s.truncate(K), cfg.sigma)
    mapped = conformal_map_coeffs(b, cfg.a)
    rel_tol = cfg.rel_tol()

    def value_at(order):
        coeffs = mapped.coeffs[: order + 1]

        def f(t):
            return horner(coeffs, u_of_z(g * t, cfg.a))

        return _laplace_quad(f, cfg.sigma, rel_tol)

    val, quad_err = value_at(K)
    if not full_output:
        return val
    val_prev, _ = value_at(K - 1)
    return BorelSumResult(
        value=val,
        truncation_error=abs(val - val_prev),
        quadrature_error=quad_err,
    )


def borel_pade_sum(s, sigma, L, M, g, full_output=False):
    """Sum ``s`` at ``g > 0`` with a [L/M] rational Borel-Leroy transform.

    The Laplace integral runs to ``10^(8 - digits)`` relative.  Denominator
    zeros on the positive real axis make it ill-defined and raise
    :class:`SummabilityError`.
    """
    g = to_mpf(g)
    if not g > 0:
        raise UsageError("borel_pade_sum needs g > 0")
    if L + M > s.order:
        raise UsageError("need L + M <= series order")
    b = borel_leroy_transform(s, sigma)
    approx = pade_fit(b, L, M)
    if M > 0:
        try:
            poles = polynomial_real_roots(approx.denominator)
        except UsageError:
            poles = []
        positive = [p for p in poles if p > 0]
        if positive:
            raise SummabilityError(
                "Borel transform has a positive-axis pole at z = %s"
                % mp.nstr(min(positive), 8)
            )
    num, den = approx.numerator, approx.denominator

    def f(t):
        z = g * t
        return horner(num, z) / horner(den, z)

    val, quad_err = _laplace_quad(f, to_mpf(sigma), tolerance(8))
    if not full_output:
        return val
    return BorelSumResult(value=val, truncation_error=mpf(0), quadrature_error=quad_err)
