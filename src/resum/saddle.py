"""Convergence-constant predictions from the steepest-descent analysis.

For power-cut mappings applied to series with a factorial-times-geometric
tail, the decay rate of the tuned polynomials is governed by a saddle point
at negative ``lambda``.  Eliminating the scale leaves a two-equation system
in ``(mu, lambda)`` whose solution predicts ``R = mu * A`` for the asymptotic
scale trajectory ``rho_k ~ R / k``.  The d=0 partition function admits an
exact one-equation version with an explicit geometric rate.  Both scalar
equations go to the Anderson-Bjorck solver of :mod:`resum.poly`.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import SolverError, UsageError
from .poly import bracket_solve
from .precision import finite_mpf, positive_mpf, tolerance


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of the two saddle equations for one mapping exponent."""

    alpha: object
    mu: object
    lambda_saddle: object
    residuals: tuple

    def __post_init__(self):
        if not (-1 < self.lambda_saddle < 0):
            raise SolverError("saddle lambda outside (-1, 0)")
        if not self.mu > 0:
            raise SolverError("saddle mu must be positive")


def solve_saddle(alpha):
    """Solve the coupled saddle system at mapping exponent ``alpha > 1``.

    With ``Phi = (1-lambda)^alpha / lambda - mu ln(-lambda)``, ``Phi' = 0``
    fixes ``mu`` as a function of the saddle ``lambda``; substituting into
    ``Phi = 0`` leaves a scalar root problem on ``(-1, 0)``, bracketed by
    scanning for a sign change and solved by false position.  Among multiple
    sign changes the one closest to the origin with positive ``mu`` is kept
    (the other branches are spurious).  The residuals are ``|Phi'|``, by
    numerical differentiation, and ``|Phi|``.
    """
    alpha = finite_mpf(alpha, "alpha")
    if not alpha > 1:
        raise UsageError("saddle analysis requires alpha > 1")

    def mu_of_lambda(lam):
        return -(1 / lam) * (1 - lam) ** (alpha - 1) * ((alpha - 1) * lam + 1)

    def phi(lam, mu):
        return (1 / lam) * (1 - lam) ** alpha - mu * mp.log(-lam)

    def h(lam):
        return phi(lam, mu_of_lambda(lam))

    # Scan from the origin outward; physical branch sits at small |lambda|.
    grid = [mpf(-1) * i / 200 for i in range(1, 180)]
    bracket = None
    prev_lam, prev_val = None, None
    for lam in grid:
        val = h(lam)
        if prev_val is not None and val * prev_val < 0:
            bracket = (prev_lam, lam) if prev_lam > lam else (lam, prev_lam)
            if mu_of_lambda(lam) > 0:
                break
        prev_lam, prev_val = lam, val
    if bracket is None:
        raise SolverError("no sign change of the reduced saddle equation")
    lam = bracket_solve(h, bracket[0], bracket[1], tolerance(4))
    mu = mu_of_lambda(lam)
    res1 = abs(mp.diff(lambda x: (1 - x) ** alpha / x, lam) - mu / lam)
    res2 = abs(phi(lam, mu))
    return SaddleSolution(alpha=alpha, mu=mu, lambda_saddle=lam, residuals=(res1, res2))


def d0_exact_rate():
    """Exact scale constant and geometric rate for the d=0 partition function.

    Solves ``exp(sqrt(R^2+9)/R) = (sqrt(R^2+9) + R) / 3`` by bracketed
    false position on [3, 6] and returns ``(R, exp(-3/R))``.
    """
    def q(R):
        root = mp.sqrt(R * R + 9)
        return mp.exp(root / R) - (root + R) / 3

    R = bracket_solve(q, mpf(3), mpf(6), tolerance(4))
    return R, mp.exp(-3 / R)


def predicted_R(alpha, A):
    """Predicted scale constant ``R = mu(alpha) * A`` of the trajectory
    ``rho_k ~ R/k`` for a series with inverse growth constant ``A > 0``."""
    return solve_saddle(alpha).mu * positive_mpf(A, "A")
