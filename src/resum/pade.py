"""Pade approximants: rational fits matching a series through order L + M.

The baseline summation method and the rational half of the Borel-Pade
pipeline.  Degenerate (rank-deficient) fits are rejected rather than
regularized: a silently repaired denominator corrupts every downstream
summability check.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DegeneracyError, PoleError, UsageError
from .poly import Polynomial
from .precision import finite_mpf, tolerance, whole_number


@dataclass(frozen=True)
class PadeApproximant:
    """Rational function numerator/denominator with denominator[0] == 1."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            object.__setattr__(self, name, tuple(finite_mpf(c, "%s[%d]" % (name, j))
                                                 for j, c in enumerate(getattr(self, name))))
        if not self.denominator or self.denominator[0] != 1:
            raise UsageError("denominator must be normalized to constant term 1, got %r"
                             % (self.denominator,))


def pade_fit(s, L, M):
    """Fit the [L/M] approximant to ``s``; needs ``L + M <= s.order``.

    ``mp.pade`` solves the M x M linear system for the denominator, then
    convolves for the numerator.  A singular or numerically rank-deficient
    system raises :class:`DegeneracyError` carrying the detected rank.
    """
    whole_number(M, "M", 0, s.order - whole_number(L, "L", 0, s.order))  # L + M <= order
    c = s.coeffs
    if M == 0:  # mp.pade's [0/0] has numerator 1 whatever c_0 is
        return PadeApproximant(tuple(c[: L + 1]), (mpf(1),))
    try:
        num, den = mp.pade(c, L, M)
    except (ZeroDivisionError, ValueError, TypeError):
        # mpmath's LU leaves the pivot index of a column with no nonzero
        # candidate at None, and its row swap then raises TypeError.
        A = mp.matrix([[c[L + i - j] if L + i >= j else 0 for j in range(M)]
                       for i in range(M)])
        raise DegeneracyError("singular Pade system for [%d/%d] (%s)" % (L, M, _rank(A)))
    approx = PadeApproximant(tuple(num), tuple(den))
    _check_reexpansion(approx, s, L + M)
    return approx


def _rank(A):
    """``"rank r < n"`` for the ``n x n`` matrix ``A``, ``r`` its singular values
    above ``max|A_ij| 10^(8 - digits)``; ``"rank not determined"`` where
    ``mp.svd_r`` does not converge."""
    tol = max(abs(x) for x in A) * tolerance(8)
    try:
        svs = mp.svd_r(A, compute_uv=False)
    except RuntimeError:  # "svd: no convergence to an eigenvalue after ... iterations"
        return "rank not determined"
    return "rank %d < %d" % (sum(1 for sv in svs if sv > tol), A.rows)


def _check_reexpansion(approx, s, through):
    """The fitted rational must reproduce the source through ``through``."""
    den = approx.denominator
    num = approx.numerator
    got = []
    for k in range(through + 1):
        acc = num[k] if k < len(num) else mpf(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * got[k - j]
        got.append(acc)
    scale = max(abs(x) for x in s.coeffs[: through + 1])
    if scale == 0:
        scale = mpf(1)
    tol = scale * tolerance(10)
    for k in range(through + 1):
        if abs(got[k] - s.coeffs[k]) > tol:
            raise DegeneracyError(
                "near-singular Pade fit: re-expansion departs at order %d" % k
            )


def pade_eval(approx, g):
    """Value of the rational approximant at ``g``: the numerator and the
    denominator each a :class:`Polynomial` value, rounded once.

    Raises :class:`PoleError` when the denominator magnitude falls below the
    pole-proximity scale ``10^(-digits/2)`` times its coefficient size, and
    :class:`UsageError` for a non-finite ``g``.
    """
    g = finite_mpf(g, "g")
    den = Polynomial(approx.denominator, "denominator")(g)
    scale = Polynomial([abs(c) for c in approx.denominator], "denominator")(abs(g))
    if abs(den) <= tolerance(mp.dps // 2) * max(scale, mpf(1)):
        raise PoleError("denominator vanishes near g = %s" % mp.nstr(g, 8))
    return Polynomial(approx.numerator, "numerator")(g) / den
