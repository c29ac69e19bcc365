"""Pade approximants: rational fits matching a series through order L + M.

The baseline summation method and the rational half of the Borel-Pade
pipeline.  Degenerate (rank-deficient) fits are rejected rather than
regularized: a silently repaired denominator corrupts every downstream
summability check.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DegeneracyError, PoleError, UsageError
from .poly import horner
from .precision import finite_mpf, to_mpf, tolerance, whole_number


@dataclass(frozen=True)
class PadeApproximant:
    """Rational function numerator/denominator with denominator[0] == 1."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(to_mpf(c) for c in self.numerator))
        object.__setattr__(self, "denominator", tuple(to_mpf(c) for c in self.denominator))
        if not self.denominator or self.denominator[0] != 1:
            raise UsageError("denominator must be normalized to constant term 1, got %r"
                             % (self.denominator,))


def pade_fit(s, L, M):
    """Fit the [L/M] approximant to ``s``; needs ``L + M <= s.order``.

    Solves the M x M linear system for the denominator, then convolves for
    the numerator.  A singular or numerically rank-deficient system raises
    :class:`DegeneracyError` carrying the detected rank.
    """
    whole_number(M, "M", 0, s.order - whole_number(L, "L", 0, s.order))  # L + M <= order
    c = s.coeffs

    def cc(n):
        return c[n] if n >= 0 else mpf(0)

    if M == 0:
        den = (mpf(1),)
        num = tuple(c[: L + 1])
        return PadeApproximant(num, den)
    A = mp.matrix(M, M)
    rhs = mp.matrix(M, 1)
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            A[i - 1, j - 1] = cc(L + i - j)
        rhs[i - 1] = -cc(L + i)
    try:
        sol = mp.lu_solve(A, rhs)
    except (ZeroDivisionError, ValueError, TypeError):
        # mpmath's LU leaves the pivot index of a column with no nonzero
        # candidate at None, and its row swap then raises TypeError.
        raise DegeneracyError("singular Pade system for [%d/%d] (%s)" % (L, M, _rank(A)))
    den = [mpf(1)] + [sol[j] for j in range(M)]
    num = []
    for i in range(L + 1):
        acc = mpf(0)
        for j in range(0, min(i, M) + 1):
            acc += den[j] * cc(i - j)
        num.append(acc)
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
    """Value of the rational approximant at ``g``.

    Raises :class:`PoleError` when the denominator magnitude falls below the
    pole-proximity scale ``10^(-digits/2)`` times its coefficient size, and
    :class:`UsageError` for a non-finite ``g``.
    """
    g = finite_mpf(g, "g")
    den = horner(approx.denominator, g)
    scale = mp.fsum(abs(c) * abs(g) ** j for j, c in enumerate(approx.denominator))
    if abs(den) <= tolerance(mp.dps // 2) * max(scale, mpf(1)):
        raise PoleError("denominator vanishes near g = %s" % mp.nstr(g, 8))
    return horner(approx.numerator, g) / den
