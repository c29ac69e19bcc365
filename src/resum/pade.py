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
from .precision import to_mpf, tolerance


@dataclass(frozen=True)
class PadeApproximant:
    """Rational function numerator/denominator with denominator[0] == 1."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(to_mpf(c) for c in self.numerator))
        object.__setattr__(self, "denominator", tuple(to_mpf(c) for c in self.denominator))
        if self.denominator[0] != 1:
            raise UsageError("denominator must be normalized to constant term 1")

    @property
    def L(self):
        return len(self.numerator) - 1

    @property
    def M(self):
        return len(self.denominator) - 1


def pade_fit(s, L, M):
    """Fit the [L/M] approximant to ``s``; needs ``L + M <= s.order``.

    Solves the M x M linear system for the denominator, then convolves for
    the numerator.  A singular or numerically rank-deficient system raises
    :class:`DegeneracyError` carrying the detected rank.
    """
    if L < 0 or M < 0:
        raise UsageError("L and M must be >= 0")
    if L + M > s.order:
        raise UsageError("need L + M <= series order (%d > %d)" % (L + M, s.order))
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
    except (ZeroDivisionError, ValueError):
        raise DegeneracyError(
            "singular Pade system for [%d/%d] (rank %d < %d)"
            % (L, M, _rank_estimate(A, M), M)
        )
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


def _rank_estimate(A, n):
    """Crude rank of a small mpmath matrix by row echelon with pivots."""
    B = A.copy()
    rank = 0
    scale = max((abs(B[i, j]) for i in range(n) for j in range(n)), default=mpf(0))
    if scale == 0:
        return 0
    tol = scale * tolerance(8)
    row = 0
    for col in range(n):
        piv, pval = None, tol
        for r in range(row, n):
            if abs(B[r, col]) > pval:
                piv, pval = r, abs(B[r, col])
        if piv is None:
            continue
        if piv != row:
            for j in range(n):
                B[piv, j], B[row, j] = B[row, j], B[piv, j]
        for r in range(row + 1, n):
            f = B[r, col] / B[row, col]
            for j in range(col, n):
                B[r, j] -= f * B[row, j]
        rank += 1
        row += 1
    return rank


def _check_reexpansion(approx, s, through):
    """The fitted rational must reproduce the source through ``through``."""
    den = approx.denominator
    num = approx.numerator
    got = []
    inv0 = 1 / den[0]
    for k in range(through + 1):
        acc = num[k] if k < len(num) else mpf(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * got[k - j]
        got.append(acc * inv0)
    scale = max(abs(x) for x in s.coeffs[: through + 1])
    if scale == 0:
        scale = mpf(1)
    tol = scale * tolerance(10)
    for k in range(through + 1):
        if abs(got[k] - s.coeffs[k]) > tol:
            raise DegeneracyError(
                "near-singular Pade fit: re-expansion departs at order %d" % k
            )


def pade_eval(approx, g, pole_scale=None):
    """Value of the rational approximant at ``g``.

    Raises :class:`PoleError` when the denominator magnitude falls below the
    pole-proximity scale (``10^(-digits/2)`` times its coefficient size by
    default), and :class:`UsageError` for a non-finite ``g``.
    """
    g = to_mpf(g)
    if not mp.isfinite(g):
        raise UsageError("Pade evaluation needs a finite g, got %s" % g)
    den = horner(approx.denominator, g)
    scale = mp.fsum(abs(c) * abs(g) ** j for j, c in enumerate(approx.denominator))
    if pole_scale is None:
        pole_scale = tolerance(mp.dps // 2)
    if abs(den) <= pole_scale * max(scale, mpf(1)):
        raise PoleError("denominator vanishes near g = %s" % mp.nstr(g, 8))
    return horner(approx.numerator, g) / den
