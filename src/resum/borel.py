"""Borel-Leroy summation with conformal mapping, plus the Borel-Pade variant.

The transform divides coefficient ``k`` by ``Gamma(k + sigma + 1)``, giving a
series with a finite radius of convergence ``1/a`` in the Borel plane.  The
truncated transform is continued beyond that circle either by re-expanding in
the variable of the standard cut-plane-to-disk map ``z = (4/a) u / (1-u)^2``
or by a rational approximant; the Laplace integral with weight
``t^sigma e^(-t)`` then restores the function.  The map's powers have the
closed form ``[u^m] z^n = (4/a)^n C(m+n-1, m-n)``, so each re-expanded
coefficient is an exact integer sum, rounded once.

The mapped integrand ``sum_n c_n u(g t)^n`` integrates to ``sum_n c_n M_n(g)``
with moments ``M_n(g) = int t^sigma e^-t u(g t)^n dt`` (Le Guillou and
Zinn-Justin), summed in fixed-point integers on cached tanh-sinh nodes in one
pass per ``(sigma, g)``, within a few units of ``2^-(prec + 40)`` per node.
The rational integrand of Borel-Pade is summed on the same nodes, its
numerator and denominator each a :class:`poly.Polynomial` value rounded once.
"""

from functools import lru_cache
from math import comb, isqrt, log10

from mpmath import mp, mpf
from mpmath.calculus.quadrature import TanhSinh

from .errors import ResourceError, SummabilityError, UsageError
from .pade import pade_fit
from .poly import Polynomial, _exact, _log2_abs, _rounded, polynomial_real_roots
from .precision import finite_mpf, positive_mpf, tolerance, whole_number
from .series import PowerSeries

_TANH_SINH = TanhSinh(mp)  # mp.quad's rule; nodes are built on first use
_GUARD_BITS = 40  # fixed-point bits beyond the working precision
_NODE_SETS = 96  # node sets kept: 2 pieces x 12 levels x 4 Leroy shifts
# Largest Leroy shift: t^sigma e^-t peaks at t = sigma; at 1000 a sum takes
# seconds, at 1e4 over a minute, and at 1e30 the node weights overflow.
_MAX_SIGMA = 1000
_MAP_SPAN_BITS = 1 << 16  # span of magnitudes the conformal map sums exactly


def _leroy_sigma(sigma):
    """The Leroy shift as a finite mpf in ``0 .. _MAX_SIGMA``; anything else
    raises :class:`UsageError`."""
    sigma = finite_mpf(sigma, "sigma")
    if not 0 <= sigma <= _MAX_SIGMA:
        raise UsageError("sigma must be in 0..%d, got %s" % (_MAX_SIGMA, mp.nstr(sigma, 8)))
    return sigma


def borel_leroy_transform(s, sigma):
    """Divide coefficient ``k`` by ``Gamma(k + sigma + 1)``, ``0 <= sigma <= _MAX_SIGMA``."""
    sigma = _leroy_sigma(sigma)
    return PowerSeries(
        tuple(c / mp.gamma(k + sigma + 1) for k, c in enumerate(s.coeffs)),
        s.var,
    )


def conformal_map_coeffs(b, a):
    """Re-expand a Borel-plane series in the disk variable ``u`` of
    ``z = w u / (1-u)^2``, ``w = 4/a`` rounded once: ``c_0 = b_0``,
    ``c_m = sum_(1<=n<=m) b_n w^n C(m+n-1, m-n)``.  Each ``c_m`` is an exact
    integer sum rounded once to nearest; bits more than ``_MAP_SPAN_BITS``
    (plus the terms' own lengths) below the largest term are floored first."""
    w, e = _exact(4 / positive_mpf(a, "a"))
    # terms[n - 1] = b_n w^n exactly, as (integer, binary exponent).
    terms = [(man * w ** n, x + n * e) for n, (man, x) in enumerate(map(_exact, b.coeffs[1:]), 1)]
    nonzero = [(man, x) for man, x in terms if man]
    top = max((x + abs(man).bit_length() for man, x in nonzero), default=0)
    low = max(min((x for _, x in nonzero), default=0),
              top - _MAP_SPAN_BITS - (b.order + 1) * mp.prec)
    ints = [man << (x - low) if x >= low else man >> (low - x) for man, x in terms]
    coeffs = [b.coeffs[0]]
    for m in range(1, b.order + 1):
        c = sum(ints[n - 1] * comb(m + n - 1, m - n) for n in range(1, m + 1))
        coeffs.append(_rounded(c, low))
    return PowerSeries(coeffs, "u")


@lru_cache(maxsize=_NODE_SETS)
def _weighted_nodes(sigma, lo, hi, level, prec):
    """``mp.quad``'s tanh-sinh nodes on ``[lo, hi]`` as nonzero integer weights
    ``w x^sigma e^-x 2^Q`` at ``x 2^Q``, ``Q = prec + 40``.  Cached, so callers
    must not mutate the returned lists."""
    nodes, q = ([], []), prec + _GUARD_BITS
    with mp.workprec(prec + 20):
        half, mid = (hi - lo) / 2, (hi + lo) / 2
        for x, w in _TANH_SINH.get_nodes(-1, 1, level, prec):
            t = mid + half * x
            weight = int(mp.ldexp(half * w * t ** sigma * mp.exp(-t), q))
            if weight:
                nodes[0].append(int(mp.ldexp(t, q)))
                nodes[1].append(weight)
    return nodes


@lru_cache(maxsize=1024)
def _power_of_ten(n, prec):
    """``mpf(10) ** n`` at ``prec`` bits."""
    with mp.workprec(prec):
        return mpf(10) ** n


def _estimate_error(results, prec, eps):
    """``_TANH_SINH.estimate_error(results, prec, eps)``, bit for bit.

    mpmath returns ``10^int(D4)``, ``D4 = min(0, max(D1^2/D2, 2 D1, -prec))``,
    where ``D1`` and ``D2`` are the mp ``log10`` of ``|r[-1] - r[-2]|`` and
    ``|r[-1] - r[-3]|`` and ``prec`` counts bits.  Here float64 gives
    ``D1, D2`` from the mantissa and exponent (:func:`poly._log2_abs`), each
    within ``e = 1e-14 (1 + |D|)`` of the mp value, and so an interval that
    holds the mp ``D4``.  Where both ends truncate to the same integer, that
    integer is mpmath's; otherwise, with fewer than three results, a zero
    difference or ``|D2| <= 1e-6``, mpmath's own method decides.
    """
    if len(results) > 2:
        logs = [_log2_abs(results[-1] - r) for r in (results[-2], results[-3])]
        if None not in logs:
            d1, d2 = (x * log10(2) for x in logs)
            if abs(d2) > 1e-6:
                e1, e2 = 1e-14 * (1 + abs(d1)), 1e-14 * (1 + abs(d2))
                a = d1 * d1 / d2
                # |D1^2/D2 - a|, with e2 <= |d2|/2, and the rounding of both sides.
                ea = 2 * ((2 * abs(d1) + e1) * e1 + d1 * d1 * e2 / abs(d2)) / abs(d2) \
                    + 1e-15 * abs(a)
                lo = min(0, max(a - ea, 2 * (d1 - e1), -prec))
                hi = min(0, max(a + ea, 2 * (d1 + e1), -prec))
                if int(lo) == int(hi):
                    return _power_of_ten(int(hi), mp.prec)
    return _TANH_SINH.estimate_error(results, prec, eps)


@lru_cache(maxsize=64)
def _cutoff(sigma, rel_tol, prec):
    """``t_max`` with ``t - sigma ln t = ln(1/rel_tol) + 6 ln 10``, to within
    1/2, at ``prec`` bits: beyond it the tail is below tolerance."""
    with mp.workprec(prec):
        target = -mp.log(rel_tol) + mp.log(mpf(10)) * 6
        t_max = target + 5
        for _ in range(60):
            nxt = target + sigma * mp.log(t_max)
            if abs(nxt - t_max) < mpf("0.5"):
                break
            t_max = nxt
        return t_max


class Laplace:
    """``I_j = int t^sigma e^-t F_j(t) dt`` by ``mp.quad``'s tanh-sinh levels on
    ``[0, t_max/16, t_max]``, the tail beyond ``t_max`` below tolerance.

    ``level_sums(xs, ws)`` gives ``sum_i ws[i] F_j(xs[i] 2^-Q)`` over one
    level's new nodes.  Levels combine as ``sum_next`` does and are kept.
    The estimate is mpmath's ``estimate_error``, reproduced bit for bit by
    :func:`_estimate_error`: float64 picks its power of ten wherever it can
    certify the choice, and mpmath only where it cannot.

    One stop rule: a piece stops once the estimate of every ``I_j`` is
    ``<= eps/8`` (working precision), whatever sum is asked for, and the sum
    is accepted at ``rel_tol = 10^(8 - digits)``; below that the estimate
    would read the level sums' rounding noise as convergence."""

    def __init__(self, sigma, level_sums):
        self.sigma, self.level_sums = sigma, level_sums
        self.rel_tol, self.prec, self.eps = tolerance(8), mp.prec, mp.eps / 8
        t_max = _cutoff(sigma, self.rel_tol, self.prec)
        # Per piece: its ends, the node sums (scaled by 2^Q) and each level's I_j.
        self.pieces = ((mpf(0), t_max / 16, [], []), (t_max / 16, t_max, [], []))
        self.done = [False, False]

    def _refine(self, i, max_level):
        """Add levels to piece ``i`` until the estimate of every ``I_j`` is
        ``<= eps`` or it has ``max_level``, at :meth:`integral`'s precision."""
        lo, hi, sums, levels = self.pieces[i]
        while not self.done[i] and len(levels) < max_level:
            level = len(levels) + 1
            new = self.level_sums(*_weighted_nodes(self.sigma, lo, hi, level, self.prec))
            sums[:] = [s + n for s, n in zip(sums, new)] if sums else new
            levels.append([mp.ldexp(s, -(self.prec + _GUARD_BITS + level)) for s in sums])
            self.done[i] = len(levels) > 1 and all(
                _estimate_error(seq, self.prec, self.eps) <= self.eps for seq in zip(*levels))

    def integral(self, coeffs):
        """``(sum_j coeffs[j] I_j, error)``, the value rounded to working
        precision: the error adds each piece's estimate of this sum's own
        levels, and is within ``rel_tol`` relative (absolute below 1).
        Levels run to 2^10, then 2^12 if that misses.  More ``coeffs`` than
        integrals ``I_j``, or one not finite, raise :class:`UsageError`."""
        for j, c in enumerate(coeffs):
            finite_mpf(c, "coeffs[%d]" % j)
        for max_level in (10, 12):
            val = err = mpf(0)
            with mp.workprec(self.prec + 20):
                for i, (_, _, _, levels) in enumerate(self.pieces):
                    self._refine(i, max_level)
                    if len(coeffs) > len(levels[0]):
                        raise UsageError("%d coefficients for %d Laplace integrals"
                                         % (len(coeffs), len(levels[0])))
                    seq = [mp.fdot(coeffs, level) for level in levels]
                    val += seq[-1]
                    err += _estimate_error(seq, self.prec, self.eps)
            val = +val
            if err <= self.rel_tol * max(abs(val), 1):
                return val, err
        raise ResourceError("Laplace quadrature stuck at error %s (tolerance %s)"
                            % (mp.nstr(err, 3), mp.nstr(self.rel_tol, 3)))


def laplace_moments(a, sigma, g, n):
    """:class:`Laplace` of ``M_j(g) = int t^sigma e^-t u(g t)^j dt``, ``j <= n``.

    Per node, in integers scaled by ``2^Q`` (``Q = prec + 40``):
    ``R = isqrt((1 + a g x) 2^2Q)``, ``U = (R - 2^Q) 2^Q // (R + 2^Q)``, then
    ``S_j += p; p = p U >> Q`` from ``p = W``.  No term is negative, so nothing
    cancels: against exact arithmetic on the stored nodes, ``U`` is within 1.5
    units of ``2^-Q``, and ``M_j`` at level ``d`` over ``N`` nodes within
    ``N 2^-d (j + 1) + 2 j M_0`` units.  Each piece runs until every ``M_j``
    is at working precision, so any sum of them is read off the same levels.
    """
    a, sigma = positive_mpf(a, "a"), _leroy_sigma(sigma)
    q, n = mp.prec + _GUARD_BITS, whole_number(n, "n", 0)
    one = 1 << q
    ag = int(mp.ldexp(mp.fmul(a, positive_mpf(g, "g"), exact=True), q))

    def level_sums(xs, ws):
        us = [((r - one) << q) // (r + one) for r in (isqrt((one << q) + ag * x) for x in xs)]
        sums = [sum(ws)]
        for _ in range(n):
            ws = [p * u >> q for p, u in zip(ws, us)]
            sums.append(sum(ws))
        return sums

    return Laplace(sigma, level_sums)


def borel_sum(s, a, sigma, g):
    """``(value, error)`` of ``s`` summed at ``g > 0`` through the mapped
    Borel-Leroy transform of shift ``sigma``, its map scaled by ``a > 0``.

    Every coefficient of ``s`` is summed (truncate it first for a lower
    order): its Borel transform is re-expanded in the disk variable and
    integrated against :func:`laplace_moments`.  The error is the truncation
    error (the difference against the order ``K-1`` result of the same
    moments, ``K = s.order``) plus the quadrature error estimate.
    """
    if s.order < 1:
        raise UsageError("need at least two coefficients")
    coeffs = conformal_map_coeffs(borel_leroy_transform(s, sigma), a).coeffs
    moments = laplace_moments(a, sigma, g, s.order)
    val, quad_err = moments.integral(coeffs)
    val_prev, _ = moments.integral(coeffs[:-1])
    return val, abs(val - val_prev) + quad_err


def borel_pade_sum(s, sigma, L, M, g):
    """``(value, error)`` of ``s`` summed at ``g > 0`` with a [L/M] rational
    Borel-Leroy transform.

    The Laplace integral runs to ``10^(8 - digits)`` relative on the same
    nodes as :func:`laplace_moments`; at each node ``z`` the integrand is
    ``N(z) / D(z)``, each a :class:`poly.Polynomial` value rounded once,
    within half an ulp plus ``2^-62 (n + 1) u S`` of the exact one (degree
    ``n``, ``u = 2^-prec``, ``S = sum_j |c_j| z^j``), where mp Horner is
    only within ``gamma_(2n+1) S``.  The error is the quadrature error
    estimate alone.
    Denominator zeros on the positive real axis raise :class:`SummabilityError`;
    by Descartes' rule only a denominator with a sign change can have one.
    """
    g, sigma = positive_mpf(g, "g"), _leroy_sigma(sigma)
    approx = pade_fit(borel_leroy_transform(s, sigma), L, M)
    num = Polynomial(approx.numerator, "numerator")
    den = Polynomial(approx.denominator, "denominator")
    if len({c > 0 for c in den.coeffs if c != 0}) > 1:  # a sign change
        positive = [p for p in polynomial_real_roots(den.coeffs) if p > 0]
        if positive:
            raise SummabilityError("Borel transform has a positive-axis pole at z = %s"
                                   % mp.nstr(min(positive), 8))
    q = mp.prec + _GUARD_BITS

    def level_sums(xs, ws):
        zs = (g * mp.ldexp(x, -q) for x in xs)
        return [mp.fdot((w, num(z) / den(z)) for w, z in zip(ws, zs))]

    return Laplace(sigma, level_sums).integral((1,))
