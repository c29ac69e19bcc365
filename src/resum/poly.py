"""Polynomial evaluation, polynomial roots and the bracketed scalar solver.

Coefficient sequences are ascending: ``coeffs[j]`` multiplies ``x**j``.  This
is the numeric kernel every summation method shares: one Horner evaluator,
one exact polynomial type (:class:`Polynomial`, the one real-point evaluator,
read by the rho-polynomial tables, the Borel-Pade integrand, ``pade_eval``
and the positive-root scan, which builds its own float64 form), the
root-modulus bounds, the complete root solver with its real-root filter
(mpmath's Durand-Kerner, started from float64 Durand-Kerner roots, so it takes
a few sweeps at working precision instead of about ten, for the same roots),
the real scale candidates (a descending positive-root scan) and the complex
ones, and one bracketed solver for scalar zeros (the polish of every scan
root, the mapping inversion, the saddle equations, the Borel-summed flow).
"""

import cmath
import math

from mpmath import mp, mpc, mpf, polyroots
from mpmath.libmp import from_man_exp

from .errors import ResourceError, SolverError, UsageError
from .precision import finite_mpf, tolerance


def horner(coeffs, x):
    """``sum_j coeffs[j] x^j`` at real or complex ``x``; zero when empty."""
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative_coeffs(coeffs):
    """Coefficients of the derivative polynomial (empty for a constant)."""
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


def strip_zeros(coeffs):
    """The coefficients as a list, without exactly-zero highest-degree terms."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _log2_abs(x):
    """``log2|x|`` in float64 from the mantissa and exponent of the mpf ``x``,
    within ``2^-50 (1 + |log2|x||)``; None for zero, a special value or a
    non-mpf."""
    try:
        _, man, exp, bc = x._mpf_
    except AttributeError:
        return None
    return (exp + bc) + math.log2(man / (1 << bc)) if man else None  # quotient in [1/2, 1)


def _fujiwara_log2(coeffs):
    """The float64 log2 ``x`` of an upper bound on root moduli: ``2^x`` is at
    or above ``2 max_j |c_j/c_d|^(1/(d-j))`` over the nonzero ``c_j``, ``j <
    d`` (``x = 0`` if none), and ``-x`` of the reversed coefficients (the
    reciprocal roots) bounds them from below if ``c_0 != 0``.  Here ``x = 1 +
    K + 2^-47 (1 + |L_d| + |K|)``, ``K`` the largest float64 ``k_j = (L_j -
    L_d)/(d-j)`` and ``L_j`` the :func:`_log2_abs` of ``c_j``.  As ``|l_j| <=
    |l_d| + (d-j) |t_j|`` for the exact ``l_j`` and ``t_j``, ``k_j`` is within
    ``2^-50 (2 + 2|l_d| + |t_j|) + 2^-52 |k_j|`` of ``t_j`` at any degree, so
    the largest ``t_j`` is within ``2^-49 (1 + |L_d| + |K|)`` of ``K`` to first
    order.  The margin covers that and the float64 sums, each below ``2^-51 (1
    + |K|)``."""
    d, base = len(coeffs) - 1, _log2_abs(coeffs[-1])
    keys = [(_log2_abs(c) - base) / (d - j) for j, c in enumerate(coeffs[:-1]) if c != 0]
    if not keys:
        return 0.0
    top = max(keys)
    return 1 + top + 2.0 ** -47 * (1 + abs(base) + abs(top))


def _float_start(monic):
    """Durand-Kerner roots of ``monic`` (highest degree first) in Python
    ``complex``: mpmath's sweep from mpmath's start ``(0.4+0.9i)^n``; None
    where a coefficient does not fit in float64 (overflow, a nonzero one
    that underflows to zero, inf or NaN) or a root ends non-finite.

    Sweeps stop once the largest correction, relative to ``max(|root|, 1)``,
    is below ``2^-40``, or, once below ``2^-10``, no smaller than the sweep
    before (a multiple root stalls at float64's noise), and after 100."""
    try:
        c = [complex(x) for x in monic]
        c = [x / c[0] for x in c]
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None
    if not all(cmath.isfinite(x) and (x != 0 or m == 0) for x, m in zip(c, monic)):
        return None
    roots, last = [(0.4 + 0.9j) ** n for n in range(len(c) - 1)], math.inf
    for _ in range(100):
        worst = 0.0
        for i, p in enumerate(roots):
            x = 0j
            for a in c:
                x = x * p + a
            for j, q in enumerate(roots):
                if j != i and p != q:
                    x /= p - q
            roots[i] = p - x
            worst = max(worst, abs(x) / max(abs(p), 1.0))
        if worst < 2.0 ** -40 or last <= worst < 2.0 ** -10:
            break
        last = worst
    return roots if all(cmath.isfinite(r) for r in roots) else None


def all_roots(coeffs):
    """Every complex root of a polynomial with nonzero leading coefficient,
    real ones first, ordered by ``(|Im|, Re, Im)``.

    mpmath's Durand-Kerner ``polyroots`` starts from the float64 roots of
    :func:`_float_start`, or from its own start where there are none, and
    so takes about three sweeps at ``prec + extraprec`` bits instead of
    about ten.  Its own iteration, convergence test, cleanup and rounding
    still produce every root, so each agrees with the root from its own
    start to about ``prec + extraprec`` bits of its modulus and rounds to
    the same value; only a real or imaginary part below about
    ``2^-extraprec`` of the modulus, iteration noise at working precision,
    may differ in its last bits.  The order is a total one, so it does not
    depend on the start either.  A root of multiplicity three or more
    stalls the first iteration; the retry, with ``degree * prec`` guard
    bits, resolves up to 9 at 64 digits.
    """
    monic = list(reversed(coeffs))
    start = _float_start(monic)
    for maxsteps, extraprec in ((400, max(mp.prec, 120)),
                                (1000, (len(monic) - 1) * mp.prec)):
        try:
            roots = polyroots(monic, maxsteps=maxsteps, extraprec=extraprec,
                              roots_init=start)
            return sorted(roots, key=lambda r: (abs(mp.im(r)), mp.re(r), mp.im(r)))
        except mp.NoConvergence:
            pass
    raise SolverError("polynomial root iteration did not converge")


def polynomial_real_roots(coeffs):
    """All real roots of a polynomial given by ascending coefficients.

    Solves for ``y = x 2^-s``, ``2^s`` the power of two nearest the Fujiwara
    bound; keeps roots whose imaginary part is negligible at working precision,
    validates each against ``sum_j |c_j| |r|^j * 10^(8 - digits)`` and merges
    near-identical values (repeated roots once), sorted ascending.  A nonzero
    root too small to resolve beside the largest is a :class:`ResourceError`.
    """
    coeffs = strip_zeros(finite_mpf(c, "coeffs[%d]" % j) for j, c in enumerate(coeffs))
    if len(coeffs) < 2:
        raise UsageError("degree must be >= 1 for root finding")
    # Trailing zero coefficients factor out as a root at the origin.
    lead = next(j for j, c in enumerate(coeffs) if c != 0)
    coeffs = coeffs[lead:]
    roots = []
    if len(coeffs) > 1:
        res_tol, sizes = tolerance(8), [abs(c) for c in coeffs]
        imag_tol = tolerance(mp.dps // 2)
        s = round(_fujiwara_log2(coeffs))  # largest |y| near 1
        for r in all_roots([mp.ldexp(c, j * s) for j, c in enumerate(coeffs)]):
            if r == 0:  # c_0 != 0: polyroots' absolute cleanup zeroed a tiny root
                raise ResourceError("a tiny root is lost at %d working digits" % mp.dps)
            r *= mp.ldexp(1, s)  # exact, as is each c_j 2^(js)
            if abs(mp.im(r)) > imag_tol * max(1, abs(r)):
                continue
            r = mp.re(r)
            if abs(horner(coeffs, r)) <= (horner(sizes, abs(r)) or 1) * res_tol:
                roots.append(r)
    if lead:
        roots.append(mpf(0))
    return list(_merge_near(sorted(roots)))


def _merge_near(roots):
    """The sorted ``roots`` without each one within ``10^(-dps/2)`` relative
    of the root kept before it."""
    eps, last = tolerance(mp.dps // 2), None
    for r in roots:
        if last is None or abs(r - last) > eps * max(1, abs(r)):
            last = r
            yield r


def _float_horner(fcoeffs, x):
    """``(y, r)``: ``P(x)`` in float64 and a radius ``r`` around ``y`` that
    holds the exact ``P(x)`` and the :class:`Polynomial` value; None outside
    the range where float64 keeps its relative accuracy.

    With degree ``n >= 1``, ``u = 2^-53`` and ``S`` the float64 value of
    ``S(x) = sum_j |c_j| |x|^j``:
    rounding ``c_j`` and ``x`` to float64 moves term ``j`` by at most
    ``gamma_(j+1) |c_j x^j|``, float64 Horner adds at most ``gamma_2n`` times
    the rounded terms' sum (Higham 2002, section 5.1), and the computed
    ``S`` is low by at most a factor ``(1 - u)^(3n+1)``: ``(3n + 1) u S`` to
    first order, covered with the second-order terms by ``1.25 (3n + 4) u
    S``.  The :class:`Polynomial` value is within half an ulp plus ``2^-62
    (n + 1) 2^-prec S`` of the exact one, covered by ``2n 2^-prec S`` and
    the same slack.  Underflowed products cost at most ``2n 2^-1074 max(1,
    |x|)^n``: under ``1e-300`` plus a negligible part of ``S``, as the
    leading coefficient exceeds ``1e-290``.  Where ``|y| > r`` the working
    value is nonzero with the sign of ``y``, and disjoint magnitude
    intervals order the working magnitudes.
    """
    t = float(x)
    if fcoeffs is None or not 1e-290 < abs(t) < 1e290:
        return None
    at, y, s, n = abs(t), 0.0, 0.0, len(fcoeffs) - 1
    for c, a in fcoeffs:
        y = y * t + c
        s = s * at + a
    if s >= 1e300:
        return None
    return y, s * ((3 * n + 4) * 1.25 * 2.0 ** -53 + 2 * n * 2.0 ** -mp.prec) + 1e-300


def _float_form(coeffs):
    """The float64 ``(c_j, |c_j|)`` of :func:`_float_horner`, highest degree first;
    None when a nonzero ``c_j`` lies outside ``1e-290 < |c_j| < 1e290``."""
    floats = tuple((f, abs(f)) for f in map(float, reversed(coeffs)))
    return floats if all(1e-290 < a < 1e290 or not c
                         for c, (_, a) in zip(reversed(coeffs), floats)) else None


def _exact(c):
    """The exact ``(m, e)`` of the mpf ``c = m 2^e``, ``m`` signed; ``m = 0``
    with ``e != 0`` for an infinity or NaN."""
    sign, man, exp, _ = c._mpf_
    return -man if sign else man, exp


def _rounded(m, e):
    """``m 2^e`` rounded once to nearest at the working precision."""
    return mp.make_mpf(from_man_exp(m, e, mp.prec, "n"))


class Polynomial:
    """A polynomial whose coefficients are finite mpf, in the two exact forms
    every evaluation reads, each built once: ``coeffs``, without exactly-zero
    highest-degree terms (at least one is kept), and ``fixed``, the exact
    ``(m, e)`` of each ``c = m 2^e``, highest degree first.  A coefficient may
    carry more bits than the working precision (the exact column sums of a
    table's prefix rows do); it is read exactly.  Any other coefficient, a
    dropped one included, is a :class:`UsageError` naming ``name``.

    At an mpc ``x`` the value is :func:`horner`'s.  At a finite mpf ``x`` it is
    Horner on the exact ``fixed`` pairs at ``w = prec + 64`` bits, rounded
    once to nearest at ``prec``.  With degree ``n``, ``u = 2^-prec`` and ``S =
    sum_j |c_j| |x|^j``, each Horner step forms ``y x + c_j`` exactly (``x``
    is kept exact) and floors it to ``w`` bits, an error below ``2^(1-w)``
    times that exact sum, which is at most ``S_j + |x| E_(j+1)`` with ``S_j``
    the tail of ``S`` divided by ``|x|^j`` and ``E_(j+1)`` the error carried
    in.  So the sum is within ``(n + 1) 2^(1-w) (1 + 2^(1-w))^n S``, under
    ``2^-62 (n + 1) u S``, and the value within half an ulp more of the exact
    ``P(x)``, where the mp :func:`horner` is only within ``gamma_(2n+1)
    S``.  Any other ``x`` is read by :func:`finite_mpf`: one that is not a
    finite real is a :class:`UsageError` naming ``x``."""

    __slots__ = ("coeffs", "fixed")

    def __init__(self, coeffs, name="coeffs"):
        given = tuple(coeffs)
        exact = [_exact(c) for c in given if hasattr(c, "_mpf_")]
        if not given or len(exact) < len(given) or any(e and not m for m, e in exact):
            raise UsageError("%s must hold one or more finite mpf coefficients, got %r"
                             % (name, given))
        self.coeffs = tuple(strip_zeros(given)) or given[:1]
        self.fixed = tuple(reversed(exact[:len(self.coeffs)]))

    def __call__(self, x):
        if isinstance(x, mpc):
            return horner(self.coeffs, x)
        xm, ex = _exact(x if hasattr(x, "_mpf_") else finite_mpf(x, "x"))  # any other x
        if ex and not xm:  # inf or nan
            raise UsageError("x must be finite, got %s" % x)
        w, terms = mp.prec + 64, iter(self.fixed)
        y, e = next(terms)  # the value is y 2^e
        for m, em in terms:
            y, e = y * xm, e + ex
            if m:
                if e > em:
                    y, e = (y << (e - em)) + m, em
                else:
                    y += m << (em - e)
            cut = y.bit_length() - w
            if cut > 0:
                y, e = y >> cut, e + cut
        return _rounded(y, e)


class _Sample:
    """``P`` at the scan point ``x = f 2^e`` (a float ``f`` on the grid, an mpf in
    the polish): float64 ``y`` and a radius ``r`` holding the :class:`Polynomial`
    value (:func:`_float_horner` on the scan's ``floats``), read only where they cannot
    decide, so every sign and comparison is the one it gives; ``x`` is made when read."""

    __slots__ = ("poly", "floats", "f", "e", "_x", "y", "r", "_value")

    def __init__(self, poly, floats, f, e=0):
        self.poly, self.floats, self.f, self.e = poly, floats, f, e
        self._x = self._value = None
        t = math.ldexp(f, e) if e < 1000 else math.inf
        self.y, self.r = _float_horner(floats, t) or (None, None)

    @property
    def x(self):
        if self._x is None:
            self._x = mp.ldexp(self.f, self.e)
        return self._x

    def value(self):
        """``P(x)``: the float64 value where its sign is certified, else
        :meth:`working`."""
        if self.y is not None and abs(self.y) > self.r:
            return self.y
        return self.working()

    def working(self):
        """The :class:`Polynomial` value, computed once."""
        if self._value is None:
            self._value = self.poly(self.x)
        return self._value

    def sign(self):
        value = self.value()
        return (value > 0) - (value < 0)

    def smaller(self, other):  # |P(self.x)| < |P(other.x)|
        if self.y is not None and other.y is not None:
            if abs(self.y) + self.r < abs(other.y) - other.r:
                return True
            if abs(self.y) - self.r > abs(other.y) + other.r:
                return False
        return abs(self.working()) < abs(other.working())


def _polish(poly, lo, hi):
    """The simple root of ``poly`` between the samples ``lo.x < hi.x`` (53-bit
    mpf made here from a scan's grid points), whose signs differ.

    One Anderson-Bjorck solve of :func:`bracket_solve` with guard digits, so
    the root's accuracy is set by its conditioning well below the caller's
    working precision; the root is then rounded once to that precision, like
    every other candidate.  ``P`` is :meth:`_Sample.value` on ``lo.floats`` at the
    guard precision, so each bracket update takes the sign of the rounded-once
    :class:`Polynomial` value, and the solve stops at its ``rtol``."""
    with mp.extradps(20):
        root = bracket_solve(lambda x: _Sample(poly, lo.floats, x).value(), lo.x, hi.x,
                             tolerance(4))
    return +root


def positive_roots(poly):
    """Positive real roots of the :class:`Polynomial` ``poly`` by descending
    geometric sign scan, largest first, for the scale selection.

    A generator: it walks a geometric grid of eight points per octave (at
    most 4000) from above the Fujiwara upper bound down to half the Fujiwara
    lower bound, evaluating the polynomial only as far as the caller reads,
    and yields each sign change above ``10^(-dps/2)`` polished by
    :func:`_polish`, near duplicates merged.  The grid is float64 in log2
    space: a point ``2^l`` is held exactly as ``f 2^e`` (a float, an integer),
    and its mpf made only where the :class:`Polynomial` value or the polish
    reads it.  Each grid cell is visited once.  At a dip (a grid point whose
    magnitude is below both neighbours', no sign change) both cells around
    it are re-sampled sixteen times finer, between their own two samples, to
    catch close root pairs, the lower one only if its ends share a nonzero
    sign.  Signs, dip comparisons and the polish's steps come from the
    certified float64 values of :func:`_float_horner` on the scan's own
    :func:`_float_form`, built at its first read, and from the rounded-once
    :class:`Polynomial` value only where those do not decide, so each decision
    is that value's alone.  A tangent (even-multiplicity) root is not a sign
    change, so the scan does not report it.  Intended for the simple positive
    roots of mapped-series polynomials of any degree; arbitrary input should
    go through :func:`polynomial_real_roots`.
    """
    coeffs = poly.coeffs
    if len(coeffs) < 2:
        return
    floats = _float_form(coeffs)
    top = _fujiwara_log2(coeffs) + math.log2(1.01)
    # Half the lower bound, from the reciprocal roots; a root at 0 has none.
    bottom = -_fujiwara_log2(coeffs[::-1]) - 1 if coeffs[0] != 0 else top - 20 * math.log2(10)
    n = min(max(math.ceil((top - bottom) * 8), 8), 4000)
    w = (top - bottom) / n
    grid = []

    def at(l):
        e = math.floor(l)
        return _Sample(poly, floats, 2.0 ** (l - e), e)

    def point(i):
        # Grid point i, extending the walk on demand.
        while len(grid) <= i:
            grid.append(at(top - len(grid) * w))
        return grid[i]

    def refine(i):
        # Sign changes among sixteen sub-cells of grid cell i, descending.
        sub = [grid[i + 1], *(at(top - (i + 1) * w + j * w / 16) for j in range(1, 16)), grid[i]]
        for j in range(16, 0, -1):
            if sub[j].sign() * sub[j - 1].sign() < 0:
                yield _polish(poly, sub[j - 1], sub[j])

    def descending_roots():
        for i in range(n):
            fa, fb = point(i), point(i + 1)
            if fa.sign() == 0:
                yield fa.x
            elif fa.sign() * fb.sign() < 0:
                yield _polish(poly, fb, fa)
            elif i + 2 <= n:
                # A dip at fb; a sign change or zero on (fb, fc) is the next cell's.
                fc = point(i + 2)
                if fb.smaller(fa) and fb.smaller(fc):
                    yield from refine(i)
                    if fb.sign() * fc.sign() > 0:
                        yield from refine(i + 1)
        if grid[n].sign() == 0:
            yield grid[n].x

    eps = tolerance(mp.dps // 2)
    yield from (r for r in _merge_near(descending_roots()) if r > eps)


def complex_pools(poly):
    """Scale candidates from the :class:`Polynomial` ``poly`` when complex
    pairs are admitted: an iterator over the positive roots and near-real
    pairs, and the list of wide fallback pairs, each largest modulus first.

    Complex pairs are canonicalized to positive imaginary part.  "Near-real"
    means ``Im <= Re / 2`` (strictly positive real part); the wide pool
    keeps any remaining pair with nonnegative real part, the last resort when
    nothing else exists.
    """
    if len(poly.coeffs) < 2:
        return iter(()), []
    eps = tolerance(mp.dps // 2)
    pool, wide = [], []
    for r in all_roots(poly.coeffs):
        re, im = mp.re(r), mp.im(r)
        if abs(im) <= eps * max(1, abs(r)):
            if re > eps:
                pool.append(re)
        elif im > 0:
            if re > eps and im <= re / 2:
                pool.append(mp.mpc(re, im))
            elif re >= -eps * max(1, abs(r)):
                wide.append(mp.mpc(max(re, mpf(0)), im))

    def key(r):
        return (-abs(r), -mp.re(r), -mp.im(r))

    return iter(sorted(pool, key=key)), sorted(wide, key=key)


def bracket_solve(f, lo, hi, rtol):
    """Zero of ``f`` between ``lo`` and ``hi``, where ``f`` changes sign.

    Anderson-Bjorck false-position steps (Anderson and Bjorck, BIT 13 (1973)
    253): an end kept twice running has its value scaled by
    ``m = 1 - f(x)/f(replaced end)``, or halved as in the Illinois rule
    (Dowell and Jarratt, BIT 11 (1971) 168) when ``m <= 0``.  A step below
    ``rtol`` relative (absolute ``rtol**2`` near zero) returns at once: the
    step if it lies inside the bracket, else the iterate, then a bracket end.
    Any other step that would leave the shrinking bracket is replaced by
    bisection, so ``f`` is never evaluated outside the starting bracket, and
    the solve stops once the bracket is below ``rtol``.  Raises
    :class:`SolverError` when the endpoints do not differ in sign, or after
    ``mp.prec + 64`` steps -- more than bisection alone needs to resolve the
    working precision from a bracket within 2^64 of the root's size.
    """
    if hi < lo:
        lo, hi = hi, lo
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise SolverError("no sign change on [%s, %s]" % (mp.nstr(lo, 8), mp.nstr(hi, 8)))
    x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
    kept = 0  # the endpoint kept by the last step: -1 lo, +1 hi
    for _ in range(mp.prec + 64):
        fx = f(x)
        if fx == 0:
            return x
        if (fx > 0) == (f_lo > 0):
            if kept > 0:  # Anderson-Bjorck: hi kept twice running
                m = 1 - fx / f_lo
                f_hi *= m if m > 0 else 0.5
            lo, f_lo, kept = x, fx, 1
        else:
            if kept < 0:
                m = 1 - fx / f_hi
                f_lo *= m if m > 0 else 0.5
            hi, f_hi, kept = x, fx, -1
        nxt = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        step, tol = abs(nxt - x), rtol * max(abs(nxt), rtol)
        if step <= tol:
            return nxt if lo < nxt < hi else x  # x is now a bracket end
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
            step, tol = abs(nxt - x), rtol * max(abs(nxt), rtol)
        if step <= tol or hi - lo <= tol:
            return nxt
        x = nxt
    raise SolverError("bracketed root did not converge on [%s, %s]"
                      % (mp.nstr(lo, 8), mp.nstr(hi, 8)))
