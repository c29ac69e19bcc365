"""Polynomial evaluation, polynomial roots and the bracketed scalar solver.

Coefficient sequences are ascending: ``coeffs[j]`` multiplies ``x**j``.  This
is the numeric kernel every summation method shares: one Horner evaluator,
the root-modulus bounds, the complete root solver with its real-root filter,
the descending positive-root scan used on high-degree mapped-table
polynomials, and one bracketed solver for scalar zeros (the per-order scale
polish, the mapping inversion, the saddle equations, the Borel-summed flow).
"""

from mpmath import mp, mpf, polyroots

from .errors import SolverError, UsageError
from .precision import to_mpf, tolerance


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


def _fujiwara_bound(coeffs):
    """Upper bound on root moduli: ``2 max_j |c_j/c_d|^(1/(d-j))``."""
    d = len(coeffs) - 1
    cd = abs(coeffs[-1])
    best = mpf(0)
    for j in range(d):
        if coeffs[j] == 0:
            continue
        r = (abs(coeffs[j]) / cd) ** (mpf(1) / (d - j))
        if r > best:
            best = r
    return 2 * best if best > 0 else mpf(1)


def _cauchy_lower_bound(coeffs):
    """Lower bound on root moduli via the reversed-polynomial Cauchy bound."""
    c0 = abs(coeffs[0])
    if c0 == 0:
        return mpf(0)
    m = max(abs(c) for c in coeffs[1:])
    return c0 / (c0 + m)


def all_roots(coeffs):
    """Every complex root of a polynomial with nonzero leading coefficient."""
    monic = list(reversed(coeffs))
    try:
        return list(polyroots(monic, maxsteps=400, extraprec=max(mp.prec, 120)))
    except mp.NoConvergence as exc:
        raise SolverError("polynomial root iteration did not converge") from exc


def polynomial_real_roots(coeffs):
    """All real roots of a polynomial given by ascending coefficients.

    Keeps roots whose imaginary part is negligible at working precision,
    validates each against the residual scale
    ``sum_j |c_j| |r|^j * 10^(8 - digits)``, and merges near-identical values
    (so repeated roots are reported once, without multiplicity counts).
    Roots are returned sorted ascending.
    """
    coeffs = strip_zeros(to_mpf(c) for c in coeffs)
    if len(coeffs) < 2:
        raise UsageError("degree must be >= 1 for root finding")
    # Trailing zero coefficients factor out as a root at the origin.
    lead = 0
    while coeffs[lead] == 0:
        lead += 1
    coeffs = coeffs[lead:]
    roots = []
    if len(coeffs) > 1:
        res_tol = tolerance(8)
        imag_tol = tolerance(mp.dps // 2)
        for r in all_roots(coeffs):
            if abs(mp.im(r)) > imag_tol * max(1, abs(r)):
                continue
            r = mp.re(r)
            scale = mp.fsum(abs(c) * abs(r) ** j for j, c in enumerate(coeffs))
            if scale == 0:
                scale = mpf(1)
            if abs(horner(coeffs, r)) > scale * res_tol:
                continue
            roots.append(r)
    if lead:
        roots.append(mpf(0))
    roots.sort()
    merged = []
    merge_tol = tolerance(mp.dps // 2)
    for r in roots:
        if merged and abs(r - merged[-1]) <= merge_tol * max(1, abs(r)):
            continue
        merged.append(r)
    return merged


def _polish(coeffs, dcoeffs, lo, hi):
    """A bracketed simple root, with guard digits so its accuracy is set by
    the root's conditioning well below the caller's working precision."""
    with mp.extradps(20):
        return bracket_solve(lambda x: horner(coeffs, x), lo, hi, tolerance(4),
                             df=lambda x: horner(dcoeffs, x))


def _scan_positive_roots(coeffs, per_octave=8):
    """Positive real roots by descending geometric sign scan, largest first.

    Walks a geometric grid from above the Fujiwara bound down to below the
    Cauchy lower bound, polishing every sign change; grid cells where the
    polynomial magnitude dips to a local minimum without changing sign are
    re-sampled sixteen times finer to catch close root pairs.  Intended for
    the simple, well-separated positive roots of mapped-series polynomials;
    arbitrary input should go through :func:`polynomial_real_roots`.
    """
    dcoeffs = derivative_coeffs(coeffs)
    hi = _fujiwara_bound(coeffs) * mpf("1.01")
    lo = _cauchy_lower_bound(coeffs) / 2
    if lo <= 0 or lo >= hi:
        lo = hi * mpf("1e-20")
    n = max(int(mp.ceil(mp.log(hi / lo, 2) * per_octave)), 8)
    if n > 4000:
        n = 4000
    ratio = (lo / hi) ** (mpf(1) / n)
    xs = [hi]
    for _ in range(n):
        xs.append(xs[-1] * ratio)
    vals = [horner(coeffs, x) for x in xs]
    roots = []

    def handle_cell(a, b, fa, fb, depth):
        # a > b on the descending walk
        if fa == 0:
            roots.append(a)
            return
        if fa * fb < 0:
            roots.append(_polish(coeffs, dcoeffs, b, a))
            return
        if depth <= 0:
            return
        step = (a / b) ** (mpf(1) / 16)
        sub = [b * step ** j for j in range(17)]
        fsub = [horner(coeffs, x) for x in sub]
        for j in range(16, 0, -1):
            if fsub[j] * fsub[j - 1] < 0:
                roots.append(_polish(coeffs, dcoeffs, sub[j - 1], sub[j]))

    for i in range(n):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa * fb < 0 or fa == 0:
            handle_cell(a, b, fa, fb, 0)
        else:
            # Dip cells: magnitude local minimum with no sign change.
            here = abs(fb)
            left = abs(fa)
            right = abs(vals[i + 2]) if i + 2 <= n else None
            if right is not None and here < left and here < right:
                handle_cell(a, b, fa, fb, 1)
                handle_cell(b, xs[i + 2], fb, vals[i + 2], 1)
    if vals[-1] == 0:
        roots.append(xs[-1])
    out = []
    for r in roots:  # already descending
        if out and abs(r - out[-1]) <= tolerance(mp.dps // 2) * max(1, abs(r)):
            continue
        out.append(r)
    return out


_SCAN_DEGREE_MIN = 13


def positive_roots(coeffs, thorough=False):
    """Positive real roots, largest first, for the scale selection.

    Low degrees (and ``thorough=True``) go through the complete solver;
    large mapped-table polynomials use the descending scan.
    """
    stripped = strip_zeros(coeffs)
    if len(stripped) < 2:
        return []
    eps = tolerance(mp.dps // 2)
    if thorough or len(stripped) - 1 < _SCAN_DEGREE_MIN:
        roots = polynomial_real_roots(stripped)
        return [r for r in sorted(roots, reverse=True) if r > eps]
    return [r for r in _scan_positive_roots(stripped) if r > eps]


def bracket_solve(f, lo, hi, rtol, df=None):
    """Zero of ``f`` between ``lo`` and ``hi``, where ``f`` changes sign.

    With the derivative ``df`` each step is Newton's; without it, an
    Illinois false-position step.  A step that would leave the shrinking
    bracket is replaced by bisection, so ``f`` is never evaluated outside
    the starting bracket.  Stops once the step or the bracket is below
    ``rtol`` relative (absolute ``rtol**2`` near zero).  Raises
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
    x = (lo + hi) / 2 if df is not None else (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
    kept = 0  # the endpoint kept by the last step: -1 lo, +1 hi
    for _ in range(mp.prec + 64):
        fx = f(x)
        if fx == 0:
            return x
        if (fx > 0) == (f_lo > 0):
            lo, f_lo = x, fx
            if kept > 0:
                f_hi /= 2  # Illinois: hi kept twice running
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept < 0:
                f_lo /= 2
            kept = -1
        if df is None:
            nxt = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        else:
            d = df(x)
            nxt = x - fx / d if d != 0 else hi  # a flat point bisects
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        tol = rtol * max(abs(nxt), rtol)
        if abs(nxt - x) <= tol or hi - lo <= tol:
            return nxt
        x = nxt
    raise SolverError("bracketed root did not converge on [%s, %s]"
                      % (mp.nstr(lo, 8), mp.nstr(hi, 8)))
