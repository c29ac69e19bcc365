"""Order-by-order tuning of the mapping scale and everything built on it.

Given a table of mapped-series polynomials ``P_k(rho)``, the summation scheme
retunes ``rho`` at each truncation order so the last retained term (or its
derivative) vanishes, evaluates the truncated lambda-series there, and reads
the next coefficient as an error estimate; the candidate scales are the
polynomial roots found by :mod:`resum.poly`.  On top of the per-order
machinery sit the fixed-point and exponent extractors for flow functions and
the convergence study with its slope fits.
"""

import enum
from dataclasses import dataclass, replace

from mpmath import mp, mpc, mpf

from .errors import (
    FitError,
    FixedPointError,
    SelectionError,
    UsageError,
)
from .mapping import MappingFamily, lambda_of_g
from .poly import all_roots, derivative_coeffs, horner, positive_roots, strip_zeros
# Re-exported: callers, and the benchmark tracer in perfbench/, look these
# up on this module.
from .poly import polynomial_real_roots, polyroots  # noqa: F401
from .precision import to_mpf, tolerance


class SelectionMode(enum.Enum):
    ROOT = "root"            # zeros of P_k, derivative smallness as tie-break
    STATIONARY = "stationary"  # zeros of P_k', value smallness as tie-break
    MIXED = "mixed"          # roots when any exist, stationary points otherwise
    STATIONARY_FIRST = "stationary-first"  # mirror of MIXED


@dataclass(frozen=True)
class RhoSelectionCriterion:
    """How the per-order scale is picked among polynomial roots.

    ``smallness_factor`` is the threshold tau in the companion test: a
    candidate passes if the partner quantity (the derivative in ROOT mode,
    the value in STATIONARY mode) is below tau times the neighbor-coefficient
    scale.  Candidates are tried largest first; if none passes, the largest
    is used anyway and the report is flagged.

    When complex candidates are admitted (fixed-point and exponent work),
    conjugate pairs close to the positive real axis -- imaginary part at most
    ``near_real_width`` times the real part -- compete in the same pool as
    the real candidates; wider pairs are used only when the pool is empty,
    largest modulus first.  Downstream consumers report real parts.
    """

    mode: SelectionMode = SelectionMode.MIXED
    smallness_factor: object = "0.5"
    near_real_width: object = "0.5"

    def __post_init__(self):
        tau = to_mpf(self.smallness_factor)
        if tau <= 0:
            raise UsageError("smallness_factor must be positive")
        object.__setattr__(self, "smallness_factor", tau)
        width = to_mpf(self.near_real_width)
        if width < 0:
            raise UsageError("near_real_width must be >= 0")
        object.__setattr__(self, "near_real_width", width)


@dataclass(frozen=True)
class OdmReport:
    """Per-order record of a scale selection and (optionally) an evaluation."""

    k: int
    rho: object                # mpf, or mpc for a complex-pair selection
    candidates: tuple          # (rho, |P_k(rho)|, |P_k'(rho)|) triples examined
    mode: SelectionMode
    flagged: bool = False      # no candidate passed the smallness test
    is_complex: bool = False   # rho is one of a complex-conjugate pair
    g: object = None
    lam: object = None
    value: object = None
    error_estimate: object = None
    delta: object = None       # oracle - value, when an oracle was supplied


def _candidate_pools(coeffs, width):
    """Real positive candidates, near-real pairs, and wide fallback pairs.

    Complex pairs are canonicalized to positive imaginary part.  "Near-real"
    means ``Im <= width * Re`` (strictly positive real part); the wide pool
    keeps any remaining pair with nonnegative real part, the last resort when
    nothing else exists.
    """
    stripped = strip_zeros(coeffs)
    if len(stripped) < 2:
        return [], [], []
    eps = tolerance(mp.dps // 2)
    reals, near, wide = [], [], []
    for r in all_roots(stripped):
        re, im = mp.re(r), mp.im(r)
        if abs(im) <= eps * max(1, abs(r)):
            if re > eps:
                reals.append(re)
        elif im > 0:
            if re > eps and im <= width * re:
                near.append(mp.mpc(re, im))
            elif re >= -eps * max(1, abs(r)):
                wide.append(mp.mpc(max(re, mpf(0)), im))
    return reals, near, wide


def _neighbor_scale(table, k, rho):
    """Size yardstick |P_{k-1}(rho)| for the smallness tests."""
    if k >= 1:
        return abs(table.eval_poly(k - 1, rho))
    return abs(table.eval_poly(0, rho))


def _gather(poly, criterion, thorough, allow_complex):
    """Candidate pool (largest modulus first) and the wide-pair fallback."""
    if allow_complex:
        reals, near, wide = _candidate_pools(poly, criterion.near_real_width)
        pool = sorted(reals + near, key=lambda r: (-abs(r), -mp.re(r), -mp.im(r)))
        wide = sorted(wide, key=lambda r: (-abs(r), -mp.re(r), -mp.im(r)))
        return pool, wide
    return positive_roots(poly, thorough), []


def select_rho(table, k, criterion, thorough=False, allow_complex=False):
    """Choose the order-``k`` mapping scale per the selection criterion.

    ROOT mode: positive roots of ``P_k``, examined in decreasing modulus
    order; the first whose derivative is small against the neighbor scale
    ``|P_{k-1}(rho)| k / rho`` wins; if none passes the largest is taken,
    flagged.  STATIONARY swaps the roles of ``P_k`` and ``P_k'`` (zeros of
    the derivative, value tested against ``|P_{k-1}(rho)|``).  MIXED prefers
    the root pool whenever it is populated; STATIONARY_FIRST is its mirror.

    With ``allow_complex``, near-real conjugate pairs compete in the pool
    and wide pairs act as the empty-pool fallback (largest modulus, no
    smallness filtering); the report's ``is_complex`` marks such picks.
    ``thorough`` forces the complete root solver instead of the descending
    scan on high-degree polynomials.
    """
    if not 1 <= k <= table.source_order:
        raise UsageError("order k=%d outside table range 1..%d" % (k, table.source_order))
    tau = criterion.smallness_factor
    poly = table.polys[k]
    dpoly = derivative_coeffs(poly)
    if all(c == 0 for c in poly):
        # A vanishing tuning polynomial leaves the scale free (constant
        # sources): any rho reproduces the value, so report unit scale.
        return OdmReport(k=k, rho=mpf(1), candidates=((mpf(1), mpf(0), mpf(0)),),
                         mode=criterion.mode, flagged=False)
    mode = criterion.mode
    if mode in (SelectionMode.MIXED, SelectionMode.STATIONARY_FIRST):
        first = poly if mode is SelectionMode.MIXED else dpoly
        second = dpoly if mode is SelectionMode.MIXED else poly
        pool, wide = _gather(first, criterion, thorough, allow_complex)
        if pool or wide:
            mode = SelectionMode.ROOT if first is poly else SelectionMode.STATIONARY
        else:
            pool, wide = _gather(second, criterion, thorough, allow_complex)
            mode = SelectionMode.STATIONARY if first is poly else SelectionMode.ROOT
    elif mode is SelectionMode.ROOT:
        pool, wide = _gather(poly, criterion, thorough, allow_complex)
    else:
        pool, wide = _gather(dpoly, criterion, thorough, allow_complex)
    if not pool and not wide:
        raise SelectionError(
            "no admissible %s at order %d"
            % ("root" if mode is SelectionMode.ROOT else "stationary point", k)
        )
    examined = []
    chosen = None
    for rho in pool:
        pval = abs(horner(poly, rho))
        dval = abs(horner(dpoly, rho))
        examined.append((rho, pval, dval))
        scale = _neighbor_scale(table, k, rho)
        if mode is SelectionMode.ROOT:
            ok = dval <= tau * scale * k / abs(rho)
        else:
            ok = pval <= tau * scale
        if ok:
            chosen = rho
            break
    flagged = False
    if chosen is None and pool:
        chosen = examined[0][0]
        flagged = True
    if chosen is None:
        # Wide complex pairs: deliberate last resort, largest modulus wins.
        chosen = wide[0]
        pval = abs(horner(poly, chosen))
        dval = abs(horner(dpoly, chosen))
        examined.append((chosen, pval, dval))
    is_complex = isinstance(chosen, mpc) or (hasattr(chosen, "imag") and mp.im(chosen) != 0)
    return OdmReport(
        k=k,
        rho=chosen,
        candidates=tuple(examined),
        mode=mode,
        flagged=flagged,
        is_complex=is_complex,
    )


def odm_value(table, k, criterion, g, allow_complex=False):
    """Evaluate the order-``k`` approximant at coupling ``g`` (or ``inf``).

    Finite ``g``: ``(1-lambda)^p * sum_{l<=k} P_l(rho_k) lambda^l`` with
    ``lambda`` from the mapping inversion.  ``g = inf`` (power-cut only):
    the strong-coupling amplitude of ``g^(-p/alpha)``, namely
    ``rho_k^(p/alpha) sum_l P_l(rho_k)``.  The error estimate is
    ``|P_{k+1}(rho_k) lambda^(k+1)|`` whenever the table extends to ``k+1``.

    With ``allow_complex`` (shifted-power family only), a complex-pair scale
    is admitted: the mapped point follows the closed-form inversion
    ``lambda = 1 - (1 + g/rho)^(-1/alpha)`` into the complex plane and the
    real part of the approximant is reported.
    """
    sel = select_rho(table, k, criterion, allow_complex=allow_complex)
    mapping = table.mapping
    rho = sel.rho
    if sel.is_complex and mapping.family is not MappingFamily.SHIFTED_POWER:
        raise UsageError("complex-pair evaluation is defined for the shifted-power family")
    strong = g == mp.inf
    if strong and mapping.family is not MappingFamily.POWER_CUT:
        raise UsageError("strong-coupling evaluation needs the power-cut family")
    coeffs = table.lambda_coeffs(rho, k)
    if strong:
        lam = mpf(1)
        total = mp.fsum(coeffs)
        value = rho ** (mapping.prefactor_p / mapping.alpha) * total
    else:
        g = to_mpf(g)
        if sel.is_complex:
            lam = 1 - (1 + g / rho) ** (-1 / mapping.alpha)
        else:
            lam = lambda_of_g(g, rho, mapping)
        value = (1 - lam) ** mapping.prefactor_p * horner(coeffs, lam)
        if sel.is_complex:
            value = mp.re(value)
    err = None
    if k + 1 <= table.source_order:
        err = abs(table.eval_poly(k + 1, rho) * lam ** (k + 1))
    return OdmReport(
        k=k,
        rho=rho,
        candidates=sel.candidates,
        mode=sel.mode,
        flagged=sel.flagged,
        is_complex=sel.is_complex,
        g=g if not strong else mp.inf,
        lam=lam,
        value=value,
        error_estimate=err,
    )


@dataclass(frozen=True)
class FixedPointResult:
    """Zero of a truncated flow function in mapped variables."""

    k: int
    rho: object
    lambda_star: object        # may be complex (real part is reported downstream)
    g_star: object             # real part when lambda_star is complex
    omega: object              # flow derivative at the zero, real part likewise
    is_complex_pair: bool
    selection: OdmReport


def fixed_point(table, k, criterion):
    """Smallest zero of the truncated covariant flow beyond the origin.

    The scale selection admits complex pairs (their conjugate partner gives
    the same real parts).  Among flow zeros with real part inside ``(0, 1)``
    the smallest in modulus is taken; when it -- or the scale -- is complex,
    the real parts of ``g*`` and ``omega`` are reported.  The flow derivative
    is evaluated through the chain rule back to the physical variable, which
    at a zero of the truncated series equals the mapped-side derivative.
    """
    if not table.mapping.beta_covariant:
        raise UsageError("fixed points need a beta-covariant table")
    try:
        sel = select_rho(table, k, criterion, allow_complex=True)
    except SelectionError:
        # No admissible scale at this order (constant or sign-definite tuning
        # polynomial).  Exact polynomial flows are scale-free, so fall back to
        # the unit scale and let the flag mark the report.
        sel = OdmReport(k=k, rho=mpf(1), candidates=(), mode=criterion.mode,
                        flagged=True)
    rho = sel.rho
    alpha = table.mapping.alpha
    coeffs = table.lambda_coeffs(rho, k)
    # beta_lambda(lam) = sum_{l>=1} c_l lam^l; divide the origin zero out.
    reduced = list(coeffs[1:])
    scale = max(abs(c) for c in reduced)
    while reduced and abs(reduced[-1]) <= tolerance(mp.dps // 2) * scale:
        reduced.pop()
    if len(reduced) < 2:
        raise FixedPointError("truncated flow has no zero beyond the origin at order %d" % k)
    roots = all_roots(reduced)
    real_tol = tolerance(mp.dps // 3)
    in_window = [r for r in roots if 0 < mp.re(r) < 1]
    if not in_window:
        raise FixedPointError("no flow zero with real part in (0, 1) at order %d" % k)
    lam_star = min(in_window, key=lambda r: (abs(r), abs(mp.im(r)), -mp.im(r)))
    lam_is_complex = abs(mp.im(lam_star)) > real_tol * max(1, abs(lam_star))
    if not lam_is_complex:
        lam_star = mp.re(lam_star)
    one_minus = 1 - lam_star
    g_star = rho * (one_minus ** (-alpha) - 1)
    beta_val = horner(coeffs, lam_star)
    beta_deriv = horner(derivative_coeffs(coeffs), lam_star)
    # d beta/d g at the zero via the chain rule; the first term vanishes
    # there because lambda_star is an exact root of the truncated flow.
    omega = beta_deriv + (alpha + 1) * beta_val / one_minus
    complex_pair = lam_is_complex or sel.is_complex
    if complex_pair:
        g_star = mp.re(g_star)
        omega = mp.re(omega)
    return FixedPointResult(
        k=k,
        rho=rho,
        lambda_star=lam_star,
        g_star=g_star,
        omega=omega,
        is_complex_pair=complex_pair,
        selection=sel,
    )


@dataclass(frozen=True)
class ExponentsResult:
    """Critical exponents summed at a fixed point, with both nu routes."""

    k: int
    g_star: object
    gamma: object
    eta: object
    nu_from_series: object     # 1 / (summed 1/nu), None without a nu table
    nu_from_scaling: object    # gamma / (2 - eta)
    reports: dict


def exponents_at(g_star, gamma_inv_table, eta_over_g2_table, k, criterion,
                 nu_inv_table=None, allow_complex=True):
    """Exponents at coupling ``g_star`` from order-``k`` summed series.

    The susceptibility exponent comes from the summed ``1/gamma`` series, the
    anomalous dimension from the summed ``eta/g^2`` series at order ``k - 2``
    (its two leading powers are stripped; when that order has no admissible
    scale the next order stands in), and ``nu`` both from the scaling
    relation ``gamma = nu (2 - eta)`` and, when a table for ``1/nu`` is
    supplied, from its own summation.
    """
    g_star = to_mpf(g_star)
    if g_star <= 0:
        raise UsageError("g_star must be positive")
    gamma_rep = odm_value(gamma_inv_table, k, criterion, g_star,
                          allow_complex=allow_complex)
    gamma = 1 / gamma_rep.value
    eta_rep = None
    eta = None
    if eta_over_g2_table is not None:
        for m in (k - 2, k - 1):
            if not 1 <= m <= eta_over_g2_table.source_order:
                continue
            try:
                eta_rep = odm_value(eta_over_g2_table, m, criterion, g_star,
                                    allow_complex=allow_complex)
            except SelectionError:
                continue
            eta = g_star ** 2 * eta_rep.value
            break
    nu_series = None
    nu_rep = None
    if nu_inv_table is not None:
        nu_rep = odm_value(nu_inv_table, k, criterion, g_star,
                           allow_complex=allow_complex)
        nu_series = 1 / nu_rep.value
    nu_scaling = gamma / (2 - eta) if eta is not None else None
    return ExponentsResult(
        k=k,
        g_star=g_star,
        gamma=gamma,
        eta=eta,
        nu_from_series=nu_series,
        nu_from_scaling=nu_scaling,
        reports={"gamma_inv": gamma_rep, "eta_over_g2": eta_rep, "nu_inv": nu_rep},
    )


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line with the parity-split slopes alongside."""

    slope: object
    intercept: object
    slope_even: object
    slope_odd: object
    n_points: int

    @property
    def parity_mean_slope(self):
        """Average of the even- and odd-order slopes; the headline number once
        even-odd oscillations are taken into account."""
        if self.slope_even is None or self.slope_odd is None:
            return self.slope
        return (self.slope_even + self.slope_odd) / 2


def _least_squares(points):
    n = len(points)
    if n < 2:
        return None, None
    sx = mp.fsum(x for x, _ in points)
    sy = mp.fsum(y for _, y in points)
    sxx = mp.fsum(x * x for x, _ in points)
    sxy = mp.fsum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        return None, None
    slope = (n * sxy - sx * sy) / denom
    return slope, (sy - slope * sx) / n


def _parity_fit(rows):
    """Least-squares line through ``(k, x, y)`` rows, with the slopes of the
    even-``k`` and odd-``k`` rows alongside."""
    slope, intercept = _least_squares([(x, y) for _, x, y in rows])
    even = [(x, y) for k, x, y in rows if k % 2 == 0]
    odd = [(x, y) for k, x, y in rows if k % 2 == 1]
    return LinearFit(slope=slope, intercept=intercept,
                     slope_even=_least_squares(even)[0],
                     slope_odd=_least_squares(odd)[0], n_points=len(rows))


def linear_fit(points):
    """Fit ``y = slope x + intercept`` on all points and on each parity class
    of the integer abscissa."""
    pts = [(to_mpf(x), to_mpf(y)) for x, y in points]
    if len(pts) < 2:
        raise FitError("need at least two points to fit")
    return _parity_fit([(int(round(float(x))), x, y) for x, y in pts])


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-order reports plus the scale and error-decay fits.

    ``r_estimate`` is the headline scale constant: the inverse parity-mean
    slope of ``1/rho_k`` for the quadratic-exponent mapping (whose
    trajectory is clean to O(1/k)), and the bias-corrected intercept of
    ``rho_k k`` against ``k^(1/alpha - 1)`` otherwise, where the approach to
    the asymptote is itself a power law.
    """

    reports: tuple
    inv_rho_fit: LinearFit      # 1/rho_k against k; 1/slope estimates R
    rate_fit: LinearFit         # ln|delta_k| against the decay abscissa
    rate_abscissa: str          # "k" or "k^(1-1/alpha)"
    r_estimate: object
    r_slope: object             # 1 / parity-mean slope of the linear fit
    r_corrected: object         # corrected-intercept estimate

    def report(self, k):
        for rep in self.reports:
            if rep.k == k:
                return rep
        raise KeyError(k)


def convergence_study(table, criterion, K, g, oracle=None, fit_min_order=5,
                      rate_abscissa=None):
    """Run the summation at every order up to ``K`` and fit its trends.

    ``oracle`` may be a number (the exact value at ``g``) or a callable of
    ``g``; deltas are recorded as ``oracle - value``.  The scale fit uses
    ``1/rho_k`` against ``k``; the error fit uses ``ln|delta_k|`` against
    ``k`` for the quadratic-exponent mapping (its decay is cleanly geometric)
    and against ``k^(1-1/alpha)`` otherwise.  Orders where selection fails
    are skipped; fits need at least six surviving orders at or above
    ``fit_min_order``.
    """
    if K > table.source_order - 1:
        raise UsageError("K=%d needs table order >= %d for error estimates"
                         % (K, K + 1))
    exact = None
    if oracle is not None:
        exact = to_mpf(oracle(g)) if callable(oracle) else to_mpf(oracle)
    reports = []
    for k in range(1, K + 1):
        try:
            rep = odm_value(table, k, criterion, g)
        except SelectionError:
            continue
        if exact is not None:
            rep = replace(rep, delta=exact - rep.value)
        reports.append(rep)
    usable = [r for r in reports if r.k >= fit_min_order]
    if len(usable) < 6:
        raise FitError("only %d usable orders at or above %d" % (len(usable), fit_min_order))
    inv_rho_fit = linear_fit([(r.k, 1 / r.rho) for r in usable])
    alpha = table.mapping.alpha
    if rate_abscissa is None:
        rate_abscissa = "k" if alpha == 2 else "k^(1-1/alpha)"

    def absc(k):
        return mpf(k) if rate_abscissa == "k" else mpf(k) ** (1 - 1 / alpha)

    rate_rows = []
    for r in usable:
        size = abs(r.delta) if exact is not None else r.error_estimate
        if size is None or size == 0:
            continue
        rate_rows.append((r.k, absc(r.k), mp.log(size)))
    if len(rate_rows) < 6:
        raise FitError("fewer than six orders carry a usable error measure")
    rate_fit = _parity_fit(rate_rows)
    mean_slope = inv_rho_fit.parity_mean_slope
    r_slope = 1 / mean_slope if mean_slope not in (None, 0) else None
    r_corrected = _corrected_r(usable, alpha)
    r_est = r_slope if alpha == 2 else r_corrected
    return ConvergenceStudy(
        reports=tuple(reports),
        inv_rho_fit=inv_rho_fit,
        rate_fit=rate_fit,
        rate_abscissa=rate_abscissa,
        r_estimate=r_est,
        r_slope=r_slope,
        r_corrected=r_corrected,
    )


def _corrected_r(usable, alpha):
    """Intercept of ``rho_k k`` against ``k^(1/alpha - 1)``, parity-averaged.

    The scale trajectory approaches ``R/k`` with a power-law correction for
    generic mapping exponents; extrapolating the intercept removes that
    leading bias from the estimate.
    """
    power = 1 / alpha - 1

    def intercept(rows):
        if len(rows) < 3:
            return None
        pts = [(mpf(r.k) ** power, r.rho * r.k) for r in rows]
        slope, inter = _least_squares(pts)
        return inter

    even = intercept([r for r in usable if r.k % 2 == 0])
    odd = intercept([r for r in usable if r.k % 2 == 1])
    if even is not None and odd is not None:
        return (even + odd) / 2
    return intercept(usable)
