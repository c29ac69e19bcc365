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
from itertools import chain, islice

from mpmath import mp, mpc, mpf

from .errors import FitError, FixedPointError, ResourceError, SelectionError, UsageError
from .mapping import MappingFamily, g_of_lambda, lambda_of_g
from .poly import Polynomial, all_roots, complex_pools, derivative_coeffs, horner, positive_roots
# Re-exported: callers, and the benchmark tracer in perfbench/, look these
# up on this module.
from .poly import polynomial_real_roots, polyroots  # noqa: F401
from .precision import finite_mpf, member, positive_mpf, to_mpf, tolerance, whole_number


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
    half the real part -- compete in the same pool as the real candidates;
    wider pairs are used only when the pool is empty, largest modulus first.
    Downstream consumers report real parts.
    """

    mode: SelectionMode = SelectionMode.MIXED
    smallness_factor: object = "0.5"

    def __post_init__(self):
        member(SelectionMode, self.mode, "mode")
        object.__setattr__(self, "smallness_factor",
                           positive_mpf(self.smallness_factor, "smallness_factor"))


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


_MIN_DIGITS = 4  # select_rho refuses a scale predicted correct to fewer digits

# The zero sets each mode tries, in order: those of P_k (ROOT) or of P_k'
# (STATIONARY).  The first set with a candidate decides the report's mode.
_ZERO_SETS = {
    SelectionMode.ROOT: (SelectionMode.ROOT,),
    SelectionMode.STATIONARY: (SelectionMode.STATIONARY,),
    SelectionMode.MIXED: (SelectionMode.ROOT, SelectionMode.STATIONARY),
    SelectionMode.STATIONARY_FIRST: (SelectionMode.STATIONARY, SelectionMode.ROOT),
}


def select_rho(table, k, criterion, allow_complex=False):
    """Choose the order-``k`` mapping scale per the selection criterion.

    ROOT mode: positive roots of ``P_k``, examined in decreasing modulus
    order; the first whose derivative is small against the neighbor scale
    ``|P_{k-1}(rho)| k / rho`` wins; if none passes the largest is taken,
    flagged.  STATIONARY swaps the roles of ``P_k`` and ``P_k'`` (zeros of
    the derivative, value tested against ``|P_{k-1}(rho)|``).  MIXED prefers
    the root pool whenever it is populated; STATIONARY_FIRST is its mirror.

    With ``allow_complex``, near-real conjugate pairs compete in the pool
    and wide pairs act as the empty-pool fallback (the largest modulus,
    taken unflagged without the smallness test); the report's
    ``is_complex`` marks such picks.  Real candidates come from the
    descending scan of :mod:`resum.poly`, read lazily: an order whose
    candidate passes stops there, and only a flagged order scans the whole
    range.  One loop reads every candidate, each magnitude from a
    :class:`resum.poly.Polynomial`: ``P_k`` and ``P_{k-1}`` are the table's
    ``rows``, and ``P_k'`` is built here once; the scans read the same two.

    A pick predicted correct to fewer than 4 digits, ``dps - log10 kappa -
    log10(k + 2)``, is a :class:`ResourceError`: the rounded coefficients do
    not determine it, and only more working digits do.  ``kappa = sum_j
    |c_j rho^j| / |rho Q'(rho)|`` is its relative condition as a zero of
    ``Q = P_k`` or ``P_k'`` with coefficients ``c_j``: a relative change
    ``eps`` in them moves the zero by about ``kappa eps`` relative.
    """
    whole_number(k, "k", 1, table.source_order)
    tau = criterion.smallness_factor
    row = table.rows[k]
    if all(c == 0 for c in row.coeffs):
        # A vanishing tuning polynomial leaves the scale free (constant
        # sources): any rho reproduces the value, so report unit scale.
        return OdmReport(k=k, rho=mpf(1), candidates=((mpf(1), mpf(0), mpf(0)),),
                         mode=criterion.mode, flagged=False)
    deriv = Polynomial(derivative_coeffs(row.coeffs) or (mpf(0),))
    for mode in _ZERO_SETS[criterion.mode]:
        zeros_of = row if mode is SelectionMode.ROOT else deriv
        pool, wide = complex_pools(zeros_of) if allow_complex else (positive_roots(zeros_of), [])
        head = list(islice(pool, 1))  # the largest candidate, if any
        if head or wide:
            break
    else:
        raise SelectionError("no admissible %s at order %d" % (" or ".join(
            "root" if m is SelectionMode.ROOT else "stationary point"
            for m in _ZERO_SETS[criterion.mode]), k))
    rows = (row, deriv, table.rows[k - 1])
    examined = []
    for rho in chain(head, pool) if head else wide[:1]:
        pval, dval, scale = (abs(p(rho)) for p in rows)  # scale: the neighbor yardstick
        examined.append((rho, pval, dval))
        if mode is SelectionMode.ROOT:
            passed = dval <= tau * scale * k / abs(rho)
        else:
            passed = pval <= tau * scale
        if passed or not head:  # a wide pair is taken as it is, unflagged
            break
    flagged = bool(head) and not passed
    rho, _, dval = examined[0] if flagged else examined[-1]  # flagged: the largest
    # The pick's condition: |Q'(rho)| for Q = P_k is dval; for Q = P_k' it is P_k''.
    slope = dval if mode is SelectionMode.ROOT else abs(
        Polynomial(derivative_coeffs(deriv.coeffs) or (mpf(0),))(rho))
    size = Polynomial([abs(c) for c in zeros_of.coeffs])(abs(rho))  # sum_j |c_j rho^j|
    digits = mp.dps - mp.log10(size / abs(rho * slope) * (k + 2)) if slope else -mp.inf
    if digits < _MIN_DIGITS:
        raise ResourceError("order %d: rho = %s is predicted correct to %s digits at %d digits; "
                            "raise the working precision above %s digits" % (
                                k, mp.nstr(rho, 8), mp.nstr(digits, 3), mp.dps,
                                mp.nstr(mp.dps + _MIN_DIGITS - digits, 4)))
    return OdmReport(k=k, rho=rho, candidates=tuple(examined), mode=mode, flagged=flagged,
                     is_complex=isinstance(rho, mpc))


def odm_value(table, k, criterion, g, allow_complex=False):
    """Evaluate the order-``k`` approximant at coupling ``g`` (or ``inf``).

    One rule at every coupling: a prefactor ``A`` times the partial sum
    ``S = sum_{l<=k} P_l(rho_k) lambda^l``, and the error estimate the next
    term, ``|A P_{k+1}(rho_k) lambda^(k+1)|``, whenever the table extends to
    ``k+1``.  Finite ``g``: ``A = (1-lambda)^p`` with ``lambda`` from the
    mapping inversion.  ``g = inf`` (power-cut only): the strong-coupling
    amplitude of ``g^(-p/alpha)``, ``A = rho_k^(p/alpha)`` at ``lambda = 1``,
    and ``S = Q_k(rho_k)``: ``Q_k`` is the table's exact ``prefix_row`` (row
    ``k`` at prefactor ``p + 1``), evaluated once.
    A beta-covariant table holds a mapped flow, not a sum, and is refused:
    :func:`fixed_point` reads such tables.

    With ``allow_complex`` (shifted-power family only), a complex-pair scale
    is admitted: the mapped point follows the inversion into the complex
    plane and the real part of the approximant is reported.
    """
    g = to_mpf(g, "g")
    mapping = table.mapping
    if mapping.beta_covariant:
        raise UsageError("a beta-covariant table holds a flow, not a sum; use fixed_point")
    sel = select_rho(table, k, criterion, allow_complex=allow_complex)
    rho = sel.rho
    strong = g == mp.inf
    if strong and mapping.family is not MappingFamily.POWER_CUT:
        raise UsageError("strong-coupling evaluation needs the power-cut family")
    lam = lambda_of_g(g, rho, mapping)
    p = mapping.prefactor_p
    if strong:  # g^(p/alpha) (1-lambda)^p -> rho^(p/alpha); one exact prefix row
        prefactor, partial = rho ** (p / mapping.alpha), table.prefix_row(k)(rho)
    else:
        prefactor, partial = (1 - lam) ** p, horner(table.lambda_coeffs(rho, k), lam)
    value = mp.re(prefactor * partial)
    nxt = [P(rho) for P in table.rows[k + 1:k + 2]]
    err = abs(prefactor * nxt[0] * lam ** (k + 1)) if nxt else None
    return replace(sel, g=g, lam=lam, value=value, error_estimate=err)


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
    g_star = g_of_lambda(lam_star, rho, table.mapping)
    beta_val = horner(coeffs, lam_star)
    beta_deriv = horner(derivative_coeffs(coeffs), lam_star)
    # d beta/d g at the zero via the chain rule; the first term vanishes
    # there because lambda_star is an exact root of the truncated flow.
    omega = beta_deriv + (alpha + 1) * beta_val / (1 - lam_star)
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
    nu_from_series: object     # 1 / (summed 1/nu)
    nu_from_scaling: object    # gamma / (2 - eta)
    reports: dict


def exponents_at(g_star, gamma_inv_table, eta_over_g2_table, k, criterion, nu_inv_table):
    """Exponents at coupling ``g_star`` from order-``k`` summed series.

    The susceptibility exponent comes from the summed ``1/gamma`` series, the
    anomalous dimension from the summed ``eta/g^2`` series at order ``k - 2``
    (its two leading powers are stripped; when that order has no admissible
    scale the next order stands in, and with neither ``eta`` is None), and
    ``nu`` both from the scaling relation ``gamma = nu (2 - eta)`` and from
    the summed ``1/nu`` series.  Complex-pair scales are admitted.
    """
    g_star = positive_mpf(g_star, "g_star")
    gamma_rep = odm_value(gamma_inv_table, k, criterion, g_star, allow_complex=True)
    gamma = 1 / gamma_rep.value
    eta_rep = None
    eta = None
    for m in (k - 2, k - 1):
        if not 1 <= m <= eta_over_g2_table.source_order:
            continue
        try:
            eta_rep = odm_value(eta_over_g2_table, m, criterion, g_star, allow_complex=True)
        except SelectionError:
            continue
        eta = g_star ** 2 * eta_rep.value
        break
    nu_rep = odm_value(nu_inv_table, k, criterion, g_star, allow_complex=True)
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
    """Least-squares line with the parity-split slopes and intercepts alongside."""

    slope: object
    intercept: object
    slope_even: object
    slope_odd: object
    intercept_even: object = None
    intercept_odd: object = None

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
    """Least-squares line through ``(k, x, y)`` rows, with the lines through
    the even-``k`` and odd-``k`` rows alongside."""
    slope, intercept = _least_squares([(x, y) for _, x, y in rows])
    slope_even, intercept_even = _least_squares([(x, y) for k, x, y in rows if k % 2 == 0])
    slope_odd, intercept_odd = _least_squares([(x, y) for k, x, y in rows if k % 2 == 1])
    return LinearFit(slope, intercept, slope_even, slope_odd, intercept_even, intercept_odd)


# Orders below this stay out of the trend fits, which describe the
# large-order approach of the scale and error trajectories.
_FIT_MIN_ORDER = 5


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
        """The report of order ``k``; :class:`UsageError` naming ``k`` for an
        order the study does not hold."""
        for rep in self.reports:
            if rep.k == k:
                return rep
        raise UsageError("k must be an order the study holds (%s), got %r"
                         % (", ".join(str(rep.k) for rep in self.reports), k))


def convergence_study(table, criterion, K, g, oracle=None):
    """Run the summation at every order up to ``K`` and fit its trends.

    ``oracle``, when given, is the exact value at ``g``; deltas are recorded
    as ``oracle - value``.  The scale fit uses ``1/rho_k`` against ``k``; the
    error fit uses ``ln|delta_k|`` against ``k`` for the quadratic-exponent
    mapping (its decay is cleanly geometric) and against ``k^(1-1/alpha)``
    otherwise.  Orders where selection fails
    are skipped; fits need at least six surviving orders from k = 5 on.
    """
    whole_number(K, "K", 1, table.source_order - 1)  # P_(K+1) estimates the error
    exact = None if oracle is None else finite_mpf(oracle, "oracle")
    reports = []
    for k in range(1, K + 1):
        try:
            rep = odm_value(table, k, criterion, g)
        except SelectionError:
            continue
        if exact is not None:
            rep = replace(rep, delta=exact - rep.value)
        reports.append(rep)
    usable = [r for r in reports if r.k >= _FIT_MIN_ORDER]
    if len(usable) < 6:
        raise FitError("only %d usable orders at or above %d" % (len(usable), _FIT_MIN_ORDER))
    inv_rho_fit = _parity_fit([(r.k, mpf(r.k), 1 / r.rho) for r in usable])
    alpha = table.mapping.alpha
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
    """Intercept of ``rho_k k`` against ``k^(1/alpha - 1)``, parity-averaged
    when each parity has three orders or more, else over all orders.

    The scale trajectory approaches ``R/k`` with a power-law correction for
    generic mapping exponents; extrapolating the intercept removes that
    leading bias from the estimate.
    """
    power = 1 / alpha - 1
    fit = _parity_fit([(r.k, mpf(r.k) ** power, r.rho * r.k) for r in usable])
    odd = sum(r.k % 2 for r in usable)
    if min(odd, len(usable) - odd) >= 3 and None not in (fit.intercept_even, fit.intercept_odd):
        return (fit.intercept_even + fit.intercept_odd) / 2
    return fit.intercept
