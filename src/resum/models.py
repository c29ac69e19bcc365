"""Benchmark series generators and their independent numeric oracles.

Three classic strongly divergent expansions drive the test and benchmark
suites:

* the zero-dimensional quartic partition function
  ``Z(g) = (2*pi)^(-1/2) Integral dx exp(-x^2/2 - g x^4/4!)``,
* the ground-state energy of the quartic anharmonic oscillator
  ``H = p^2/2 + x^2/2 + (g/4!) x^4``,
* the seven-loop renormalization-group functions of the three-dimensional
  scalar phi^4 model (beta function and the exponent series gamma^-1, eta).

The d=0 coefficients come from a ratio recursion at working precision; the
oscillator's from the Bender-Wu recursion in integers scaled by ``4^k j!``,
every division checked exact, each coefficient rounded once at the end.  The
value oracles (the d=0 integral in closed form through a modified Bessel
function, the oscillator by harmonic-basis diagonalization) are deliberately
independent of every summation algorithm in this package so they can
arbitrate accuracy claims.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DiagnosticError, DomainError, ResourceError, UsageError
from .precision import to_mpf, tolerance, whole_number
from .series import PowerSeries, multiply

# Borel-plane singularity parameter of the d=3 beta-function series.
RG_LARGE_ORDER_A_PARAM = "0.147774232"


def d0_partition_coeffs(K):
    """Expansion coefficients of the d=0 partition function through order K.

    Gaussian moments give ``Z_k = (-1/24)^k (4k-1)!! / k!`` which the stable
    ratio recursion ``Z_k = -Z_{k-1} (4k-1)(4k-3) / (24 k)`` reproduces
    without ever forming the factorials.
    """
    coeffs = [mpf(1)]
    for k in range(1, whole_number(K, "K", 0) + 1):
        coeffs.append(-coeffs[-1] * (4 * k - 1) * (4 * k - 3) / (24 * k))
    return PowerSeries(coeffs, "g")


def d0_partition_value(g):
    """Numeric value of the d=0 partition integral at coupling ``g >= 0``.

    Finite ``g > 0`` takes the closed form (DLMF 10.32)
    ``Z(g) = sqrt(2z/pi) e^z K_(1/4)(z)`` with ``z = 3/(4g)``: it keeps every
    digit at large coupling, where quadrature of the narrowing integrand
    loses them (to 1e-18 at g = 1e60).  ``g = inf`` returns the
    strong-coupling amplitude
    ``lim g^(1/4) Z(g) = (1/2) 24^(1/4) sqrt(pi) / Gamma(3/4)``.
    """
    g = to_mpf(g, "g")
    if not g >= 0:
        raise DomainError("the integral needs g >= 0 or inf, got %s" % g)
    if g == mp.inf:
        return mpf("0.5") * mpf(24) ** mpf("0.25") * mp.sqrt(mp.pi) / mp.gamma(mpf(3) / 4)
    if g == 0:
        return mpf(1)
    with mp.extradps(10):
        z = 3 / (4 * g)
        val = mp.sqrt(2 * z / mp.pi) * mp.exp(z) * mp.besselk(mpf(1) / 4, z)
    return +val


def _x4_even_elements(n):
    """Nonzero <n|x^4|m> in the unit-frequency oscillator basis, m = n, n+2, n+4."""
    d0 = (6 * n * n + 6 * n + 3) / mpf(4)
    d2 = (2 * n + 3) * mp.sqrt((n + 1) * (n + 2)) / 2
    d4 = mp.sqrt((n + 1) * (n + 2) * (n + 3) * (n + 4)) / 4
    return d0, d2, d4


def anharmonic_ground_coeffs(K):
    """Ground-state perturbation coefficients E_k of ``H = p^2/2 + x^2/2 + (g/4!) x^4``.

    Bender-Wu recursion (Phys. Rev. D 7 (1973) 1620) in exact integers.  The
    ansatz ``psi = exp(-x^2/2) sum_k lambda^k sum_j A_kj x^(2j)`` with
    ``lambda = g/24`` and ``A_k0 = delta_k0`` gives, for the scaled integers
    ``D_kj = 4^k j! A_kj`` (``D_00 = 1``, zero for ``j > 2k``) and
    ``e_k = 4^k epsilon_k = -D_k1``, for ``j = 2k .. 1``::

        2j D_kj = (2j+1) D_k,j+1 - 4j(j-1) D_k-1,j-2 + sum_{i<k} e_i D_k-i,j

    A nonzero remainder of any division by ``2j`` raises
    :class:`DiagnosticError`, so the integers are certified exact; each
    ``E_k = e_k / 96^k`` is rounded once to the working precision.  O(K^3).
    """
    whole_number(K, "K", 0)
    coeffs = [mpf(1) / 2]
    rows = [[1]]  # rows[k][j] = D_kj for j = 0 .. 2k, so e_k = -rows[k][1]
    for k in range(1, K + 1):
        row = [0] * (2 * k + 2)  # row[2k + 1] = 0 seeds the top order
        for j in range(2 * k, 0, -1):
            acc = (2 * j + 1) * row[j + 1] - 4 * j * (j - 1) * rows[k - 1][j - 2]  # 0 at j=1
            for i in range(1, k - (j + 1) // 2 + 1):  # rows[k - i] ends at 2(k - i)
                acc -= rows[i][1] * rows[k - i][j]
            row[j], rem = divmod(acc, 2 * j)
            if rem:
                raise DiagnosticError("Bender-Wu division by %d inexact at order %d" % (2 * j, k))
        rows.append(row[:-1])
        coeffs.append(mp.fdiv(-row[1], 96 ** k))
    return PowerSeries(coeffs, "g")


def _band_matvec(diag, off1, off2, v):
    n = len(diag)
    out = []
    for i in range(n):
        acc = diag[i] * v[i]
        if i >= 1:
            acc += off1[i - 1] * v[i - 1]
        if i + 1 < n:
            acc += off1[i] * v[i + 1]
        if i >= 2:
            acc += off2[i - 2] * v[i - 2]
        if i + 2 < n:
            acc += off2[i] * v[i + 2]
        out.append(acc)
    return out


def _band_ldl(diag, off1, off2, shift):
    """``L D L^T`` of the pentadiagonal band minus ``shift`` as ``(d, a, b)``:
    the pivots, ``a[i] = L[i][i-1]`` and ``b[i] = L[i][i-2]``; None as soon as
    a pivot is not positive.  All-positive pivots prove, by Sylvester's law of
    inertia, that ``shift`` lies below every eigenvalue of the band."""
    d, a, b = [mpf(1)] * 2, [0, 0], [0, 0]  # two virtual rows ahead of row 0
    for aii, e, f in zip(diag, [0] + off1, [0, 0] + off2):
        bi = f / d[-2]
        ai = (e - bi * a[-1] * d[-2]) / d[-1]
        p = aii - shift - ai * ai * d[-1] - bi * bi * d[-2]
        if not p > 0:
            return None
        d.append(p)
        a.append(ai)
        b.append(bi)
    return d[2:], a[2:], b[2:]


def _band_ldl_solve(factors, x):
    """Solve ``L D L^T y = x`` for the factors of :func:`_band_ldl`."""
    d, a, b = factors
    y = [0, 0]
    for xi, ai, bi in zip(x, a, b):
        y.append(xi - ai * y[-1] - bi * y[-2])
    # Back substitution with L^T, over two zero rows past the end.
    y = [v / p for v, p in zip(y[2:], d)] + [0, 0]
    a, b = a + [0], b + [0, 0]
    for i in reversed(range(len(d))):
        y[i] -= a[i + 1] * y[i + 1] + b[i + 2] * y[i + 2]
    return y[:-2]


def _lowest_even_eigenvalue(diag, off1, off2, start, rel_tol):
    """Lowest eigenvalue and unit eigenvector of a symmetric pentadiagonal
    band, by shift-and-invert iteration from ``start`` (padded with zeros).

    Each shift is the Rayleigh quotient minus the residual norm, moved down by
    doubling steps until :func:`_band_ldl` accepts it, and at the latest just
    below the Gershgorin bound.  Every solve thus runs below the spectrum and
    converges to the lowest eigenvalue whenever ``start`` overlaps its vector.
    """
    n = len(diag)
    radii = _band_matvec([0] * n, [abs(v) for v in off1], [abs(v) for v in off2], [1] * n)
    floor = min(a - r for a, r in zip(diag, radii))
    floor -= rel_tol * (1 + abs(floor))
    x = list(start) + [mpf(0)] * (n - len(start))
    last = None
    for _ in range(60):
        norm = mp.sqrt(mp.fsum(v * v for v in x))
        x = [v / norm for v in x]
        hx = _band_matvec(diag, off1, off2, x)
        rq = mp.fsum(a * b for a, b in zip(x, hx))
        if last is not None and abs(rq - last) <= rel_tol * max(1, abs(rq)):
            return rq, x
        last = rq
        # rel_tol keeps the doubling moving when the residual is exactly zero.
        step = mp.sqrt(mp.fsum((h - rq * v) ** 2 for h, v in zip(hx, x))) + rel_tol
        while (factors := _band_ldl(diag, off1, off2, max(rq - step, floor))) is None:
            if rq - step <= floor:
                raise ResourceError("band not positive definite below its Gershgorin bound")
            step *= 2
        x = _band_ldl_solve(factors, x)
    raise ResourceError("inverse iteration did not stabilize")


def _even_sector_bands(nbasis, omega, c2, c4):
    """Pentadiagonal even-sector bands of ``p^2/2 + c2 x^2 + c4 x^4`` in a
    frequency-``omega`` oscillator basis."""
    diag, off1, off2 = [], [], []
    for m in range(nbasis):
        n = 2 * m
        x4_0, x4_2, x4_4 = _x4_even_elements(n)
        half_n = n + mpf(1) / 2
        ssq = mp.sqrt((n + 1) * (n + 2)) / 2
        diag.append(omega / 2 * half_n + c2 / omega * half_n + c4 / omega ** 2 * x4_0)
        off1.append(-omega / 2 * ssq + c2 / omega * ssq + c4 / omega ** 2 * x4_2)
        off2.append(c4 / omega ** 2 * x4_4)
    return diag, off1, off2


# Largest even-sector basis the diagonalization oracle may grow to.
_MAX_BASIS = 3000


def anharmonic_ground_value(g):
    """Ground-state energy of the quartic anharmonic oscillator at ``g >= 0``.

    Finds the lowest eigenvalue of the even sector of the scaled oscillator
    basis (:func:`_lowest_even_eigenvalue`), growing the basis until it is
    stable to ``10^(10 - digits)`` relative (well beyond the 1e-12 the
    contract promises).
    ``g = inf`` returns the strong-coupling amplitude ``lim g^(-1/3) E(g)``,
    the ground energy of ``p^2/2 + x^4/24``.
    """
    rel_tol = tolerance(10)
    g = to_mpf(g, "g")
    if not g >= 0:
        raise DomainError("the eigenvalue problem needs g >= 0 or inf, got %s" % g)
    if g == 0:
        return mpf(1) / 2
    with mp.extradps(15):
        if g == mp.inf:
            c2, c4 = mpf(0), mpf(1) / 24
            omega = (6 * c4) ** (mpf(1) / 3) * 2
        else:
            c2, c4 = mpf(1) / 2, g / 24
            omega = max(mpf(1), (6 * c4) ** (mpf(1) / 3) * 2)
        nbasis = 48
        prev, vec = None, [mpf(1)]
        while nbasis <= _MAX_BASIS:
            bands = _even_sector_bands(nbasis, omega, c2, c4)
            val, vec = _lowest_even_eigenvalue(*bands, vec, rel_tol=rel_tol / 10)
            if prev is not None and abs(val - prev) <= rel_tol * abs(val):
                return +val
            prev = val
            nbasis = nbasis * 2
    raise ResourceError(
        "eigenvalue not stable to %s within %d basis states" % (rel_tol, _MAX_BASIS)
    )


@dataclass(frozen=True)
class RgSeriesSet:
    """Seven-loop d=3 renormalization-group series in the rescaled coupling."""

    beta: PowerSeries
    gamma_inv: PowerSeries
    eta: PowerSeries
    large_order_a: object

    def __post_init__(self):
        if self.beta.order != 7 or self.gamma_inv.order != 7 or self.eta.order != 7:
            raise UsageError("RG series are seven-loop: order 7 expected")
        if self.beta.coeffs[0] != 0 or self.beta.coeffs[1] != -1 or self.beta.coeffs[2] != 1:
            raise UsageError("beta series must start -g + g^2")


_BETA_COEFFS = ("0", "-1", "1", "-308/729", "0.3510695977",
                "-0.3765268283", "0.49554751", "-0.749689")
_GAMMA_INV_COEFFS = ("1", "-1/6", "1/27", "-0.0230696212", "0.0198868202",
                     "-0.0224595215", "0.0303679053", "-0.046877951")
_ETA_COEFFS = ("0", "0", "0.0109739368", "0.0009142222", "0.0017962228",
               "-0.0006537035", "0.0012749100", "-0.001697694")


def rg_series():
    """The published seven-loop series, parsed at working precision."""
    return RgSeriesSet(
        beta=PowerSeries(_BETA_COEFFS, "gtilde"),
        gamma_inv=PowerSeries(_GAMMA_INV_COEFFS, "gtilde"),
        eta=PowerSeries(_ETA_COEFFS, "gtilde"),
        large_order_a=to_mpf(RG_LARGE_ORDER_A_PARAM),
    )


def eta_over_g2_series():
    """The eta series with its leading ``g^2`` stripped (order 5)."""
    eta = rg_series().eta
    return PowerSeries(eta.coeffs[2:], eta.var)


def nu_inv_series():
    """Series of ``1/nu = (2 - eta) / gamma`` through order 7.

    Built from the published series via the exact exponent relation
    ``gamma = nu (2 - eta)``, providing an independently summable route to
    ``nu``.
    """
    rg = rg_series()
    two_minus_eta = PowerSeries(
        tuple((2 if k == 0 else 0) - c for k, c in enumerate(rg.eta.coeffs)),
        rg.eta.var,
    )
    return multiply(rg.gamma_inv, two_minus_eta)
