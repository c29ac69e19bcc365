"""Generators for the benchmark series and their independent oracles."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from resum import (
    DomainError,
    anharmonic_ground_coeffs,
    anharmonic_ground_value,
    d0_partition_coeffs,
    d0_partition_value,
    eta_over_g2_series,
    nu_inv_series,
    ratio_growth_constant,
    rg_series,
)
from resum.models import (
    _band_ldl,
    _even_sector_bands,
    _lowest_even_eigenvalue,
    _x4_even_elements,
)

ROOT = Path(__file__).resolve().parent.parent


def band_and_lowest():
    """The g = 1, omega = 2 band at 24 states and its lowest eigenvalue by
    mpmath's dense symmetric solver."""
    bands = _even_sector_bands(24, mpf(2), mpf("0.5"), mpf(1) / 24)
    diag, off1, off2 = bands
    n = len(diag)
    a = mp.zeros(n)
    for i in range(n):
        a[i, i] = diag[i]
        if i + 1 < n:
            a[i, i + 1] = a[i + 1, i] = off1[i]
        if i + 2 < n:
            a[i, i + 2] = a[i + 2, i] = off2[i]
    return bands, min(mp.eigsy(a, eigvals_only=True))


def rayleigh_schrodinger_coeffs(K):
    """E_0..E_K by Rayleigh-Schrodinger perturbation theory over normalized
    oscillator states, with 2K + 10 guard digits against the cancellation
    between orders: an independent route to the Bender-Wu integers."""
    with mp.extradps(2 * K + 10):
        # w[n] = <n|x^4/24|m> for m = n, n+2, n+4 (even n).
        w = {n: tuple(d / 24 for d in _x4_even_elements(n)) for n in range(0, 4 * K + 5, 2)}
        energies = [mpf(1) / 2]
        # psi[j][n] for even n > 0; intermediate normalization <0|psi_j> = delta_j0.
        psi = [{0: mpf(1)}]
        for j in range(1, K + 1):
            applied = {}
            for n, c in psi[j - 1].items():
                if c == 0:
                    continue
                terms = [(n, w[n][0]), (n + 2, w[n][1]), (n + 4, w[n][2])]
                if n >= 2:
                    terms.append((n - 2, w[n - 2][1]))
                if n >= 4:
                    terms.append((n - 4, w[n - 4][2]))
                for m, d in terms:
                    applied[m] = applied.get(m, mpf(0)) + d * c
            energies.append(applied.get(0, mpf(0)))
            cur = {}
            for n, v in applied.items():
                if n == 0:
                    continue
                acc = -v
                for i in range(1, j):
                    c_prev = psi[j - i].get(n)
                    if c_prev is not None:
                        acc += energies[i] * c_prev
                cur[n] = acc / n
            psi.append(cur)
    return [+e for e in energies]  # rounded once to the working precision


def test_package_imports_neither_numpy_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import resum, resum.cli, sys; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestD0Coefficients:
    def test_normalization(self):
        assert d0_partition_coeffs(0).coeffs == (mpf(1),)

    def test_low_orders_against_moment_oracle(self):
        # Independent route: coefficient k is (-1/24)^k <x^(4k)> / k! with the
        # moment taken by quadrature against the Gaussian weight.
        z = d0_partition_coeffs(2)
        for k in (1, 2):
            moment = mp.quad(
                lambda x: x ** (4 * k) * mp.exp(-x * x / 2), [-mp.inf, mp.inf]
            ) / mp.sqrt(2 * mp.pi)
            expect = (mpf(-1) / 24) ** k * moment / mp.factorial(k)
            assert abs(z.coeffs[k] - expect) < mpf("1e-40")
        assert z.coeffs[1] == mpf(-1) / 8
        assert abs(z.coeffs[2] - mpf(35) / 384) < mpf("1e-62")

    def test_growth_constant(self):
        est = ratio_growth_constant(d0_partition_coeffs(60), 10)
        assert abs(est - mpf("1.5")) / mpf("1.5") < mpf("0.05")

    def test_signs_alternate_from_first_order(self):
        z = d0_partition_coeffs(20)
        for k in range(1, 20):
            assert z.coeffs[k] * z.coeffs[k + 1] < 0


class TestD0Value:
    def test_gaussian_limit(self):
        assert abs(d0_partition_value(0) - 1) < mpf("1e-50")

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            d0_partition_value(-1)

    @pytest.mark.parametrize("g", [mp.nan, -mp.inf])
    def test_rejects_non_finite_coupling(self, g):
        with pytest.raises(DomainError, match="got %s" % g):
            d0_partition_value(g)

    def test_two_quadrature_schemes_agree(self):
        # The closed-form oracle against Gauss-Legendre nodes on the integral.
        a = d0_partition_value(5)
        # 30 digits keep the node set cheap and still resolve 1e-20.
        with mp.workdps(30):
            b = mp.quad(lambda x: mp.exp(-x * x / 2 - 5 * x ** 4 / 24), [0, mp.inf],
                        method="gauss-legendre")
            b = 2 * b / mp.sqrt(2 * mp.pi)
        assert abs(a - b) < mpf("1e-20")

    @pytest.mark.parametrize("g", ["0.1", "0.5", "5", "50"])
    def test_bessel_closed_form(self, g):
        # The DLMF 10.32 Bessel form of the oracle against tanh-sinh
        # quadrature of the integral itself, an independent route.
        g = mpf(g)
        with mp.extradps(10):
            integral = mp.quad(lambda x: mp.exp(-x * x / 2 - g * x ** 4 / 24), [0, mp.inf])
            integral = 2 * integral / mp.sqrt(2 * mp.pi)
        assert abs(d0_partition_value(g) - integral) <= mpf("1e-60") * integral

    @pytest.mark.parametrize("g", ["1e30", "1e60", "1e300"])
    def test_large_coupling_keeps_every_digit(self, g):
        # With x = s g^(-1/4) the integrand no longer narrows as g grows:
        # Z = 2 c / sqrt(2 pi) Int exp(-c^2 s^2 / 2 - s^4/24) ds, c = g^(-1/4),
        # split where s^4/24 turns over.  Quadrature of the unscaled integral
        # is off by 6e-36 relative at g = 1e30 and has no correct digit at
        # g = 1e300.
        g = mpf(g)
        with mp.extradps(10):
            c = g ** mpf("-0.25")
            scaled = mp.quad(lambda s: mp.exp(-c * c * s * s / 2 - s ** 4 / 24),
                             [0, 1, 3, mp.inf])
            scaled = 2 * c * scaled / mp.sqrt(2 * mp.pi)
        assert abs(d0_partition_value(g) - scaled) <= mpf("1e-60") * scaled

    def test_partial_sum_bound_at_small_coupling(self):
        g = mpf("0.1")
        z = d0_partition_coeffs(11)
        partial = z.truncate(10).eval(g)
        exact = d0_partition_value(g)
        first_omitted = abs(z.coeffs[11]) * g ** 11
        assert abs(partial - exact) <= first_omitted

    def test_strong_coupling_amplitude(self):
        amp = d0_partition_value(mp.inf)
        closed = mpf("0.5") * mpf(24) ** mpf("0.25") * mp.sqrt(mp.pi) / mp.gamma(mpf(3) / 4)
        assert amp == closed
        # the oracle at large coupling approaches the amplitude like g^(-1/2)
        g = mpf("1e8")
        assert abs(d0_partition_value(g) * g ** mpf("0.25") - amp) < mpf("2e-4")


class TestOscillatorCoefficients:
    def test_harmonic_limit(self):
        assert anharmonic_ground_coeffs(0).coeffs == (mpf(1) / 2,)

    def test_first_order(self):
        assert anharmonic_ground_coeffs(1).coeffs[1] == mpf(1) / 32

    def test_second_order_sum_over_states(self):
        # E_2 = -sum_n |<n|x^4/24|0>|^2 / n over the two reachable states.
        v02 = (2 * 0 + 3) * mp.sqrt(mpf(1) * 2) / 2 / 24
        v04 = mp.sqrt(mpf(1) * 2 * 3 * 4) / 4 / 24
        expect = -(v02 ** 2 / 2 + v04 ** 2 / 4)
        got = anharmonic_ground_coeffs(2).coeffs[2]
        assert abs(got - expect) < mpf("1e-55")
        assert abs(got + mpf(7) / 1536) < mpf("1e-55")

    def test_published_bender_wu_values(self):
        # epsilon_k = a_k / b_k in lambda = g/24 (Bender and Wu 1973), so
        # E_k = a_k / (b_k 24^k); every operand is exact at 64 digits.
        published = [(3, 4), (-21, 8), (333, 16), (-30885, 128), (916731, 256),
                     (-65518401, 1024), (2723294673, 2048), (-1030495099053, 32768)]
        e = anharmonic_ground_coeffs(8).coeffs
        for k, (a, b) in enumerate(published, 1):
            assert e[k] == mpf(a) / (mpf(b) * mpf(24) ** k)

    @pytest.mark.parametrize("dps", [30, 40, 64])
    def test_bit_equal_to_rayleigh_schrodinger(self, dps):
        with mp.workdps(dps):
            assert list(anharmonic_ground_coeffs(40).coeffs) == rayleigh_schrodinger_coeffs(40)

    @pytest.mark.parametrize("dps", [30, 64, 110])
    def test_each_coefficient_is_its_integer_over_96_to_the_k_rounded_once(self, dps):
        # The Bender-Wu integers D_k1 = -96^k E_k, read off a 200-digit run.
        with mp.workdps(200):
            scaled = [c * 96 ** k for k, c in enumerate(anharmonic_ground_coeffs(40).coeffs)]
            integers = [int(mp.nint(x)) for x in scaled]
            assert all(abs(x - n) < mpf("1e-50") for x, n in zip(scaled[1:], integers[1:]))
        with mp.workdps(dps):
            got = anharmonic_ground_coeffs(40).coeffs
            for k in range(1, 41):
                assert got[k] == mp.make_mpf(from_rational(integers[k], 96 ** k, mp.prec,
                                                           round_nearest)), k

    def test_guard_digits_cover_the_recursion(self):
        # The generator rounds exact integers once, so every coefficient must
        # be correct at 64 digits; only the test-side reference
        # rayleigh_schrodinger_coeffs needs 2K + 10 guard digits.
        low = anharmonic_ground_coeffs(40).coeffs
        with mp.workdps(120):
            high = anharmonic_ground_coeffs(40).coeffs
        for a, b in zip(low, high):
            assert abs(a - b) <= mpf("1e-62") * abs(b)

    def test_growth_constant(self):
        est = ratio_growth_constant(anharmonic_ground_coeffs(60), 10)
        assert abs(est - 8) / 8 < mpf("0.05")

    def test_signs_alternate_from_second_order(self):
        e = anharmonic_ground_coeffs(12)
        for k in range(2, 12):
            assert e.coeffs[k] * e.coeffs[k + 1] < 0


class TestOscillatorValue:
    def test_harmonic_limit(self):
        assert anharmonic_ground_value(0) == mpf(1) / 2

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            anharmonic_ground_value(-2)

    @pytest.mark.parametrize("g", [mp.nan, -mp.inf])
    def test_rejects_non_finite_coupling_before_any_iteration(self, g, monkeypatch):
        def no_bands(*args):
            raise AssertionError("bands built for an invalid coupling")

        monkeypatch.setattr("resum.models._even_sector_bands", no_bands)
        with pytest.raises(DomainError, match="got %s" % g):
            anharmonic_ground_value(g)

    def test_partial_sums_bracket_small_coupling(self):
        g = mpf("0.01")
        e = anharmonic_ground_coeffs(4)
        partial = e.truncate(3).eval(g)
        exact = anharmonic_ground_value(g)
        bound = abs(e.coeffs[4]) * g ** 4 * 10
        assert abs(partial - exact) <= bound

    def test_two_basis_sizes_agree(self):
        g = mpf(1)
        bands_a = _even_sector_bands(60, mpf(2), mpf("0.5"), g / 24)
        bands_b = _even_sector_bands(110, mpf(2), mpf("0.5"), g / 24)
        ea = _lowest_even_eigenvalue(*bands_a, [mpf(1)], rel_tol=mpf("1e-30"))[0]
        eb = _lowest_even_eigenvalue(*bands_b, [mpf(1)], rel_tol=mpf("1e-30"))[0]
        assert abs(ea - eb) / abs(eb) < mpf("1e-8")
        assert abs(eb - anharmonic_ground_value(1)) / eb < mpf("1e-12")

    def test_amplitude_stable_across_basis_scalings(self):
        c4 = mpf(1) / 24
        values = []
        for omega in (mpf(1), mpf("1.6")):
            bands = _even_sector_bands(140, omega, mpf(0), c4)
            values.append(_lowest_even_eigenvalue(*bands, [mpf(1)], rel_tol=mpf("1e-30"))[0])
        assert abs(values[0] - values[1]) / values[1] < mpf("1e-8")
        assert abs(values[1] - anharmonic_ground_value(mp.inf)) < mpf("1e-8")

    def test_lowest_eigenvalue_matches_dense_solver(self):
        bands, expect = band_and_lowest()
        tol = mpf(10) ** (10 - mp.dps)
        value = _lowest_even_eigenvalue(*bands, [mpf(1)], rel_tol=tol)[0]
        assert abs(value - expect) <= tol * expect

    def test_excited_start_still_finds_the_lowest_eigenvalue(self):
        # e_1 overlaps mostly the first excited even state; the shifts stay
        # below the spectrum, so the iteration still lands on the lowest one.
        bands, expect = band_and_lowest()
        tol = mpf(10) ** (10 - mp.dps)
        value = _lowest_even_eigenvalue(*bands, [mpf(0), mpf(1)], rel_tol=tol)[0]
        assert abs(value - expect) <= tol * expect

    def test_ldl_accepts_only_shifts_below_the_spectrum(self):
        bands, lowest = band_and_lowest()
        assert _band_ldl(*bands, lowest + mpf("1e-6")) is None
        pivots, _, _ = _band_ldl(*bands, lowest - mpf("1e-6"))
        assert len(pivots) == 24 and min(pivots) > 0

    def test_basis_cap_resource_error(self, monkeypatch):
        from resum import ResourceError

        monkeypatch.setattr("resum.models._MAX_BASIS", 50)
        with pytest.raises(ResourceError):
            anharmonic_ground_value(1)


class TestRgSeries:
    def test_published_coefficients(self):
        rg = rg_series()
        assert rg.beta.coeffs[3] == mpf(-308) / 729
        assert rg.gamma_inv.coeffs[1] == mpf(-1) / 6
        assert rg.eta.coeffs[0] == 0 and rg.eta.coeffs[1] == 0
        assert rg.beta.order == 7 and rg.gamma_inv.order == 7 and rg.eta.order == 7
        assert abs(rg.large_order_a - mpf("0.147774232")) == 0

    def test_eta_over_g2(self):
        stripped = eta_over_g2_series()
        assert stripped.order == 5
        assert stripped.coeffs[0] == mpf("0.0109739368")

    def test_nu_inv_leading_terms(self):
        nu_inv = nu_inv_series()
        # 1/nu = gamma^-1 (2 - eta): constant 2, then 2*(-1/6)
        assert nu_inv.coeffs[0] == 2
        assert abs(nu_inv.coeffs[1] + mpf(1) / 3) < mpf("1e-60")
        # order-2: 2/27 - eta_2 * 1
        expect = mpf(2) / 27 - mpf("0.0109739368")
        assert abs(nu_inv.coeffs[2] - expect) < mpf("1e-55")
