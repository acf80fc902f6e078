import math

import mpmath
import numpy as np
import pytest

from anyongas.errors import DomainError
from anyongas.qcore import basic_number
from anyongas.qfunctions import (bose_g, bose_g_supremum, fermi_f, polylog, quad,
                                 quad_nodes, sommerfeld_density_factor,
                                 thermal_wavelength)
from anyongas.units import SI, ELECTRON_MASS_SI, ELECTRON_VOLT_SI


class TestBoseG:
    def test_classical_against_large_reference_sum(self):
        r = np.arange(1, 1_000_001, dtype=float)
        reference = float(np.sum(0.5 ** r / r ** 1.5))
        assert bose_g(1.0, 0.5, 1.5) == pytest.approx(reference, abs=1e-10)

    def test_classical_against_polylog(self):
        for z in (0.1, 0.5, 0.9):
            for order in (1.5, 2.5):
                want = float(mpmath.polylog(order, z))
                assert bose_g(1.0, z, order) == pytest.approx(want, rel=1e-10)

    def test_series_opening(self):
        # z + [2]/2^(5/2) z^2 + [3]/3^(5/2) z^3 + O(z^4)
        q, z = 0.6, 1e-4
        opening = (z + basic_number(q, 2) / 2 ** 2.5 * z ** 2
                   + basic_number(q, 3) / 3 ** 2.5 * z ** 3)
        assert bose_g(q, z, 1.5) == pytest.approx(opening, rel=1e-12)

    def test_term_coefficients_match_basic_numbers(self):
        # the r-th coefficient is basic_number(q, r)/r^(order+1); z kept
        # small enough that 400 explicit terms cover the sum and the
        # basic numbers stay inside double range
        for q in (0.3, 0.7, 0.95):
            for z_frac in (0.2, 0.5):
                z = z_frac * q
                want = sum(basic_number(q, r) * z ** r / r ** 2.5
                           for r in range(1, 401))
                assert bose_g(q, z, 1.5) == pytest.approx(want, rel=1e-13)

    def test_monotone_in_z(self):
        values = [bose_g(0.7, z, 1.5) for z in (0.1, 0.3, 0.5, 0.65)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            bose_g(0.7, 0.7, 1.5)
        with pytest.raises(DomainError):
            bose_g(0.7, 0.9, 1.5)
        with pytest.raises(DomainError):
            bose_g(0.7, 0.0, 1.5)
        with pytest.raises(DomainError):
            bose_g(1.0, 1.0, 1.5)

    def test_z_from_q_to_one_is_outside_the_domain_near_q_one(self):
        # inside the band |q - 1| < 1e-12 z must stay below q, as elsewhere
        q = 1.0 - 1e-13
        for z in (q, 1.0 - 5e-14, math.nextafter(1.0, 0.0)):
            with pytest.raises(DomainError):
                bose_g(q, z, 1.5)

    def test_finite_near_boundary(self):
        value = bose_g(0.5, 0.5 * (1 - 1e-6), 1.5)
        assert math.isfinite(value)


# 1 - 1e-13 and 1 - 2^-53 lie inside the band |q - 1| < 1e-12 where a QParam
# counts as classical; g there is the deformed function, not Li_order(z)
Q_GRID = (0.05, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-13,
          1.0 - 2.0 ** -53, 1.0)
X_GRID = (1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12)


def reference_g(q, z, order):
    """g(q, z, order) from mpmath polylogarithms at 40 digits."""
    with mpmath.workdps(40):
        q, z = mpmath.mpf(q), mpmath.mpf(z)
        if q == 1:
            return mpmath.polylog(order, z)
        return (mpmath.polylog(order + 1, q * z)
                - mpmath.polylog(order + 1, z / q)) / (q - 1 / q)


def reference_f(x, order):
    """-Li_order(-x) from mpmath at 40 digits."""
    with mpmath.workdps(40):
        return -mpmath.re(mpmath.polylog(order, -mpmath.mpf(x)))


def _rel(got, want):
    return float(abs((got - want) / want))


class TestBoseGAgainstMpmath:
    """1e-13 relative over q in (0, 1] and z/q up to 1 - 1e-12."""

    @pytest.mark.parametrize("order", [1.5, 2.5])
    @pytest.mark.parametrize("q", Q_GRID)
    def test_grid(self, q, order):
        for x in X_GRID:
            z = q * x
            assert _rel(bose_g(q, z, order), reference_g(q, z, order)) < 1e-13, (q, x)

    @pytest.mark.parametrize("order", [1.5, 2.5])
    def test_branch_boundaries(self, order):
        # either side of the divided-difference switch at ln(1/q) = 1/4 and
        # of the direct/mu-series switch at z/q = 1/2
        for q in (math.exp(-0.25) * (1 - 1e-12), math.exp(-0.25) * (1 + 1e-12)):
            for x in (0.5 * (1 - 1e-12), 0.5 * (1 + 1e-12), 0.75):
                z = q * x
                assert _rel(bose_g(q, z, order), reference_g(q, z, order)) < 1e-13

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_integer_orders(self, order):
        # Li_{order+1} has a log term in place of the Gamma-zeta pole pair
        for q in (0.5, 0.9, 1.0 - 1e-6, 1.0):
            for x in (0.3, 0.9, 1.0 - 1e-9):
                z = q * x
                assert _rel(bose_g(q, z, order), reference_g(q, z, order)) < 1e-13

    @pytest.mark.parametrize("q", Q_GRID)
    def test_supremum(self, q):
        with mpmath.workdps(40):
            if q == 1.0:
                want = mpmath.zeta(1.5)
            else:
                qm = mpmath.mpf(q)
                want = (mpmath.polylog(2.5, qm * qm) - mpmath.zeta(2.5)) / (qm - 1 / qm)
        assert _rel(bose_g_supremum(q, 1.5), want) < 1e-14

    def test_supremum_diverges_at_q1_for_low_order(self):
        with pytest.raises(DomainError):
            bose_g_supremum(1.0, 1.0)


class TestPolylog:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.25])
    def test_against_mpmath(self, s):
        for x in (1e-5, 0.3, 0.5, 0.5 + 1e-12, 0.7, 0.9, 0.999, 1.0 - 1e-9, 1.0):
            if x == 1.0 and s <= 1.0:
                continue
            with mpmath.workdps(40):
                want = mpmath.polylog(s, mpmath.mpf(x))
            assert _rel(polylog(s, x), want) < 1e-14, x

    def test_at_one_is_zeta(self):
        assert polylog(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)

    def test_domain(self):
        for s, x in ((1.5, 0.0), (1.5, 1.5), (1.0, 1.0), (0.0, 0.5), (-1.0, 0.5)):
            with pytest.raises(DomainError):
                polylog(s, x)


class TestQuad:
    def test_endpoint_singularities(self):
        # Int_0^1 u^-1/2 du = 2 and Int_0^2 (2 - u)^(1/2) du = (2/3) 2^(3/2)
        weights, u, _ = quad_nodes(1.0)
        assert quad([w * x ** -0.5 for w, x in zip(weights, u)], 1.0) == pytest.approx(
            2.0, rel=1e-14)
        weights, _, rest = quad_nodes(2.0)
        assert quad([w * x ** 0.5 for w, x in zip(weights, rest)], 2.0) == pytest.approx(
            2.0 / 3.0 * 2.0 ** 1.5, rel=1e-14)


class TestFermiFAgainstMpmath:
    """1e-13 relative for ln x in [-20, 700], both sides of x = 1 included."""

    LN_X = tuple(np.linspace(-20.0, 700.0, 73)) + (
        -1.0, -1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3, 1.0, math.pi, 709.0)

    @pytest.mark.parametrize("order", [1.5, 2.5])
    def test_grid(self, order):
        for ln_x in self.LN_X:
            x = math.exp(ln_x)
            assert _rel(fermi_f(x, order), reference_f(x, order)) < 1e-13, ln_x


class TestFermiF:
    def test_alternating_harmonic(self):
        assert fermi_f(1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_small_argument_leading_term(self):
        x = 1e-6
        assert fermi_f(x, 1.5) == pytest.approx(x, rel=1e-5)

    def test_frozen_polylog_values(self):
        # -Li_order(-x) via 25-digit arithmetic
        cases = {
            (0.5, 1.5): 0.4298873215805793,
            (1.0, 1.5): 0.7651470246254079,
            (1.0, 2.5): 0.8671998890121841,
            (2.0, 1.5): 1.2813803831597696,
            (10.0, 1.5): 3.2856840823338928,
            (3.0, 2.5): 2.1627007120020567,
        }
        for (x, order), want in cases.items():
            assert fermi_f(x, order) == pytest.approx(want, rel=1e-11)

    def test_continuous_across_switch(self):
        below = fermi_f(1.0 - 1e-9, 1.5)
        above = fermi_f(1.0 + 1e-9, 1.5)
        assert abs(below - above) < 1e-8

    def test_strictly_increasing(self):
        values = [fermi_f(x, 1.5) for x in (0.2, 0.9, 1.5, 4.0, 40.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_degenerate_regime_against_asymptotics(self):
        got = fermi_f(math.exp(10.0), 1.5)
        asym = sommerfeld_density_factor(10.0, 2) / math.gamma(2.5)
        assert abs(got - asym) / got < 1e-3

    def test_domain_and_methods(self):
        with pytest.raises(DomainError):
            fermi_f(-1.0, 1.5)
        with pytest.raises(DomainError):
            fermi_f(0.5, -1.0)


class TestSommerfeld:
    def test_leading_term(self):
        assert sommerfeld_density_factor(10.0, 1) == pytest.approx(
            10.0 ** 1.5, rel=1e-15)

    def test_first_correction(self):
        # 10^(3/2) (1 + pi^2/800)
        assert sommerfeld_density_factor(10.0, 2) == pytest.approx(
            32.0129069705871, abs=1e-12)

    def test_agreement_with_quadrature(self):
        ln_x = 20.0
        quad_value = fermi_f(math.exp(ln_x), 1.5)
        asym = sommerfeld_density_factor(ln_x, 2) / math.gamma(2.5)
        assert abs(asym - quad_value) / quad_value < 1e-4

    def test_more_terms_improve(self):
        ln_x = 15.0
        truth = fermi_f(math.exp(ln_x), 1.5) * math.gamma(2.5)
        err = [abs(sommerfeld_density_factor(ln_x, t) - truth) for t in (1, 2, 3)]
        assert err[0] > err[1] > err[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            sommerfeld_density_factor(-1.0, 2)
        with pytest.raises(DomainError):
            sommerfeld_density_factor(10.0, 0)
        with pytest.raises(DomainError):
            sommerfeld_density_factor(10.0, 99)


class TestThermalWavelength:
    def test_normalization_point(self):
        assert thermal_wavelength(1.0, 1.0 / (2.0 * math.pi)) == pytest.approx(
            1.0, rel=1e-15)

    def test_scaling_law(self):
        assert thermal_wavelength(1.0, 1.0) / thermal_wavelength(1.0, 4.0) \
            == pytest.approx(2.0, rel=1e-15)

    def test_electron_at_room_temperature(self):
        lam = thermal_wavelength(ELECTRON_MASS_SI, 300.0, SI)
        assert lam == pytest.approx(4.30347543959521e-09, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_wavelength(0.0, 300.0)
        with pytest.raises(DomainError):
            thermal_wavelength(1.0, -1.0)
