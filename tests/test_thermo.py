import math

import mpmath
import pytest

from anyongas.errors import ConvergenceError, DomainError
from anyongas.qcore import Family
from anyongas.thermo import (GasParams, b_density_supremum, brentq, f_state,
                             solve_fugacity, virial_coefficients)

Q_GRID = (0.05, 0.1, 0.3, 0.5, 0.7, 0.76, 0.9, 0.99, 1.0 - 1e-9, 1.0)


class TestVirialF:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_first_coefficient_is_exactly_one(self, q):
        assert virial_coefficients("f", q, 12)[0] == 1.0

    def test_coefficients_do_not_depend_on_q(self):
        reference = virial_coefficients("f", 1.0, 20)
        for q in Q_GRID:
            assert virial_coefficients("f", q, 20) == reference


class TestDensitySolve:
    @pytest.mark.parametrize("multiplicity", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0])
    def test_f_density_includes_multiplicity(self, q, multiplicity):
        density = 0.5
        params = GasParams(family=Family.F, q=q, temperature=1.3,
                           density=density, multiplicity=multiplicity)
        state = f_state(params)
        lam3n = state.thermal_wavelength ** 3 * state.number_density
        assert lam3n == pytest.approx(density, rel=1e-12)


def _reference_b_density(q, z):
    with mpmath.workdps(40):
        qm, zm = mpmath.mpf(q), mpmath.mpf(z)
        if qm == 1:
            return mpmath.polylog(1.5, zm)
        return (mpmath.polylog(2.5, qm * zm) - mpmath.polylog(2.5, zm / qm)) / (qm - 1 / qm)


def _reference_f_density(x):
    with mpmath.workdps(40):
        return -mpmath.re(mpmath.polylog(1.5, -mpmath.mpf(x)))


def _rel_residual(reference, z, target):
    return float(abs(reference(z) - target) / target)


class TestSolveFugacity:
    """Density residual under mpmath, on the accuracy grids of bose_g and fermi_f."""

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0])
    def test_b_residual(self, q):
        for x in (1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12):
            target = float(_reference_b_density(q, q * x))
            z = solve_fugacity("b", q, target)
            assert 0.0 < z < q
            assert _rel_residual(lambda zz: _reference_b_density(q, zz), z, target) <= 1e-12

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 1.0])
    def test_f_residual(self, q):
        for ln_x in (-20.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 10.0, 100.0, 561.0, 700.0):
            target = float(_reference_f_density(math.exp(ln_x)))
            z = solve_fugacity("f", q, target)
            x = z if q == 1.0 else z / q
            assert _rel_residual(_reference_f_density, x, target) <= 1e-12, ln_x

    def test_b_density_just_below_the_supremum(self):
        # the supremum is exact, so this density, 4e-8 below it, is solvable
        assert b_density_supremum(0.5) > 0.71952827
        z = solve_fugacity("b", 0.5, 0.71952827)
        assert z < 0.5
        assert _rel_residual(lambda zz: _reference_b_density(0.5, zz), z,
                             0.71952827) <= 1e-12

    def test_b_returns_the_closest_double_where_no_double_meets_1e_12(self):
        # at q = 1 one ulp of z moves g(z, 3/2) by 1e-10 of it this close to z = 1
        target = 0.999999 * float(mpmath.zeta(1.5))
        z = solve_fugacity("b", 1.0, target)
        residuals = [_rel_residual(lambda zz: _reference_b_density(1.0, zz), zz, target)
                     for zz in (math.nextafter(z, 0.0), z, math.nextafter(z, 1.0))]
        assert residuals[1] == min(residuals)

    def test_b_at_or_above_the_supremum_is_domain_error(self):
        for target in (b_density_supremum(0.5), 1.0):
            with pytest.raises(DomainError, match="supremum"):
                solve_fugacity("b", 0.5, target)
        # below the supremum by less than one ulp of z resolves
        with pytest.raises(DomainError, match="closer than any double"):
            solve_fugacity("b", 1.0, b_density_supremum(1.0) * (1.0 - 1e-12))

    def test_f_degenerate_density(self):
        z = solve_fugacity("f", 0.5, 1e4)
        beta_mu = math.log(z / 0.5)
        assert beta_mu == pytest.approx((1e4 * math.gamma(2.5)) ** (2.0 / 3.0), rel=1e-4)

    def test_f_density_beyond_the_largest_double_is_domain_error(self):
        with pytest.raises(DomainError, match=r"largest density allowed is 14225\.0"):
            solve_fugacity("f", 0.5, 2e4)

    def test_supremum_matches_the_series_limit(self):
        q = 0.5
        assert b_density_supremum(q) == pytest.approx(
            float(_reference_b_density(q, q * (1.0 - 1e-15))), rel=1e-13)


class TestBrent:
    def test_roots(self):
        assert brentq(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15)
        assert brentq(math.cos, 0.0, 3.0) == pytest.approx(math.pi / 2, rel=1e-15)
        # a root at an endpoint, and a flat function that only bisection moves
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: (x - 0.3) ** 7, 0.0, 1.0) == pytest.approx(0.3, abs=1e-6)

    def test_no_sign_change_raises(self):
        with pytest.raises(ConvergenceError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
