import functools
import math

import mpmath
import pytest

from anyongas import thermo
from anyongas.distributions import f_occupation
from anyongas.errors import ConvergenceError, DomainError
from anyongas.qcore import Family
from anyongas.qfunctions import fermi_f, thermal_wavelength
from anyongas.thermo import (GasParams, b_density_supremum, b_state, brentq,
                             chemical_potential_f, f_partition_log, f_state,
                             fermi_energy, solve_fugacity, virial_coefficients)
from anyongas.units import SI, UnitSystem

Q_GRID = (0.05, 0.1, 0.3, 0.5, 0.7, 0.76, 0.9, 0.99, 1.0 - 1e-9, 1.0)


class TestVirialF:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_first_coefficient_is_exactly_one(self, q):
        assert virial_coefficients("f", q, 12)[0] == 1.0

    def test_coefficients_do_not_depend_on_q(self):
        reference = virial_coefficients("f", 1.0, 20)
        for q in Q_GRID:
            assert virial_coefficients("f", q, 20) == reference


@functools.lru_cache(maxsize=None)
def _virial_reference(family, q, order):
    """b_1..b_order by Lagrange inversion in mpmath at 150 digits.

    Density rho(z) and pressure p(z) with coefficients [r]_q / r^(5/2)
    and [r]_q / r^(7/2), [r]_q = (q^r - q^-r)/(q - 1/q) (B), or
    (-1)^(r+1) / r^(3/2) and (-1)^(r+1) / r^(5/2) in x = z/q (F); with
    phi = z/rho(z), b_n = (1/n) [z^(n-1)] p'(z) phi(z)^n.
    """
    with mpmath.workdps(150):
        qm = mpmath.mpf(q)
        rs = range(1, order + 1)
        if family == "b":
            top = [mpmath.mpf(r) if qm == 1 else (qm ** r - qm ** -r) / (qm - 1 / qm)
                   for r in rs]
            rho = [top[r - 1] / mpmath.mpf(r) ** 2.5 for r in rs]
            p = [top[r - 1] / mpmath.mpf(r) ** 3.5 for r in rs]
        else:
            rho = [(-1) ** (r + 1) / mpmath.mpf(r) ** 1.5 for r in rs]
            p = [(-1) ** (r + 1) / mpmath.mpf(r) ** 2.5 for r in rs]
        dp = [r * p[r - 1] for r in rs]
        phi = [1 / rho[0]]
        for n in range(1, order):
            phi.append(-mpmath.fsum(rho[k] * phi[n - k] for k in range(1, n + 1)) / rho[0])
        power = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (order - 1)
        coeffs = []
        for n in range(1, order + 1):
            power = [mpmath.fsum(power[i] * phi[d - i] for i in range(d + 1))
                     for d in range(order)]
            coeffs.append(float(mpmath.fsum(dp[j] * power[n - 1 - j] for j in range(n)) / n))
        return coeffs


class TestVirial:
    # q = 1 - 1e-13 lies inside the classical-limit switch of QParam, where the
    # q = 1 coefficients put b_29 at -1.33e-39 against -9.18e-38
    @pytest.mark.parametrize("q, order", [(0.05, 60), (0.5, 60), (0.9, 60), (0.95, 60),
                                          (1.0 - 1e-9, 60), (1.0 - 1e-13, 30),
                                          (1.0, 60), (0.01, 100)])
    def test_b_family(self, q, order):
        want = _virial_reference("b", q, order)
        assert all(math.isfinite(w) and w != 0.0 for w in want)
        got = virial_coefficients("b", q, order)
        assert len(got) == order
        for n, (g, w) in enumerate(zip(got, want), start=1):
            assert g == pytest.approx(w, rel=1e-15, abs=0.0), f"b_{n}"

    def test_f_family(self):
        want = _virial_reference("f", 1.0, 60)
        got = virial_coefficients("f", 0.76, 60)
        for n, (g, w) in enumerate(zip(got, want), start=1):
            assert g == pytest.approx(w, rel=1e-15, abs=0.0), f"b_{n}"
        assert got[-1] == pytest.approx(-5.39192635236125e-79, rel=1e-14)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_b_first_coefficient_is_exactly_one(self, q):
        assert virial_coefficients("b", q, 12)[0] == 1.0

    def test_coefficient_past_the_largest_double_is_domain_error(self):
        # b_n grows like q^(1-n): b_65 = -2.9e306 is the last finite one here
        assert math.isfinite(virial_coefficients("b", 1e-5, 65)[-1])
        with pytest.raises(DomainError, match="b_66 is beyond the largest double"):
            virial_coefficients("b", 1e-5, 70)

    def test_working_digits_follow_the_conditioning(self):
        # b_60 at q = 0.5 needs 68 digits, the F series' cancellation 136
        assert virial_coefficients("b", 0.3, 40).working_digits == 34
        assert virial_coefficients("b", 0.5, 60).working_digits == 68
        assert virial_coefficients("f", 0.5, 60).working_digits == 136


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


@pytest.mark.parametrize("z", [0.5, 3.0])
def test_f_state_takes_z_over_q_inside_the_classical_band(z):
    # q = 1 - 1e-13 counts as classical for the occupations, but f is taken
    # at z/q, which differs from z by 1e-13 (relative)
    q = 1.0 - 1e-13
    state = f_state(GasParams(family=Family.F, q=q, temperature=1.3, fugacity=z))
    assert z / q != z
    assert state.number_density == fermi_f(z / q, 1.5) / state.thermal_wavelength ** 3


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

    # z as the solve returned it before its density evaluations were memoised
    @pytest.mark.parametrize("family, q, density, z", [
        ("f", 0.5, 100.0, 99377566356.95918),
        ("f", 0.5, 1e3, 1.5920475279697036e+52),
        ("f", 0.5, 1e4, 2.5663857763471224e+243),
        ("b", 0.5, 0.5, 0.3945746997808423),
    ])
    def test_density_is_evaluated_once_per_fugacity(self, monkeypatch, family, q,
                                                    density, z):
        name = "bose_g" if family == "b" else "fermi_f"
        original = getattr(thermo, name)
        points = []

        def counted(*args):
            points.append(args[1] if family == "b" else args[0])
            return original(*args)

        monkeypatch.setattr(thermo, name, counted)
        assert solve_fugacity(family, q, density) == z
        assert len(points) == len(set(points))

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


class TestInputValidation:
    def test_b_family_takes_no_multiplicity(self):
        with pytest.raises(DomainError, match="give multiplicity 1"):
            GasParams(family=Family.B, q=0.5, temperature=1.0, fugacity=0.25,
                      multiplicity=3)

    @pytest.mark.parametrize("state, family", [(b_state, Family.B), (f_state, Family.F)])
    def test_k_t_must_be_finite(self, state, family):
        # lam^3 = 0.0635 is a finite double here, k T = 1e600 is not
        params = GasParams(family=family, q=0.5, temperature=1e300, mass=1e-300,
                           fugacity=0.25, units=UnitSystem(h=1e150, k=1e300))
        with pytest.raises(DomainError, match="k T is inf at k=1e\\+300, T=1e\\+300"):
            state(params)

    @pytest.mark.parametrize("h, k", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                                      (math.inf, 1.0), (1.0, math.nan)])
    def test_units_need_positive_finite_constants(self, h, k):
        with pytest.raises(DomainError, match="must be positive and finite"):
            UnitSystem(h=h, k=k)

    @pytest.mark.parametrize("name", ["temperature", "mass", "volume"])
    def test_gas_params_need_finite_inputs(self, name):
        inputs = dict(temperature=1.0, mass=1.0, volume=1.0)
        inputs[name] = math.inf
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            GasParams(family=Family.B, q=0.5, fugacity=0.25, **inputs)

    @pytest.mark.parametrize("state, family", [(b_state, Family.B), (f_state, Family.F)])
    @pytest.mark.parametrize("temperature", [1e308, 1e-300])
    def test_lambda_cubed_must_be_a_positive_finite_double(self, state, family,
                                                           temperature):
        # lam underflows lam^3 to 0 at the first temperature and overflows it
        # at the second
        params = GasParams(family=family, q=0.5, temperature=temperature,
                           fugacity=0.25)
        with pytest.raises(DomainError, match="lam\\^3"):
            state(params)


class TestFermiEnergy:
    @pytest.mark.parametrize("multiplicity", [1, 2])
    @pytest.mark.parametrize("temperature", [0.5, 2.0])
    def test_zero_temperature_density_relation(self, multiplicity, temperature):
        # the T -> 0 limit of the F density, lam^3 n = gs (E_F/kT)^(3/2)/Gamma(5/2),
        # holds at every T once E_F is in closed form
        n, mass = 7.0, 1.3
        e_fermi = fermi_energy(n, multiplicity, mass)
        lam3 = thermal_wavelength(mass, temperature) ** 3
        assert lam3 * n == pytest.approx(
            multiplicity * (e_fermi / temperature) ** 1.5 / math.gamma(2.5), rel=1e-14)

    def test_si_electron_gas(self):
        # copper: n = 8.47e28 m^-3, gs = 2 gives E_F = 7.03 eV
        e_fermi = fermi_energy(8.47e28, 2, 9.1093837015e-31, SI)
        assert e_fermi / 1.602176634e-19 == pytest.approx(7.03, abs=0.01)

    def test_invalid_input_is_domain_error(self):
        for args in ((0.0, 1, 1.0), (1.0, 0, 1.0), (1.0, 1, -1.0)):
            with pytest.raises(DomainError):
                fermi_energy(*args)


class TestChemicalPotentialF:
    """Sommerfeld expansion against kT ln z from the density solve, T = m = 1."""

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("lam3n", [1e2, 1e3, 1e4])
    def test_against_the_density_solve(self, q, lam3n):
        e_fermi = fermi_energy(lam3n / thermal_wavelength(1.0, 1.0) ** 3, 1, 1.0)
        exact = math.log(solve_fugacity("f", q, lam3n))
        ratio = 1.0 / e_fermi  # kT / E_F
        # order 1 leaves the next Sommerfeld term, pi^4/80 E_F (kT/E_F)^4 and
        # beyond: 1.22 E_F (kT/E_F)^4 measured
        assert abs(chemical_potential_f(1.0, e_fermi, q) - exact) \
            <= 1.3 * e_fermi * ratio ** 4
        # order 0 misses the quadratic term, (pi^2/12) E_F (kT/E_F)^2
        assert chemical_potential_f(1.0, e_fermi, q, approximation_order=0) - exact \
            == pytest.approx(math.pi ** 2 / 12.0 * e_fermi * ratio ** 2, rel=1e-2)


class TestFPartitionLog:
    @pytest.mark.parametrize("q", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("z", [0.2, 1.5, 10.0])
    def test_fugacity_derivative_is_the_occupation_sum(self, q, z):
        spectrum, beta = (0.1, 0.5, 1.0, 2.0, 3.5), 1.3
        h = 1e-5 * z
        derivative = z * (f_partition_log(spectrum, z + h, beta, q)
                          - f_partition_log(spectrum, z - h, beta, q)) / (2.0 * h)
        occupations = sum(f_occupation(q, beta * e - math.log(z)) for e in spectrum)
        assert derivative == pytest.approx(occupations, rel=1e-9)
