import functools
import math
import random

import mpmath
import pytest

from anyongas import thermo
from anyongas.errors import ConvergenceError, DomainError
from anyongas.qcore import Family
from anyongas.qfunctions import fermi_f
from anyongas.thermo import (b_density_supremum, b_state, brentq, f_state,
                             solve_fugacity, thermal_wavelength, virial_coefficients)

Q_GRID = (0.05, 0.1, 0.3, 0.5, 0.7, 0.76, 0.9, 0.99, 1.0 - 1e-9, 1.0)
# CODATA 2018: h and k are exact, the electron mass is measured
PLANCK_SI = 6.62607015e-34  # J s
BOLTZMANN_SI = 1.380649e-23  # J / K
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


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
        assert got[-1] == pytest.approx(-5.39192635236125e-79, rel=1e-14, abs=0.0)

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
        z = solve_fugacity(Family.F, q, density / multiplicity)
        state = f_state(q, z, 1.3, multiplicity=multiplicity)
        lam3n = state.thermal_wavelength ** 3 * state.number_density
        assert lam3n == pytest.approx(density, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("z", [0.5, 3.0])
def test_f_state_takes_z_over_q_inside_the_classical_band(z):
    # q = 1 - 1e-13 counts as classical for the occupations, but f is taken
    # at z/q, which differs from z by 1e-13 (relative)
    q = 1.0 - 1e-13
    state = f_state(q, z, 1.3)
    assert z / q != z
    assert state.number_density == fermi_f(z / q, 1.5) / state.thermal_wavelength ** 3


def _state_at(family, q, temperature, z):
    state = b_state if family is Family.B else f_state
    return state(q, z, temperature)


# (family, q, x = z/q); the F cases put x on both sides of 1, down to the
# degenerate x = e^20
IDENTITY_CASES = (
    [(Family.B, q, x) for q in (0.05, 0.5, 0.9, 1.0) for x in (0.1, 0.9)]
    + [(Family.F, q, x) for q in (0.05, 0.5, 1.0)
       for x in (0.5, 0.99, 1.01, 3.0, math.exp(20.0))])


class TestThermodynamicIdentities:
    """Central differences of P against S and n, at V = k = 1 and T = 1.7.

    The step is 1e-5 of T or z; the differences are within 8e-10 of the
    state functions on these cases.
    """

    T = 1.7

    @pytest.mark.parametrize("family, q, x", IDENTITY_CASES)
    def test_entropy_is_dp_dt_at_fixed_mu(self, family, q, x):
        # S = V dP/dT at fixed mu = kT ln z: the log in S is ln z, not ln(z/q)
        z = q * x
        mu = self.T * math.log(z)
        h = 1e-5 * self.T
        pressure = lambda t: _state_at(family, q, t, math.exp(mu / t)).pressure
        derivative = (pressure(self.T + h) - pressure(self.T - h)) / (2.0 * h)
        entropy = _state_at(family, q, self.T, z).entropy
        assert entropy == pytest.approx(derivative, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("family, q, x", IDENTITY_CASES)
    def test_density_is_z_d_pressure_over_kt_dz(self, family, q, x):
        # n = z d(P/kT)/dz at fixed T, the ordinary derivative in z for both
        # families: z dg(q, z, 5/2)/dz = g(q, z, 3/2), z df(z/q, 5/2)/dz = f(z/q, 3/2)
        z = q * x
        h = 1e-5 * z
        reduced = lambda zz: _state_at(family, q, self.T, zz).pressure / self.T
        derivative = z * (reduced(z + h) - reduced(z - h)) / (2.0 * h)
        density = _state_at(family, q, self.T, z).number_density
        assert density == pytest.approx(derivative, rel=1e-8, abs=0.0)


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

    def test_b_tiny_densities(self):
        # below lam^3 n of about 1e-104 the inverse quadratic step of the
        # Brent solve divided by a product that underflows to 0
        rng = random.Random(5)
        for _ in range(40):
            q = rng.uniform(0.01, 1.0)
            target = math.exp(rng.uniform(math.log(1e-300), math.log(1e-104)))
            z = solve_fugacity("b", q, target)
            assert _rel_residual(lambda zz: _reference_b_density(q, zz), z,
                                 target) <= 1e-12, (q, target)

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
            float(_reference_b_density(q, q * (1.0 - 1e-15))), rel=1e-13, abs=0.0)


class TestBrent:
    def test_roots(self):
        assert brentq(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15, abs=0.0)
        assert brentq(math.cos, 0.0, 3.0) == pytest.approx(math.pi / 2, rel=1e-15, abs=0.0)
        # a root at an endpoint, and a flat function that only bisection moves
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: (x - 0.3) ** 7, 0.0, 1.0) == pytest.approx(0.3, abs=1e-6)

    def test_no_sign_change_raises(self):
        with pytest.raises(ConvergenceError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)


class TestInputValidation:
    @pytest.mark.parametrize("state", [b_state, f_state])
    def test_k_t_must_be_finite(self, state):
        # lam^3 = 0.0635 is a finite double here, k T = 1e600 is not
        with pytest.raises(DomainError, match="k T is inf at k=1e\\+300, T=1e\\+300"):
            state(0.5, 0.25, 1e300, mass=1e-300, h=1e150, k=1e300)

    @pytest.mark.parametrize("state", [b_state, f_state])
    @pytest.mark.parametrize("h, k", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                                      (math.inf, 1.0), (1.0, math.nan)])
    def test_units_need_positive_finite_constants(self, state, h, k):
        with pytest.raises(DomainError, match="must be positive and finite"):
            state(0.5, 0.25, 1.0, h=h, k=k)

    @pytest.mark.parametrize("state", [b_state, f_state])
    @pytest.mark.parametrize("name", ["temperature", "mass", "volume"])
    def test_state_functions_need_finite_inputs(self, state, name):
        inputs = dict(temperature=1.0, mass=1.0, volume=1.0)
        inputs[name] = math.inf
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            state(0.5, 0.25, **inputs)

    def test_temperature_is_checked_before_the_fugacity(self):
        # z = 0.7 >= q is refused too, but only once the zeta functions run
        with pytest.raises(DomainError, match="temperature must be positive and finite"):
            b_state(0.5, 0.7, -1.0)
        with pytest.raises(DomainError, match="z < q"):
            b_state(0.5, 0.7, 1.0)

    @pytest.mark.parametrize("multiplicity", [0, -2, 2.5, math.nan, math.inf])
    def test_f_state_refuses_a_multiplicity_that_is_not_a_positive_integer(
            self, multiplicity):
        with pytest.raises(DomainError, match="multiplicity must be a positive integer, "
                                              f"got {multiplicity!r}"):
            f_state(0.5, 0.25, 1.0, multiplicity=multiplicity)

    def test_f_state_takes_an_integral_float_multiplicity(self):
        assert f_state(0.5, 0.25, 1.0, multiplicity=2.0) == f_state(
            0.5, 0.25, 1.0, multiplicity=2)

    @pytest.mark.parametrize("state", [b_state, f_state])
    @pytest.mark.parametrize("temperature", [1e308, 1e-300])
    def test_lambda_cubed_must_be_a_positive_finite_double(self, state, temperature):
        # lam underflows lam^3 to 0 at the first temperature and overflows it
        # at the second
        with pytest.raises(DomainError, match="lam\\^3"):
            state(0.5, 0.25, temperature)


class TestStateFunctions:
    FIELDS = ("pressure", "internal_energy", "entropy", "number_density",
              "grand_potential", "fugacity", "thermal_wavelength")

    def test_is_frozen(self):
        state = b_state(0.5, 0.25, 1.0)
        for name in ("pressure", "extra"):
            with pytest.raises(AttributeError):
                setattr(state, name, 0.0)
        assert state.pressure > 0.0

    def test_compares_and_hashes_by_value(self):
        state = b_state(0.5, 0.25, 1.0)
        assert state == b_state(0.5, 0.25, 1.0)
        assert state != b_state(0.5, 0.2, 1.0)
        assert hash(state) == hash(b_state(0.5, 0.25, 1.0))

    def test_repr_names_its_fields(self):
        state = f_state(0.5, 0.25, 1.0)
        assert repr(state) == "StateFunctions(" + ", ".join(
            f"{name}={getattr(state, name)!r}" for name in self.FIELDS) + ")"


class TestThermalWavelength:
    def test_normalization_point(self):
        assert thermal_wavelength(1.0, 1.0 / (2.0 * math.pi)) == pytest.approx(
            1.0, rel=1e-15, abs=0.0)

    def test_scaling_law(self):
        assert thermal_wavelength(1.0, 1.0) / thermal_wavelength(1.0, 4.0) \
            == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_electron_at_room_temperature(self):
        lam = thermal_wavelength(ELECTRON_MASS_SI, 300.0, PLANCK_SI, BOLTZMANN_SI)
        assert lam == pytest.approx(4.30347543959521e-09, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["mass", "temperature", "h", "k"])
    def test_domain(self, name, value):
        inputs = dict(mass=1.0, temperature=1.0, h=1.0, k=1.0)
        inputs[name] = value
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            thermal_wavelength(**inputs)
