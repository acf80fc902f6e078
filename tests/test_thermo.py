import functools
import itertools
import math
import random
import re
from fractions import Fraction
from operator import mul

import mpmath
import pytest

from anyongas import thermo
from anyongas.errors import ConvergenceError, DomainError
from anyongas.qcore import Family, basic_number
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

    @pytest.mark.parametrize("order", [10, 60])
    @pytest.mark.parametrize("q", [0.05, 0.76, 1.0])
    def test_coefficients_are_the_bose_ones_with_alternating_signs(self, q, order):
        # in x = z/q the F gas is the Fermi gas, rho_F(x) = -rho_B(-x) at q = 1
        bose = virial_coefficients("b", 1.0, order)
        got = virial_coefficients("f", q, order)
        assert got == [-b if n % 2 else b for n, b in enumerate(bose)]
        assert got.working_digits == bose.working_digits

    def test_highest_order(self):
        got = virial_coefficients("f", 0.76, 150)
        assert got.working_digits == 252
        assert got.passes == [(34, 10), (252, None)]
        # the values the F density series gave in decimal at 272 digits
        assert (got[0], got[1], got[144], got[149]) == (
            1.0, 0.1767766952966369, -1.7466130682302417e-186, -9.891709166770562e-193)


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

    @pytest.mark.parametrize("family, q, order, digits", [
        ("b", 0.3, 40, 34), ("b", 0.5, 60, 45), ("b", 0.9, 60, 56),
        ("b", 1.0, 60, 114), ("f", 0.5, 60, 114)])
    def test_working_digits_follow_the_conditioning(self, family, q, order, digits):
        # b_60 at q = 0.5 needs 40 digits, the Bose series' cancellation at
        # q = 1, and so the F series', 109; the pass after the 34-digit
        # probe runs at the prediction plus the margin
        assert virial_coefficients(family, q, order).working_digits == digits

    def test_b2_past_the_largest_double_asks_only_for_a_larger_q(self):
        # no order below 2 exists to drop it
        with pytest.raises(DomainError, match="b_2 is beyond the largest double "
                                              "at q=5e-324; give a larger q$"):
            virial_coefficients("b", 5e-324, 2)

    def test_an_infinite_need_ends_at_the_digit_cap(self, monkeypatch):
        # a b_n that is exactly 0 needs infinitely many digits: the loop
        # ends with its ConvergenceError, not an OverflowError from ceil(inf)
        diagonal = thermo._diagonal_over_n

        def zero_b2(phi, order, shift=0):
            terms = diagonal(phi, order, shift)
            if not shift:  # the scale
                return terms
            return (0 if n == 2 else s for n, s in enumerate(terms, 1))

        monkeypatch.setattr(thermo, "_diagonal_over_n", zero_b2)
        with pytest.raises(ConvergenceError, match="need more than 2176 digits"):
            virial_coefficients("b", 0.5, 10)

    @pytest.mark.parametrize("order", [40, 60, 100])
    @pytest.mark.parametrize("q", Q_GRID)
    def test_the_predicted_pass_is_the_last(self, q, order):
        # the 34-digit probe, then at most one pass at the predicted digits
        passes = _virial_needs(q, order)[0].passes
        assert len(passes) <= 2
        assert passes[0][0] == thermo._VIRIAL_START_DIGITS
        assert all(n for _, n in passes[:-1])
        assert passes[-1][1] is None

    def test_three_passes_where_the_probe_predicts_too_little(self):
        # the line through the probe's floors falls short at the top orders,
        # so the predicted pass stops at b_148 and a third one is kept
        got = virial_coefficients("b", 0.9975159460813107, 150)
        assert got.passes == [(34, 16), (111, 148), (116, None)]

    @pytest.mark.parametrize("order", [40, 60, 100])
    @pytest.mark.parametrize("q", Q_GRID)
    def test_the_kept_pass_holds_every_coefficient(self, q, order):
        coeffs, needs = _virial_needs(q, order)
        assert len(needs) == order - 1
        assert max(needs) <= coeffs.working_digits

    @pytest.mark.parametrize("family, q, order", [
        ("b", 0.5, 60), ("b", 0.9, 60), ("f", 0.3, 60), ("b", 0.05, 100)])
    def test_a_prediction_too_low_costs_only_passes(self, monkeypatch, family, q,
                                                    order):
        # a line of floors at +inf predicts that no b_n needs a digit: the
        # probe never stops early and each pass runs at the need of the b_n
        # the last one stopped at, so more passes give the same doubles
        want = virial_coefficients(family, q, order)
        monkeypatch.setattr(thermo, "_floor_line", lambda floors: lambda n: math.inf)
        got = virial_coefficients(family, q, order)
        assert len(got.passes) > len(want.passes)
        assert [d for d, _ in got.passes] == sorted({d for d, _ in got.passes})
        assert [b.hex() for b in got] == [b.hex() for b in want]


@functools.lru_cache(maxsize=None)
def _virial_needs(q, order):
    """B virial_coefficients(q, order) and the need of b_2..b_order in its kept pass.

    The need is read from the diagonal terms the kept pass reads from
    `_diagonal_over_n`, as 17 + 5 + log10 scale_n - floor(log10 |b_n q^(n-1)|),
    with scale_n from the float pass over |phi|.
    """
    diagonal = thermo._diagonal_over_n
    scale, seen = [], []

    def spy(phi, order, shift=0):
        if not shift:  # the scale
            sums = list(diagonal(phi, order))
            scale[:] = [c / n for n, c in enumerate(sums, 1)]
            return sums
        terms = []
        seen.append((shift, terms))
        return (terms.append(s) or s for s in diagonal(phi, order, shift))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermo, "_diagonal_over_n", spy)
        coeffs = virial_coefficients("b", q, order)
    bits, terms = seen[-1]
    assert bits == math.ceil((coeffs.working_digits + thermo._FIXED_POINT_GUARD_DIGITS)
                             * math.log2(10.0))
    needs = [17 + 5 + math.log10(scale[n - 1])
             - math.floor(math.log10(abs(s)) - math.log10(n) - 2 * bits / math.log2(10.0))
             for n, s in enumerate(terms[1:], 2)]
    return coeffs, needs


# phi at K = 12 with unequal rational coefficients, phi_0 = 1, and with
# integer ones
_DIAGONAL_ORDER = 12
_DIAGONAL_PHI = [Fraction(1)] + [
    Fraction(k, r + 1) for r, k in enumerate(random.Random(7).choices(range(-9, 10), k=11), 1)]
_DIAGONAL_INT_PHI = [1] + random.Random(8).choices(range(-99, 100), k=11)


def _naive_diagonal(phi, order):
    # [x^(n-1)] phi^(n-1) from phi^0, phi^1, ... as full products
    power = [1] + [0] * (order - 1)
    out = []
    for n in range(1, order + 1):
        out.append(power[n - 1])
        power = [sum(power[i] * phi[d - i] for i in range(d + 1)) for d in range(order)]
    return out


class _DegreeLog(list):
    """A list that records the start of each slice read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.degrees = []

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.degrees.append(index.start)
        return super().__getitem__(index)


class TestDiagonalOverN:
    @pytest.mark.parametrize("phi", [_DIAGONAL_PHI, _DIAGONAL_INT_PHI],
                             ids=["fractions", "ints"])
    def test_matches_the_full_powers_exactly_at_shift_0(self, phi):
        got = list(thermo._diagonal_over_n(phi, _DIAGONAL_ORDER))
        assert got == _naive_diagonal(phi, _DIAGONAL_ORDER)
        assert all(type(b) is type(phi[1]) for b in got)

    def test_fixed_point_terms_are_the_floored_powers_dotted(self):
        # at shift s each power is floored to a multiple of 2^-s, one floor
        # per coefficient, and the diagonal is their unshifted dot product
        shift = 40
        phi = [c * 2 ** shift // 7 ** n if n else 1 << shift
               for n, c in enumerate(_DIAGONAL_INT_PHI)]
        powers = [[1 << shift] + [0] * (_DIAGONAL_ORDER - 1)]
        for _ in range(_DIAGONAL_ORDER // 2):
            powers.append([sum(powers[-1][i] * phi[d - i] for i in range(d + 1)) >> shift
                           for d in range(_DIAGONAL_ORDER)])
        want = [sum(powers[(n - 1) // 2][i] * powers[n // 2][n - 1 - i] for i in range(n))
                for n in range(1, _DIAGONAL_ORDER + 1)]
        assert list(thermo._diagonal_over_n(phi, _DIAGONAL_ORDER, shift)) == want

    @pytest.mark.parametrize("stop", [2, 5, _DIAGONAL_ORDER])
    def test_yields_in_order_and_a_reader_that_stops_builds_no_higher_degree(self, stop):
        # phi[d::-1] is read once per power for each degree d the powers grow to
        want = _naive_diagonal(_DIAGONAL_PHI, _DIAGONAL_ORDER)
        phi = _DegreeLog(_DIAGONAL_PHI)
        got = list(itertools.islice(thermo._diagonal_over_n(phi, _DIAGONAL_ORDER), stop))
        assert got == want[:stop]
        assert max(phi.degrees) == stop - 1


def _fixed_point_error_bound(q, order, bits):
    """First-order bounds E_n on the fixed-point error of n b_n q^(n-1), n >= 2.

    In units of 2^-bits, with one unit per floor, propagated in floats
    through |rho|, |phi| and the powers of |phi|; returned with the scale
    sums n scale_n of the same terms.  rho_r carries r(r-1)/2 units from
    its floored powers of q^2 over r^(5/2), and one each from its division
    and its square root.
    """
    one = 1 << bits
    rho_int = thermo._density_per_x(q, order, bits)
    phi_int = [one]
    for n in range(1, order):
        phi_int.append(-sum(map(mul, rho_int[1:n + 1], phi_int[::-1])) >> bits)
    rho = [r / one for r in rho_int]
    phi = [abs(c) / one for c in phi_int]
    d_rho = [0.0] + [2.0 + r * (r - 1) / 2 / r ** 2.5 for r in range(2, order + 1)]
    d_phi = [0.0]
    for n in range(1, order):
        d_phi.append(1.0 + sum(map(mul, rho[1:n + 1], d_phi[::-1]))
                     + sum(map(mul, d_rho[1:n + 1], phi[n - 1::-1])))
    powers = [([1.0] + [0.0] * (order - 1), [0.0] * order), (phi, d_phi)]
    for _ in range(2, order // 2 + 1):
        last, d_last = powers[-1]
        powers.append((
            [sum(map(mul, last[:d + 1], phi[d::-1])) for d in range(order)],
            [1.0 + sum(map(mul, last[:d + 1], d_phi[d::-1]))
             + sum(map(mul, d_last[:d + 1], phi[d::-1])) for d in range(order)]))
    bounds = []
    for n in range(2, order + 1):
        (low, d_low), (high, d_high) = powers[(n - 1) // 2], powers[n // 2]
        bounds.append((sum(map(mul, low[:n], d_high[n - 1::-1]))
                       + sum(map(mul, d_low[:n], high[n - 1::-1])),
                       sum(map(mul, low[:n], high[n - 1::-1]))))
    return bounds


@pytest.mark.parametrize("order", [60, 150])
@pytest.mark.parametrize("q", [0.05, 0.5, 1.0])
def test_fixed_point_error_costs_under_one_guard_digit(q, order):
    # the need counts on an error of a few 10^-P n scale_n in the diagonal
    # term; the fixed point at 2^-bits <= 10^-(P + G) keeps it below
    # 10^(1-P) n scale_n, which the bound reaches at 10^(0.63-P) at q = 0.05
    # and order 150, so G = 4 would fail
    digits = thermo._VIRIAL_START_DIGITS
    bits = math.ceil((digits + thermo._FIXED_POINT_GUARD_DIGITS) * math.log2(10.0))
    for error, scale in _fixed_point_error_bound(q, order, bits):
        assert (math.log10(error) - bits * math.log10(2.0)
                < 1 - digits + math.log10(scale))


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

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0])
    def test_b_low_density_follows_the_adopted_cubic_fugacity_series(self, q):
        # erratum fugacity-series-cubic-term: reverting n = z + a z^2 + b z^3
        # gives z = n - a n^2 + (2 a^2 - b) n^3, where the paper prints the
        # cubic coefficient [2]^2/4 - b, off by -(3/16) [2]^2
        n = 1e-3
        a = basic_number(q, 2) / 2 ** 2.5
        b = basic_number(q, 3) / 3 ** 2.5
        z = solve_fugacity("b", q, n)
        assert abs(z - (n - a * n ** 2 + (2 * a * a - b) * n ** 3)) <= 0.1 * n ** 4
        printed = n - a * n ** 2 + (basic_number(q, 2) ** 2 / 4 - b) * n ** 3
        assert (z - printed) / n ** 3 == pytest.approx(
            -3 / 16 * basic_number(q, 2) ** 2, rel=1e-3, abs=0.0)

    def test_polish_steps_to_the_closest_double(self):
        # no solve in practice leaves the polish a step to take, so a
        # synthetic density that is met exactly at z = 0.5 exercises it;
        # one ulp above 0.5 is 2^-53
        density = lambda z: z - 0.5 + 1e-6
        assert thermo._closest_fugacity(density, 0.5 + 5 * 2.0 ** -53, 1.0, 1e-6) == 0.5

    def test_polish_past_its_step_budget_is_convergence_error(self):
        density = lambda z: z - 0.5 + 1e-6
        with pytest.raises(ConvergenceError, match="fugacity solve stalled"):
            thermo._closest_fugacity(density, 0.5 + 20 * 2.0 ** -53, 1.0, 1e-6)

    def test_supremum_matches_the_series_limit(self):
        q = 0.5
        assert b_density_supremum(q) == pytest.approx(
            float(_reference_b_density(q, q * (1.0 - 1e-15))), rel=1e-13, abs=0.0)


class TestBrent:
    def test_roots(self):
        assert brentq(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15, abs=0.0)
        assert brentq(math.cos, 0.0, 3.0) == pytest.approx(math.pi / 2, rel=1e-15, abs=0.0)
        # a root at either endpoint, and a flat function that only bisection moves
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: x - 1, 0.0, 1.0) == 1.0
        assert brentq(lambda x: (x - 0.3) ** 7, 0.0, 1.0) == pytest.approx(0.3, abs=1e-6)

    def test_no_sign_change_raises(self):
        with pytest.raises(ConvergenceError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ConvergenceError, match="no sign change"):
            brentq(lambda x: 1.0, 0.0, 1.0)

    def test_evaluation_cap_raises(self):
        # bisection needs about 1000 halvings to narrow [0, 1e300] to the
        # step at 1e-300, and no interpolation step does better on a step
        with pytest.raises(ConvergenceError,
                           match="not converged after 200 evaluations"):
            brentq(lambda x: -1.0 if x < 1e-300 else 1.0, 0.0, 1e300)


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

    def test_f_state_refuses_a_zero_fugacity(self):
        with pytest.raises(DomainError, match="fugacity must be positive"):
            f_state(0.5, 0.0, 1.0)

    @pytest.mark.parametrize("density", [math.inf, math.nan])
    def test_solve_fugacity_refuses_a_target_that_is_not_finite(self, density):
        with pytest.raises(DomainError,
                           match="target density must be positive and finite"):
            solve_fugacity("f", 0.5, density)

    def test_temperature_is_checked_before_the_fugacity(self):
        # z = 0.7 >= q is refused too, but only once the zeta functions run
        with pytest.raises(DomainError, match="temperature must be positive and finite"):
            b_state(0.5, 0.7, -1.0)
        with pytest.raises(DomainError, match="z < q"):
            b_state(0.5, 0.7, 1.0)

    @pytest.mark.parametrize("multiplicity", [0, -2, 2.5, math.nan, math.inf])
    def test_f_state_refuses_a_multiplicity_that_is_not_a_positive_integer(
            self, multiplicity):
        with pytest.raises(DomainError, match="multiplicity must be an integer >= 1, "
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

    @pytest.mark.parametrize("state", [b_state, f_state])
    @pytest.mark.parametrize("temperature, volume, overflowed", [
        (1e200, 1.0, "pressure, internal_energy, grand_potential"),
        (1e10, 1e308, "internal_energy, entropy, grand_potential")])
    def test_state_functions_past_the_largest_double(self, state, temperature,
                                                     volume, overflowed):
        # lam^3 is a finite double at both, and kT/lam^3 or the volume
        # carries the products past it
        message = (f"{overflowed} pass the largest double "
                   f"at T={temperature!r}, V={volume!r}, m=1.0")
        with pytest.raises(DomainError, match=re.escape(message)):
            state(0.5, 0.3, temperature, volume=volume)

    @pytest.mark.parametrize("order", [2.5, 1, 0, -3, math.nan, math.inf])
    def test_virial_order_must_be_an_integer_from_two(self, order):
        with pytest.raises(DomainError, match=f"order must be an integer >= 2, got {order!r}"):
            virial_coefficients("b", 0.5, order)


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


class TestModeSum:
    SPECTRUM = [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("z, beta", [
        (math.nan, 1.0), (0.5, math.nan), (2.0, 0.1), (math.inf, 1.0)])
    def test_partition_log_needs_every_weight_below_one(self, z, beta):
        with pytest.raises(DomainError, match="z e\\^\\(-beta E\\) below 1"):
            thermo.b_partition_log(self.SPECTRUM, z, beta)

    def test_number_refuses_a_nan_beta(self):
        with pytest.raises(DomainError, match="z e\\^\\(-beta E\\) below 1"):
            thermo.b_number_from_partition(self.SPECTRUM, 0.5, math.nan, 0.5)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_number_refuses_a_non_finite_fugacity(self, z):
        with pytest.raises(DomainError, match="finite x"):
            thermo.b_number_from_partition(self.SPECTRUM, z, 1.0, 0.5)
