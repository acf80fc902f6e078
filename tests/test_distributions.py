import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas.distributions import (b_occupation, b_occupation_jd, cf_bounds,
                                    cf_convergent, f_occupation,
                                    f_occupation_arcsin, f_occupation_series)
from anyongas.errors import DomainError
from anyongas.qcore import QParam, basic_number

ETA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)


def _eta_from_y(q, y):
    # invert y = (1/q - q)/(e^eta - q)
    return math.log(q + (1.0 / q - q) / y)


class TestBOccupation:
    def test_bose_limit_exact_branch(self):
        for eta in ETA_GRID:
            assert b_occupation(1.0, eta) == pytest.approx(
                1.0 / (math.exp(eta) - 1.0), abs=1e-14)

    def test_frozen_value(self):
        # ln(2/3.5) / (2 ln 0.5), checked against a 30-digit evaluation
        assert b_occupation(0.5, math.log(4.0)) == pytest.approx(
            0.403677461028802054, abs=1e-14)

    def test_domain_boundary(self):
        with pytest.raises(DomainError):
            b_occupation(0.5, math.log(2.0))  # e^eta == 1/q
        with pytest.raises(DomainError):
            b_occupation(0.5, 0.3)
        with pytest.raises(DomainError):
            b_occupation(1.0, 0.0)

    def test_near_classical_regression(self):
        for eta in ETA_GRID:
            bose = 1.0 / math.expm1(eta)
            got = b_occupation(1.0 - 1e-9, eta)
            assert abs(got - bose) / bose < 1e-6

    def test_nonnegative_and_decreasing_in_eta(self):
        for q in (0.3, 0.6, 0.9):
            values = [b_occupation(q, _eta_from_y(q, y))
                      for y in (0.9, 0.5, 0.2, 0.05)]
            assert all(v > 0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_huge_eta_underflows_cleanly(self):
        assert b_occupation(0.5, 800.0) == 0.0


class TestBOccupationJD:
    def test_bose_limit(self):
        assert b_occupation_jd(1.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_value(self):
        assert b_occupation_jd(0.5, 0.25) == pytest.approx(
            0.373077191956948458, abs=1e-14)

    def test_matches_term_series(self):
        for q in (0.4, 0.8):
            w = q / 2.0
            series = sum(basic_number(q, r) * w ** r / r for r in range(1, 60))
            assert b_occupation_jd(q, w) == pytest.approx(series, abs=1e-12)

    def test_zero_and_domain(self):
        assert b_occupation_jd(0.7, 0.0) == 0.0
        with pytest.raises(DomainError):
            b_occupation_jd(0.7, 0.7)
        with pytest.raises(DomainError):
            b_occupation_jd(0.7, -0.1)
        with pytest.raises(DomainError):
            b_occupation_jd(1.0, 1.0)

    def test_prefactor_ratio_at_small_occupation(self):
        # occ/jd -> (1/q - q)/(2 ln(1/q)) as eta grows
        for q in (0.3, 0.6, 0.9):
            eta = 14.0
            ratio = b_occupation(q, eta) / b_occupation_jd(q, math.exp(-eta))
            want = (1.0 / q - q) / (2.0 * math.log(1.0 / q))
            assert ratio == pytest.approx(want, rel=1e-5)

    def test_ratio_tends_to_one_with_q(self):
        eta = 3.0
        ratio = b_occupation(1.0 - 1e-9, eta) / b_occupation_jd(
            1.0 - 1e-9, math.exp(-eta))
        assert ratio == pytest.approx(1.0, abs=1e-6)


class TestConvergents:
    def test_first_convergent_closed_form(self):
        for q in (0.3, 0.5, 0.8):
            for y in (0.3, 0.7):
                eta = _eta_from_y(q, y)
                want = (1.0 / q - q) / (
                    2.0 * math.log(1.0 / q) * (math.exp(eta) - q))
                assert cf_convergent(q, eta, 1) == pytest.approx(
                    want, rel=1e-14)

    def test_second_convergent_closed_form(self):
        # shift (q + 1/q)/2 in the denominator
        for q in (0.3, 0.5, 0.8):
            eta = _eta_from_y(q, 0.5)
            want = (1.0 / q - q) / (
                2.0 * math.log(1.0 / q)
                * (math.exp(eta) - (q + 1.0 / q) / 2.0))
            assert cf_convergent(q, eta, 2) == pytest.approx(want, rel=1e-14)

    def test_converges_to_closed_form(self):
        for q in (0.3, 0.6, 0.9):
            eta = _eta_from_y(q, 0.8)
            exact = b_occupation(q, eta)
            assert cf_convergent(q, eta, 40) == pytest.approx(
                exact, abs=1e-12)

    def test_monotone_increase_from_below(self):
        # all convergents lie below the limit; see the
        # convergent-bracketing erratum for why there is no interlacing
        q, eta = 0.5, math.log(4.0)
        exact = b_occupation(q, eta)
        conv = [cf_convergent(q, eta, k) for k in range(1, 13)]
        assert all(a < b for a, b in zip(conv, conv[1:]))
        assert conv[-1] < exact

    def test_error_decreases_monotonically(self):
        for q in (0.4, 0.8):
            eta = _eta_from_y(q, 0.85)
            exact = b_occupation(q, eta)
            errors = [abs(cf_convergent(q, eta, k) - exact)
                      for k in range(1, 25)]
            assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_classical_collapses_to_bose(self):
        for k in (1, 2, 17):
            assert cf_convergent(1.0, 1.0, k) == pytest.approx(
                1.0 / math.expm1(1.0), rel=1e-15)

    def test_bad_k(self):
        with pytest.raises(DomainError):
            cf_convergent(0.5, 1.0, 0)


class TestBounds:
    def test_strict_bracketing(self):
        for q in (0.3, 0.6, 0.9, 0.99):
            for y in (0.05, 0.3, 0.7, 0.95):
                pair = cf_bounds(q, _eta_from_y(q, y))
                assert pair.lower < pair.exact < pair.upper

    def test_lower_is_first_convergent(self):
        q, eta = 0.5, 1.2
        assert cf_bounds(q, eta).lower == pytest.approx(
            cf_convergent(q, eta, 1), rel=1e-15)

    def test_upper_closed_form(self):
        # (1/q - q)/(2 ln(1/q) (e^eta - 1/q))
        for q in (0.3, 0.5, 0.8):
            eta = _eta_from_y(q, 0.5)
            want = (1.0 / q - q) / (
                2.0 * math.log(1.0 / q) * (math.exp(eta) - 1.0 / q))
            assert cf_bounds(q, eta).upper == pytest.approx(want, rel=1e-14)

    def test_bounds_tighten_at_large_eta(self):
        q = 0.5
        widths = [cf_bounds(q, eta).upper - cf_bounds(q, eta).lower
                  for eta in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_classical_collapse(self):
        pair = cf_bounds(1.0, 1.0)
        assert pair.lower == pair.upper == pair.exact

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-13, 1.0])
    def test_exact_is_b_occupation(self, q):
        # from just above the pole eta = ln(1/q) to past eta = 700, where
        # e^eta is no longer formed; q = 1 - 1e-13 and 1 take the Bose branch
        floor = math.log(1.0 / q)
        etas = [floor + d for d in (1e-12, 1e-6, 1e-3, 0.5, 5.0, 50.0)]
        etas += [700.5, 720.0, 745.0, 800.0]
        for eta in etas:
            pair = cf_bounds(q, eta)
            assert pair.exact == b_occupation(q, eta), eta
            # the Bose branch collapses all three; once 1 - y rounds to 1
            # they agree to an ulp
            y = (1.0 / q - q) / (math.exp(eta) - q) if eta < 700.0 else 0.0
            if not QParam(q).is_classical_limit and y > 1e-8:
                assert pair.lower < pair.exact < pair.upper, eta

    @given(st.floats(0.05, 0.99), st.floats(0.05, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_bracketing_property(self, q, offset):
        eta = math.log(1.0 / q) + offset
        pair = cf_bounds(q, eta)
        assert pair.lower < pair.exact < pair.upper


class TestFOccupation:
    def test_fermi_limit(self):
        for eta in (-3.0, 0.0, 1.5, 6.0):
            assert f_occupation(1.0, eta) == pytest.approx(
                1.0 / (math.exp(eta) + 1.0), abs=1e-15)

    def test_half_filling_value(self):
        assert f_occupation(0.5, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_at_least_half_at_eta_zero(self):
        for q in (0.1, 0.5, 0.9, 1.0):
            assert f_occupation(q, 0.0) >= 0.5

    def test_boltzmann_asymptote(self):
        # n -> (1/q) e^-eta at large eta
        got = f_occupation(0.5, 10.0)
        assert abs(got - 2.0 * math.exp(-10.0)) < 2e-8

    def test_bounded_and_decreasing(self):
        for q in (0.2, 0.7):
            values = [f_occupation(q, eta) for eta in (-5.0, -1.0, 0.0, 2.0, 9.0)]
            assert all(0.0 < v < 1.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_step_function_limit(self):
        # beta (E - mu) = +-50: the step is unmodified for every q
        for q in (0.2, 0.5, 0.9):
            assert f_occupation(q, -50.0) >= 1.0 - 1e-15
            assert f_occupation(q, 50.0) < 1e-20


class TestFArcsinForms:
    def test_matches_rational_form(self):
        # sin^2(n pi / 2) recovers g identically
        for q in (0.3, 0.7):
            for eta in (-2.0, 0.0, 1.0, 5.0):
                n = f_occupation_arcsin(q, eta)
                g = f_occupation(q, eta)
                assert math.sin(n * math.pi / 2.0) ** 2 == pytest.approx(
                    g, abs=1e-15)

    def test_limits(self):
        assert f_occupation_arcsin(0.5, -800.0) == pytest.approx(1.0, abs=1e-12)
        assert f_occupation_arcsin(0.5, 800.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        assert f_occupation_arcsin(0.5, 0.0) == pytest.approx(
            0.608173447969392730, abs=1e-14)

    def test_series_converges_to_arcsin_form(self):
        for g in (0.05, 0.3, 0.66, 0.9):
            want = 2.0 / math.pi * math.asin(math.sqrt(g))
            assert f_occupation_series(g, 400) == pytest.approx(
                want, abs=1e-11)

    def test_leading_terms(self):
        g = 0.04
        first = f_occupation_series(g, 1)
        assert first == pytest.approx(2.0 / math.pi * math.sqrt(g), rel=1e-15)
        second = f_occupation_series(g, 2) - first
        assert second == pytest.approx(
            2.0 / math.pi * g ** 1.5 / 6.0, rel=1e-15)

    def test_domain(self):
        assert f_occupation_series(0.0, 5) == 0.0
        with pytest.raises(DomainError):
            f_occupation_series(1.0, 5)
        with pytest.raises(DomainError):
            f_occupation_series(-0.1, 5)
        with pytest.raises(DomainError):
            f_occupation_series(0.5, 0)
