import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas import distributions
from anyongas.distributions import (b_occupation, b_occupation_jd,
                                    b_occupation_rows, bounds_rows, cf_bounds,
                                    cf_convergent, f_occupation,
                                    f_occupation_arcsin, f_occupation_rows,
                                    f_occupation_series)
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

    # q grid on which 1 - y rounding to 1 once left exact above upper
    ROUNDING_QS = (0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)

    @pytest.mark.parametrize("q", ROUNDING_QS)
    def test_ordered_for_eta_700_to_740(self, q):
        # 1 - y rounds to 1 here, so all three are the product pref * y
        for k in range(401):
            eta = 700.0 + 0.1 * k
            lower, upper, exact = cf_bounds(q, eta)
            assert lower == exact == upper, eta
            assert exact == b_occupation(q, eta)

    @pytest.mark.parametrize("q", ROUNDING_QS)
    def test_strict_down_to_y_1e15_and_ordered_below(self, q):
        # y from 1e-12 down to 1e-18, where exact - lower drops below an ulp
        for k in range(1201):
            y = 10.0 ** (-12.0 - 0.005 * k)
            lower, upper, exact = cf_bounds(q, _eta_from_y(q, y))
            assert lower <= exact <= upper, y
            if y >= 1e-15:
                assert lower < exact < upper, y

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


def _raises_domain_error(func, *args):
    try:
        func(*args)
    except DomainError:
        return True
    return False


def _occupation_row_fails(q, eta):
    return (_raises_domain_error(b_occupation, q, eta)
            or _raises_domain_error(b_occupation_jd, q, math.exp(-eta)))


def _bounds_row_fails(q, eta):
    return _raises_domain_error(b_occupation, q, eta)


def _first_valid_eta(q, row_fails=_occupation_row_fails):
    # bisect the positive doubles, ordered as their bit patterns, for the
    # first eta above ln(1/q) where the row is defined
    bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
    lo, hi = bits(math.log(1.0 / q)), bits(math.log(1.0 / q) + 1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if row_fails(q, struct.unpack("<d", struct.pack("<q", mid))[0]):
            lo = mid
        else:
            hi = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


def _same_doubles(row, want):
    # bit for bit: repr tells -0.0 from 0.0 and round-trips every double
    return list(map(repr, row)) == list(map(repr, want))


KERNEL_QS = (0.05, 0.5, 0.9, 1.0 - 1e-9, 1.0)


class TestGridKernels:
    """Each grid kernel row against the scalar functions, bit for bit."""

    @staticmethod
    def b_etas(q, row_fails=_occupation_row_fails):
        first = _first_valid_eta(q, row_fails)
        etas = [first]
        for _ in range(5):
            etas.append(math.nextafter(etas[-1], math.inf))
        floor = math.log(1.0 / q)
        etas += [floor + d for d in (1e-12, 1e-6, 1e-3, 0.5, 5.0, 50.0)]
        return etas + [699.9, 700.0, 700.5, 720.0, 745.0, 746.0, 800.0]

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_b_occupation_rows(self, q):
        etas = self.b_etas(q)
        rows = b_occupation_rows(q, etas)
        assert len(rows) == len(etas)
        for eta, row in zip(etas, rows):
            lower, upper, exact = cf_bounds(q, eta)
            assert exact == b_occupation(q, eta)
            want = (eta, exact, b_occupation_jd(q, math.exp(-eta)), lower, upper)
            assert _same_doubles(row, want), eta

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_bounds_rows(self, q):
        etas = self.b_etas(q, _bounds_row_fails)
        rows = bounds_rows(QParam(q), etas)
        for eta, row in zip(etas, rows):
            lower, upper, exact = cf_bounds(q, eta)
            want = (eta, lower, cf_convergent(q, eta, 2), upper, exact, upper - lower)
            assert _same_doubles(row, want), eta

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_f_occupation_rows(self, q):
        etas = [-800.0 + 0.5 * k for k in range(3201)]
        etas += [-0.0, 5e-324, -5e-324, 1e-300, -1e-300]
        rows = f_occupation_rows(q, etas)
        for eta, row in zip(etas, rows):
            want = (eta, f_occupation(q, eta), f_occupation_arcsin(q, eta))
            assert _same_doubles(row, want), eta

    @pytest.mark.parametrize("kernel", [b_occupation_rows, bounds_rows])
    def test_one_cf_bounds_call_per_b_row(self, monkeypatch, kernel):
        calls = []
        original = distributions.cf_bounds

        def counted(q, eta):
            calls.append(eta)
            return original(q, eta)

        monkeypatch.setattr(distributions, "cf_bounds", counted)
        etas = [1.0 + 0.01 * k for k in range(137)]
        assert len(kernel(0.5, etas)) == 137
        assert calls == etas

    @pytest.mark.parametrize("kernel, row_fails", [
        (b_occupation_rows, _occupation_row_fails), (bounds_rows, _bounds_row_fails)])
    def test_b_kernels_refuse_the_last_invalid_eta(self, kernel, row_fails):
        for q in KERNEL_QS:
            below = math.nextafter(_first_valid_eta(q, row_fails), 0.0)
            with pytest.raises(DomainError):
                kernel(q, [below + 1.0, below])

    def test_f_kernel_refuses_nan(self):
        with pytest.raises(DomainError):
            f_occupation_rows(0.5, [0.0, math.nan])


class TestRoundingToThePole:
    """Just above eta = ln(1/q), y = (1/q - q)/(e^eta - q) can round to 1."""

    Q, ETA = 0.5533102249755101, 0.59183644926417

    def test_y_that_rounds_to_one_is_domain_error(self):
        assert self.ETA > math.log(1.0 / self.Q)
        for func in (b_occupation, cf_bounds):
            with pytest.raises(DomainError, match="below 1 in doubles"):
                func(self.Q, self.ETA)
        with pytest.raises(DomainError, match="below 1 in doubles"):
            cf_convergent(self.Q, self.ETA, 2)

    def test_w_over_q_that_rounds_to_one_is_domain_error(self):
        # w < q, but (1/q) w rounds to 1, where log1p(-w/q) has no value
        q = 0.2419876514362294
        w = math.nextafter(q, 0.0)
        assert (1.0 / q) * w == 1.0
        with pytest.raises(DomainError, match="diverges"):
            b_occupation_jd(q, w)

    def test_first_doubles_above_the_pole_raise_only_domain_error(self):
        rng = random.Random(7)
        for _ in range(3000):
            q = rng.uniform(0.01, 1.0)
            eta = math.log(1.0 / q)
            for _ in range(3):
                eta = math.nextafter(eta, math.inf)
                try:
                    lower, upper, exact = cf_bounds(q, eta)
                except DomainError:
                    continue
                assert lower <= exact <= upper < math.inf
                assert exact == b_occupation(q, eta)


class TestBoseOverflow:
    """1/(e^eta - 1) passes the largest double for eta below about 5.56e-309."""

    @pytest.mark.parametrize("q", [1.0, 1.0 - 1e-13])
    @pytest.mark.parametrize("eta", [5e-324, 1e-320, 5.5e-309])
    def test_refused(self, q, eta):
        for func in (b_occupation, cf_bounds):
            with pytest.raises(DomainError, match="overflows"):
                func(q, eta)
        with pytest.raises(DomainError, match="overflows"):
            cf_convergent(q, eta, 1)
        for kernel in (b_occupation_rows, bounds_rows):
            with pytest.raises(DomainError, match="overflows"):
                kernel(q, [1.0, eta])

    def test_finite_above(self):
        eta = 6e-309
        assert b_occupation(1.0, eta) == 1.0 / eta < math.inf
        assert all(v < math.inf for v in bounds_rows(1.0, [eta])[0])
