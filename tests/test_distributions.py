import math
import random
import re
import struct
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas import distributions
from anyongas.distributions import (b_occupation, b_occupation_jd,
                                    b_occupation_rows, bounds_rows, cf_bounds,
                                    cf_convergent, f_occupation,
                                    f_occupation_arcsin, f_occupation_rows)
from anyongas.errors import DomainError
from anyongas.qcore import QParam, basic_number

ETA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)


def _eta_from_y(q, y):
    # invert y = (1/q - q)/(e^eta - q)
    return math.log(q + (1.0 / q - q) / y)


def _reference_jd(q, w):
    # Sum_{r>=1} [r] w^r / r at the doubles q and w, from mpmath at 60 digits
    with mpmath.workdps(60):
        qm, wm = mpmath.mpf(q), mpmath.mpf(w)
        if qm == 1:
            return wm / (1 - wm)
        return (mpmath.log1p(-wm / qm) - mpmath.log1p(-qm * wm)) / (qm - 1 / qm)


def _rel(got, want):
    return float(abs((got - want) / want))


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

    @pytest.mark.parametrize("q", [0.3, 0.9, 1.0 - 1e-9, 1.0 - 1e-13,
                                   1.0 - 2.0 ** -53, 1.0])
    def test_is_the_exact_of_cf_bounds(self, q):
        # inside the classical band as well as outside it
        for offset in (1e-6, 0.1, 1.0, 30.0, 750.0):
            eta = math.log(1.0 / q) + offset
            assert b_occupation(q, eta) == cf_bounds(q, eta).exact


class TestBOccupationJD:
    def test_bose_limit(self):
        assert b_occupation_jd(1.0, 0.5) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        for w in (1e-300, 0.3, 0.5, math.nextafter(1.0, 0.0)):
            assert b_occupation_jd(1.0, w) == w / (1.0 - w)

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

    @pytest.mark.parametrize("q", [0.5, 1.0])
    @pytest.mark.parametrize("w", [math.nan, -0.1, -math.inf])
    def test_w_must_be_a_number_from_zero(self, q, w):
        with pytest.raises(DomainError, match=f"w must be a number >= 0, got {w!r}"):
            b_occupation_jd(q, w)

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

    @pytest.mark.parametrize("q", [
        1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9,
        1.0 - 1e-11, 1.0 - 1.01e-12, 1.0 - 1e-13, 1.0 - 2.0 ** -52, 1.0])
    def test_against_mpmath(self, q):
        # offset = eta - ln(1/q), from next to the pole w -> q to w of 1e-307
        for offset in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0, 700.0):
            w = q * math.exp(-offset)
            assert _rel(b_occupation_jd(q, w), _reference_jd(q, w)) <= 1e-15, offset

    @pytest.mark.parametrize("q", [1e-300, 1e-100, 1e-10,
                                   1e-310, 3e-309, 5e-309, 5.5e-309])
    def test_against_mpmath_at_tiny_q(self, q):
        # -2 sinh(ln q) carries the rounding of ln q, up to |ln q| 2^-53
        # relative (7.7e-14 at q = 1e-300); 1/q - q holds full precision.
        # Below q of about 5.6e-309 1/q is inf and q is subnormal, so n is
        # held to one unit of the smallest subnormal, and a w that rounds
        # to q is skipped
        for offset in (1e-15, 1e-9, 1e-3, 1.0, 5.0):
            w = q * math.exp(-offset)
            if w == q:
                continue
            want = _reference_jd(q, w)
            assert abs(b_occupation_jd(q, w) - want) <= max(1e-15 * abs(want), 5e-324), \
                offset


class TestConvergents:
    def test_first_convergent_closed_form(self):
        for q in (0.3, 0.5, 0.8):
            for y in (0.3, 0.7):
                eta = _eta_from_y(q, y)
                want = (1.0 / q - q) / (
                    2.0 * math.log(1.0 / q) * (math.exp(eta) - q))
                assert cf_convergent(q, eta, 1) == pytest.approx(
                    want, rel=1e-14, abs=0.0)

    def test_second_convergent_closed_form(self):
        # shift (q + 1/q)/2 in the denominator
        for q in (0.3, 0.5, 0.8):
            eta = _eta_from_y(q, 0.5)
            want = (1.0 / q - q) / (
                2.0 * math.log(1.0 / q)
                * (math.exp(eta) - (q + 1.0 / q) / 2.0))
            assert cf_convergent(q, eta, 2) == pytest.approx(want, rel=1e-14, abs=0.0)

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
                1.0 / math.expm1(1.0), rel=1e-15, abs=0.0)

    def test_bad_k(self):
        with pytest.raises(DomainError):
            cf_convergent(0.5, 1.0, 0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 2.5, 0])
    def test_k_must_be_a_whole_number_from_one(self, k):
        with pytest.raises(DomainError,
                           match=re.escape(f"k must be an integer >= 1, got {k!r}")):
            cf_convergent(0.5, 2.0, k)


class TestBounds:
    def test_strict_bracketing(self):
        for q in (0.3, 0.6, 0.9, 0.99):
            for y in (0.05, 0.3, 0.7, 0.95):
                pair = cf_bounds(q, _eta_from_y(q, y))
                assert pair.lower < pair.exact < pair.upper

    def test_lower_is_first_convergent(self):
        q, eta = 0.5, 1.2
        assert cf_bounds(q, eta).lower == pytest.approx(
            cf_convergent(q, eta, 1), rel=1e-15, abs=0.0)

    def test_upper_closed_form(self):
        # (1/q - q)/(2 ln(1/q) (e^eta - 1/q))
        for q in (0.3, 0.5, 0.8):
            eta = _eta_from_y(q, 0.5)
            want = (1.0 / q - q) / (
                2.0 * math.log(1.0 / q) * (math.exp(eta) - 1.0 / q))
            assert cf_bounds(q, eta).upper == pytest.approx(want, rel=1e-14, abs=0.0)

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


@pytest.mark.parametrize("q", [0.5, 1.0 - 1e-13, 1.0])
@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
class TestNonFiniteEta:
    """The deformed and the Bose branch refuse a non-finite eta alike."""

    def test_scalar_functions(self, q, eta):
        for func, args in ((b_occupation, ()), (cf_bounds, ()),
                           (cf_convergent, (2,))):
            with pytest.raises(DomainError, match="eta must be finite"):
                func(q, eta, *args)

    @pytest.mark.parametrize("kernel", [b_occupation_rows, bounds_rows])
    def test_b_kernels(self, q, eta, kernel):
        with pytest.raises(DomainError, match="eta must be finite"):
            kernel(q, [2.0, eta])


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

    def test_w_over_q_that_rounds_to_one_matches_mpmath(self):
        # w < q, but (1/q) w rounds to 1: the double below q is in the domain
        q = 0.2419876514362294
        w = math.nextafter(q, 0.0)
        assert (1.0 / q) * w == 1.0
        assert _rel(b_occupation_jd(q, w), _reference_jd(q, w)) <= 1e-15

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


class TestSubnormalQ:
    """Below q of about 5.6e-309 1/q is inf; the pole sits at eta > 709."""

    QS = (1e-310, 3e-309, 5e-309, 5.5e-309, 1e-320, 5e-324)
    OFFSETS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 600.0)  # eta - ln(1/q)

    @staticmethod
    def _reference(q, eta):
        # lower, second convergent, upper and exact at 80 digits from the doubles
        with mpmath.workdps(80):
            qm, em = mpmath.mpf(q), mpmath.mpf(eta)
            y = (1 / qm - qm) / (mpmath.exp(em) - qm)
            pref = 1 / (2 * mpmath.log(1 / qm))
            return pref * y, pref * 2 * y / (2 - y), pref * y / (1 - y), \
                -pref * mpmath.log1p(-y)

    @pytest.mark.parametrize("q", QS)
    def test_against_mpmath(self, q):
        for offset in self.OFFSETS:
            eta = -math.log(q) + offset
            lower, second, upper, exact = self._reference(q, eta)
            pair = cf_bounds(q, eta)
            assert _rel(pair.exact, exact) <= 1e-13, offset
            assert _rel(b_occupation(q, eta), exact) <= 1e-13, offset
            assert _rel(pair.lower, lower) <= 1e-13, offset
            assert _rel(cf_convergent(q, eta, 2), second) <= 1e-13, offset
            # upper = lower/(1 - y) carries the rounding of y times 1/(1 - y),
            # at every q: 1.2e-13 at offset 1e-3, 4.3e-14 from 1e-2 on
            assert _rel(pair.upper, upper) <= (1e-13 if offset >= 1e-2 else 2e-13), \
                offset

    @pytest.mark.parametrize("q", QS)
    def test_grid_kernels_match_the_scalar_functions(self, q):
        floor = -math.log(q)
        etas = [floor + d for d in self.OFFSETS] + [floor + 800.0, 2000.0]
        # n_jd needs e^-eta < q, which the first offsets miss at q = 5e-324
        jd_etas = [eta for eta in etas if math.exp(-eta) < q]
        for row, eta in zip(b_occupation_rows(q, jd_etas), jd_etas):
            lower, upper, exact = cf_bounds(q, eta)
            assert _same_doubles(row, (eta, exact, b_occupation_jd(q, math.exp(-eta)),
                                       lower, upper)), eta
        for row, eta in zip(bounds_rows(q, etas), etas):
            lower, upper, exact = cf_bounds(q, eta)
            assert _same_doubles(row, (eta, lower, cf_convergent(q, eta, 2), upper,
                                       exact, upper - lower)), eta

    @pytest.mark.parametrize("q", QS)
    def test_below_the_pole_is_domain_error(self, q):
        eta = -math.log(q) - 1e-3
        for func in (b_occupation, cf_bounds):
            with pytest.raises(DomainError, match="requires e\\^eta > 1/q"):
                func(q, eta)
        with pytest.raises(DomainError, match="requires e\\^eta > 1/q"):
            bounds_rows(q, [eta])


class TestHugeEtaAtSmallQ:
    """Above eta = 700, where 1/q is finite, y = (1/q - q) e^-eta.

    At a small q the occupation is a normal double well past eta = 745.1,
    where e^-eta underflows, so e^-eta must not be formed on its own:
    cf_bounds(1e-300, 790.8) is 2.6e-47.
    """

    QS = (1e-100, 1e-200, 1e-300, 1e-305, 1e-308)
    OFFSETS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 600.0)  # eta - ln(1/q)
    ETAS = (700.5, 708.0, 715.0, 730.0, 745.5, 760.0, 790.8, 1000.0)

    @pytest.mark.parametrize("q", QS)
    def test_against_mpmath(self, q):
        floor = -math.log(q)
        etas = sorted({eta for eta in self.ETAS if eta > floor}
                      | {floor + d for d in self.OFFSETS if floor + d > 700.0})
        tested = 0
        for eta in etas:
            lower, second, upper, exact = TestSubnormalQ._reference(q, eta)
            if exact < sys.float_info.min:
                continue
            tested += 1
            # from eta - ln(1/q) = 1 on, y is formed within a few roundings;
            # closer to the pole, 1/(1 - y) magnifies them as in TestSubnormalQ
            offset = eta - floor
            tol = 1e-15 if offset >= 1.0 else 1e-13
            pair = cf_bounds(q, eta)
            assert _rel(pair.exact, exact) <= tol, eta
            assert _rel(b_occupation(q, eta), exact) <= tol, eta
            assert _rel(pair.lower, lower) <= tol, eta
            assert _rel(cf_convergent(q, eta, 2), second) <= tol, eta
            assert _rel(pair.upper, upper) <= (tol if offset >= 1e-2 else 2e-13), eta
        assert tested >= 5
