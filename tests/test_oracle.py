"""The brute-force trace sums against their closed forms in mpmath."""

import math
import re

import mpmath
import pytest

from anyongas.errors import ConvergenceError, DomainError
from anyongas.oracle import (arcsin_series_coefficients, basic_mean_closed_form,
                             taylor_reference, trace_average, trace_average_matrix)
from anyongas.qcore import Family

# deformed, near the undeformed limit on both sides of |q - 1| = 1e-12,
# the last double below 1, and q = 1 itself
QS = (0.05, 0.3, 0.5, 0.7, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-11,
      1 - 1e-13, 1 - 2.0 ** -52, 1.0)
OFFSETS = (0.15, 0.7, 2.0, 5.0)  # eta - ln(1/q)


def _closed_form(observable, q, eta):
    # the geometric sums of the B family, at 40 digits from the doubles q, eta
    with mpmath.workdps(40):
        q, w = mpmath.mpf(q), mpmath.exp(-mpmath.mpf(eta))
        return float({
            "N": lambda: w / (1 - w),
            "qN": lambda: (1 - w) / (1 - q * w),
            "q_inv_N": lambda: (1 - w) / (1 - w / q),
            "basic_N": lambda: w * (1 - w) / ((1 - q * w) * (1 - w / q)),
        }[observable]())


@pytest.mark.parametrize("observable", ["N", "qN", "q_inv_N", "basic_N"])
@pytest.mark.parametrize("q", QS)
def test_b_sums_match_the_closed_forms(observable, q):
    for offset in OFFSETS:
        eta = -math.log(q) + offset
        got = trace_average(Family.B, q, eta, observable)
        assert got == pytest.approx(_closed_form(observable, q, eta), rel=1e-14,
                                    abs=0.0)


@pytest.mark.parametrize("q", [0.5, 1 - 1e-13, 1.0])
def test_adag_a_is_basic_n_in_the_b_family(q):
    eta = -math.log(q) + 0.7
    assert trace_average(Family.B, q, eta, "adag_a") == \
        trace_average(Family.B, q, eta, "basic_N")


@pytest.mark.parametrize("q", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("eta", [-2.0, 0.0, 1.5])
def test_f_two_state_values(q, eta):
    # states 0 and 1 with weights 1 and w; a+ a is 1 on state 1 and [1] = 1
    w = math.exp(-eta)
    expected = {
        "N": w / (1 + w),
        "qN": (1 + q * w) / (1 + w),
        "q_inv_N": (1 + w / q) / (1 + w),
        "basic_N": w / (1 + w),
        "adag_a": w / (1 + w),
    }
    for observable, value in expected.items():
        got = trace_average(Family.F, q, eta, observable)
        assert got == pytest.approx(value, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("average", [trace_average, trace_average_matrix])
@pytest.mark.parametrize("observable", ["N", "qN", "q_inv_N", "basic_N", "adag_a"])
@pytest.mark.parametrize("q", [0.3, 1.0])
def test_f_weights_hold_at_every_eta(average, observable, q):
    # the two weights are scaled to 1 and e^-|eta|: no exp(800) overflows,
    # and eta = -inf and +inf give the averages on states 1 and 0
    on_one = average(Family.F, q, -math.inf, observable)
    assert average(Family.F, q, -800.0, observable) == on_one
    assert on_one == {"N": 1.0, "qN": q, "q_inv_N": 1.0 / q}.get(observable, 1.0)
    assert average(Family.F, q, math.inf, observable) == \
        (0.0 if observable in ("N", "basic_N", "adag_a") else 1.0)
    assert average(Family.F, q, -2.0, observable) == pytest.approx(
        trace_average(Family.F, q, -2.0, observable), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("eta", [-2.0, 0.0, 1.0])
def test_f_trace_where_one_over_q_overflows(eta):
    # a+ a is 0 and 1 on the two states at every q; the matrix form needs
    # the F representation, which such a q does not have
    assert trace_average(Family.F, 1e-310, eta, "adag_a") == pytest.approx(
        1.0 / (math.exp(eta) + 1.0), rel=1e-15, abs=0.0)
    with pytest.raises(DomainError, match="1/q overflows"):
        trace_average_matrix(Family.F, 1e-310, eta, "adag_a")


@pytest.mark.parametrize("average", [trace_average, trace_average_matrix])
def test_f_eta_nan_is_refused(average):
    with pytest.raises(DomainError, match="not NaN"):
        average(Family.F, 0.5, math.nan, "N")


@pytest.mark.parametrize("average", [trace_average, trace_average_matrix])
def test_a_adag_is_not_an_observable(average):
    with pytest.raises(DomainError, match="unknown observable 'a_adag'"):
        average(Family.B, 0.5, 2.0, "a_adag", n_max=8)


@pytest.mark.parametrize("average", [trace_average, trace_average_matrix])
@pytest.mark.parametrize("eta", [0.0, -1.0, -3.0, math.nan, math.inf])
def test_b_eta_outside_the_domain(average, eta):
    with pytest.raises(DomainError, match="finite eta > 0"):
        average(Family.B, 0.5, eta, "N", 8)


@pytest.mark.parametrize("average", [trace_average, trace_average_matrix])
@pytest.mark.parametrize("observable", ["q_inv_N", "basic_N", "adag_a"])
def test_growing_observables_need_e_eta_above_one_over_q(average, observable):
    for eta in (math.log(2.0), 0.5):
        with pytest.raises(DomainError, match="e\\^eta > 1/q"):
            average(Family.B, 0.5, eta, observable, 8)
    # N and q^N converge for every eta > 0
    assert trace_average(Family.B, 0.5, math.log(2.0), "N") == \
        pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_weights_that_underflow_give_zero():
    # e^-eta is 0.0 in doubles, so every term past n = 0 is 0
    assert trace_average(Family.B, 0.5, 800.0, "N") == 0.0
    assert trace_average(Family.B, 0.5, 800.0, "basic_N") == 0.0


@pytest.mark.parametrize("average", [trace_average, trace_average_matrix])
@pytest.mark.parametrize("family", [Family.B, Family.F])
@pytest.mark.parametrize("n_max", [0, -1, 2.5, math.nan])
def test_n_max_must_be_an_integer_from_one(average, family, n_max):
    with pytest.raises(DomainError, match=f"n_max must be an integer >= 1, got {n_max!r}"):
        average(family, 0.5, 2.0, "N", n_max=n_max)


def test_fixed_n_max_that_misses_the_tail_bound():
    with pytest.raises(ConvergenceError, match="n_max=8"):
        trace_average(Family.B, 0.5, 1.0, "N", n_max=8)


@pytest.mark.parametrize("q", [0.5, 1 - 1e-11, 1.0])
@pytest.mark.parametrize("observable", ["N", "qN", "q_inv_N", "basic_N"])
def test_matrix_and_scalar_sums_agree(q, observable):
    spec = (Family.B, q, -math.log(q) + 2.0, observable, 64)
    assert trace_average_matrix(*spec) == pytest.approx(
        trace_average(*spec), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q", [0.3, 0.5, 1 - 1e-9, 1.0])
def test_basic_mean_closed_form_is_the_trace_sum(q):
    for offset in OFFSETS:
        eta = -math.log(q) + offset
        assert basic_mean_closed_form(q, eta) == pytest.approx(
            _closed_form("basic_N", q, eta), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q, eta", [(1e-310, 720.0), (4e-309, 712.0), (1e-310, 800.0)])
def test_basic_mean_closed_form_where_one_over_q_overflows(q, eta):
    assert basic_mean_closed_form(q, eta) == pytest.approx(
        trace_average(Family.B, q, eta, "basic_N"), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q, eta, match", [
    # e^eta < 1/q: the geometric sum in w/q diverges
    (0.5, 0.1, "e\\^eta > 1/q"), (0.5, math.log(2.0), "e\\^eta > 1/q"),
    (0.5, math.nan, "finite eta > 0"), (0.5, math.inf, "finite eta > 0"),
    (0.5, 0.0, "finite eta > 0"), (0.5, -1.0, "finite eta > 0"),
])
def test_basic_mean_closed_form_refuses_what_the_trace_sum_refuses(q, eta, match):
    for function in (basic_mean_closed_form,
                     lambda q, eta: trace_average(Family.B, q, eta, "basic_N")):
        with pytest.raises(DomainError, match=match):
            function(q, eta)


@pytest.mark.parametrize("n_coeffs", [math.nan, math.inf, -math.inf, 2.5, 0])
def test_taylor_reference_needs_a_whole_number_of_coefficients(n_coeffs):
    with pytest.raises(DomainError, match=re.escape(
            f"n_coeffs must be an integer >= 1, got {n_coeffs!r}")):
        taylor_reference(n_coeffs)


def test_bracket_reference_refuses_more_coefficients_than_its_nodes_hold():
    # c3 would be 9.79 against the Sommerfeld 9.7015, c4 164 against about 243
    assert len(taylor_reference(2)) == 2
    with pytest.raises(DomainError, match="nodes hold 2 coefficients; "
                                          "n_coeffs must be at most 2, got 3$"):
        taylor_reference(3)


def test_degenerate_bracket_second_coefficient_is_the_sommerfeld_one():
    # 1 + (pi^2/8) nu^-2 + (7 pi^4/640) nu^-4 + ...: c2 comes out 3.8e-5
    # off, c1 4.9e-9
    c1, c2 = taylor_reference(2)
    assert c1 == pytest.approx(math.pi ** 2 / 8, rel=1e-8, abs=0.0)
    assert c2 == pytest.approx(7 * math.pi ** 4 / 640, rel=1e-4, abs=0.0)


def test_taylor_reference_takes_a_whole_float_count():
    assert taylor_reference(2.0) == taylor_reference(2)


def test_one_coefficient_is_the_first_of_two():
    assert taylor_reference(1) == taylor_reference(2)[:1]


def test_arcsin_series_coefficients_are_the_maclaurin_ones():
    # (2/pi) arcsin(u) at odd powers u^1 .. u^23, at 30 digits; the worst
    # of the 12 is 2.0e-16 off
    with mpmath.workdps(30):
        series = mpmath.taylor(mpmath.asin, 0, 23)
        want = [float(2 / mpmath.pi * c) for c in series[1::2]]
    assert arcsin_series_coefficients(12) == pytest.approx(want, rel=1e-15, abs=0.0)
