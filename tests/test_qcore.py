import copy
import math
import pickle

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas.errors import DomainError
from anyongas.qcore import (Family, QParam, as_family, as_qparam, basic_number,
                            jackson_derivative)
from anyongas.thermo import b_partition_log


class TestQParam:
    def test_validation(self):
        for bad in (0.0, -0.3, 1.2, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                QParam(bad)

    def test_classical_limit_predicate(self):
        assert QParam(1.0).is_classical_limit
        assert QParam(1.0 - 1e-13).is_classical_limit
        assert not QParam(1.0 - 1e-9).is_classical_limit

    def test_inv_minus_q_keeps_precision_near_one(self):
        assert QParam(0.5).inv_minus_q == pytest.approx(1.5, rel=1e-15, abs=0.0)
        assert QParam(1.0).inv_minus_q == 0.0
        # 1/q - q = 2 eps + eps^3 + ... for q = 1 - eps; the subtraction
        # would keep only about seven digits of it at eps = 1e-9
        eps = 1.0 - (1.0 - 1e-9)  # the q below is 1 - eps exactly
        assert QParam(1.0 - 1e-9).inv_minus_q == pytest.approx(
            2.0 * eps + eps ** 2 + eps ** 3, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("q", [5e-324, 2e-309, 5e-309])
    def test_inv_minus_q_is_inf_where_one_over_q_overflows(self, q):
        qp = QParam(q)
        assert qp.q_inv == math.inf
        assert qp.inv_minus_q == math.inf
        assert qp.ln_q_inv == -math.log(q)

    @pytest.mark.parametrize("q", [1.0, 0.5, 1e-300, 5.6e-309])
    def test_ln_q_inv_is_the_log_of_q_inv_where_that_is_finite(self, q):
        qp = QParam(q)
        assert qp.ln_q_inv == math.log(qp.q_inv)

    def test_is_frozen(self):
        qp = QParam(0.5)
        for name in ("q", "q_inv", "extra"):
            with pytest.raises(AttributeError, match=name):
                setattr(qp, name, 0.7)
            with pytest.raises(AttributeError, match=name):
                delattr(qp, name)
        assert qp.q == 0.5 and qp.q_inv == 2.0

    def test_compares_and_hashes_by_value(self):
        assert QParam(0.5) == QParam(0.5)
        assert QParam(0.5) != QParam(0.7)
        assert QParam(0.5) != 0.5
        assert hash(QParam(0.5)) == hash(QParam(0.5))
        assert len({QParam(0.5), QParam(0.5), QParam(0.7)}) == 2

    def test_repr_names_its_field(self):
        assert repr(QParam(0.5)) == "QParam(q=0.5)"

    def test_copies_and_pickles(self):
        qp = QParam(1.0 - 1e-13)
        for other in (copy.copy(qp), copy.deepcopy(qp), pickle.loads(pickle.dumps(qp))):
            assert other == qp
            assert other.is_classical_limit and other.inv_minus_q == qp.inv_minus_q

    def test_coercion(self):
        assert as_qparam(0.5).q == 0.5
        qp = QParam(0.7)
        assert as_qparam(qp) is qp

    def test_family_coercion(self):
        assert as_family("b") is Family.B
        assert as_family("F") is Family.F
        assert as_family(Family.B) is Family.B
        with pytest.raises(DomainError):
            as_family("x")


class TestBasicNumber:
    def test_classical_is_identity(self):
        assert basic_number(1.0, 5) == 5.0
        assert basic_number(1.0, 2.75) == 2.75

    def test_two_bracket(self):
        # [2] = q + 1/q
        assert basic_number(0.5, 2) == pytest.approx(2.5, abs=1e-15)

    def test_direct_value(self):
        # (0.512 - 1.953125) / (0.8 - 1.25)
        assert basic_number(0.8, 3) == pytest.approx(3.2025, abs=1e-14)

    @given(st.floats(0.05, 0.999), st.floats(-60.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_odd_in_x(self, q, x):
        assert basic_number(q, -x) == -basic_number(q, x)

    @given(st.floats(0.05, 0.999), st.floats(-40.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_x(self, q, x):
        assert basic_number(q, x + 0.25) > basic_number(q, x)

    def test_full_precision_next_to_one(self):
        # sinh(x ln q)/sinh(ln q) keeps every digit inside |q - 1| < 1e-12,
        # where [x] is not x
        q = 1.0 - 1e-13
        with mpmath.workdps(40):
            qm, x = mpmath.mpf(q), mpmath.mpf(1e8)
            want = float((qm ** x - qm ** -x) / (qm - 1 / qm))
        assert basic_number(q, 1e8) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert basic_number(q, 1e8) != 1e8

    def test_monotone_interpolation_in_q(self):
        # [n] decreases toward n as q -> 1
        for n in (2, 3, 7):
            values = [basic_number(q, n) for q in (0.2, 0.4, 0.6, 0.8, 1.0)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == n
            assert all(v >= n for v in values)

    # (q, x) where sinh(x ln q), or sinh(ln q) below q of about 2.8e-309,
    # overflows or nearly so, but [x] is finite
    @pytest.mark.parametrize("q, x", [(1e-5, 62.0), (1e-100, 4.0), (0.5, 1024.0),
                                      (1e-300, 2.02), (1e-310, 0.5), (1e-310, 1.5),
                                      (5e-324, 1.2), (0.9, 6700.0), (0.999, 7e5)])
    def test_where_sinh_overflows(self, q, x):
        with mpmath.workdps(60):
            qm, xm = mpmath.mpf(q), mpmath.mpf(x)
            want = (qm ** xm - qm ** -xm) / (qm - 1 / qm)
        # the rounding of ln q moves [x] by about (|x| + 1) |ln q| 2^-53
        tol = 2.5e-16 * (x + 1.0) * -math.log(q) + 1e-15
        for sign in (1.0, -1.0):
            got = basic_number(q, sign * x)
            assert float(abs((got - sign * want) / want)) <= tol

    @pytest.mark.parametrize("q, x", [(0.5, 1025.0), (0.9, 6800.0), (1e-5, 1e300),
                                      (0.5, math.inf), (1.0, math.inf)])
    def test_past_the_largest_double_is_domain_error(self, q, x):
        # [1025] = 2.4e308 at q = 0.5
        for sign in (1.0, -1.0):
            with pytest.raises(DomainError, match="passes the largest double"):
                basic_number(q, sign * x)

    @pytest.mark.parametrize("q", [0.5, 1.0 - 1e-13, 1.0])
    def test_nan_x_is_domain_error_at_every_q(self, q):
        with pytest.raises(DomainError, match="needs a number x, got nan"):
            basic_number(q, math.nan)

    # the rounding of ln q, magnified |x| times in sinh(x ln q), bounds the
    # relative error by about |x ln q| 2^-53
    @pytest.mark.parametrize("q, x", [(0.5, 1000.0), (0.9, 6000.0), (1e-100, 4.0)])
    def test_relative_error_is_within_x_ln_q_roundings(self, q, x):
        with mpmath.workdps(60):
            qm, xm = mpmath.mpf(q), mpmath.mpf(x)
            want = (qm ** xm - qm ** -xm) / (qm - 1 / qm)
            error = float(abs((basic_number(q, x) - want) / want))
        assert error <= 2.0 * abs(x * math.log(q)) * 2.0 ** -53

    def test_continuous_across_the_sinh_overflow(self):
        # sinh(x ln q) overflows between these two x at q = 0.1, where [x] is
        # near 3.6e307
        x = 710.4758600739439 / math.log(10.0)
        below, above = basic_number(0.1, x - 1e-9), basic_number(0.1, x + 1e-9)
        # [x + d]/[x - d] = 10^(2 d) up to e^(-2 x ln 10), below resolution
        assert above / below == pytest.approx(10.0 ** 2e-9, rel=1e-12, abs=0.0)


# verify's five-mode spectrum for the jd-mode-sum identity, at beta = 1
SPECTRUM = (0.5, 1.0, 1.5, 2.0, 2.5)


def _ln_z_mp(z):
    return -mpmath.fsum(mpmath.log(1 - z * mpmath.exp(-e)) for e in SPECTRUM)


# (f, the same f in mpmath, x)
JACKSON_CASES = [
    (lambda t: t ** 3, lambda t: t ** 3, 2.0),
    (lambda t: -math.log(1.0 - 0.4 * t), lambda t: -mpmath.log(1 - 0.4 * t), 0.7),
    (lambda t: math.exp(2.0 * t), lambda t: mpmath.exp(2 * t), 1.3),
    (lambda t: math.exp(2.0 * t), lambda t: mpmath.exp(2 * t), 1e-3),
    (lambda t: t ** 2.5, lambda t: t ** mpmath.mpf(2.5), 3.0),
    (lambda z: b_partition_log(SPECTRUM, z, 1.0), _ln_z_mp, 0.4),
    (lambda z: b_partition_log(SPECTRUM, z, 1.0), _ln_z_mp, 0.01),
    (math.sin, mpmath.sin, 50.0),
    (lambda t: t ** 3, lambda t: t ** 3, 1e-3),
    (lambda t: t ** 3, lambda t: t ** 3, 1e-7),
    (lambda t: t ** 2.5, lambda t: t ** mpmath.mpf(2.5), 1e-3),
    (lambda t: t ** 2.5, lambda t: t ** mpmath.mpf(2.5), 1e-7),
]
JACKSON_IDS = ["cube", "log", "exp", "exp-small-x", "power-2.5", "ln-z",
               "ln-z-small-z", "sin-50", "cube-small-x", "cube-tiny-x",
               "power-2.5-small-x", "power-2.5-tiny-x"]
JACKSON_QS = (0.5, 0.9, 1 - 1e-3, 1 - 1e-5, 1 - 1e-6, 1 - 1e-7, 1 - 1e-9,
              1 - 1e-11, 1 - 1.01e-12, 1 - 1e-13, 1 - 2.0 ** -52, 1.0)


def _jackson_tolerance(f, x, q, value):
    # 1e-9 plus the rounding of the q-difference, 2^-52 |f| / (|x| ln(1/q) |D_q f|)
    # at the q it takes, none closer to 1 than exp(-1e-6)
    log_inv = max(-math.log(q), 1e-6)
    return 1e-9 + 2.0 ** -52 * abs(f(x)) / (abs(x) * log_inv * abs(value))


class TestJacksonDerivative:
    def test_monomial_rule(self):
        # D_q x^n = [n] x^(n-1)
        for q in (0.3, 0.5, 0.9):
            for n in (2, 3, 5):
                for x in (0.7, 3.0):
                    got = jackson_derivative(lambda t: t ** n, q, x)
                    want = basic_number(q, n) * x ** (n - 1)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_log_example(self):
        got = jackson_derivative(lambda t: math.log(1.0 / (1.0 - t)), 0.5, 0.25)
        assert got == pytest.approx(1.4923087678277938, abs=1e-12)

    def test_classical_reduces_to_derivative(self):
        got = jackson_derivative(math.sin, 1.0, 1.2)
        assert got == pytest.approx(math.cos(1.2), abs=1e-9)

    def test_classical_polynomial_identity(self):
        # exact n x^(n-1) limit for polynomials as q -> 1
        for q in (1.0 - 1e-7, 1.0 - 1e-10):
            got = jackson_derivative(lambda t: t ** 3, q, 2.0)
            assert got == pytest.approx(12.0, rel=1e-9)

    @pytest.mark.parametrize("f, f_mp, x", JACKSON_CASES, ids=JACKSON_IDS)
    @pytest.mark.parametrize("q", JACKSON_QS)
    def test_against_the_exact_q_difference(self, f, f_mp, x, q):
        # D_q f at the double q in 40 digits, and f'(x) at q = 1
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            if q == 1.0:
                want = mpmath.diff(f_mp, xm)
            else:
                qm = mpmath.mpf(q)
                want = (f_mp(qm * xm) - f_mp(xm / qm)) / (xm * (qm - 1 / qm))
            want = float(want)
        got = jackson_derivative(f, q, x)
        assert got == pytest.approx(want, rel=_jackson_tolerance(f, x, q, want),
                                    abs=0.0)

    @pytest.mark.parametrize("f, f_mp, x", JACKSON_CASES, ids=JACKSON_IDS)
    def test_continuous_where_q_stops_approaching_one(self, f, f_mp, x):
        # q above exp(-1e-6) is taken as exp(-1e-6)
        below, above = (jackson_derivative(f, math.exp(-1e-6 * (1 + d)), x)
                        for d in (-1e-9, 1e-9))
        assert below == pytest.approx(
            above, rel=2.0 * _jackson_tolerance(f, x, 1.0, above), abs=0.0)

    def test_samples_only_the_side_of_zero_where_x_lies(self):
        # t^2.5 is complex below 0: a step of 1e-6 about x = 1e-7 crosses it
        for q in (0.5, 1 - 1e-9, 1.0):
            got = jackson_derivative(lambda t: t ** 2.5, q, 1e-7)
            assert isinstance(got, float)

    def test_zero_is_outside_domain(self):
        with pytest.raises(DomainError):
            jackson_derivative(lambda t: t, 0.5, 0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_x_is_outside_domain(self, x):
        with pytest.raises(DomainError, match="finite x"):
            jackson_derivative(lambda t: t, 0.5, x)


class TestSumFormIdentity:
    def test_log_form_equals_basic_number_series(self):
        # (1/(q - 1/q)) ln((1 - w/q)/(1 - q w)) = sum_r [r] w^r / r, w < q
        for q in (0.3, 0.6, 0.9):
            w = q / 2.0
            closed = math.log((1 - w / q) / (1 - q * w)) / (q - 1.0 / q)
            partial = sum(basic_number(q, r) * w ** r / r for r in range(1, 200))
            assert partial == pytest.approx(closed, abs=1e-10)
