import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas.errors import DomainError
from anyongas.qcore import (Family, PowerSeries, QParam, as_family, as_qparam,
                            basic_number, jackson_derivative, q_factorial)


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
        assert QParam(0.5).inv_minus_q == pytest.approx(1.5, rel=1e-15)
        assert QParam(1.0).inv_minus_q == 0.0
        # 1/q - q = 2 eps + eps^3 + ... for q = 1 - eps; the subtraction
        # would keep only about seven digits of it at eps = 1e-9
        eps = 1.0 - (1.0 - 1e-9)  # the q below is 1 - eps exactly
        assert QParam(1.0 - 1e-9).inv_minus_q == pytest.approx(
            2.0 * eps + eps ** 2 + eps ** 3, rel=1e-15)

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

    def test_monotone_interpolation_in_q(self):
        # [n] decreases toward n as q -> 1
        for n in (2, 3, 7):
            values = [basic_number(q, n) for q in (0.2, 0.4, 0.6, 0.8, 1.0)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == n
            assert all(v >= n for v in values)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0.37, 0) == 1.0

    def test_classical(self):
        assert q_factorial(1.0, 3) == 6.0

    def test_deformed(self):
        # 1 * 2.5 * 5.25
        assert q_factorial(0.5, 3) == pytest.approx(13.125, rel=1e-14)

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(DomainError):
            q_factorial(0.5, -1)
        with pytest.raises(DomainError):
            q_factorial(0.5, 2.5)


class TestJacksonDerivative:
    def test_monomial_rule(self):
        # D_q x^n = [n] x^(n-1)
        for q in (0.3, 0.5, 0.9):
            for n in (2, 3, 5):
                for x in (0.7, 3.0):
                    got = jackson_derivative(lambda t: t ** n, q, x)
                    want = basic_number(q, n) * x ** (n - 1)
                    assert got == pytest.approx(want, rel=1e-12)

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
            assert got == pytest.approx(12.0, rel=1e-6)

    def test_zero_is_outside_domain(self):
        with pytest.raises(DomainError):
            jackson_derivative(lambda t: t, 0.5, 0.0)


class TestSumFormIdentity:
    def test_log_form_equals_basic_number_series(self):
        # (1/(q - 1/q)) ln((1 - w/q)/(1 - q w)) = sum_r [r] w^r / r, w < q
        for q in (0.3, 0.6, 0.9):
            w = q / 2.0
            closed = math.log((1 - w / q) / (1 - q * w)) / (q - 1.0 / q)
            partial = sum(basic_number(q, r) * w ** r / r for r in range(1, 200))
            assert partial == pytest.approx(closed, abs=1e-10)


class TestPowerSeries:
    def test_compose_hand_expansion(self):
        # (t + t^2)^2 = t^2 + 2 t^3 + t^4
        outer = PowerSeries((0.0, 1.0, 0.0, 0.0))
        inner = PowerSeries((1.0, 1.0, 0.0, 0.0))
        got = outer.compose(inner)
        assert got.coeffs == (0.0, 1.0, 2.0, 1.0)

    def test_compose_identity_is_noop(self):
        s = PowerSeries((0.3, -0.7, 0.11, 0.9))
        t = PowerSeries((1.0, 0.0, 0.0, 0.0))
        assert t.compose(s).coeffs == s.coeffs
        assert s.compose(t).coeffs == s.coeffs

    def test_compose_requires_zero_inner_constant(self):
        with pytest.raises(DomainError):
            PowerSeries((1.0, 1.0)).compose(PowerSeries((1.0, 0.0), constant=1.0))

    def test_revert_identity(self):
        t = PowerSeries((1.0, 0.0, 0.0, 0.0, 0.0))
        assert t.revert().coeffs == t.coeffs

    def test_revert_requires_invertible(self):
        with pytest.raises(DomainError):
            PowerSeries((0.0, 1.0)).revert()
        with pytest.raises(DomainError):
            PowerSeries((1.0, 1.0), constant=0.5).revert()

    def test_revert_three_term_closed_form(self):
        # revert(z + a z^2 + b z^3) = t - a t^2 + (2 a^2 - b) t^3
        for q in (0.5, 0.8):
            a = basic_number(q, 2) / 2 ** 2.5
            b = basic_number(q, 3) / 3 ** 2.5
            r = PowerSeries((1.0, a, b)).revert()
            assert r.coeffs[0] == pytest.approx(1.0, abs=1e-15)
            assert r.coeffs[1] == pytest.approx(-a, abs=1e-15)
            assert r.coeffs[2] == pytest.approx(2 * a * a - b, abs=1e-14)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           st.floats(0.75, 1.5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_revert_round_trip(self, tail, c1, flip):
        # well-conditioned linear coefficient; reversion coefficients blow
        # up like (c2/c1)^k otherwise and float round-off dominates
        coeffs = (c1 if not flip else -c1,) + tuple(tail[1:])
        s = PowerSeries(coeffs)
        composed = s.compose(s.revert())
        assert composed.constant == pytest.approx(0.0, abs=1e-12)
        assert composed.coeffs[0] == pytest.approx(1.0, abs=1e-11)
        for c in composed.coeffs[1:]:
            assert c == pytest.approx(0.0, abs=1e-11)
