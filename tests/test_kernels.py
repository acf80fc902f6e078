import math

import mpmath
import numpy as np
import pytest

from anyongas import kernels


def _reference_li_sum(x, order, terms=400):
    r = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(x ** r / r ** order))


def _reference_gq_sum(q, z, order, terms=200):
    # Sum [r]_q z^r / r^(order+1) at 40 digits
    with mpmath.workdps(40):
        q, z = mpmath.mpf(q), mpmath.mpf(z)
        return float(mpmath.fsum((q ** r - q ** -r) / (q - 1 / q) * z ** r
                                 / mpmath.mpf(r) ** (order + 1)
                                 for r in range(1, terms + 1)))


class TestGSeries:
    def test_against_vectorized_reference(self):
        for x in (1e-3, 0.1, 0.35, 0.5):
            for order in (0.5, 1.5, 2.5):
                got = kernels.g_series_sum(x, order)
                assert got == pytest.approx(
                    _reference_li_sum(x, order), rel=1e-13, abs=0.0)

    def test_term_count_is_fixed_by_x(self):
        # the sum up to ceil(38/ln(1/x)) terms equals the kernel bit for bit
        x, order = 0.5, 1.5
        n_terms = math.ceil(38.0 / math.log(2.0))
        partial = 0.0
        for r in range(1, n_terms + 1):
            partial += x ** r / r ** order
        assert kernels.g_series_sum(x, order) == pytest.approx(partial, rel=1e-15, abs=0.0)
        assert n_terms == 55


class TestDeformedGSeries:
    @pytest.mark.parametrize("q", [0.8, 0.95, 1.0 - 1e-6, 1.0 - 1e-9])
    @pytest.mark.parametrize("x", [1e-6, 0.1, 0.5])
    @pytest.mark.parametrize("order", [1.5, 2.5])
    def test_against_mpmath(self, q, x, order):
        z = q * x
        got = kernels.gq_series_sum(z, -math.log(q), order)
        assert got == pytest.approx(_reference_gq_sum(q, z, order), rel=1e-14, abs=0.0)


class TestAlternatingSeries:
    def test_against_partial_sums_at_small_x(self):
        r = np.arange(1, 200, dtype=float)
        for x in (0.1, 0.3, 0.5):
            plain = float(np.sum((-1.0) ** (r + 1) * x ** r / r ** 1.5))
            assert kernels.f_series_sum(x, 1.5) == pytest.approx(
                plain, rel=1e-13, abs=0.0)

    def test_endpoint_reaches_machine_precision(self):
        assert kernels.f_series_sum(1.0, 1.0) == pytest.approx(
            math.log(2.0), abs=2e-16)


class TestContinuedFraction:
    def test_first_two_convergents_closed_form(self):
        for y in (0.1, 0.5, 0.9):
            assert kernels.cf_convergent_value(y, 1) == y
            assert kernels.cf_convergent_value(y, 2) == pytest.approx(
                y / (1.0 - y / 2.0), rel=1e-15, abs=0.0)

    def test_converges_to_log(self):
        for y in (0.3, 0.7, 0.95):
            got = kernels.cf_convergent_value(y, 200)
            assert got == pytest.approx(-math.log1p(-y), rel=1e-13, abs=0.0)

    def test_rescaling_prevents_overflow(self):
        assert math.isfinite(kernels.cf_convergent_value(0.99, 5000))

