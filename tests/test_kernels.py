import math

import numpy as np
import pytest

from anyongas import kernels
from anyongas.errors import ConvergenceError


def _reference_g_sum(q, z, order, terms=400_000):
    r = np.arange(1, terms + 1, dtype=float)
    if q == 1.0:
        return float(np.sum(z ** r / r ** order))
    # [r] z^r written as paired sub-unit powers, else q^-r overflows alone
    paired = ((q * z) ** r - (z / q) ** r) / (q - 1.0 / q)
    return float(np.sum(paired / r ** (order + 1.0)))


class TestGSeries:
    def test_against_vectorized_reference(self):
        for q, z in ((1.0, 0.5), (0.6, 0.35), (0.9, 0.55), (0.3, 0.2)):
            for order in (1.5, 2.5):
                got = kernels.g_series_sum(q, z, order)
                assert got == pytest.approx(
                    _reference_g_sum(q, z, order), rel=1e-13)

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            kernels.g_series_sum(0.5, 0.49999999, 1.5, max_terms=100)

    def test_no_overflow_deep_in_the_series(self):
        # q^-r alone overflows past r ~ 1000; the paired products must not
        value = kernels.g_series_sum(0.5, 0.5 * (1 - 1e-4), 1.5)
        assert math.isfinite(value) and value > 0


class TestAlternatingSeries:
    def test_against_partial_sums_at_small_x(self):
        r = np.arange(1, 200, dtype=float)
        for x in (0.1, 0.3, 0.5):
            plain = float(np.sum((-1.0) ** (r + 1) * x ** r / r ** 1.5))
            assert kernels.f_series_sum(x, 1.5) == pytest.approx(
                plain, rel=1e-13)

    def test_endpoint_reaches_machine_precision(self):
        assert kernels.f_series_sum(1.0, 1.0) == pytest.approx(
            math.log(2.0), abs=2e-16)


class TestContinuedFraction:
    def test_first_two_convergents_closed_form(self):
        for y in (0.1, 0.5, 0.9):
            assert kernels.cf_convergent_value(y, 1) == y
            assert kernels.cf_convergent_value(y, 2) == pytest.approx(
                y / (1.0 - y / 2.0), rel=1e-15)

    def test_converges_to_log(self):
        for y in (0.3, 0.7, 0.95):
            got = kernels.cf_convergent_value(y, 200)
            assert got == pytest.approx(-math.log1p(-y), rel=1e-13)

    def test_rescaling_prevents_overflow(self):
        assert math.isfinite(kernels.cf_convergent_value(0.99, 5000))

