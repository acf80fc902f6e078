import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas.algebra import (build_b_rep, build_f_rep, eigenvalue_seq_b,
                              eigenvalue_seq_f, eigenvalue_seq_f_closed,
                              max_b_dim, rep_report, verify_no_basic_number_f)
from anyongas.errors import DomainError
from anyongas.qcore import Family, as_qparam, basic_number


def _dense(rep):
    """a, a+ and N as dense matrices built from the representation's bands."""
    a = np.diag(np.array(rep.band), 1)
    return a, a.T, np.diag(np.array(rep.number))


class TestBRep:
    def test_bose_limit_is_ordinary_ladder(self):
        rep = build_b_rep(1.0, 5)
        expected = np.diag(np.sqrt(np.arange(1.0, 5.0)), 1)
        a, a_dag, _ = _dense(rep)
        assert np.array_equal(a, expected)
        assert np.array_equal(a_dag, expected.T)

    def test_number_operator_diagonal(self):
        rep = build_b_rep(0.5, 4)
        a, a_dag, n_op = _dense(rep)
        assert np.array_equal(np.diag(n_op), [0.0, 1.0, 2.0, 3.0])
        got = np.diag(a_dag @ a)
        assert got == pytest.approx([0.0, 1.0, 2.5, 5.25], rel=1e-14, abs=0.0)

    def test_raising_is_transpose(self):
        # a[n-1, n] = a+[n, n-1] = sqrt(alpha_n) is the one band of both
        rep = build_b_rep(0.7, 6)
        assert rep.band == tuple(math.sqrt(w) for w in eigenvalue_seq_b(0.7, 5)[1:])
        assert len(rep.number) == rep.dim == 6

    def test_needs_two_states(self):
        with pytest.raises(DomainError):
            build_b_rep(0.5, 1)

    @pytest.mark.parametrize("dim", [3.5, 1, -4, math.nan, math.inf])
    def test_dim_must_be_an_integer_from_two(self, dim):
        with pytest.raises(DomainError, match=f"dim must be an integer >= 2, got {dim!r}"):
            build_b_rep(0.5, dim)

    def test_matrices_are_frozen(self):
        rep = build_b_rep(0.5, 4)
        with pytest.raises(TypeError):
            rep.band[0] = 1.0
        with pytest.raises(AttributeError):
            rep.band = (1.0, 1.0, 1.0)

    def test_representations_compare_by_value(self):
        qp = as_qparam(0.5)
        assert build_b_rep(qp, 4) == build_b_rep(qp, 4)
        assert build_b_rep(qp, 4) != build_b_rep(qp, 5)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("dim", [2, 8, 32, 64])
    def test_all_checks_pass(self, q, dim):
        report = rep_report(build_b_rep(q, dim))
        failed = [c for c in report if not c.passed]
        assert not failed, failed

    def test_relation_holds_on_interior_only(self):
        # aa+ - q a+a - q^-N is nonzero on the top truncated state
        a, a_dag, _ = _dense(build_b_rep(0.5, 6))
        lhs = a @ a_dag - 0.5 * (a_dag @ a)
        rhs = np.diag(2.0 ** np.arange(6.0))
        resid = np.abs(np.diag(lhs) - np.diag(rhs))
        assert resid[:-1].max() < 1e-12 * rhs.max()
        assert resid[-1] > 1.0

    @pytest.mark.parametrize("q, dim", [(0.5, 200), (0.9, 400), (0.1, 308)])
    def test_commutator_threshold_scales_with_dim(self, q, dim):
        report = rep_report(build_b_rep(q, dim))
        failed = [c for c in report if not c.passed]
        assert not failed, failed
        commutators = [c for c in report if c.check_id.startswith("commutator")]
        assert all(c.threshold == dim * np.finfo(float).eps for c in commutators)

    def test_small_dim_threshold_not_loosened(self):
        report = rep_report(build_b_rep(0.5, 8))
        assert all(c.threshold == 1e-14 for c in report
                   if c.check_id.startswith("commutator"))

    def test_largest_dim_at_q09_checks_in_under_a_second(self):
        assert max_b_dim(0.9) == 6721
        start = time.perf_counter()
        report = rep_report(build_b_rep(0.9, 6721))
        elapsed = time.perf_counter() - start
        failed = [c for c in report if not c.passed]
        assert not failed, failed
        assert elapsed < 1.0

    @pytest.mark.parametrize("q, dim", [(0.5, 64), (0.9, 200), (1.0, 64)])
    def test_band_residuals_are_the_dense_products(self, q, dim):
        # the residuals of rep_report, formed from dense matrix products
        rep = build_b_rep(q, dim)
        a, a_dag, n_op = _dense(rep)
        scale = np.maximum(1.0, np.abs(a))
        got = {c.check_id: c.residual for c in rep_report(rep)}
        lowering = np.abs(n_op @ a - a @ n_op + a) / scale
        raising = np.abs(n_op @ a_dag - a_dag @ n_op - a_dag) / scale.T
        assert got["commutator-number-lowering"] == lowering.max()
        assert got["commutator-number-raising"] == raising.max()
        q_inv_n = (1.0 / q) ** np.arange(dim - 1.0)
        relation = np.diag(a @ a_dag - q * (a_dag @ a))[:-1]
        assert got["algebra-relation-interior"] == pytest.approx(
            np.max(np.abs(relation - q_inv_n) / np.maximum(1.0, q_inv_n)), abs=1e-15)
        basic = np.array([basic_number(q, n) for n in range(dim)])
        assert got["number-eigenvalues-basic"] == np.max(
            np.abs(np.diag(a_dag @ a) - basic) / np.maximum(1.0, basic))

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.5])
    def test_overflowing_dim_names_the_largest(self, q):
        largest = max_b_dim(q)
        assert math.isfinite((1.0 / q) ** (largest - 1))
        with pytest.raises(DomainError, match=f"largest usable dim is {largest}$"):
            build_b_rep(q, largest + 1)

    def test_no_limit_in_classical_branch(self):
        assert max_b_dim(1.0) is None

    def test_every_q_below_one_has_a_limit(self):
        # q^-n grows without bound for q < 1, however close to 1
        for q in (1.0 - 1e-13, 1.0 - 2.0 ** -53):
            largest = max_b_dim(q)
            assert isinstance(largest, int)
            assert math.isfinite(basic_number(q, largest - 1))


class TestFRep:
    def test_two_states_always(self):
        for q in (0.2, 0.6, 1.0):
            assert build_f_rep(q).dim == 2

    def test_fermi_limit(self):
        a, _, _ = _dense(build_f_rep(1.0))
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])

    def test_pauli_structure(self):
        for q in (0.25, 0.5, 0.8):
            a, a_dag, _ = _dense(build_f_rep(q))
            assert np.array_equal(np.diag(a_dag @ a), [0.0, 1.0])
            assert np.count_nonzero(a_dag @ a_dag) == 0

    def test_algebra_relation_exact(self):
        for q in (0.25, 0.5, 0.8):
            a, a_dag, _ = _dense(build_f_rep(q))
            lhs = a @ a_dag + (1.0 / q) * (a_dag @ a)
            rhs = np.diag([1.0, 1.0 / q])
            assert np.array_equal(lhs, rhs)

    def test_product_parity_identities(self):
        # a+a = (1 - (-1)^N)/2 q^(-N+1) and aa+ = q^-N - (1/q) a+a
        for q in (0.25, 0.5, 0.8):
            a, a_dag, _ = _dense(build_f_rep(q))
            n_hat = a_dag @ a
            assert np.array_equal(n_hat, np.diag([0.0, 1.0]))
            aad = a @ a_dag
            expect = np.diag([1.0, 1.0 / q]) - (1.0 / q) * n_hat
            assert np.array_equal(aad, expect)

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.8, 1.0])
    def test_f_band_residuals_are_the_dense_products(self, q):
        rep = build_f_rep(q)
        a, a_dag, _ = _dense(rep)
        got = {c.check_id: c.residual for c in rep_report(rep)}
        q_inv_n = np.diag([1.0, 1.0 / q])
        n_hat = a_dag @ a
        assert got["algebra-relation-exact"] == np.max(
            np.abs(a @ a_dag + (1.0 / q) * n_hat - q_inv_n))
        assert got["lowering-raising-product-form"] == np.max(
            np.abs(a @ a_dag - (q_inv_n - (1.0 / q) * n_hat)))
        assert got["raising-squared-is-zero"] == np.max(np.abs(a_dag @ a_dag))
        assert got["occupancy-spectrum-zero-one"] == np.max(
            np.abs(np.sort(np.diag(n_hat)) - [0.0, 1.0]))

    @given(st.floats(0.05, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_all_checks_pass_any_q(self, q):
        assert all(c.passed for c in rep_report(build_f_rep(q)))

    @pytest.mark.parametrize("q", [5e-324, 1e-310, 5.5e-309])
    def test_refuses_a_q_whose_inverse_overflows(self, q):
        with pytest.raises(DomainError, match=f"1/q overflows a double at q={q!r}"):
            build_f_rep(q)

    def test_smallest_q_with_a_finite_inverse(self):
        q = 5.6e-309
        assert math.isfinite(1.0 / q)
        assert all(c.passed for c in rep_report(build_f_rep(q)))


class TestEigenvalueSequences:
    def test_b_vacuum_and_first(self):
        for q in (0.3, 0.7, 1.0):
            seq = eigenvalue_seq_b(q, 3)
            assert seq[0] == 0.0 and seq[1] == 1.0

    def test_b_recurrence_values(self):
        seq = eigenvalue_seq_b(0.5, 3)
        assert seq[2] == pytest.approx(2.5, abs=1e-15)
        assert seq[3] == pytest.approx(5.25, abs=1e-15)

    def test_b_classical(self):
        assert eigenvalue_seq_b(1.0, 6) == [float(n) for n in range(7)]

    def test_b_matches_basic_number(self):
        for q in (0.3, 0.6, 0.9):
            seq = eigenvalue_seq_b(q, 40)
            for n, alpha in enumerate(seq):
                bn = basic_number(q, n)
                assert abs(alpha - bn) <= 1e-12 * max(1.0, abs(bn))

    def test_f_opening_pattern(self):
        # 0, 1, 0, q^-2, 0, q^-4
        assert eigenvalue_seq_f(0.5, 5) == [0.0, 1.0, 0.0, 4.0, 0.0, 16.0]

    def test_f_even_entries_exactly_zero(self):
        for q in (0.3, 0.77, 0.9):
            seq = eigenvalue_seq_f(q, 20)
            assert all(seq[n] == 0.0 for n in range(0, 21, 2))

    def test_f_recurrence_equals_closed_form_bitwise(self):
        for q in (0.3, 0.5, 0.77, 0.9, 1.0):
            assert eigenvalue_seq_f(q, 24) == eigenvalue_seq_f_closed(q, 24)

    @pytest.mark.parametrize("q", [5e-324, 1e-310, 5.5e-309])
    def test_f_first_entries_where_one_over_q_overflows(self, q):
        # beta_1 = q^0 - (1/q) beta_0 = 1, with no inf * 0
        assert eigenvalue_seq_f(q, 1) == [0.0, 1.0]

    @pytest.mark.parametrize("q", [1e-200, 1e-310])
    def test_f_recurrence_is_the_closed_form_where_q_powers_overflow(self, q):
        # q^-n - (1/q) beta_n is inf - inf once q^-n overflows: at q = 1e-200
        # from beta_4 on, at q = 1e-310, where 1/q is inf, from beta_2
        got = eigenvalue_seq_f(q, 12)
        assert got == eigenvalue_seq_f_closed(q, 12)
        assert got[::2] == [0.0] * 7

    def test_f_classical_alternates(self):
        assert eigenvalue_seq_f(1.0, 5) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("sequence", [eigenvalue_seq_b, eigenvalue_seq_f,
                                          eigenvalue_seq_f_closed])
    @pytest.mark.parametrize("n_max", [-1, 2.5, math.nan, math.inf])
    def test_n_max_must_be_an_integer_from_zero(self, sequence, n_max):
        with pytest.raises(DomainError, match=f"n_max must be an integer >= 0, got {n_max!r}"):
            sequence(0.5, n_max)


class TestNoBasicNumber:
    def test_mismatch_found_below_one(self):
        assert verify_no_basic_number_f(0.5, 2)
        assert verify_no_basic_number_f(0.9, 4)

    def test_vacuum_and_single_quantum_agree(self):
        # beta_0 = [0] and beta_1 = [1] for every q
        assert not verify_no_basic_number_f(1.0, 1)
        assert not verify_no_basic_number_f(0.5, 1)

    def test_even_classical_differs_beyond_two(self):
        # beta_2 = 0 while [2] = 2 even in the Fermi limit
        assert verify_no_basic_number_f(1.0, 2)


class TestNormalizedStates:
    def test_unit_norm_states(self):
        # |n> built stepwise as a+|n-1>/sqrt(alpha_n) keeps unit norm
        _, a_dag, _ = _dense(build_b_rep(0.4, 16))
        weights = eigenvalue_seq_b(0.4, 15)
        vec = np.zeros(16)
        vec[0] = 1.0
        for n in range(1, 16):
            vec = a_dag @ vec / math.sqrt(weights[n])
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
