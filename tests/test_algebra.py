import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyongas.algebra import (build_b_rep, build_f_rep, eigenvalue_seq_b,
                              eigenvalue_seq_f, eigenvalue_seq_f_closed,
                              max_b_dim, rep_report, verify_no_basic_number_f)
from anyongas.errors import DomainError
from anyongas.qcore import Family, basic_number


class TestBRep:
    def test_bose_limit_is_ordinary_ladder(self):
        rep = build_b_rep(1.0, 5)
        expected = np.diag(np.sqrt(np.arange(1.0, 5.0)), 1)
        assert np.array_equal(rep.a, expected)
        assert np.array_equal(rep.a_dag, expected.T)

    def test_number_operator_diagonal(self):
        rep = build_b_rep(0.5, 4)
        assert np.array_equal(np.diag(rep.n_op), [0.0, 1.0, 2.0, 3.0])
        got = np.diag(rep.a_dag @ rep.a)
        assert got == pytest.approx([0.0, 1.0, 2.5, 5.25], rel=1e-14)

    def test_raising_is_transpose(self):
        rep = build_b_rep(0.7, 6)
        assert np.array_equal(rep.a_dag, rep.a.T)

    def test_needs_two_states(self):
        with pytest.raises(DomainError):
            build_b_rep(0.5, 1)

    def test_matrices_are_frozen(self):
        rep = build_b_rep(0.5, 4)
        with pytest.raises(ValueError):
            rep.a[0, 0] = 1.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("dim", [2, 8, 32, 64])
    def test_all_checks_pass(self, q, dim):
        report = rep_report(build_b_rep(q, dim))
        failed = [c for c in report if not c.passed]
        assert not failed, failed

    def test_relation_holds_on_interior_only(self):
        # aa+ - q a+a - q^-N is nonzero on the top truncated state
        rep = build_b_rep(0.5, 6)
        lhs = rep.a @ rep.a_dag - 0.5 * (rep.a_dag @ rep.a)
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

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.5])
    def test_overflowing_dim_names_the_largest(self, q):
        largest = max_b_dim(q)
        assert math.isfinite((1.0 / q) ** (largest - 1))
        with pytest.raises(DomainError, match=f"largest usable dim is {largest}$"):
            build_b_rep(q, largest + 1)

    def test_no_limit_in_classical_branch(self):
        assert max_b_dim(1.0) is None


class TestFRep:
    def test_two_states_always(self):
        for q in (0.2, 0.6, 1.0):
            assert build_f_rep(q).dim == 2

    def test_fermi_limit(self):
        rep = build_f_rep(1.0)
        assert np.array_equal(rep.a, [[0.0, 1.0], [0.0, 0.0]])

    def test_pauli_structure(self):
        for q in (0.25, 0.5, 0.8):
            rep = build_f_rep(q)
            assert np.array_equal(np.diag(rep.a_dag @ rep.a), [0.0, 1.0])
            assert np.count_nonzero(rep.a_dag @ rep.a_dag) == 0

    def test_algebra_relation_exact(self):
        for q in (0.25, 0.5, 0.8):
            rep = build_f_rep(q)
            lhs = rep.a @ rep.a_dag + (1.0 / q) * (rep.a_dag @ rep.a)
            rhs = np.diag([1.0, 1.0 / q])
            assert np.array_equal(lhs, rhs)

    def test_product_parity_identities(self):
        # a+a = (1 - (-1)^N)/2 q^(-N+1) and aa+ = q^-N - (1/q) a+a
        for q in (0.25, 0.5, 0.8):
            rep = build_f_rep(q)
            n_hat = rep.a_dag @ rep.a
            assert np.array_equal(n_hat, np.diag([0.0, 1.0]))
            aad = rep.a @ rep.a_dag
            expect = np.diag([1.0, 1.0 / q]) - (1.0 / q) * n_hat
            assert np.array_equal(aad, expect)

    @given(st.floats(0.05, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_all_checks_pass_any_q(self, q):
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

    def test_f_classical_alternates(self):
        assert eigenvalue_seq_f(1.0, 5) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


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
        rep = build_b_rep(0.4, 16)
        weights = eigenvalue_seq_b(0.4, 15)
        vec = np.zeros(16)
        vec[0] = 1.0
        for n in range(1, 16):
            vec = rep.a_dag @ vec / math.sqrt(weights[n])
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)
