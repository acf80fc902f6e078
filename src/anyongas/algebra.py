"""Matrix representations of the deformed oscillator algebras.

B family: a a+ - q a+ a = q^-N on a truncated Fock space (the relation
cannot hold on the top state of a finite truncation, so checks exclude
it).  F family: a a+ + (1/q) a+ a = q^-N, whose eigenvalue recurrence
terminates after two states for every q, i.e. the exclusion principle
holds exactly on the whole interpolation range.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qcore import Family, QParam, as_qparam, basic_number
from .report import CheckResult

DEFAULT_B_DIM = 32
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class FockRep:
    """Dense ladder-operator matrices on a truncated Fock space."""

    family: Family
    q: QParam
    dim: int
    a: np.ndarray
    a_dag: np.ndarray
    n_op: np.ndarray


def _freeze(m):
    m.setflags(write=False)
    return m


def _ladder_rep(family, qp, dim, weights):
    # weights[n] is the eigenvalue of a+ a on state n
    a = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(weights[n])
    n_op = np.diag(np.arange(dim, dtype=float))
    return FockRep(family, qp, dim, _freeze(a), _freeze(a.T.copy()), _freeze(n_op))


def max_b_dim(q):
    """Largest B truncation whose q^-(dim-1) and [dim-1] are finite doubles.

    None in the classical limit, where neither grows exponentially.
    [n] < q^-n / (2 sinh ln(1/q)), so both stay below the largest double
    while (dim-1) ln(1/q) <= ln(max) + min(0, ln(2 sinh ln(1/q))); the
    value returned keeps one further factor of q to spare for rounding.
    """
    qp = as_qparam(q)
    if qp.is_classical_limit:
        return None
    log_inv = -math.log(qp.q)
    headroom = _LOG_FLOAT_MAX + min(0.0, math.log(qp.inv_minus_q))
    return int(headroom / log_inv)


def build_b_rep(q, dim=DEFAULT_B_DIM):
    """B-family representation with a+ a = diag([0], [1], ..., [dim-1])."""
    if dim < 2:
        raise DomainError(f"need dim >= 2, got {dim!r}")
    qp = as_qparam(q)
    largest = max_b_dim(qp)
    if largest is not None and dim > largest:
        raise DomainError(
            f"dim={dim!r} at q={qp.q!r} overflows q^-(dim-1) in double "
            f"precision; the largest usable dim is {largest}"
        )
    return _ladder_rep(Family.B, qp, dim, eigenvalue_seq_b(qp, dim - 1))


def build_f_rep(q):
    """F-family representation; the Fock space has exactly two states."""
    qp = as_qparam(q)
    return _ladder_rep(Family.F, qp, 2, eigenvalue_seq_f(qp, 1))


def eigenvalue_seq_b(q, n_max):
    """alpha_0..alpha_n_max from alpha_{n+1} = q^-n + q alpha_n, alpha_0 = 0.

    Each alpha_n agrees with the basic number [n]; the agreement is one
    of the verification checks.
    """
    qp = as_qparam(q)
    qi = 1.0 / qp.q
    out = [0.0]
    p = 1.0  # q^-n, maintained by iterated products
    for _ in range(n_max):
        out.append(p + qp.q * out[-1])
        p *= qi
    return out


def eigenvalue_seq_f(q, n_max):
    """beta_0..beta_n_max from beta_{n+1} = q^-n - (1/q) beta_n, beta_0 = 0.

    With iterated powers the even entries cancel to exactly 0.0 and the
    odd entries are exactly q^-(n-1): the same floats as
    eigenvalue_seq_f_closed produces.
    """
    qp = as_qparam(q)
    qi = 1.0 / qp.q
    out = [0.0]
    p = 1.0
    for _ in range(n_max):
        out.append(p - qi * out[-1])
        p *= qi
    return out


def eigenvalue_seq_f_closed(q, n_max):
    """Closed form (1 - (-1)^n)/2 * q^-(n-1): zero for even n, q^-(n-1) odd."""
    qp = as_qparam(q)
    qi = 1.0 / qp.q
    out = []
    p = 1.0  # q^-(n-1) for the current odd n
    for n in range(n_max + 1):
        if n % 2 == 0:
            out.append(0.0)
        else:
            out.append(p)
            p *= qi
            p *= qi
    return out


def verify_no_basic_number_f(q, n_max, rel_tol=1e-12):
    """True iff some F-family eigenvalue beta_n differs from [n], n <= n_max.

    The B algebra forces a+ a = [N]; this check demonstrates that the F
    algebra does not (beta_2 = 0 while [2] = q + 1/q, already at n = 2).
    """
    qp = as_qparam(q)
    betas = eigenvalue_seq_f(qp, n_max)
    for n, beta in enumerate(betas):
        bn = basic_number(qp, n)
        if abs(beta - bn) > rel_tol * max(1.0, abs(bn)):
            return True
    return False


def _scaled_residual(actual, expected):
    scale = np.maximum(1.0, np.abs(expected))
    return float(np.max(np.abs(actual - expected) / scale))


def rep_report(rep):
    """Verification checks for one representation, as CheckResult records.

    The B algebra relation is checked on states 0..dim-2 (the top state
    of a finite truncation is an artifact); residuals of the relation are
    scaled entrywise by max(1, |expected|) since the eigenvalues grow
    like q^-n.
    """
    q = rep.q.q
    dim = rep.dim
    inputs = {"family": rep.family.value, "q": q, "dim": dim}
    checks = []
    # (n-1) a - n a + a rounds to about n eps of |a| on row n
    comm_threshold = max(1e-14, dim * np.finfo(float).eps)

    comm_n_a = rep.n_op @ rep.a - rep.a @ rep.n_op + rep.a
    comm_n_adag = rep.n_op @ rep.a_dag - rep.a_dag @ rep.n_op - rep.a_dag
    scale_a = np.maximum(1.0, np.abs(rep.a))
    checks.append(CheckResult.from_residual(
        "commutator-number-lowering", inputs,
        float(np.max(np.abs(comm_n_a) / scale_a)), comm_threshold,
        note="entrywise residual scaled by max(1, |a|)"))
    checks.append(CheckResult.from_residual(
        "commutator-number-raising", inputs,
        float(np.max(np.abs(comm_n_adag) / scale_a.T)), comm_threshold,
        note="entrywise residual scaled by max(1, |a+|)"))

    ns = np.arange(dim, dtype=float)
    q_inv_n = (1.0 / q) ** ns
    if rep.family is Family.B:
        lhs = rep.a @ rep.a_dag - q * (rep.a_dag @ rep.a)
        interior = slice(0, dim - 1)
        checks.append(CheckResult.from_residual(
            "algebra-relation-interior", inputs,
            _scaled_residual(np.diag(lhs)[interior], q_inv_n[interior]),
            1e-12,
            note="scaled residual; top truncated state excluded"))
        num_expected = np.array([basic_number(rep.q, n) for n in range(dim)])
        checks.append(CheckResult.from_residual(
            "number-eigenvalues-basic", inputs,
            _scaled_residual(np.diag(rep.a_dag @ rep.a), num_expected), 1e-12))
    else:
        lhs = rep.a @ rep.a_dag + (1.0 / q) * (rep.a_dag @ rep.a)
        checks.append(CheckResult.from_residual(
            "algebra-relation-exact", inputs,
            float(np.max(np.abs(lhs - np.diag(q_inv_n)))), 1e-15,
            note="holds on both states; no truncation artifact"))
        n_hat = rep.a_dag @ rep.a
        parity = (1.0 - (-1.0) ** ns) / 2.0
        n_hat_closed = np.diag(parity * (1.0 / q) ** (ns - 1.0))
        checks.append(CheckResult.from_residual(
            "number-operator-parity-form", inputs,
            float(np.max(np.abs(n_hat - n_hat_closed))), 1e-15))
        aad_closed = np.diag(q_inv_n) - (1.0 / q) * n_hat
        checks.append(CheckResult.from_residual(
            "lowering-raising-product-form", inputs,
            float(np.max(np.abs(rep.a @ rep.a_dag - aad_closed))), 1e-15))
        checks.append(CheckResult.from_residual(
            "raising-squared-is-zero", inputs,
            float(np.max(np.abs(rep.a_dag @ rep.a_dag))), 0.0 + 1e-300,
            note="exclusion principle: the raising operator is nilpotent"))
        evals = np.sort(np.diag(n_hat))
        checks.append(CheckResult.from_residual(
            "occupancy-spectrum-zero-one", inputs,
            float(np.max(np.abs(evals - np.array([0.0, 1.0])))), 1e-15))

    # unit norm of the normalized ladder states, built stepwise to avoid
    # overflowing the factorial of the eigenvalues
    vec = np.zeros(dim)
    vec[0] = 1.0
    worst = 0.0
    weights = (eigenvalue_seq_b(rep.q, dim - 1) if rep.family is Family.B
               else eigenvalue_seq_f(rep.q, dim - 1))
    for n in range(1, dim):
        vec = rep.a_dag @ vec / np.sqrt(weights[n])
        worst = max(worst, abs(float(np.linalg.norm(vec)) - 1.0))
    checks.append(CheckResult.from_residual(
        "fock-state-normalization", inputs, worst, 1e-12))
    return checks
