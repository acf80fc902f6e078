"""Fock-space representations of the deformed oscillator algebras.

B family: a a+ - q a+ a = q^-N on a truncated Fock space (the relation
cannot hold on the top state of a finite truncation, so checks exclude
it).  F family: a a+ + (1/q) a+ a = q^-N, whose eigenvalue recurrence
terminates after two states for every q, i.e. the exclusion principle
holds exactly on the whole interpolation range.

A representation is stored as bands, not dense matrices: the lowering
operator a has its only nonzero entries a[n-1, n] = sqrt(alpha_n) one
band above the diagonal, a+ is its transpose, and N is diagonal.  So
a+ a, a a+ and q^-N are diagonal as well, a+ a+ has one band two below
it, and every identity `rep_report` checks is O(dim) arithmetic on
these vectors, entry for entry the values the matrix products hold.
The representation is a FockRep namedtuple, and the checks are
`report.CheckResult` records.
"""

import collections
import math
import sys

from .errors import DomainError
from .qcore import Family, as_count, as_qparam, basic_number
from .report import CheckResult

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# relative distance at which an F eigenvalue beta_n counts as apart from [n]
_NO_BASIC_NUMBER_TOL = 1e-12


FockRep = collections.namedtuple("FockRep", ("family", "q", "dim", "band", "number"))
FockRep.__doc__ = """Ladder operators on a truncated Fock space, as bands.

``family`` is a Family, ``q`` a QParam and ``dim`` the number of states.
``band[n - 1]`` is the entry a[n-1, n] = a+[n, n-1] = sqrt(alpha_n),
n = 1..dim-1, with alpha_n the eigenvalue of a+ a on state n; ``number``
is the diagonal 0, 1, ..., dim-1 of N.  Every other entry of a, a+ and N
is zero.  A namedtuple: immutable and compared by value.
"""


def _ladder_rep(family, qp, dim, weights):
    # weights[n] is the eigenvalue of a+ a on state n
    band = tuple(math.sqrt(w) for w in weights[1:dim])
    return FockRep(family, qp, dim, band, tuple(float(n) for n in range(dim)))


def max_b_dim(q):
    """Largest B truncation whose q^-(dim-1) and [dim-1] are finite doubles.

    None at q = 1, where neither grows exponentially.  [n] < q^-n /
    (2 sinh ln(1/q)), so both stay below the largest double while
    (dim-1) ln(1/q) <= ln(max) + min(0, ln(2 sinh ln(1/q))); the value
    returned keeps one further factor of q to spare for rounding.  Every
    q below 1 has a bound, however large.
    """
    qp = as_qparam(q)
    if qp.q == 1.0:
        return None
    log_inv = -math.log(qp.q)
    headroom = _LOG_FLOAT_MAX + min(0.0, math.log(qp.inv_minus_q))
    return int(headroom / log_inv)


def build_b_rep(q, dim):
    """B-family representation with a+ a = diag([0], [1], ..., [dim-1])."""
    dim = as_count("dim", dim, 2)
    qp = as_qparam(q)
    largest = max_b_dim(qp)
    if largest is not None and dim > largest:
        raise DomainError(
            f"dim={dim!r} at q={qp.q!r} overflows q^-(dim-1) in double "
            f"precision; the largest usable dim is {largest}"
        )
    return _ladder_rep(Family.B, qp, dim, eigenvalue_seq_b(qp, dim - 1))


def build_f_rep(q):
    """F-family representation; the Fock space has exactly two states.

    The relation holds q^-N, so q below about 5.6e-309, where 1/q
    overflows, raises DomainError.
    """
    qp = as_qparam(q)
    if qp.q_inv == math.inf:
        raise DomainError(
            f"1/q overflows a double at q={qp.q!r}; the F relation "
            "needs q^-N")
    return _ladder_rep(Family.F, qp, 2, eigenvalue_seq_f(qp, 1))


def eigenvalue_seq_b(q, n_max):
    """alpha_0..alpha_n_max from alpha_{n+1} = q^-n + q alpha_n, alpha_0 = 0.

    Each alpha_n agrees with the basic number [n]; the agreement is one
    of the verification checks.
    """
    qp = as_qparam(q)
    n_max = as_count("n_max", n_max, 0)
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
    n_max = as_count("n_max", n_max, 0)
    qi = 1.0 / qp.q
    out = [0.0]
    p = 1.0
    for _ in range(n_max):
        # beta_n = 0 gives q^-n alone, where inf * 0 would be NaN; and
        # (1/q) beta_n is the same double as q^-n when beta_n is q^-(n-1),
        # so the difference is exactly 0, even once both are inf
        drop = qi * out[-1] if out[-1] else 0.0
        out.append(0.0 if drop == p else p - drop)
        p *= qi
    return out


def eigenvalue_seq_f_closed(q, n_max):
    """Closed form (1 - (-1)^n)/2 * q^-(n-1): zero for even n, q^-(n-1) odd."""
    qp = as_qparam(q)
    n_max = as_count("n_max", n_max, 0)
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


def verify_no_basic_number_f(q, n_max):
    """True iff some F-family eigenvalue beta_n differs from [n], n <= n_max.

    The B algebra forces a+ a = [N]; this check demonstrates that the F
    algebra does not (beta_2 = 0 while [2] = q + 1/q, already at n = 2).
    """
    qp = as_qparam(q)
    betas = eigenvalue_seq_f(qp, n_max)
    for n, beta in enumerate(betas):
        bn = basic_number(qp, n)
        if abs(beta - bn) > _NO_BASIC_NUMBER_TOL * max(1.0, abs(bn)):
            return True
    return False


def _scaled_residual(actual, expected):
    return max((abs(x - e) / max(1.0, abs(e)) for x, e in zip(actual, expected)),
               default=0.0)


def _max_abs(values):
    return max(map(abs, values), default=0.0)


def rep_report(rep):
    """Verification checks for one representation, as CheckResult records.

    The B algebra relation is checked on states 0..dim-2 (the top state
    of a finite truncation is an artifact); residuals of the relation are
    scaled entrywise by max(1, |expected|) since the eigenvalues grow
    like q^-n.  Each check runs on the bands in O(dim): with s_n the
    band entry and s_0 = s_dim = 0, the diagonal of a+ a is s_n^2, that
    of a a+ is s_(n+1)^2, and the commutators [N, a] + a and
    [N, a+] - a+ have their only entries (n-1) s_n - n s_n + s_n and
    n s_n - (n-1) s_n - s_n on the band.
    """
    q = rep.q.q
    dim = rep.dim
    inputs = {"family": rep.family.value, "q": q, "dim": dim}
    checks = []
    # (n-1) a - n a + a rounds to about n eps of |a| on row n
    comm_threshold = max(1e-14, dim * sys.float_info.epsilon)

    band = rep.band
    below, above = rep.number[:-1], rep.number[1:]  # N on rows n-1 and n
    scales = [max(1.0, abs(s)) for s in band]
    checks.append(CheckResult.from_residual(
        "commutator-number-lowering", inputs,
        max((abs(m * s - n * s + s) / c
             for m, n, s, c in zip(below, above, band, scales)), default=0.0),
        comm_threshold, note="entrywise residual scaled by max(1, |a|)"))
    checks.append(CheckResult.from_residual(
        "commutator-number-raising", inputs,
        max((abs(n * s - m * s - s) / c
             for m, n, s, c in zip(below, above, band, scales)), default=0.0),
        comm_threshold, note="entrywise residual scaled by max(1, |a+|)"))

    n_hat = [0.0] + [s * s for s in band]  # diagonal of a+ a
    a_adag = n_hat[1:] + [0.0]  # diagonal of a a+
    q_inv_n = [(1.0 / q) ** n for n in range(dim)]
    if rep.family is Family.B:
        lhs = [x - q * y for x, y in zip(a_adag, n_hat)]
        checks.append(CheckResult.from_residual(
            "algebra-relation-interior", inputs,
            _scaled_residual(lhs[:-1], q_inv_n[:-1]), 1e-12,
            note="scaled residual; top truncated state excluded"))
        num_expected = [basic_number(rep.q, n) for n in range(dim)]
        checks.append(CheckResult.from_residual(
            "number-eigenvalues-basic", inputs,
            _scaled_residual(n_hat, num_expected), 1e-12))
    else:
        # a a+ and a+ a are diagonal, so their off-diagonal residuals are 0
        lhs = [x + (1.0 / q) * y for x, y in zip(a_adag, n_hat)]
        checks.append(CheckResult.from_residual(
            "algebra-relation-exact", inputs,
            _max_abs([x - e for x, e in zip(lhs, q_inv_n)]), 1e-15,
            note="holds on both states; no truncation artifact"))
        n_hat_closed = [(1.0 - (-1.0) ** n) / 2.0 * (1.0 / q) ** (n - 1.0)
                        for n in range(dim)]
        checks.append(CheckResult.from_residual(
            "number-operator-parity-form", inputs,
            _max_abs([x - e for x, e in zip(n_hat, n_hat_closed)]), 1e-15))
        aad_closed = [e - (1.0 / q) * x for e, x in zip(q_inv_n, n_hat)]
        checks.append(CheckResult.from_residual(
            "lowering-raising-product-form", inputs,
            _max_abs([x - e for x, e in zip(a_adag, aad_closed)]), 1e-15))
        # a+ a+ [n+2, n] = s_(n+2) s_(n+1), the only band of a+ a+
        checks.append(CheckResult.from_residual(
            "raising-squared-is-zero", inputs,
            _max_abs([s * t for s, t in zip(band[1:], band)]), 0.0 + 1e-300,
            note="exclusion principle: the raising operator is nilpotent"))
        checks.append(CheckResult.from_residual(
            "occupancy-spectrum-zero-one", inputs,
            _max_abs([x - e for x, e in zip(sorted(n_hat), (0.0, 1.0))]), 1e-15))

    # unit norm of the normalized ladder states, built stepwise to avoid
    # overflowing the factorial of the eigenvalues: a+ maps the single
    # nonzero entry c of |n-1> to c s_n on state n, so |n> = a+|n-1>/sqrt(alpha_n)
    # has the single entry c s_n/sqrt(alpha_n) and norm its absolute value
    entry = 1.0
    worst = 0.0
    weights = (eigenvalue_seq_b(rep.q, dim - 1) if rep.family is Family.B
               else eigenvalue_seq_f(rep.q, dim - 1))
    for s, weight in zip(band, weights[1:]):
        entry = s * entry / math.sqrt(weight)
        worst = max(worst, abs(abs(entry) - 1.0))
    checks.append(CheckResult.from_residual(
        "fock-state-normalization", inputs, worst, 1e-12))
    return checks
