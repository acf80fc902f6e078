"""Brute-force verification engine.

Everything here is deliberately independent of the closed forms it
checks: thermal averages are computed as explicit weighted sums over the
Fock spectrum (adaptively truncated), Taylor coefficients by Richardson-
extrapolated finite differences, and asymptotic coefficients by
polynomial extrapolation of quadrature values.  run_verification wires
the whole suite into a machine-readable report.
"""

import math
import operator
from dataclasses import dataclass

from . import distributions, qfunctions, thermo
from .algebra import (build_b_rep, build_f_rep, eigenvalue_seq_f,
                      eigenvalue_seq_f_closed, rep_report,
                      verify_no_basic_number_f)
from .errors import ConvergenceError, DomainError
from .qcore import Family, as_family, as_qparam, basic_number
from .report import (AmbiguityNote, CheckResult, KNOWN_ERRATA,
                     VerificationReport)

OBSERVABLES = ("N", "qN", "q_inv_N", "basic_N", "adag_a", "a_adag")
_TAIL_REL = 1e-15
_NMAX_START = 32
_NMAX_CAP = 4096


@dataclass(frozen=True)
class TraceSpec:
    """One grand-canonical trace average over a single mode.

    eta is beta (E - mu).  For the B family n_max=None means adaptive
    truncation (doubling from 32 until the next dropped term is below
    1e-15 of both partial sums, capped at 4096).  The F family always
    has exactly two states.
    """

    family: Family
    q: object
    eta: float
    observable: str
    n_max: int = None

    def __post_init__(self):
        object.__setattr__(self, "family", as_family(self.family))
        object.__setattr__(self, "q", as_qparam(self.q))
        if self.observable not in OBSERVABLES:
            raise DomainError(f"unknown observable {self.observable!r}; "
                              f"choose from {OBSERVABLES}")


def _b_needs_tight_domain(observable):
    # these grow like q^-n, so the weighted sum needs e^eta > 1/q
    return observable in ("q_inv_N", "basic_N", "adag_a", "a_adag")


def _b_weighted_term(observable, q, q_inv, denom, classical, n, wn, un, vn):
    # O(n) w^n built from the iterated products wn = w^n, un = (q w)^n,
    # vn = (w/q)^n, so the basic numbers never overflow on their own
    if observable == "N":
        return n * wn
    if observable == "qN":
        return wn if classical else un
    if observable == "q_inv_N":
        return wn if classical else vn
    if observable in ("basic_N", "adag_a"):
        return n * wn if classical else (un - vn) / denom
    # a_adag: [n+1] w^n
    return (n + 1) * wn if classical else (q * un - q_inv * vn) / denom


def trace_average(spec):
    """Sum_n O(n) e^(-eta n) / Sum_n e^(-eta n) over the Fock spectrum."""
    qp = spec.q
    eta = float(spec.eta)
    if spec.family is Family.F:
        w = math.exp(-eta)
        betas = eigenvalue_seq_f(qp, 1)
        values = {
            "N": (0.0, 1.0),
            "qN": (1.0, qp.q),
            "q_inv_N": (1.0, qp.q_inv),
            "adag_a": (betas[0], betas[1]),
            "basic_N": (basic_number(qp, 0), basic_number(qp, 1)),
            "a_adag": (1.0, qp.q_inv - qp.q_inv * betas[1]),
        }[spec.observable]
        return (values[0] + values[1] * w) / (1.0 + w)

    if eta <= 0.0:
        raise DomainError(f"B-family trace requires eta > 0, got {eta!r}")
    classical = qp.is_classical_limit
    if (not classical and _b_needs_tight_domain(spec.observable)
            and math.exp(eta) <= qp.q_inv):
        raise DomainError(
            f"observable {spec.observable} needs e^eta > 1/q for convergence"
        )
    w = math.exp(-eta)
    u = qp.q * w
    v = w / qp.q
    denom = qp.q - qp.q_inv
    n_max = spec.n_max if spec.n_max is not None else _NMAX_START
    while True:
        num = 0.0
        den = 0.0
        wn = un = vn = 1.0
        for n in range(n_max + 1):
            num += _b_weighted_term(spec.observable, qp.q, qp.q_inv, denom,
                                    classical, n, wn, un, vn)
            den += wn
            wn *= w
            un *= u
            vn *= v
        next_num = abs(_b_weighted_term(spec.observable, qp.q, qp.q_inv, denom,
                                        classical, n_max + 1, wn, un, vn))
        if next_num < _TAIL_REL * abs(num) and wn < _TAIL_REL * den:
            return num / den
        if spec.n_max is not None or n_max >= _NMAX_CAP:
            raise ConvergenceError(
                f"trace at q={qp.q}, eta={eta}, {spec.observable}: tail bound "
                f"unmet at n_max={n_max}"
            )
        n_max *= 2


def trace_average_matrix(spec):
    """Same average evaluated through the operator representation.

    Weights e^(-eta n) multiply the diagonal of the observable in the
    Fock basis, read from the representation's bands (a+ a has the
    diagonal s_n^2 of the band entries s_n) rather than from the closed
    forms; ties the operator picture to the spectral picture.  The
    B-family representation spans the states 0..spec.n_max, so it gives
    the same truncated sum as trace_average with that n_max.  The a_adag
    observable is excluded (its top diagonal entry is a truncation
    artifact).
    """
    qp = spec.q
    if spec.observable == "a_adag":
        raise DomainError("a_adag has a truncation artifact; use trace_average")
    if spec.family is Family.F:
        rep = build_f_rep(qp)
    else:
        if spec.n_max is None:
            raise DomainError(
                "the B-family representation needs a TraceSpec with n_max")
        rep = build_b_rep(qp, spec.n_max + 1)
    ns = range(rep.dim)
    diagonals = {
        "N": lambda: rep.number,
        "qN": lambda: [qp.q ** n for n in ns],
        "q_inv_N": lambda: [qp.q_inv ** n for n in ns],
        "basic_N": lambda: [0.0] + [s * s for s in rep.band],
        "adag_a": lambda: [0.0] + [s * s for s in rep.band],
    }
    diag = diagonals[spec.observable]()
    eta = float(spec.eta)
    weights = [math.exp(-eta * n) for n in ns]
    return math.fsum(map(operator.mul, diag, weights)) / math.fsum(weights)


def basic_mean_closed_form(q, eta):
    """Independent geometric-sum reference for the [N] average.

    <[N]> = w (1 - w) / ((1 - q w)(1 - w/q)) with w = e^-eta, obtained by
    splitting [n] into the two geometric series.
    """
    qp = as_qparam(q)
    w = math.exp(-float(eta))
    return w * (1.0 - w) / ((1.0 - qp.q * w) * (1.0 - qp.q_inv * w))


def check_detailed_trace_identity_b(q, eta, n_max=None):
    """Residual of the exact B-family trace identity.

    The cyclic trace property gives (e^eta - q) <[N]> = <q^-N>; both
    sides are evaluated by independent brute-force sums.
    """
    qp = as_qparam(q)
    lhs = (math.exp(float(eta)) - qp.q) * trace_average(
        TraceSpec(Family.B, qp, eta, "basic_N", n_max))
    rhs = trace_average(TraceSpec(Family.B, qp, eta, "q_inv_N", n_max))
    return abs(lhs - rhs)


def check_detailed_trace_identity_f(q, eta):
    """Residual of the exact two-state identity (e^eta + 1/q) <a+a> = <q^-N>."""
    qp = as_qparam(q)
    lhs = (math.exp(float(eta)) + qp.q_inv) * trace_average(
        TraceSpec(Family.F, qp, eta, "adag_a"))
    rhs = trace_average(TraceSpec(Family.F, qp, eta, "q_inv_N"))
    return abs(lhs - rhs)


def occupation_relation_residual(q, eta):
    """How exactly the closed-form occupation solves its defining relation.

    n = b_occupation(q, eta) should satisfy e^eta [n] = q^-n + q [n]
    identically; returns the absolute defect.
    """
    qp = as_qparam(q)
    n = distributions.b_occupation(qp, eta)
    bn = basic_number(qp, n)
    return abs(math.exp(float(eta)) * bn - (qp.q ** -n + qp.q * bn))


# ---------------------------------------------------------------------------
# Taylor-coefficient references


def _odd_stencil_weights(m):
    # minimal symmetric stencil for the coefficient of u^(2m+1): solve
    # sum_j w_j j^(2i+1) = delta_{i,m} over nodes j = 1..m+1.  With
    # x_j = j^2 this is a Vandermonde system in j w_j, solved by the
    # leading coefficients of the Lagrange basis: j w_j = 1/prod_k (x_j - x_k),
    # k != j.  The product is an exact integer, so each weight is the
    # exact solution rounded once
    js = range(1, m + 2)
    weights = [1 / (j * math.prod(j * j - k * k for k in js if k != j))
               for j in js]
    return [float(j) for j in js], weights


def _neville_to_zero(xs, ys):
    # polynomial extrapolation of (xs, ys) to x = 0
    tbl = list(ys)
    n = len(tbl)
    for level in range(1, n):
        for i in range(n - level):
            xi, xk = xs[i], xs[i + level]
            tbl[i] = (xk * tbl[i] - xi * tbl[i + 1]) / (xk - xi)
    return tbl[0]


def _odd_maclaurin_coefficient(f, m, base_step, levels):
    js, weights = _odd_stencil_weights(m)
    hs = [base_step / 2 ** l for l in range(levels)]
    ests = []
    for h in hs:
        total = 0.0
        for j, w in zip(js, weights):
            total += w * (f(j * h) - f(-j * h)) / 2.0
        ests.append(total / h ** (2 * m + 1))
    return _neville_to_zero([h * h for h in hs], ests)


def _arcsin_reference(n_coeffs):
    # step schedule tuned so the first three coefficients come out to
    # 1e-8 or better (the fourth reaches ~1e-7; beyond that the noise
    # amplification of high-order differences takes over)
    f = lambda u: (2.0 / math.pi) * math.asin(u)
    coeffs = []
    for m in range(n_coeffs):
        base = (0.5 if m < 3 else 0.6) / (m + 1)
        levels = 6 if m < 3 else 5
        c = _odd_maclaurin_coefficient(f, m, base, levels)
        coeffs.extend([c, 0.0] if m < n_coeffs - 1 else [c])
    return tuple(coeffs)


def _degenerate_bracket_reference(n_coeffs):
    # bracket B(nu) = Gamma(5/2) f(e^nu, 3/2)/nu^(3/2) = 1 + c1 u + c2 u^2,
    # u = nu^-2; extrapolate (B-1)/u, then ((B-1)/u - c1)/u, to u -> 0
    gamma52 = math.gamma(2.5)
    nus = [12.0, 16.0, 22.0, 30.0, 42.0, 58.0]
    us = [nu ** -2 for nu in nus]
    brackets = [
        gamma52 * qfunctions.fermi_f(math.exp(nu), 1.5) / nu ** 1.5
        for nu in nus
    ]
    coeffs = []
    resid = [(b - 1.0) for b in brackets]
    for _ in range(n_coeffs):
        scaled = [r / u for r, u in zip(resid, us)]
        c = _neville_to_zero(us, scaled)
        coeffs.append(c)
        resid = [r - c * u for r, u in zip(resid, us)]
    return tuple(coeffs)


_TAYLOR_REGISTRY = {
    "arcsin-sqrt": _arcsin_reference,
    "degenerate-density-bracket": _degenerate_bracket_reference,
}


def taylor_reference(function_id, n_coeffs):
    """Reference expansion coefficients for a registered function, as a tuple.

    "arcsin-sqrt": the Maclaurin coefficients c1, c2, ... of (2/pi)
    arcsin(u) in u, with every even one 0 (so the n-th odd coefficient,
    at index 2n, multiplies g^(n+1/2) after u = sqrt(g)); computed by
    Richardson-extrapolated central differences.
    "degenerate-density-bracket": the coefficients c1, c2, ... of the
    asymptotic bracket 1 + c1 u + c2 u^2 + ... in u = (ln x)^-2, from
    quadrature values; its constant term is 1 and is not returned, and
    c1 recovers pi^2/8.
    """
    try:
        builder = _TAYLOR_REGISTRY[function_id]
    except KeyError:
        raise DomainError(
            f"unknown function id {function_id!r}; "
            f"registered: {sorted(_TAYLOR_REGISTRY)}"
        ) from None
    if n_coeffs < 1:
        raise DomainError("need at least one coefficient")
    return builder(n_coeffs)


def arcsin_series_coefficients(n_coeffs):
    """Closed-form (2/pi) binom(2m,m)/(4^m (2m+1)) for cross-checking."""
    out = []
    c = 1.0
    for m in range(n_coeffs):
        if m > 0:
            c *= (2.0 * m - 1.0) ** 2 / (2.0 * m * (2.0 * m + 1.0))
        out.append(2.0 / math.pi * c)
    return out


# ---------------------------------------------------------------------------
# The assembled verification suite


def _b_eta_grid(q):
    lo = math.log(1.0 / q)
    return [lo + d for d in (0.15, 0.7, 2.0)]


def run_verification():
    """Run the full self-check suite and return a VerificationReport.

    Covers the trace identities, the continued-fraction/closed-form
    agreement and interlacing, classical-limit regressions, algebra
    representation checks, the Taylor and asymptotic references, the
    Jackson-derivative mode-sum identity, and the virial q-independence.
    The known-errata catalog and the side-by-side ambiguity notes are
    attached to the report.
    """
    qs = (0.3, 0.5, 0.7, 0.9)  # grid of the trace, occupation and CF checks
    checks = []
    notes = []

    for q in qs:
        for eta in _b_eta_grid(q):
            checks.append(CheckResult.from_residual(
                "b-trace-identity", {"q": q, "eta": round(eta, 6)},
                check_detailed_trace_identity_b(q, eta), 1e-10))
    for q in qs:
        for eta in (-2.0, 0.0, 1.0, 3.0):
            checks.append(CheckResult.from_residual(
                "f-trace-identity", {"q": q, "eta": eta},
                check_detailed_trace_identity_f(q, eta), 1e-14))
    worst = 0.0
    for q in qs:
        for eta in _b_eta_grid(q):
            worst = max(worst, occupation_relation_residual(q, eta))
    checks.append(CheckResult.from_residual(
        "occupation-defining-relation", {"qs": list(qs)}, worst, 1e-12))

    worst = 0.0
    for q in (0.5, 0.9):
        qp = as_qparam(q)
        for offset in (0.7, 2.0):  # offsets where 64 states meet the tail bound
            eta = math.log(1.0 / q) + offset
            for obs in ("N", "qN", "q_inv_N", "basic_N"):
                spec = TraceSpec(Family.B, qp, eta, obs, n_max=64)
                worst = max(worst, abs(
                    trace_average(spec) - trace_average_matrix(spec)))
    checks.append(CheckResult.from_residual(
        "trace-matrix-vs-scalar", {"dims": 65}, worst, 1e-12))

    worst = 0.0
    for q in qs:
        qp = as_qparam(q)
        for eta in _b_eta_grid(q):
            worst = max(worst, abs(
                trace_average(TraceSpec(Family.B, qp, eta, "basic_N"))
                - basic_mean_closed_form(qp, eta)))
    checks.append(CheckResult.from_residual(
        "basic-mean-geometric-reference", {"qs": list(qs)}, worst, 1e-12))

    # continued fraction against the closed form; eta is chosen through a
    # target y so the convergents stay numerically distinguishable at
    # small k.  The convergents increase strictly from below (no
    # two-sided interlacing; see the convergent-bracketing erratum), so
    # the monotone chain and the strict bounds of cf_bounds are checked,
    # and the failure of the second-convergent upper-bound claim is
    # demonstrated on the q = 1/2 illustration point.
    cf_worst = 0.0
    order_ok = True
    bounds_ok = True
    for q in qs:
        qp = as_qparam(q)
        for y_target in (0.5, 0.75, 0.9):
            eta = math.log(qp.q + (qp.q_inv - qp.q) / y_target)
            exact = distributions.b_occupation(q, eta)
            cf_worst = max(cf_worst, abs(
                distributions.cf_convergent(q, eta, 60) - exact))
            conv = [distributions.cf_convergent(q, eta, k) for k in range(1, 13)]
            order_ok &= all(a < b for a, b in zip(conv, conv[1:]))
            order_ok &= conv[-1] < exact
            pair = distributions.cf_bounds(q, eta)
            bounds_ok &= pair.lower < pair.exact < pair.upper
    checks.append(CheckResult.from_residual(
        "cf-closed-form-agreement", {"k": 60}, cf_worst, 1e-12))
    checks.append(CheckResult.from_residual(
        "cf-monotone-convergents", {"k_max": 12},
        0.0 if order_ok else 1.0, 0.5,
        note="strictly increasing toward the limit, all from below"))
    checks.append(CheckResult.from_residual(
        "convergent-bounds-strict", {"bound": "pref*y/(1-y)"},
        0.0 if bounds_ok else 1.0, 0.5))
    second = distributions.cf_convergent(0.5, math.log(4.0), 2)
    exact_ill = distributions.b_occupation(0.5, math.log(4.0))
    checks.append(CheckResult.from_residual(
        "cf-bracketing-counterexample", {"q": 0.5, "eta": "ln 4"},
        0.0 if second < exact_ill else 1.0, 0.5,
        note=f"second convergent {second:.6f} < occupation {exact_ill:.6f}: "
             "the claimed upper bound fails; see convergent-bracketing erratum"))

    # classical limits
    worst_b = worst_f = 0.0
    for eta in (0.5, 1.0, 2.0, 4.0):
        bose = 1.0 / math.expm1(eta)
        fermi = 1.0 / (math.exp(eta) + 1.0)
        worst_b = max(worst_b, abs(distributions.b_occupation(1.0, eta) - bose))
        worst_f = max(worst_f, abs(distributions.f_occupation(1.0, eta) - fermi))
        q_near = 1.0 - 1e-9
        worst_b = max(worst_b, 1e-3 * abs(
            distributions.b_occupation(q_near, eta) - bose) / bose)
        worst_f = max(worst_f, 1e-3 * abs(
            distributions.f_occupation(q_near, eta) - fermi) / fermi)
    checks.append(CheckResult.from_residual(
        "bose-limit-regression", {"scale": "1e-3 * relative at q=1-1e-9"},
        worst_b, 1e-9))
    checks.append(CheckResult.from_residual(
        "fermi-limit-regression", {"scale": "1e-3 * relative at q=1-1e-9"},
        worst_f, 1e-9))

    for q in (0.3, 0.6, 0.9):
        checks.extend(rep_report(build_b_rep(q, 32)))
        checks.extend(rep_report(build_f_rep(q)))
        rec = eigenvalue_seq_f(q, 12)
        closed = eigenvalue_seq_f_closed(q, 12)
        checks.append(CheckResult.from_residual(
            "f-eigenvalue-recurrence-closed-form", {"q": q, "n_max": 12},
            max(abs(a - b) for a, b in zip(rec, closed)), 1e-300,
            note="bit-exact by shared iterated-power construction"))
        checks.append(CheckResult.from_residual(
            "f-no-basic-number", {"q": q, "n_max": 4},
            0.0 if verify_no_basic_number_f(q, 4) else 1.0, 0.5))

    oracle_series = taylor_reference("arcsin-sqrt", 3)
    closed = arcsin_series_coefficients(3)
    diffs = [abs(oracle_series[2 * m] - closed[m]) for m in range(3)]
    checks.append(CheckResult.from_residual(
        "arcsin-taylor-oracle", {"coefficients": 3}, max(diffs), 1e-8))

    bracket = taylor_reference("degenerate-density-bracket", 2)
    checks.append(CheckResult.from_residual(
        "degenerate-bracket-first-coefficient", {"target": "pi^2/8"},
        abs(bracket[0] - math.pi ** 2 / 8.0), 1e-6))

    spectrum = (0.5, 1.0, 1.5, 2.0, 2.5)
    worst = 0.0
    for q in (0.5, 0.8):
        lhs = thermo.b_number_from_partition(spectrum, 0.4, 1.0, q)
        rhs = sum(distributions.b_occupation_jd(q, 0.4 * math.exp(-e))
                  for e in spectrum)
        worst = max(worst, abs(lhs - rhs))
    checks.append(CheckResult.from_residual(
        "jd-mode-sum-identity", {"modes": len(spectrum), "z": 0.4},
        worst, 1e-10))

    rows = [thermo.virial_coefficients(Family.F, q, 4) for q in (0.3, 0.6, 0.9)]
    spread = max(max(abs(r[k] - rows[0][k]) for r in rows) for k in range(4))
    checks.append(CheckResult.from_residual(
        "f-virial-q-independence", {"order": 4}, spread, 1e-12))
    worst = 0.0
    for q in (0.3, 0.5, 0.9):
        b2 = thermo.virial_coefficients(Family.B, q, 2)[1]
        worst = max(worst, abs(b2 + basic_number(q, 2) / 2 ** 3.5))
    checks.append(CheckResult.from_residual(
        "b-virial-second-coefficient", {"qs": (0.3, 0.5, 0.9)}, worst, 1e-10))

    # adaptive truncation stability: doubling n_max moves nothing
    worst = 0.0
    for q in (0.5, 0.9):
        qp = as_qparam(q)
        eta = _b_eta_grid(q)[1]
        a = trace_average(TraceSpec(Family.B, qp, eta, "basic_N", n_max=512))
        b = trace_average(TraceSpec(Family.B, qp, eta, "basic_N", n_max=1024))
        worst = max(worst, abs(a - b))
    checks.append(CheckResult.from_residual(
        "trace-truncation-stability", {"n_max": "512 vs 1024"}, worst, 1e-12))

    q_note, eta_note = 0.5, 0.3
    notes.append(AmbiguityNote(
        "f-occupation-vs-two-state-trace",
        "The exact two-state trace of a+a is 1/(e^eta + 1) for every q, "
        "while the parity identification assigns the q-dependent value "
        "1/(q e^eta + 1); both are reported, neither is altered.",
        {
            "trace_average": trace_average(
                TraceSpec(Family.F, q_note, eta_note, "adag_a")),
            "assigned_occupation": distributions.f_occupation(q_note, eta_note),
            "q": q_note, "eta": eta_note,
        },
    ))
    eta_b = math.log(4.0)
    n_b = distributions.b_occupation(q_note, eta_b)
    notes.append(AmbiguityNote(
        "b-qN-average-vs-pointwise-power",
        "The closed-form occupation satisfies the defining relation "
        "through the simultaneous identification of <q^-N> and <[N]> in "
        "a ratio; pointwise q^-n differs from <q^-N>.",
        {
            "q_pow_minus_n": 0.5 ** -n_b,
            "trace_q_inv_N": trace_average(
                TraceSpec(Family.B, q_note, eta_b, "q_inv_N")),
            "q": q_note, "eta": eta_b,
        },
    ))
    notes.append(AmbiguityNote(
        "printed-occupation-series-coefficients",
        "Printed half-integer series coefficients for the F occupation "
        "(leading power g^-1/2) next to the Taylor oracle of the arcsin "
        "form (leading power g^1/2).",
        {
            "printed": [1.0, 7.0 / 6.0, 149.0 / 120.0, 2161.0 / 1680.0],
            "oracle": arcsin_series_coefficients(4),
        },
    ))

    return VerificationReport(checks=checks, errata=list(KNOWN_ERRATA),
                              notes=notes)
