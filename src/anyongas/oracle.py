"""Brute-force verification engine.

Everything here is deliberately independent of the closed forms it
checks: thermal averages are computed as explicit weighted sums over the
Fock spectrum (adaptively truncated), and asymptotic coefficients by
polynomial extrapolation of quadrature values.  run_verification wires
the whole suite into a machine-readable report.
"""

import itertools
import math
import operator

from . import distributions, qfunctions, thermo
from .algebra import (build_b_rep, build_f_rep, eigenvalue_seq_f,
                      eigenvalue_seq_f_closed, rep_report,
                      verify_no_basic_number_f)
from .errors import ConvergenceError, DomainError
from .qcore import Family, as_count, as_family, as_qparam, basic_number
from .report import (AmbiguityNote, CheckResult, KNOWN_ERRATA,
                     VerificationReport)

OBSERVABLES = ("N", "qN", "q_inv_N", "basic_N", "adag_a")
_TAIL_REL = 1e-15
_NMAX_START = 32
_NMAX_CAP = 4096
# bracket coefficients the quadrature nodes hold: c3 would be 0.9% off
_BRACKET_MAX_COEFFS = 2


def _trace_inputs(family, q, eta, observable, n_max):
    # the Family, QParam, float eta and int or None n_max of one trace
    # average, for a known observable, an eta at which its sum converges
    # and a last state n_max >= 1
    if observable not in OBSERVABLES:
        raise DomainError(f"unknown observable {observable!r}; "
                          f"choose from {OBSERVABLES}")
    family, qp, eta = as_family(family), as_qparam(q), float(eta)
    if family is Family.F:
        if math.isnan(eta):
            raise DomainError("F-family trace requires eta that is not NaN")
    elif not 0.0 < eta < math.inf:
        raise DomainError(f"B-family trace requires finite eta > 0, got {eta!r}")
    elif observable not in ("N", "qN") and math.exp(-eta) / qp.q >= 1.0:
        raise DomainError(
            f"observable {observable} needs e^eta > 1/q for convergence"
        )
    if n_max is not None:
        n_max = as_count("n_max", n_max, 1)
    return family, qp, eta, n_max


def _f_weights(eta):
    # the Boltzmann weights of the two F states, scaled so that the larger
    # is 1 and the other e^-|eta| <= 1: finite for every eta, the limits
    # at eta = +-inf included
    t = math.exp(-abs(eta))
    return (1.0, t) if eta >= 0.0 else (t, 1.0)


def _powers(r):
    # r^0, r^1, r^2, ... by iterated products
    rn = 1.0
    while True:
        yield rn
        rn *= r


def _basic_terms(q, v):
    # [n] w^n = q (w/q)^n s_n with s_n = 1 + q^2 + ... + q^(2n-2), v = w/q:
    # products and sums of positive numbers, so no term overflows or
    # cancels, and s_n = n at q = 1
    q2 = q * q
    s = 0.0
    for vn in _powers(v):
        yield q * vn * s
        s = 1.0 + q2 * s


def _b_terms(observable, q, w):
    # O(n) w^n for n = 0, 1, 2, ...
    if observable == "N":
        return map(operator.mul, itertools.count(), _powers(w))
    if observable == "qN":
        return _powers(q * w)
    if observable == "q_inv_N":
        return _powers(w / q)
    return _basic_terms(q, w / q)  # basic_N and adag_a: [n] w^n


def trace_average(family, q, eta, observable, n_max=None):
    """Sum_n O(n) e^(-eta n) / Sum_n e^(-eta n) over the Fock spectrum of one mode.

    eta is beta (E - mu).  Observables: N, q^N (qN), q^-N (q_inv_N), [N]
    (basic_N) and a+ a (adag_a), which is [N] for the B family.  The F
    family has exactly two states, whose weights are scaled to 1 and
    e^-|eta|: every eta but NaN has an average, eta = +-inf its limit.
    The B family needs finite eta > 0, and e^eta > 1/q for the
    observables that grow like q^-n.  A given n_max, an integer >= 1, is
    the last state summed; n_max=None truncates adaptively, doubling from
    32 until the next dropped term is below 1e-15 of both partial sums,
    capped at 4096.  Each B term is a product of positive
    factors, so the sums hold full precision for every q, q = 1
    included, with no branch on it.
    """
    family, qp, eta, n_max = _trace_inputs(family, q, eta, observable, n_max)
    if family is Family.F:
        w0, w1 = _f_weights(eta)
        betas = eigenvalue_seq_f(qp, 1)
        values = {
            "N": (0.0, 1.0),
            "qN": (1.0, qp.q),
            "q_inv_N": (1.0, qp.q_inv),
            "adag_a": (betas[0], betas[1]),
            "basic_N": (basic_number(qp, 0), basic_number(qp, 1)),
        }[observable]
        return (values[0] * w0 + values[1] * w1) / (w0 + w1)

    w = math.exp(-eta)
    last = _NMAX_START if n_max is None else n_max
    num = den = 0.0
    wn = 1.0
    for n, term in enumerate(_b_terms(observable, qp.q, w)):
        if n > last:
            # term and wn are the first terms past the last state; a doubled
            # last state carries the same sums on
            if term <= _TAIL_REL * num and wn <= _TAIL_REL * den:
                return num / den
            if n_max is not None or last >= _NMAX_CAP:
                raise ConvergenceError(
                    f"trace at q={qp.q}, eta={eta}, {observable}: tail "
                    f"bound unmet at n_max={last}"
                )
            last *= 2
        num += term
        den += wn
        wn *= w


def trace_average_matrix(family, q, eta, observable, n_max=None):
    """Same average as `trace_average`, through the operator representation.

    Weights e^(-eta n) multiply the diagonal of the observable in the
    Fock basis, read from the representation's bands (a+ a has the
    diagonal s_n^2 of the band entries s_n) rather than from the closed
    forms; ties the operator picture to the spectral picture.  The
    B-family representation spans the states 0..n_max, so it needs an
    n_max, and gives the same truncated sum as trace_average with it.
    Both functions refuse the same eta, and scale the F weights alike.
    The F family inherits the refusal of `build_f_rep`: a q whose 1/q
    overflows, below about 5.6e-309, raises DomainError.
    """
    family, qp, eta, n_max = _trace_inputs(family, q, eta, observable, n_max)
    if family is Family.F:
        rep = build_f_rep(qp)
        weights = _f_weights(eta)
    else:
        if n_max is None:
            raise DomainError("the B-family representation needs an n_max")
        rep = build_b_rep(qp, n_max + 1)
        weights = [math.exp(-eta * n) for n in range(rep.dim)]
    if observable == "N":
        diag = rep.number
    elif observable == "qN":
        diag = [qp.q ** n for n in range(rep.dim)]
    elif observable == "q_inv_N":
        diag = [qp.q_inv ** n for n in range(rep.dim)]
    else:  # basic_N and adag_a: a+ a, whose diagonal is s_n^2
        diag = [0.0] + [s * s for s in rep.band]
    return math.fsum(map(operator.mul, diag, weights)) / math.fsum(weights)


def basic_mean_closed_form(q, eta):
    """Independent geometric-sum reference for the [N] average.

    <[N]> = w (1 - w) / ((1 - q w)(1 - w/q)) with w = e^-eta, obtained by
    splitting [n] into the two geometric series.  Its domain is that of
    trace_average(B, q, eta, "basic_N"): finite eta > 0 with e^eta > 1/q.
    """
    _, qp, eta, _ = _trace_inputs(Family.B, q, eta, "basic_N", None)
    w = math.exp(-eta)
    # w/q stays finite where 1/q overflows, below q of about 5.6e-309
    return w * (1.0 - w) / ((1.0 - qp.q * w) * (1.0 - w / qp.q))


def check_detailed_trace_identity_b(q, eta):
    """Residual of the exact B-family trace identity.

    The cyclic trace property gives (e^eta - q) <[N]> = <q^-N>; both
    sides are evaluated by independent brute-force sums.
    """
    qp = as_qparam(q)
    lhs = (math.exp(float(eta)) - qp.q) * trace_average(Family.B, qp, eta, "basic_N")
    rhs = trace_average(Family.B, qp, eta, "q_inv_N")
    return abs(lhs - rhs)


def check_detailed_trace_identity_f(q, eta):
    """Residual of the exact two-state identity (e^eta + 1/q) <a+a> = <q^-N>."""
    qp = as_qparam(q)
    lhs = (math.exp(float(eta)) + qp.q_inv) * trace_average(Family.F, qp, eta, "adag_a")
    rhs = trace_average(Family.F, qp, eta, "q_inv_N")
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
# Series references


def _neville_to_zero(xs, ys):
    # polynomial extrapolation of (xs, ys) to x = 0
    tbl = list(ys)
    n = len(tbl)
    for level in range(1, n):
        for i in range(n - level):
            xi, xk = xs[i], xs[i + level]
            tbl[i] = (xk * tbl[i] - xi * tbl[i + 1]) / (xk - xi)
    return tbl[0]


def taylor_reference(n_coeffs):
    """Coefficients c1, c2 of the degenerate Fermi-density bracket, as a tuple.

    The bracket Gamma(5/2) f(e^nu, 3/2)/nu^(3/2) = 1 + c1 u + c2 u^2 + ...
    in u = nu^-2 (the Sommerfeld expansion, nu = ln x), extrapolated to
    u -> 0 from quadrature values at nu = 12..58; its constant term is 1
    and is not returned.  c1 recovers pi^2/8 to 4.9e-9 and c2 7 pi^4/640
    to 3.8e-5.  Those nodes hold no more: c3 would be 0.9% off and c4
    32%, so n_coeffs above 2 raises DomainError.
    """
    n_coeffs = as_count("n_coeffs", n_coeffs, 1)
    if n_coeffs > _BRACKET_MAX_COEFFS:
        raise DomainError(
            f"the bracket nodes hold {_BRACKET_MAX_COEFFS} coefficients; "
            f"n_coeffs must be at most {_BRACKET_MAX_COEFFS}, got {n_coeffs!r}")
    # each pass extrapolates the residual of the one before, divided by u
    # again: (B-1)/u, then ((B-1)/u - c1)/u
    gamma52 = math.gamma(2.5)
    nus = [12.0, 16.0, 22.0, 30.0, 42.0, 58.0]
    us = [nu ** -2 for nu in nus]
    resid = [gamma52 * qfunctions.fermi_f(math.exp(nu), 1.5) / nu ** 1.5 - 1.0
             for nu in nus]
    coeffs = []
    for _ in range(n_coeffs):
        scaled = [r / u for r, u in zip(resid, us)]
        c = _neville_to_zero(us, scaled)
        coeffs.append(c)
        resid = [r - c for r in scaled]
    return tuple(coeffs)


def arcsin_series_coefficients(n_coeffs):
    """Closed-form (2/pi) binom(2m,m)/(4^m (2m+1)), m = 0..n_coeffs-1.

    The coefficients of u^(2m+1) in the Maclaurin series of (2/pi) arcsin(u),
    so of g^(m+1/2) in the arcsine form of the F occupation.
    """
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
    representation checks, the asymptotic bracket reference, the
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
                spec = (Family.B, qp, eta, obs, 64)
                worst = max(worst, abs(
                    trace_average(*spec) - trace_average_matrix(*spec)))
    checks.append(CheckResult.from_residual(
        "trace-matrix-vs-scalar", {"dims": 65}, worst, 1e-12))

    worst = 0.0
    for q in qs:
        qp = as_qparam(q)
        for eta in _b_eta_grid(q):
            worst = max(worst, abs(trace_average(Family.B, qp, eta, "basic_N")
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

    for family, q, eta, _, _, error, tolerance in distributions.classical_limit_rows():
        checks.append(CheckResult.from_residual(
            "bose-limit-regression" if family == "b" else "fermi-limit-regression",
            {"q": q, "eta": eta}, error, tolerance))

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

    (c1,) = taylor_reference(1)
    checks.append(CheckResult.from_residual(
        "degenerate-bracket-first-coefficient", {"target": "pi^2/8"},
        abs(c1 - math.pi ** 2 / 8.0), 1e-6))

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
        a = trace_average(Family.B, qp, eta, "basic_N", n_max=512)
        b = trace_average(Family.B, qp, eta, "basic_N", n_max=1024)
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
            "trace_average": trace_average(Family.F, q_note, eta_note, "adag_a"),
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
            "trace_q_inv_N": trace_average(Family.B, q_note, eta_b, "q_inv_N"),
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
