"""Occupation-number functions for both statistics families.

Boson-like side.  The closed form used throughout is

    n(q, eta) = -(1/(2 ln(1/q))) ln(1 - y),   y = (1/q - q)/(e^eta - q),

defined for e^eta > 1/q; it solves the single-mode relation
e^eta = (q^-n + q [n])/[n] and has the Bose limit 1/(e^eta - 1).  (A
variant with an unhalved log prefactor circulates; it fails the Bose
limit and is recorded as an erratum, see report.KNOWN_ERRATA.)  The same
quantity has a continued-fraction form whose convergents bracket it from
both sides, and there is a second, thermodynamically defined occupation
derived through the Jackson derivative of the partition function; the
two differ by a finite factor and both are exposed.

Fermion-like side.  The occupation is rational, n = 1/(q e^eta + 1),
with equivalent arcsin and half-integer power series forms.
"""

import math
from dataclasses import dataclass

from . import kernels
from .errors import DomainError
from .qcore import as_qparam

_TWO_OVER_PI = 2.0 / math.pi
_ETA_HUGE = 700.0  # beyond this e^eta overflows a double; switch to e^-eta forms


def _bose_occupation(eta):
    if eta <= 0.0:
        raise DomainError(f"Bose occupation requires eta > 0, got {eta!r}")
    if eta > _ETA_HUGE:
        return math.exp(-eta)
    return 1.0 / math.expm1(eta)


def _cf_argument(qp, eta):
    # y = (1/q - q)/(e^eta - q) in (0, 1) on the valid domain
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta > _ETA_HUGE:
        # the -q in the denominator is below double resolution here
        return (qp.q_inv - qp.q) * math.exp(-eta)
    e = math.exp(eta)
    if e <= qp.q_inv:
        raise DomainError(
            f"occupation requires e^eta > 1/q (eta > {math.log(qp.q_inv):.6g}); "
            f"got eta={eta!r} at q={qp.q!r}"
        )
    return (qp.q_inv - qp.q) / (e - qp.q)


def b_occupation(q, eta):
    """Closed-form B-family occupation, for e^eta > 1/q.

    Equals -(1/(2 ln(1/q))) ln(1 - y) with y = (1/q - q)/(e^eta - q);
    Bose-Einstein 1/(e^eta - 1) in the classical limit.
    """
    qp = as_qparam(q)
    if qp.is_classical_limit:
        return _bose_occupation(float(eta))
    y = _cf_argument(qp, eta)
    return -math.log1p(-y) / (2.0 * math.log(qp.q_inv))


def b_occupation_jd(q, w):
    """Jackson-derivative occupation in the mode variable w = z e^(-beta E).

    n = (1/(q - 1/q)) ln((1 - w/q)/(1 - q w)) = Sum_{r>=1} [r] w^r / r,
    for 0 <= w < q.  This is the occupation whose sum over modes gives
    the q-deformed state functions; it differs from b_occupation by the
    finite factor (1/q - q)/(2 ln(1/q)) at small occupation.
    """
    qp = as_qparam(q)
    w = float(w)
    if w < 0.0:
        raise DomainError(f"mode variable must be nonnegative, got {w!r}")
    if w == 0.0:
        return 0.0
    if qp.is_classical_limit:
        if w >= 1.0:
            raise DomainError(f"Bose branch requires w < 1, got {w!r}")
        return w / (1.0 - w)
    if w >= qp.q:
        raise DomainError(
            f"series diverges for w >= q (w={w!r}, q={qp.q!r})"
        )
    return (math.log1p(-qp.q_inv * w) - math.log1p(-qp.q * w)) / (qp.q - qp.q_inv)


def cf_convergent(q, eta, k):
    """k-th convergent of the continued-fraction form of b_occupation.

    Partial numerators follow the pattern 1^2 y, 1^2 y, 2^2 y, 2^2 y,
    3^2 y, ... over denominators 2, 3, 4, ...; this is the standard
    continued fraction of -ln(1 - y).  k = 1 and k = 2 reproduce the
    closed first and second approximants.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"convergent index must be a positive integer, got {k!r}")
    qp = as_qparam(q)
    if qp.is_classical_limit:
        return _bose_occupation(float(eta))
    y = _cf_argument(qp, eta)
    pref = 1.0 / (2.0 * math.log(qp.q_inv))
    return pref * kernels.cf_convergent_value(y, int(k))


@dataclass(frozen=True)
class ConvergentPair:
    """Two-sided bounds on the exact occupation, lower < exact < upper."""

    lower: float
    upper: float
    exact: float


def cf_bounds(q, eta):
    """Rigorous two-sided bounds on the B-family occupation.

    The lower bound is the first convergent, pref * y.  The claim that
    the second convergent bounds from above is false: every convergent
    of this continued fraction lies strictly below the limit (the
    negative partial numerators cancel the alternation that produces
    two-sided interlacing; see report.KNOWN_ERRATA, id
    "convergent-bracketing").  The upper bound returned here is the
    integral bound -ln(1 - y) < y/(1 - y), i.e.

        n < (1/q - q) / (2 ln(1/q) (e^eta - 1/q)),

    the first-convergent form with the denominator shift q replaced by
    1/q; it is valid and strict on the whole domain e^eta > 1/q.  The
    second convergent itself remains available as cf_convergent(q, eta, 2).
    In the classical limit y -> 0 and all three values collapse onto the
    Bose occupation.  ``exact`` is b_occupation(q, eta) bit for bit: it
    is the same expression of the same y.
    """
    qp = as_qparam(q)
    if qp.is_classical_limit:
        bose = _bose_occupation(float(eta))
        return ConvergentPair(lower=bose, upper=bose, exact=bose)
    y = _cf_argument(qp, eta)
    two_log = 2.0 * math.log(qp.q_inv)
    pref = 1.0 / two_log
    return ConvergentPair(
        lower=pref * y,
        upper=pref * y / (1.0 - y),
        exact=-math.log1p(-y) / two_log,
    )


def f_occupation(q, eta):
    """F-family occupation (1/q)/(e^eta + 1/q) = 1/(q e^eta + 1).

    Total in eta; Fermi-Dirac at q = 1; value (1/q)/(1 + 1/q) >= 1/2 at
    eta = 0; tends to the step function as |eta| grows for every q.
    """
    qp = as_qparam(q)
    eta = float(eta)
    if math.isnan(eta):
        raise DomainError("eta must not be NaN")
    if eta >= 0.0:
        # e^-eta form: total for arbitrarily large eta
        t = math.exp(-eta)
        return t / (qp.q + t)
    return 1.0 / (qp.q * math.exp(eta) + 1.0)


def f_occupation_arcsin(q, eta):
    """Arcsine form (2/pi) arcsin(sqrt g), g = 1/(q e^eta + 1).

    Identical to f_occupation on the two-state spectrum where
    sin^2(n pi/2) takes only the values 0 and 1.
    """
    return _TWO_OVER_PI * math.asin(math.sqrt(f_occupation(q, eta)))


def f_occupation_series(g, terms):
    """Partial sum of the half-integer power series of (2/pi) arcsin(sqrt g).

    The m-th term is (2/pi) binom(2m, m)/(4^m (2m+1)) g^(m+1/2); the sum
    converges to f_occupation_arcsin as terms -> inf for 0 <= g < 1.
    (A printed variant of this series starting at g^(-1/2) is flagged as
    an erratum; see report.KNOWN_ERRATA.)
    """
    g = float(g)
    if not 0.0 <= g < 1.0:
        raise DomainError(f"series requires 0 <= g < 1, got {g!r}")
    if terms < 1:
        raise DomainError(f"need at least one term, got {terms!r}")
    if g == 0.0:
        return 0.0
    root = math.sqrt(g)
    coeff = 1.0  # arcsin Maclaurin coefficient for u^(2m+1)
    power = root
    total = coeff * power
    for m in range(1, terms):
        coeff *= (2.0 * m - 1.0) ** 2 / (2.0 * m * (2.0 * m + 1.0))
        power *= g
        total += coeff * power
    return _TWO_OVER_PI * total
