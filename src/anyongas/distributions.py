"""Occupation-number functions for both statistics families.

Boson-like side.  The closed form used throughout is

    n(q, eta) = -(1/(2 ln(1/q))) ln(1 - y),   y = (1/q - q)/(e^eta - q),

defined for e^eta > 1/q; it solves the single-mode relation
e^eta = (q^-n + q [n])/[n] and has the Bose limit 1/(e^eta - 1).  (A
variant with an unhalved log prefactor circulates; it fails the Bose
limit and is recorded as an erratum, see report.KNOWN_ERRATA.)  The same
quantity has a continued-fraction form whose convergents all lie below
it (erratum "convergent-bracketing"), and there is a second,
thermodynamically defined occupation derived through the Jackson
derivative of the partition function; the two differ by a finite factor
and both are exposed.

In doubles the B domain is y < 1, not only e^eta > 1/q: for the first few
doubles above eta = ln(1/q), e^eta - q rounds to 1/q - q, y rounds to 1
and -ln(1 - y) is infinite.  b_occupation, cf_bounds and cf_convergent
raise DomainError there, as they do below the pole.

The classical band |q - 1| < 1e-12 that QParam marks is read at three
sites, cf_convergent, cf_bounds and bounds_rows, which give the Bose
occupation there; b_occupation is the exact value of cf_bounds, and the
Jackson-derivative occupation has one form for every q.
classical_limit_rows is the q -> 1 regression of both families against
Bose-Einstein and Fermi-Dirac statistics that the limits and verify
commands report.

Fermion-like side.  The occupation is rational, n = 1/(q e^eta + 1),
with an equivalent arcsine form.

Grid kernels.  b_occupation_rows, bounds_rows and f_occupation_rows
tabulate a whole eta grid in one pass, as the rows of the occupation and
bounds commands.  Each value is the scalar function's bit for bit: a B
row calls cf_bounds once, and the kernels share the closed forms with
the scalar functions through private helpers.
"""

import collections
import math

from . import kernels
from .errors import DomainError
from .qcore import QParam, as_qparam

_TWO_OVER_PI = 2.0 / math.pi
_ETA_HUGE = 700.0  # beyond this e^eta overflows a double; switch to e^-eta forms
# ln 2 as a 32-bit head, whose product with a binary exponent is exact, and a tail
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# the scalar functions test for a QParam inline, which skips the as_qparam
# call on the QParam a grid kernel passes to cf_bounds on every row

# builds a ConvergentPair without the namedtuple's Python-level __new__,
# which would add about a third to the time of a cf_bounds call
_new_tuple = tuple.__new__


def _bose_occupation(eta):
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta <= 0.0:
        raise DomainError(f"Bose occupation requires eta > 0, got {eta!r}")
    if eta > _ETA_HUGE:
        return math.exp(-eta)
    n = 1.0 / math.expm1(eta)
    if n == math.inf:
        # expm1(eta) = eta below about 5.6e-309, and 1/eta passes the largest double
        raise DomainError(
            f"Bose occupation 1/(e^eta - 1) overflows a double at eta={eta!r}; "
            "it needs eta >= 5.5627e-309")
    return n


def _cf_argument(qp, eta):
    # y = (1/q - q)/(e^eta - q), which must lie in (0, 1): where e^eta - q
    # rounds to 1/q - q, y is 1 and -ln(1 - y) is infinite
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta <= _ETA_HUGE:
        e = math.exp(eta)
        y = (qp.q_inv - qp.q) / (e - qp.q) if e > qp.q_inv else 1.0
    elif qp.q_inv < math.inf:
        # the -q in the denominator is below double resolution here; e^-eta as
        # two normal halves (to eta ~ 1416) leaves y subnormal only where it is
        half = math.exp(-0.5 * eta)
        y = (qp.q_inv - qp.q) * half * half
    else:
        # 1/q overflows below q of about 5.6e-309, and q^2 is below resolution:
        # with q = m 2^p, y = e^(-eta - p ln 2)/m, its exponent exact to eta ~ 2 ln(1/q)
        m, p = math.frexp(qp.q)
        y = math.exp((-eta - p * _LN2_HI) - p * _LN2_LO) / m
    if y < 1.0:
        return y
    raise DomainError(
        f"occupation requires e^eta > 1/q, with y = (1/q - q)/(e^eta - q) "
        f"below 1 in doubles (eta > {qp.ln_q_inv:.6g}); "
        f"got eta={eta!r} at q={qp.q!r}"
    )


def b_occupation(q, eta):
    """Closed-form B-family occupation, for e^eta > 1/q and y < 1.

    Equals -(1/(2 ln(1/q))) ln(1 - y) with y = (1/q - q)/(e^eta - q);
    Bose-Einstein 1/(e^eta - 1) in the classical limit, for eta > 0
    where that is a finite double (eta above about 5.6e-309).
    DomainError where y rounds to 1, which happens for the first few
    doubles above eta = ln(1/q), as well as below the pole.  The value is
    the ``exact`` of `cf_bounds` bit for bit: where y < 1e-15 rounding
    can put the closed form an ulp outside those bounds, and it is
    clamped into them.
    """
    return cf_bounds(q, eta)[2]


def b_occupation_jd(q, w):
    """Jackson-derivative occupation in the mode variable w = z e^(-beta E).

    n = (1/(q - 1/q)) ln((1 - w/q)/(1 - q w)) = Sum_{r>=1} [r] w^r / r,
    for 0 <= w < q, DomainError outside.  One form serves every q, q = 1
    included, where it is w/(1 - w), and it stays within 1e-15 relative
    of the exact value as q -> 1 and as w -> q (checked against mpmath
    for q from 1e-300 to 1); for a subnormal q, below about 5.6e-309
    where 1/q overflows, it is within one unit of 5e-324.  This is the
    occupation whose sum over modes gives the q-deformed state functions;
    it differs from b_occupation by the finite factor
    (1/q - q)/(2 ln(1/q)) at small occupation.
    """
    qp = q if type(q) is QParam else as_qparam(q)
    w = float(w)
    if w < 0.0:
        raise DomainError(f"mode variable must be nonnegative, got {w!r}")
    return _jd_occupation(qp, w)


def _jd_occupation(qp, w):
    # Sum_{r>=1} [r] w^r / r = -ln(1 - y)/d at a double w >= 0, with
    # d = 1/q - q and y = w d/(1 - q w), so 1 - y = (q - w)/(q (1 - q w))
    q = qp.q
    if not w < q:
        raise DomainError(f"series diverges for w >= q (w={w!r}, q={q!r})")
    # 1 - q w as (1 - w) + w (1 - q): each difference is exact where it
    # could cancel, at w >= 1/2 and at q >= 1/2
    one_minus_qw = (1.0 - w) + w * (1.0 - q)
    x = w / one_minus_qw
    # -2 sinh(ln q) carries the rounding of ln q, |ln q| 2^-53 relative;
    # below q = 1/2 the plain difference, which cannot cancel there, is closer
    d = qp.inv_minus_q if q > 0.5 else qp.q_inv - q
    # below q of about 5.6e-309 1/q overflows, and d = (1 - q^2)/q is
    # applied as its two parts
    finite = d < math.inf
    y = x * d if finite else (x / q) * (1.0 - q * q)
    if y == 0.0:
        # q = 1, w = 0 or an underflow: n is its leading term w/(1 - q w)
        return x
    if y <= 0.5:
        return x * (math.log1p(-y) / -y)
    # w > q/2 here, so q - w is exact
    log = -math.log((q - w) / (q * one_minus_qw))
    return log / d if finite else log * (q / (1.0 - q * q))


def cf_convergent(q, eta, k):
    """k-th convergent of the continued-fraction form of b_occupation.

    Partial numerators follow the pattern 1^2 y, 1^2 y, 2^2 y, 2^2 y,
    3^2 y, ... over denominators 2, 3, 4, ...; this is the standard
    continued fraction of -ln(1 - y).  k = 1 and k = 2 reproduce the
    closed first and second approximants.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"convergent index must be a positive integer, got {k!r}")
    qp = q if type(q) is QParam else as_qparam(q)
    if qp.is_classical_limit:
        return _bose_occupation(float(eta))
    y = _cf_argument(qp, eta)
    pref = 1.0 / (2.0 * qp.ln_q_inv)
    return pref * kernels.cf_convergent_value(y, int(k))


ConvergentPair = collections.namedtuple("ConvergentPair", ("lower", "upper", "exact"))
ConvergentPair.__doc__ = """Two-sided bounds on the exact occupation.

lower <= exact <= upper.  A named tuple, so a grid row unpacks it
without attribute lookups.
"""


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
    1/q; it is valid on the whole domain e^eta > 1/q, y < 1.  The second
    convergent itself remains available as cf_convergent(q, eta, 2).
    In the classical limit y -> 0 and all three values collapse onto the
    Bose occupation.

    ``exact`` is b_occupation(q, eta) bit for bit.  The three doubles
    are strictly ordered, lower < exact < upper, while y >= 1e-15, that
    is for e^eta <= q + 1e15 (1/q - q) (checked on dense grids for q from
    0.05 to 1 - 1e-9).  For smaller y, exact - lower ~ pref y^2/2 falls
    below one ulp of lower, rounding can put the closed form an ulp
    outside the bounds, and it is clamped into them: the bounds are
    then ordered, lower <= exact <= upper, but not strict.  Once
    1 - y rounds to 1 (y < 2^-54, which every eta > 700 meets for q above
    about e^-663) all three are the same product pref * y.
    """
    qp = q if type(q) is QParam else as_qparam(q)
    if qp.is_classical_limit:
        bose = _bose_occupation(float(eta))
        return _new_tuple(ConvergentPair, (bose, bose, bose))
    return _bounded_occupation(qp, _cf_argument(qp, eta))


def _bounded_occupation(qp, y):
    # pref y, pref y/(1 - y) and the closed form -pref ln(1 - y), clamped
    # into the two: where y < 1e-15 it can round an ulp outside them
    two_log = 2.0 * qp.ln_q_inv
    lower = (1.0 / two_log) * y
    upper = lower / (1.0 - y)
    exact = -math.log1p(-y) / two_log
    if exact > upper:
        exact = upper
    elif exact < lower:
        exact = lower
    return _new_tuple(ConvergentPair, (lower, upper, exact))


def b_occupation_rows(q, etas):
    """Rows (eta, n_exact, n_jd, n_lower, n_upper) of a B occupation grid.

    n_lower, n_upper and n_exact come from one cf_bounds(q, eta) call
    per row and n_jd is b_occupation_jd(q, e^-eta), bit for bit.  The
    first eta outside the domain of either raises DomainError.
    """
    qp = as_qparam(q)
    rows = []
    for eta in etas:
        # cf_bounds is read from the module at each call, so a wrapper put
        # on distributions.cf_bounds sees every row
        lower, upper, exact = cf_bounds(qp, eta)
        rows.append((eta, exact, _jd_occupation(qp, math.exp(-eta)), lower, upper))
    return rows


def bounds_rows(q, etas):
    """Rows (eta, n_lower, n_second, n_upper, n_exact, width) of a bounds grid.

    n_lower, n_upper and n_exact come from one cf_bounds(q, eta) call per
    row, n_second is cf_convergent(q, eta, 2) and width is
    n_upper - n_lower, all bit for bit.
    """
    qp = as_qparam(q)
    classical = qp.is_classical_limit
    if not classical:
        pref = 1.0 / (2.0 * qp.ln_q_inv)
    rows = []
    for eta in etas:
        lower, upper, exact = cf_bounds(qp, eta)
        if classical:
            second = exact
        else:
            # cf_convergent(q, eta, 2): the recurrence of
            # kernels.cf_convergent_value stops at k = 2 with 2y/(2 - y)
            y = _cf_argument(qp, eta)
            second = pref * (2.0 * y / (2.0 - y))
        rows.append((eta, lower, second, upper, exact, upper - lower))
    return rows


def f_occupation(q, eta):
    """F-family occupation (1/q)/(e^eta + 1/q) = 1/(q e^eta + 1).

    Total in eta; Fermi-Dirac at q = 1; value (1/q)/(1 + 1/q) >= 1/2 at
    eta = 0; tends to the step function as |eta| grows for every q.
    """
    qp = q if type(q) is QParam else as_qparam(q)
    return _f_occupation(qp.q, float(eta))


def _f_occupation(q, eta):
    if eta >= 0.0:
        # e^-eta form: total for arbitrarily large eta
        t = math.exp(-eta)
        return t / (q + t)
    if eta < 0.0:
        return 1.0 / (q * math.exp(eta) + 1.0)
    raise DomainError("eta must not be NaN")


def f_occupation_arcsin(q, eta):
    """Arcsine form (2/pi) arcsin(sqrt g), g = 1/(q e^eta + 1).

    Identical to f_occupation on the two-state spectrum where
    sin^2(n pi/2) takes only the values 0 and 1.
    """
    return _arcsin_form(f_occupation(q, eta))


def _arcsin_form(g):
    return _TWO_OVER_PI * math.asin(math.sqrt(g))


def f_occupation_rows(q, etas):
    """Rows (eta, n_exact, n_arcsin) of an F occupation grid.

    f_occupation and f_occupation_arcsin at each eta, bit for bit; the
    arcsine form is taken from the n_exact of its row.
    """
    q = as_qparam(q).q
    return [(eta, n := _f_occupation(q, eta), _arcsin_form(n)) for eta in etas]


def classical_limit_rows():
    """The q -> 1 regression of both families against Bose and Fermi statistics.

    Rows (family, q, eta, value, reference, error, tolerance), family "b"
    or "f", at eta = 0.5, 1, 2, 4 and q = 1, 1 - 1e-9: the occupation,
    its limit 1/(e^eta -+ 1), and their difference.  At q = 1 the error
    is absolute and its tolerance 1e-14; at q = 1 - 1e-9 it is relative
    and its tolerance 1e-6.  A row passes where error < tolerance.
    """
    rows = []
    for family, occupation, limit in (
            ("b", b_occupation, lambda eta: 1.0 / math.expm1(eta)),
            ("f", f_occupation, lambda eta: 1.0 / (math.exp(eta) + 1.0))):
        for eta in (0.5, 1.0, 2.0, 4.0):
            reference = limit(eta)
            for q, tolerance, scale in ((1.0, 1e-14, 1.0),
                                        (1.0 - 1e-9, 1e-6, abs(reference))):
                value = occupation(q, eta)
                rows.append((family, q, eta, value, reference,
                             abs(value - reference) / scale, tolerance))
    return rows
