"""Generalized zeta functions for the two statistics families, from one polylogarithm.

The boson-like family uses g(q, z, order) = Sum_r [r]_q z^r / r^(order+1).
Since [r]_q z^r = ((q z)^r - (z/q)^r)/(q - 1/q), it is a difference of
two polylogarithms,

    g(q, z, order) = (Li_{order+1}(q z) - Li_{order+1}(z/q)) / (q - 1/q),

and Li_order(z) at q = 1 (the [r] cancels one power of r).  The
fermion-like family uses f(x, order) = Sum_r (-1)^(r+1) x^r / r^order =
-Li_order(-x) in the combined argument x = z/q.

`polylog` evaluates Li_s(x) for 0 < x <= 1 at a fixed cost: the direct
series for x <= 1/2 and, above, the mu = ln x series

    Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + Sum_k zeta(s-k) mu^k / k!

(D. C. Wood, The Computation of Polylogarithms, 1992; R. Crandall, Note
on fast polylogarithm computation, 2006), with zeta taken from the
Dirichlet eta kernel and, for s <= 0, the functional equation.  As
q -> 1 the difference behind g cancels, so there g is formed as a
divided difference of the same series, whose terms do not cancel.  That
form holds up to the last double below 1, so g branches to Li_order(z)
at the point q = 1 alone, not on the band |q - 1| < 1e-12 of
`QParam.is_classical_limit`, where z must still stay below q.

`fermi_f` branches on x: the alternating series for x <= 1 and, for
x > 1, where that series diverges, the Fermi integral, split at the
Fermi level mu = ln x,

    f = (1/Gamma(s)) [mu^s/s + Int_0^inf (mu+u)^(s-1)/(e^u+1) du
                             - Int_0^mu (mu-u)^(s-1)/(e^u+1) du],

and each integral is a fixed 121-node tanh-sinh rule (`quad`), summed
by math.fsum over the weighted integrand at the nodes; the rule over
[0, 60] carries 1/(e^u + 1) in weights built once at import.  The
degenerate (large ln x) regime is also covered by an asymptotic
expansion whose first correction has coefficient pi^2/8.
"""

import functools
import math

from . import kernels
from .errors import DomainError
from .qcore import as_qparam
from .units import NATURAL

SOMMERFELD_MAX_TERMS = 8

_LN2 = math.log(2.0)
# zeta(s-k)/k! terms of the mu-series: where it is used |mu| <= ln 2 + 2 tau
# < 1.2, and the terms fall like (|mu|/2 pi)^k, below 1e-20 after 32
_MU_SERIES_TERMS = 32
# for tau = ln(1/q) below this, g is a divided difference; above it the
# plain difference loses at most a factor coth(tau) ~ 4 to cancellation
_DIVIDED_DIFFERENCE_TAU = 0.25
# tanh-sinh rule: nodes t = k h, |k| <= 60, h = 1/16; the Fermi integrands
# are cut at u = 60, where 1/(e^u + 1) < 1e-26
_TS_STEP = 1.0 / 16.0
_TS_HALF_NODES = 60
_FERMI_CUTOFF = 60.0


def _tanh_sinh_rule():
    # u/length = (1 + tanh y)/2 and (length - u)/length = (1 - tanh y)/2 with
    # y = (pi/2) sinh t, each formed without cancellation near its endpoint
    left, right, weight = [], [], []
    for k in range(-_TS_HALF_NODES, _TS_HALF_NODES + 1):
        t = _TS_STEP * k
        y = 0.5 * math.pi * math.sinh(t)
        left.append(1.0 / (1.0 + math.exp(-2.0 * y)))
        right.append(1.0 / (1.0 + math.exp(2.0 * y)))
        weight.append(_TS_STEP * 0.25 * math.pi * math.cosh(t) / math.cosh(y) ** 2)
    return tuple(left), tuple(right), tuple(weight)


_TS_LEFT, _TS_RIGHT, _TS_WEIGHT = _tanh_sinh_rule()


def quad_nodes(length):
    """The 121-node tanh-sinh rule on [0, length]: weights, nodes u, rest = length - u.

    The weights are those of the rule on [0, 1]; `quad` scales the sum
    by length.  u and rest are both at full relative precision, so an
    endpoint singularity at either end is evaluated at its exact distance.
    """
    return (_TS_WEIGHT, tuple([length * left for left in _TS_LEFT]),
            tuple([length * right for right in _TS_RIGHT]))


def quad(weighted, length):
    """Int_0^length by the fixed 121-node tanh-sinh rule.

    ``weighted`` holds the integrand times the weight at each node of
    `quad_nodes(length)`; a factor of the integrand that is the same on
    every call may be folded into the weights once.  The sum is math.fsum.
    """
    return length * math.fsum(weighted)


# the Fermi integrals over [0, 60], the same for every x: the nodes u and
# rest = 60 - u, and the weights times 1/(e^u + 1)
_, _CUT_NODES, _CUT_REST = quad_nodes(_FERMI_CUTOFF)
_CUT_FERMI_WEIGHT = tuple(w / (math.exp(u) + 1.0)
                          for w, u in zip(_TS_WEIGHT, _CUT_NODES))


def _zeta(s):
    # Riemann zeta at real s != 1: eta(s)/(1 - 2^(1-s)) for s > 0, else
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    if s > 0.0:
        return kernels.f_series_sum(1.0, s) / -math.expm1((1.0 - s) * _LN2)
    if s == 0.0:
        return -0.5
    if s % 2.0 == 0.0:
        return 0.0  # trivial zeros
    return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
            * math.gamma(1.0 - s) * _zeta(1.0 - s))


def _is_pole_order(s):
    # Gamma(1-s) and zeta(s-k) at k = s-1 have poles at a positive integer s
    return s >= 1.0 and s == math.floor(s)


@functools.lru_cache(maxsize=64)
def _mu_series_coefficients(s):
    # zeta(s-k)/k!, k < _MU_SERIES_TERMS; at a positive integer s the k = s-1
    # entry is 0 and its pole pair becomes the log term of _singular_term
    coeffs = []
    factorial = 1.0
    for k in range(_MU_SERIES_TERMS):
        if k:
            factorial *= k
        coeffs.append(0.0 if s - k == 1.0 else _zeta(s - k) / factorial)
    return tuple(coeffs)


def _singular_term(s, mu):
    # Gamma(1-s) (-mu)^(s-1), or mu^m/m! (H_m - ln(-mu)) for s = m + 1 a
    # positive integer; mu <= 0, and mu = 0 only for s > 1, where it is 0
    if mu == 0.0:
        return 0.0
    if not _is_pole_order(s):
        return math.gamma(1.0 - s) * (-mu) ** (s - 1.0)
    m = int(s) - 1
    harmonic = sum(1.0 / j for j in range(1, m + 1))
    return mu ** m / math.factorial(m) * (harmonic - math.log(-mu))


def _singular_divided_difference(s, a, b):
    # (_singular_term(s, a) - _singular_term(s, b))/(a - b) for a < b <= 0,
    # with A = -a > B = -b >= 0 and d = A - B
    big, small = -a, -b
    d = big - small
    if not _is_pole_order(s):
        p = s - 1.0
        if small > d:
            diff = small ** p * math.expm1(p * math.log1p(d / small))
        else:
            diff = big ** p - small ** p
        return -math.gamma(1.0 - s) * diff / d
    m = int(s) - 1
    harmonic = sum(1.0 / j for j in range(1, m + 1))
    h_m = sum(a ** j * b ** (m - 1 - j) for j in range(m))  # (a^m - b^m)/(a - b)
    tail = b ** m * math.log1p(d / small) / d if small > 0.0 else 0.0
    return (h_m * (harmonic - math.log(big)) + tail) / math.factorial(m)


def polylog(s, x):
    """Li_s(x) = Sum_{r>=1} x^r / r^s for real s > 0 and 0 < x <= 1.

    x = 1 needs s > 1 and gives zeta(s).  The direct series runs for
    x <= 1/2 and the mu = ln x series above; both have a fixed cost.
    Within about 1e-3 of a positive integer s the two singular parts of
    the mu-series cancel and the relative error grows like 1e-16/|s - n|;
    an integer s itself is exact to double precision.
    """
    if not s > 0.0:
        raise DomainError(f"polylog order must be positive, got {s!r}")
    if not 0.0 < x <= 1.0 or (x == 1.0 and s <= 1.0):
        raise DomainError(f"polylog needs 0 < x <= 1 (x < 1 for s <= 1), got "
                          f"x={x!r}, s={s!r}")
    if x <= 0.5:
        return kernels.g_series_sum(x, s)
    mu = math.log(x)
    total = 0.0
    for c in reversed(_mu_series_coefficients(s)):
        total = total * mu + c
    return total + _singular_term(s, mu)


def _polylog_divided_difference(s, a, b):
    # (Li_s(e^a) - Li_s(e^b))/(a - b) for -1.2 < a < b <= 0 by the mu-series;
    # h = (a^k - b^k)/(a - b) sums a^j b^(k-1-j), terms of one sign
    total = 0.0
    h = 0.0
    b_power = 1.0
    for c in _mu_series_coefficients(s):
        total += c * h
        h = a * h + b_power
        b_power *= b
    return total + _singular_divided_difference(s, a, b)


def _bose_g(qp, z, order):
    # g(q, z, order) for 0 < z <= q (z = q gives the supremum g(q, q, order));
    # q = 1 is the one q where tau/sinh(tau) below is 0/0
    if qp.q == 1.0:
        return polylog(order, z)
    s = order + 1.0
    tau = -math.log(qp.q)
    if tau >= _DIVIDED_DIFFERENCE_TAU:
        return (polylog(s, qp.q * z) - polylog(s, z / qp.q)) / -qp.inv_minus_q
    # q -> 1: with a = ln(qz), b = ln(z/q), a - b = -2 tau and q - 1/q =
    # -2 sinh tau, so g is the divided difference times tau/sinh(tau)
    # ln z + tau is good to about 1e-22 for z/q near 1, unlike ln(z/q); it
    # can round above 0 for z within an ulp of q, where g is the supremum
    b = min(math.log(z) + tau, 0.0)
    if b <= -_LN2:
        return kernels.gq_series_sum(z, tau, order)
    return _polylog_divided_difference(s, b - 2.0 * tau, b) * (tau / math.sinh(tau))


def bose_g(q, z, order):
    """g(q, z, order) = Sum_{r>=1} [r]_q z^r / r^(order+1).

    Parameters
    ----------
    q : float or QParam
        Statistics parameter in (0, 1].
    z : float
        Fugacity; must satisfy 0 < z < q so the z/q sub-series converges.
    order : float
        Series order > 0, typically 3/2 or 5/2.

    Returns
    -------
    float
        The sum, from the polylogarithm core at a fixed cost; within
        1e-13 (relative) of the exact value on the whole domain, z -> q
        and q -> 1 included, for the half-integer orders.
    """
    qp = as_qparam(q)
    z = float(z)
    order = float(order)
    if not z > 0.0:
        raise DomainError(f"fugacity must be positive, got {z!r}")
    if not order > 0.0:
        raise DomainError(f"order must be positive, got {order!r}")
    if z >= qp.q:
        raise DomainError(
            f"series requires z < q (got z={z!r}, q={qp.q!r}); "
            "the z/q sub-series diverges otherwise"
        )
    return _bose_g(qp, z, order)


def bose_g_supremum(q, order):
    """g(q, q, order), the limit of g as z -> q.

    (Li_{order+1}(q^2) - zeta(order+1))/(q - 1/q), and zeta(order) at
    q = 1, where it is finite only for order > 1.
    """
    qp = as_qparam(q)
    order = float(order)
    if not order > (1.0 if qp.q == 1.0 else 0.0):
        raise DomainError(f"g(q, q, {order!r}) diverges at q={qp.q!r}")
    return _bose_g(qp, qp.q, order)


def fermi_f(x, order):
    """f(x, order) = Sum_{r>=1} (-1)^(r+1) x^r / r^order, continued to x > 1.

    Parameters
    ----------
    x : float
        Combined argument z/q, any positive value.
    order : float
        Series order > 0.

    The accelerated alternating series for x <= 1, the Fermi integral by
    the fixed tanh-sinh rule above; both are within 1e-13 (relative) of
    the exact value for the half-integer orders, and continuity across
    x = 1 is part of the test suite.
    """
    x = float(x)
    order = float(order)
    if not x > 0.0:
        raise DomainError(f"argument must be positive, got {x!r}")
    if not order > 0.0:
        raise DomainError(f"order must be positive, got {order!r}")
    if x <= 1.0:
        return kernels.f_series_sum(x, order)
    return _fermi_integral(x, order)


def _fermi_integral(x, order):
    # x > 1, so the Fermi level mu = ln x is positive
    p = order - 1.0
    mu = math.log(x)
    above = quad([w * (mu + u) ** p
                  for w, u in zip(_CUT_FERMI_WEIGHT, _CUT_NODES)], _FERMI_CUTOFF)
    if mu >= _FERMI_CUTOFF:
        # the lower integral is cut at u = 60 too, and rest becomes rest + shift
        shift = mu - _FERMI_CUTOFF
        below = quad([w * (rest + shift) ** p
                      for w, rest in zip(_CUT_FERMI_WEIGHT, _CUT_REST)], _FERMI_CUTOFF)
    else:
        # the nodes of quad_nodes(mu), formed inline
        exp = math.exp
        below = quad([w * (mu * right) ** p / (exp(mu * left) + 1.0) for w, left, right
                      in zip(_TS_WEIGHT, _TS_LEFT, _TS_RIGHT)], mu)
    return (mu ** order / order + above - below) / math.gamma(order)


def sommerfeld_density_factor(ln_x, terms):
    """Degenerate-limit density bracket (ln x)^(3/2) (1 + pi^2/8 (ln x)^-2 + ...).

    ``terms`` counts bracket terms including the leading 1; the general
    term j carries 2 eta(2j) (3/2)(1/2)...(3/2 - 2j + 1) (ln x)^(-2j),
    which gives pi^2/8 for j = 1.  The expansion is asymptotic; at most
    SOMMERFELD_MAX_TERMS terms are supported.
    """
    ln_x = float(ln_x)
    if not ln_x > 0.0:
        raise DomainError(f"degenerate expansion requires ln x > 0, got {ln_x!r}")
    if terms < 1 or terms > SOMMERFELD_MAX_TERMS:
        raise DomainError(f"terms must be in 1..{SOMMERFELD_MAX_TERMS}, got {terms!r}")
    s = 1.5
    bracket = 1.0
    falling = 1.0
    for j in range(1, terms):
        falling *= (s - (2 * j - 2)) * (s - (2 * j - 1))
        bracket += 2.0 * kernels.f_series_sum(1.0, 2 * j) * falling * ln_x ** (-2 * j)
    return ln_x ** 1.5 * bracket


def thermal_wavelength(mass, temperature, units=NATURAL):
    """Thermal de Broglie wavelength h / sqrt(2 pi m k T)."""
    mass = float(mass)
    temperature = float(temperature)
    if not mass > 0.0 or not temperature > 0.0:
        raise DomainError("mass and temperature must be positive")
    return units.h / math.sqrt(2.0 * math.pi * mass * units.k * temperature)
