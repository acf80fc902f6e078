"""Numeric hot loops behind the zeta functions and the continued fraction.

The q-series g(q, z, s) = Sum [r]_q z^r / r^(s+1) of the boson-like
family, the accelerated alternating sum of the fermion-like family, and
the convergent recurrence of the occupation continued fraction, written
as plain scalar loops.
"""

import math

from .errors import ConvergenceError

GSERIES_REL_TOL = 1e-15
GSERIES_MAX_TERMS = 1_000_000
ALTERNATING_TERMS = 40


def g_series_sum(q, z, order, rel_tol=GSERIES_REL_TOL, max_terms=GSERIES_MAX_TERMS):
    """Sum_{r>=1} [r]_q z^r / r^(order+1), for 0 < z < q <= 1.

    Terms are added until |term| < rel_tol * |partial sum|; exceeding
    max_terms raises ConvergenceError.  q == 1.0 selects the classical
    branch where [r] = r exactly.
    """
    expo = order + 1.0
    s = 0.0
    if q == 1.0:
        zr = 1.0
        for r in range(1, max_terms + 1):
            zr *= z
            term = zr / r ** order
            s += term
            if abs(term) < rel_tol * abs(s):
                return s
        raise ConvergenceError(
            f"series for (q=1, z={z}, order={order}) not converged "
            f"after {max_terms} terms"
        )
    # [r] z^r = ((q z)^r - (z/q)^r) / (q - 1/q); both bases are < 1 so the
    # iterated powers can neither overflow nor lose the cancellation.
    denom = q - 1.0 / q
    u = q * z
    v = z / q
    ur = 1.0
    vr = 1.0
    for r in range(1, max_terms + 1):
        ur *= u
        vr *= v
        term = ((ur - vr) / denom) / r ** expo
        s += term
        if abs(term) < rel_tol * abs(s):
            return s
    raise ConvergenceError(
        f"series for (q={q}, z={z}, order={order}) not converged "
        f"after {max_terms} terms"
    )


def f_series_sum(x, order, n_terms=ALTERNATING_TERMS):
    """Accelerated alternating sum Sum_{r>=1} (-1)^(r+1) x^r / r^order.

    Chebyshev-weighted acceleration (Cohen, Rodriguez Villegas, Zagier);
    the error decays like (3 + sqrt 8)^(-n_terms), so the default term
    count reaches double precision on the whole domain 0 < x <= 1,
    including the conditionally convergent endpoint x = 1.
    """
    d = (3.0 + math.sqrt(8.0)) ** n_terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    xk = 1.0
    for k in range(n_terms):
        c = b - c
        xk *= x
        s += c * (xk / (k + 1.0) ** order)
        b = (k + n_terms) * (k - n_terms) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def cf_convergent_value(y, k):
    """k-th convergent of y/(1 - 1^2 y/(2 - 1^2 y/(3 - 2^2 y/(4 - ...)))).

    Partial denominators are 1, 2, 3, ...; the partial numerator over
    denominator j >= 2 is -(floor(j/2))^2 y.  Evaluated by the forward
    three-term recurrence, rescaling every 16 levels to avoid overflow.
    """
    a_prev, a_cur = 1.0, 0.0  # A_{-1}, A_0
    b_prev, b_cur = 0.0, 1.0  # B_{-1}, B_0
    for j in range(1, k + 1):
        num = y if j == 1 else -float((j // 2) ** 2) * y
        den = float(j)
        a_prev, a_cur = a_cur, den * a_cur + num * a_prev
        b_prev, b_cur = b_cur, den * b_cur + num * b_prev
        if j % 16 == 0:
            scale = abs(b_cur)
            if scale > 0.0:
                a_prev /= scale
                a_cur /= scale
                b_prev /= scale
                b_cur /= scale
    return a_cur / b_cur
