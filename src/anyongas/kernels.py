"""Numeric hot loops behind the zeta functions and the continued fraction.

The direct polylogarithm series Li_s(x) = Sum x^r / r^s for x <= 1/2,
the accelerated alternating sum of the fermion-like family (which at
x = 1 is the Dirichlet eta function), and the convergent recurrence of
the occupation continued fraction, written as plain scalar loops.  Each
loop runs a number of terms fixed by its arguments; none stops on the
size of a term.
"""

import math

ALTERNATING_TERMS = 40
# -ln of the relative size at which a direct-series tail is dropped; the
# tail after n terms is below 2 x^n of the sum, and x^n <= e^-38 = 3e-17
_DIRECT_SERIES_DIGITS = 38.0


def g_series_sum(x, order):
    """Li_order(x) = Sum_{r>=1} x^r / r^order, for 0 < x <= 1/2, order > 0.

    This is the q = 1 value of the boson-like g function.  The series runs
    ceil(38 / ln(1/x)) terms, at most 55, so the dropped tail is below
    1e-16 of the sum.
    """
    terms = math.ceil(_DIRECT_SERIES_DIGITS / -math.log(x))
    s = 0.0
    xr = 1.0
    for r in range(1, terms + 1):
        xr *= x
        s += xr / r ** order
    return s


def gq_series_sum(z, tau, order):
    """Sum_{r>=1} [r]_q z^r / r^(order+1), q = e^-tau, for z/q <= 1/2.

    The basic number is formed as [r]_q = sinh(r tau)/sinh(tau), which
    keeps every digit as q -> 1, where the difference of the two
    polylogarithms behind g cancels.  [r]_q z^r <= r q (z/q)^r, so
    ceil(42 / ln(q/z)) terms leave a tail below 1e-16 of the sum; tau
    must keep sinh(r tau) finite over those terms.
    """
    terms = math.ceil((_DIRECT_SERIES_DIGITS + 4.0) / (-math.log(z) - tau))
    expo = order + 1.0
    sinh_tau = math.sinh(tau)
    s = 0.0
    zr = 1.0
    for r in range(1, terms + 1):
        zr *= z
        s += zr * (math.sinh(r * tau) / sinh_tau) / r ** expo
    return s


def f_series_sum(x, order):
    """Accelerated alternating sum Sum_{r>=1} (-1)^(r+1) x^r / r^order.

    Chebyshev-weighted acceleration (Cohen, Rodriguez Villegas, Zagier);
    the error decays like (3 + sqrt 8)^(-40) over its 40 terms, so it
    reaches double precision on the whole domain 0 < x <= 1, including
    the conditionally convergent endpoint x = 1, where the sum is the
    Dirichlet eta function eta(order).
    """
    n = ALTERNATING_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    xk = 1.0
    for k in range(n):
        c = b - c
        xk *= x
        s += c * (xk / (k + 1.0) ** order)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
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
