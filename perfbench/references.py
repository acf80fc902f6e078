"""mpmath references, computed apart from the program at 40 digits.

Every function takes and returns plain floats or tuples of floats, so the
results can be cached by argument and compared with the CLI's output.
The generalized zeta functions are written through the polylogarithm:

    g(q, z, s) = (Li_{s+1}(qz) - Li_{s+1}(z/q)) / (q - 1/q),  Li_s(z) at q = 1
    f(x, s)    = -Li_s(-x)
"""

import functools

import mpmath as mp

DPS = 40


def _mpq(q):
    return mp.mpf(q)


@functools.lru_cache(maxsize=None)
def bose_g(q, z, s):
    """g(q, z, s) = Sum_r [r]_q z^r / r^(s+1)."""
    with mp.workdps(DPS):
        q, z = _mpq(q), mp.mpf(z)
        if q == 1:
            return float(mp.polylog(s, z))
        return float((mp.polylog(s + 1, q * z) - mp.polylog(s + 1, z / q))
                     / (q - 1 / q))


@functools.lru_cache(maxsize=None)
def fermi_f(x, s):
    """f(x, s) = -Li_s(-x) for any x > 0."""
    with mp.workdps(DPS):
        return float(-mp.re(mp.polylog(s, -mp.mpf(x))))


@functools.lru_cache(maxsize=None)
def b_supremum(q):
    """Exact B density supremum g(q, q, 3/2) = (Li_{5/2}(q^2) - zeta(5/2))/(q - 1/q)."""
    with mp.workdps(DPS):
        q = _mpq(q)
        if q == 1:
            return float(mp.zeta(1.5))
        return float((mp.polylog(2.5, q * q) - mp.zeta(2.5)) / (q - 1 / q))


def thermal_wavelength(mass, temperature, h=1.0, k=1.0):
    """h / sqrt(2 pi m k T)."""
    with mp.workdps(DPS):
        return float(mp.mpf(h) / mp.sqrt(2 * mp.pi * mass * k * mp.mpf(temperature)))


def b_occupation(q, eta):
    """Closed form -ln(1 - y)/(2 ln(1/q)) with y = (1/q - q)/(e^eta - q)."""
    with mp.workdps(DPS):
        q, eta = _mpq(q), mp.mpf(eta)
        y = (1 / q - q) / (mp.exp(eta) - q)
        return float(-mp.log1p(-y) / (2 * mp.log(1 / q)))


def b_occupation_bounds(q, eta):
    """(lower, upper) = (pref y, pref y/(1 - y)) with pref = 1/(2 ln(1/q))."""
    with mp.workdps(DPS):
        q, eta = _mpq(q), mp.mpf(eta)
        y = (1 / q - q) / (mp.exp(eta) - q)
        pref = 1 / (2 * mp.log(1 / q))
        return float(pref * y), float(pref * y / (1 - y))


def b_occupation_jd(q, eta):
    """(ln(1 - w/q) - ln(1 - q w))/(q - 1/q) at w = e^-eta."""
    with mp.workdps(DPS):
        q = _mpq(q)
        w = mp.exp(-mp.mpf(eta))
        return float((mp.log1p(-w / q) - mp.log1p(-q * w)) / (q - 1 / q))


def f_occupation(q, eta):
    """1/(q e^eta + 1) and its arcsine form (2/pi) arcsin(sqrt n)."""
    with mp.workdps(DPS):
        n = 1 / (_mpq(q) * mp.exp(mp.mpf(eta)) + 1)
        return float(n), float(2 / mp.pi * mp.asin(mp.sqrt(n)))


def _mul(a, b, n):
    out = [mp.mpf(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


@functools.lru_cache(maxsize=None)
def virial(family, q, order):
    """Virial coefficients b_1..b_order by Lagrange inversion, with a scale.

    The density series rho(z) and pressure series p(z) have coefficients
    [r]_q / r^(5/2) and [r]_q / r^(7/2) (B), or (-1)^(r+1) / r^(3/2) and
    (-1)^(r+1) / r^(5/2) in x = z/q (F, so no q dependence).  With
    phi = z / rho(z), b_n = (1/n) [z^(n-1)] p'(z) phi(z)^n.

    Returns (coefficients, scale).  scale_n is the same sum taken over the
    absolute values of every term: it bounds how far round-off in the
    double-precision inputs can move b_n, so |error| / scale_n measures
    the error in units of the problem's own conditioning.
    """
    with mp.workdps(DPS):
        q = _mpq(q)
        if family == "b":
            basic = [mp.mpf(r) if q == 1 else (q ** r - q ** -r) / (q - 1 / q)
                     for r in range(1, order + 1)]
            rho = [basic[r - 1] / mp.mpf(r) ** 2.5 for r in range(1, order + 1)]
            p = [basic[r - 1] / mp.mpf(r) ** 3.5 for r in range(1, order + 1)]
        else:
            rho = [(-1) ** (r + 1) / mp.mpf(r) ** 1.5 for r in range(1, order + 1)]
            p = [(-1) ** (r + 1) / mp.mpf(r) ** 2.5 for r in range(1, order + 1)]
        phi = [1 / rho[0]]  # 1 / (rho(z)/z), coefficients of z^0, z^1, ...
        for n in range(1, order):
            phi.append(-sum(rho[k] * phi[n - k] for k in range(1, n + 1)) / rho[0])
        abs_phi = [abs(c) for c in phi]
        dp = [(k + 1) * p[k] for k in range(order)]
        power = [mp.mpf(1)] + [mp.mpf(0)] * (order - 1)
        abs_power = list(power)
        coeffs, scale = [], []
        for n in range(1, order + 1):
            power = _mul(power, phi, order)
            abs_power = _mul(abs_power, abs_phi, order)
            coeffs.append(float(sum(dp[j] * power[n - 1 - j] for j in range(n)) / n))
            scale.append(float(sum(abs(dp[j]) * abs_power[n - 1 - j]
                                   for j in range(n)) / n))
        return tuple(coeffs), tuple(scale)
