"""Equations of state for the two anyon gas families.

State functions follow the ideal-gas structure U = (3/2) P V with the
generalized zeta functions supplying the q dependence:

    B family:  P = (kT/lam^3) g(q, z, 5/2),   N/V = g(q, z, 3/2)/lam^3
    F family:  P = gs (kT/lam^3) f(z/q, 5/2), N/V = gs f(z/q, 3/2)/lam^3

with lam = h/sqrt(2 pi m k T) the thermal wavelength and gs the
multiplicity.  h and k enter only through lam and k T, in natural units
h = k = 1 unless `b_state` and `f_state` are given others, SI among them.
A given density is turned into a fugacity by a Brent-Dekker solve in
ln(z/q) on a bracket from closed-form bounds.  Virial coefficients come
from Lagrange inversion of the density series in x = z/q, summed in
stdlib decimal at a precision raised until the sum's own conditioning
leaves every coefficient correct to a double.

`decimal` is imported inside the virial code, so that the eos command
does not load it.
"""

import collections
import functools
import math
import sys
from operator import mul

from .errors import ConvergenceError, DomainError
from .qcore import Family, as_family, as_qparam, jackson_derivative
from .qfunctions import bose_g, bose_g_supremum, fermi_f

FUGACITY_REL_TOL = 1e-12
FUGACITY_MAX_ITER = 200
FUGACITY_POLISH_STEPS = 16
# largest ln x for which x = z/q, and so z, is a finite double
_LN_X_MAX = math.log(sys.float_info.max)
_GAMMA_5_2 = math.gamma(2.5)
# widens the bracket in u past the rounding of the bounds it comes from
_BRACKET_SLACK = 1e-12
# Brent stops when the bracket in u is narrower than XTOL + RTOL |u|
_BRENT_XTOL = 1e-20
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
# a double is fixed by 17 significant digits; the guard digits cover the
# rounding that builds up over the O(K^3) products of the virial sum
_DOUBLE_DIGITS = 17
_VIRIAL_GUARD_DIGITS = 5
# the virial sum starts at 34 digits and at least doubles them each pass;
# the cap ends the loop should some b_n be exactly 0 or its scale overflow
_VIRIAL_START_DIGITS = 34
_VIRIAL_MAX_DIGITS = 34 * 2 ** 6


StateFunctions = collections.namedtuple("StateFunctions", (
    "pressure", "internal_energy", "entropy", "number_density", "grand_potential",
    "fugacity", "thermal_wavelength"))
StateFunctions.__doc__ = (
    "Equation-of-state outputs; extensive quantities use the given volume.")


def _check_positive(**values):
    for name, value in values.items():  # in the order given
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def thermal_wavelength(mass, temperature, h=1.0, k=1.0):
    """Thermal de Broglie wavelength h / sqrt(2 pi m k T), all four positive and finite."""
    mass = float(mass)
    temperature = float(temperature)
    _check_positive(mass=mass, temperature=temperature, h=h, k=k)
    return h / math.sqrt(2.0 * math.pi * mass * k * temperature)


def b_state(q, z, temperature, *, mass=1.0, volume=1.0, h=1.0, k=1.0):
    """State functions of the boson-like gas at fugacity 0 < z < q; no spin factor.

    ``h`` and ``k`` are the Planck and Boltzmann constants, natural units by
    default.  Temperature, mass, volume, h and k must be positive and finite.
    """
    qp = as_qparam(q)
    _check_positive(temperature=temperature, mass=mass, volume=volume, h=h, k=k)
    z = float(z)
    return _state(z, bose_g(qp, z, 2.5), bose_g(qp, z, 1.5), 1.0,
                  temperature, mass, volume, h, k)


def f_state(q, z, temperature, *, mass=1.0, volume=1.0, multiplicity=1, h=1.0,
            k=1.0):
    """State functions of the fermion-like gas, any fugacity > 0 whose z/q is finite.

    The multiplicity gs, a positive integer, is the spin degeneracy
    factor: it scales every extensive quantity (it multiplies the mode
    sum).  The other inputs are those of `b_state`.
    """
    q = as_qparam(q).q
    _check_positive(temperature=temperature, mass=mass, volume=volume, h=h, k=k)
    # a NaN fails the first test, and 2.5 and inf the second (inf % 1 is NaN)
    if not (multiplicity >= 1 and multiplicity % 1 == 0):
        raise DomainError(
            f"multiplicity must be a positive integer, got {multiplicity!r}")
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"fugacity must be positive, got {z!r}")
    x = z / q
    if x == math.inf:
        raise DomainError(
            f"fugacity {z!r} puts z/q beyond the largest double at q={q!r}; "
            f"the largest fugacity allowed is {q * sys.float_info.max!r}")
    return _state(z, fermi_f(x, 2.5), fermi_f(x, 1.5), float(multiplicity),
                  temperature, mass, volume, h, k)


def _state(z, zeta52, zeta32, gs, temperature, mass, volume, h, k):
    # the ideal-gas state functions of both families from zeta(5/2) and
    # zeta(3/2), zeta(s) = g(q, z, s) for B and f(z/q, s) for F; gs = 1
    # multiplies exactly, so B gets the same doubles as without the factor.
    # k T and lam^3, which they multiply and divide by, must be finite and
    # lam^3 a positive finite double
    kt = k * temperature
    if not kt < math.inf:
        raise DomainError(f"k T is {kt!r} at k={k!r}, T={temperature!r}; "
                          "bring k T below the largest double")
    lam = thermal_wavelength(mass, temperature, h, k)
    try:
        lam3 = lam ** 3
    except OverflowError:
        lam3 = math.inf
    if not 0.0 < lam3 < math.inf:
        raise DomainError(f"lam^3 = (h^2/(2 pi m k T))^(3/2) is {lam3!r} at m={mass!r}, "
                          f"T={temperature!r}, h={h!r}, k={k!r}; "
                          "bring m k T / h^2 closer to 1")
    pressure = gs * kt * zeta52 / lam3
    return StateFunctions(
        pressure=pressure,
        internal_energy=1.5 * pressure * volume,
        entropy=volume * gs * k / lam3 * (2.5 * zeta52 - zeta32 * math.log(z)),
        number_density=gs * zeta32 / lam3,
        grand_potential=-pressure * volume,
        fugacity=z,
        thermal_wavelength=lam,
    )


def b_density_supremum(q):
    """Largest reachable lam^3 N/V for the B family (condensation analog).

    The exact boundary value g(q, q, 3/2) = (Li_{5/2}(q^2) - zeta(5/2)) /
    (q - 1/q), and zeta(3/2) at q = 1; densities at or above it have no
    fugacity solution.
    """
    return bose_g_supremum(q, 1.5)


def brentq(f, a, b):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent-Dekker: inverse quadratic or secant steps, with a bisection
    whenever a step would not shrink the bracket fast enough.  Stops when
    the bracket is narrower than 1e-20 + 4 eps |x|; raises
    ConvergenceError if the endpoints do not bracket a root or after
    FUGACITY_MAX_ITER evaluations.
    """
    x_pre, x_cur = a, b
    f_pre, f_cur = f(a), f(b)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise ConvergenceError(f"no sign change of f on [{a!r}, {b!r}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(FUGACITY_MAX_ITER):
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre  # the far end of the bracket
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):  # keep the best estimate in x_cur
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (_BRENT_XTOL + _BRENT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        interpolated = False
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                # the product underflows to 0 where f is tiny (a B density
                # below about 1e-104); an infinite trial takes the bisection
                denominator = d_blk * d_pre * (f_blk - f_pre)
                trial = (-f_cur * (f_blk * d_blk - f_pre * d_pre) / denominator
                         if denominator else math.inf)
            interpolated = 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        if interpolated:
            s_pre, s_cur = s_cur, trial
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise ConvergenceError(
        f"Brent solve not converged after {FUGACITY_MAX_ITER} evaluations")


def solve_fugacity(family, q, target_density):
    """Invert the density relation for z on the monotone branch.

    Solved in u = ln(z/q) by `brentq` on a bracket from closed-form
    bounds; the result is the double z whose relative density residual is
    at most 1e-12 or, where one ulp of z moves the density by more (z -> q
    as q -> 1), the double z with the smallest residual.

    B family: g(q, z, 3/2) = target with z in (0, q).  With S the exact
    supremum (`b_density_supremum`), g(z) >= z and g(z)/z <= S/q put u in
    [ln(target/S), min(ln(target/q), 0)]; a target at or above S, or
    above g at the largest double below q, raises DomainError.  F family:
    f(z/q, 3/2) = target.  f(x) <= x and f(e^mu) >= mu^(3/2)/Gamma(5/2)
    put u in [ln target, (Gamma(5/2) target)^(2/3)]; a target whose z/q
    would pass the largest double raises DomainError naming the largest
    density allowed.
    """
    family = as_family(family)
    qp = as_qparam(q)
    target = float(target_density)
    if not 0.0 < target < math.inf:
        raise DomainError(f"target density must be positive and finite, got {target!r}")
    q_top = qp.q
    # density is cached per z: the polish starts at Brent's last z, and
    # Brent can start at the z_top the range check evaluated
    if family is Family.B:
        supremum = b_density_supremum(qp)
        if target >= supremum:
            raise DomainError(
                f"density {target!r} exceeds the condensation-analog supremum "
                f"{supremum:.12g} at q={qp.q!r}"
            )
        z_top = math.nextafter(q_top, 0.0)
        density = functools.cache(lambda z: bose_g(qp, z, 1.5))
        lo = math.log(target / supremum) - _BRACKET_SLACK
        hi = min(math.log(target / q_top) + _BRACKET_SLACK, 0.0)
        if hi == 0.0 and density(z_top) < target:
            raise DomainError(
                f"density {target!r} lies within {supremum - target:.3g} of the "
                f"supremum at q={qp.q!r}, closer than any double z < q reaches"
            )
    else:
        z_top = q_top * math.exp(_LN_X_MAX)
        density = functools.cache(lambda z: fermi_f(z / q_top, 1.5))
        lo = math.log(target) - _BRACKET_SLACK
        hi = min((_GAMMA_5_2 * target) ** (2.0 / 3.0), _LN_X_MAX)
        if hi == _LN_X_MAX and density(z_top) < target:
            raise DomainError(
                f"density {target!r} needs z/q beyond the largest double; the "
                f"largest density allowed is {density(z_top):.12g}"
            )
    fugacity = lambda u: min(q_top * math.exp(u), z_top)
    u = brentq(lambda u: density(fugacity(u)) - target, lo, hi)
    return _closest_fugacity(density, fugacity(u), z_top, target)


def _closest_fugacity(density, z, z_top, target):
    # step z by ulps, at most FUGACITY_POLISH_STEPS, until the residual meets
    # the tolerance or no neighbouring double is closer (density increases in z)
    residual = density(z) - target
    for _ in range(FUGACITY_POLISH_STEPS):
        if abs(residual) <= FUGACITY_REL_TOL * target:
            return z
        z_next = math.nextafter(z, 0.0 if residual > 0.0 else z_top)
        next_residual = density(z_next) - target
        if abs(next_residual) >= abs(residual):
            return z
        z, residual = z_next, next_residual
    raise ConvergenceError(
        f"fugacity solve stalled: residual {residual:.3e} at z={z!r}"
    )


class VirialCoefficients(list):
    """b_1..b_K as doubles, with the decimal precision they were summed at."""

    def __init__(self, coefficients, working_digits):
        super().__init__(coefficients)
        self.working_digits = working_digits


def _density_per_x(family, q, order):
    # density coefficients rho_1..rho_order in x = z/q at the context
    # precision, rho_1 = 1.  B: g(q, z, 3/2) = q Sum_r c_r x^r / r^(5/2)
    # with c_r = [r]_q q^(r-1) = 1 + q^2 + ... + q^(2r-2), a positive sum
    # that is r at q = 1.  F: f(x, 3/2) = Sum_r (-1)^(r+1) x^r / r^(3/2)
    from decimal import Decimal

    rho = []
    if family is Family.B:
        q2 = q * q
        weight, step = Decimal(0), Decimal(1)
        for r in range(1, order + 1):
            weight, step = weight + step, step * q2
            rho.append(weight / (r * r * Decimal(r).sqrt()))
    else:
        for r in range(1, order + 1):
            rho.append((1 if r % 2 else -1) / (r * Decimal(r).sqrt()))
    return rho


def _diagonal_over_n(phi, order, zero):
    # [x^(n-1)] phi(x)^(n-1) / n for n = 1..order, meeting in the middle:
    # the coefficient is the dot product of phi^floor((n-1)/2) and
    # phi^ceil((n-1)/2), so only the powers up to order // 2 are built,
    # each truncated at x^(order-1).  zero is the 0 of phi's number type
    powers = [[zero + 1] + [zero] * (order - 1), phi]
    for _ in range(2, order // 2 + 1):
        last = powers[-1]
        powers.append([sum(map(mul, last[:d + 1], reversed(phi[:d + 1])))
                       for d in range(order)])
    out = [zero + 1]
    for n in range(2, order + 1):
        low, high = powers[(n - 1) // 2], powers[n // 2]
        out.append(sum(map(mul, low[:n], reversed(high[:n]))) / n)
    return out


def _virial_scale(phi, order):
    # the sums of _diagonal_over_n over the absolute values of every term,
    # in doubles: rounding at P digits moves b_n by a few 10^-P scale_n
    return _diagonal_over_n([abs(float(c)) for c in phi], order, 0.0)


def _virial_pass(family, q, order):
    # b_n q^(n-1) for n = 1..order at the context precision, and the
    # digits that precision needs for every one of them to be right to a
    # double; |b| >= 10^b.adjusted(), so that overestimates by under one
    from decimal import Decimal

    rho = _density_per_x(family, q, order)
    phi = [Decimal(1)]  # x/rho(x)
    for n in range(1, order):
        phi.append(-sum(rho[k] * phi[n - k] for k in range(1, n + 1)))
    coeffs = _diagonal_over_n(phi, order, Decimal(0))
    needed = max(
        (_DOUBLE_DIGITS + _VIRIAL_GUARD_DIGITS + math.log10(s) - b.adjusted()
         if b else math.inf)
        for b, s in zip(coeffs, _virial_scale(phi, order)))
    return coeffs, needed


def virial_coefficients(family, q, order):
    """Coefficients b_1..b_order of Pv/kT = 1 + b_2 (lam^3/v) + ...

    Lagrange inversion in x = z/q.  In both families the density rho(x)
    and the pressure p(x) satisfy x p'(x) = rho(x), so with
    phi = x/rho(x)

        b_n = (1/n) [x^(n-1)] p'(x) phi(x)^n = (1/n) [x^(n-1)] phi(x)^(n-1),

    in stdlib decimal.  The coefficient [x^(n-1)] phi^(n-1) is the dot
    product of phi^floor((n-1)/2) and phi^ceil((n-1)/2), so only the
    powers up to phi^(order//2) are built, each truncated at
    x^(order-1): about order^3/4 products.  The inputs are built in
    decimal from the exact double q: B has g(q, z, 3/2) = q rho(x) with
    the positive coefficients (1 + q^2 + ... + q^(2r-2))/r^(5/2), which
    are r^(-3/2) at q = 1, and b_n picks up a factor q^(1-n); F has
    f(x, 3/2) = rho(x) with no q at all, so its coefficients are the same
    for every q.  b_1 = 1.0 exactly in both.

    Precision: scale_n is the same sum over the absolute values of every
    term, from the same meet-in-the-middle powers of |phi| in plain
    floats.  The working precision P starts at 34 digits and at least
    doubles each pass until every n has
    P >= 17 + 5 + log10(scale_n/|b_n|); each b_n is then correct to a
    double.  The result is a list of floats whose ``working_digits`` is
    that final P (68 for B at q = 0.5 and order 60, 136 for F at order
    60).  An order whose b_n passes the largest double raises
    DomainError.
    """
    from decimal import Context, Decimal, localcontext

    family = as_family(family)
    qp = as_qparam(q)
    if order < 2:
        raise DomainError(f"virial expansion needs order >= 2, got {order!r}")
    # the q of x = z/q; 1 for F, whose series carry no q.  B takes the
    # exact double q, however close to 1: its coefficients are a positive
    # sum with no 0/0 at q = 1, and they move across |q - 1| < 1e-12
    q_x = Decimal(1 if family is Family.F else qp.q)
    digits = _VIRIAL_START_DIGITS
    while True:
        with localcontext(Context(prec=digits)):
            coeffs, needed = _virial_pass(family, q_x, order)
            if digits >= needed:
                coeffs = [float(b / q_x ** n) for n, b in enumerate(coeffs)]
                break
        digits = max(2 * digits, math.ceil(needed))
        if digits > _VIRIAL_MAX_DIGITS:
            raise ConvergenceError(
                f"virial coefficients need more than {_VIRIAL_MAX_DIGITS} digits "
                f"at family={family.value}, q={qp.q!r}, order={order}")
    beyond = next((n for n, b in enumerate(coeffs, 1) if math.isinf(b)), 0)
    if beyond:
        raise DomainError(f"b_{beyond} is beyond the largest double at q={qp.q!r}; "
                          f"give an order below {beyond} or a larger q")
    return VirialCoefficients(coeffs, digits)


def b_partition_log(spectrum, z, beta):
    """ln Z = -Sum_i ln(1 - z e^(-beta E_i)) over a discrete spectrum.

    Applying z D_q in the fugacity (Jackson derivative) yields the sum
    of b_occupation_jd over the modes; that identity is a library test.
    """
    z = float(z)
    beta = float(beta)
    total = 0.0
    for energy in spectrum:
        w = z * math.exp(-beta * energy)
        if w >= 1.0:
            raise DomainError(
                f"mode at energy {energy!r} has z e^(-beta E) = {w!r} >= 1"
            )
        total -= math.log1p(-w)
    return total


def b_number_from_partition(spectrum, z, beta, q):
    """z D_q(z) ln Z for the B-family partition log (mode-sum occupation)."""
    qp = as_qparam(q)
    return float(z) * jackson_derivative(
        lambda zz: b_partition_log(spectrum, zz, beta), qp, float(z)
    )
