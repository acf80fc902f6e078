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
binary fixed point at the precision `virial_coefficients` accounts for.
"""

import collections
import functools
import math
import sys
from operator import mul

from .errors import ConvergenceError, DomainError
from .qcore import Family, as_count, as_family, as_qparam, jackson_derivative
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
# a pass at P digits sums in fixed point at 2^-bits <= 10^-(P + 5): one
# unit per floor builds up to at most 10^(0.63 - P) n scale_n at orders up
# to 150, so the fixed point costs under one of the 5 guard digits above
_FIXED_POINT_GUARD_DIGITS = 5
_LOG2_10 = math.log2(10.0)
# the virial sum starts at 34 digits, and a pass that stops short is
# followed by one at the most digits a later b_n is predicted to need,
# plus the margin; the cap ends the loop should some b_n be exactly 0 or
# its scale overflow
_VIRIAL_START_DIGITS = 34
_VIRIAL_MARGIN_DIGITS = 3
# the probe, the first pass, may stop short once it holds this many b_n
# and the line through them puts b_order's need more than the slack past
# its digits
_VIRIAL_PROBE_FIT_MIN = 16
_VIRIAL_PROBE_SLACK_DIGITS = 2.5
_VIRIAL_MAX_DIGITS = 2176


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
    default.  Temperature, mass, volume, h and k must be positive and finite,
    and DomainError is raised where the pressure, internal energy, entropy,
    density or grand potential would pass the largest double.
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
    multiplicity = as_count("multiplicity", multiplicity, 1)
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
    state = StateFunctions(
        pressure=pressure,
        internal_energy=1.5 * pressure * volume,
        entropy=volume * gs * k / lam3 * (2.5 * zeta52 - zeta32 * math.log(z)),
        number_density=gs * zeta32 / lam3,
        grand_potential=-pressure * volume,
        fugacity=z,
        thermal_wavelength=lam,
    )
    # each of the first five passes the largest double somewhere in the
    # domain of T, V and m: kT/lam^3 grows like T^(5/2) m^(3/2)
    overflowed = [name for name, value in zip(state._fields[:5], state)
                  if not math.isfinite(value)]
    if overflowed:
        raise DomainError(
            f"the state functions {', '.join(overflowed)} pass the largest double at "
            f"T={temperature!r}, V={volume!r}, m={mass!r}; lower T, V or m")
    return state


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
    """b_1..b_K as doubles, with the precision passes that summed them.

    ``passes`` lists each fixed-point pass as (digits, the n of the b_n it
    stopped at), the kept last pass with None; ``working_digits`` is that
    pass's digits.
    """

    def __init__(self, coefficients, passes):
        super().__init__(coefficients)
        self.passes = passes
        self.working_digits = passes[-1][0]


def _density_per_x(q, order, bits):
    # B density coefficients rho_1..rho_order in x = z/q, ints scaled by
    # 2^bits, rho_1 = 1: g(q, z, 3/2) = q Sum_r c_r x^r / r^(5/2) with
    # c_r = [r]_q q^(r-1) = 1 + q^2 + ... + q^(2r-2), a positive sum that
    # is r at q = 1.  The double q is m/2^k exactly, so each q^(2r) is
    # floored once from the one before, and sqrt(r) 2^bits is isqrt(r 4^bits)
    m, d = q.as_integer_ratio()
    m2, k2 = m * m, 2 * (d.bit_length() - 1)
    rho = []
    weight, step = 0, 1 << bits
    for r in range(1, order + 1):
        weight, step = weight + step, step * m2 >> k2
        rho.append((weight << bits) // (r * r * math.isqrt(r << 2 * bits)))
    return rho


def _diagonal_over_n(phi, order, shift=0):
    # yields [x^(n-1)] phi(x)^(n-1) for n = 1..order, the n b_n q^(n-1) of
    # the virial sum before it is divided by n.  It meets in the middle:
    # the coefficient is the dot product of phi^floor((n-1)/2) and
    # phi^ceil((n-1)/2), so only the powers up to order // 2 are built.
    # They grow together one degree at a time, and each diagonal term is
    # yielded as soon as they hold degree n - 1, so a reader that stops
    # early builds no higher degree.  phi_0 is 1 at phi's scale: ints
    # scaled by 2^shift, whose products each power floors back by shift,
    # or any exact or float numbers at shift 0.  The terms are not shifted
    # back, so they are at the square of phi's scale
    one = phi[0]
    powers = [[one] + [0] * (order - 1), phi]
    powers += [[] for _ in range(2, order // 2 + 1)]
    steps = list(zip(powers[1:], powers[2:]))
    yield one * one
    for d in range(order):
        reversed_phi = phi[d::-1]
        for last, power in steps:
            term = sum(map(mul, last, reversed_phi))
            power.append(term >> shift if shift else term)
        if d:
            yield sum(map(mul, powers[d // 2], powers[(d + 1) // 2][d::-1]))


def _bose_virial(q, order):
    # b_1..b_order of the B family at the double q, as floats, and the
    # passes that summed them; the precision account is in the
    # `virial_coefficients` docstring.  B takes the exact double q, however
    # close to 1: its coefficients are a positive sum with no 0/0 at q = 1,
    # and they move across |q - 1| < 1e-12.  The diagonal term s_n is
    # n b_n q^(n-1) 2^(2 bits)
    digits = _VIRIAL_START_DIGITS
    base = None  # 17 + 5 + log10(scale_n) for n = 1..order
    passes = []
    while True:
        bits = math.ceil((digits + _FIXED_POINT_GUARD_DIGITS) * _LOG2_10)
        rho = _density_per_x(q, order, bits)
        phi = [1 << bits]  # x/rho(x)
        for n in range(1, order):
            phi.append(-sum(map(mul, rho[1:n + 1], phi[::-1])) >> bits)
        if base is None:
            base = [_DOUBLE_DIGITS + _VIRIAL_GUARD_DIGITS + math.log10(c / n)
                    for n, c in enumerate(_diagonal_over_n(
                        [abs(c) / phi[0] for c in phi], order), 1)]
        terms = _diagonal_over_n(phi, order, bits)
        sums = [next(terms)]
        floors = []  # floor(log10 |b_n q^(n-1)|) for n = 2, 3, ...
        for n, s in enumerate(terms, 2):
            if not s:
                need = math.inf
                break
            floors.append(math.floor(math.log10(abs(s)) - math.log10(n)
                                     - 2 * bits / _LOG2_10))
            need = base[n - 1] - floors[-1]
            if need > digits or (
                    not passes and _VIRIAL_PROBE_FIT_MIN <= n < order
                    and base[-1] - _floor_line(floors)(order)
                    > digits + _VIRIAL_PROBE_SLACK_DIGITS):
                break
            sums.append(s)
        else:
            passes.append((digits, None))
            break
        if need > _VIRIAL_MAX_DIGITS:  # an infinite need, of a b_n exactly 0
            raise ConvergenceError(
                f"virial coefficients need more than {_VIRIAL_MAX_DIGITS} digits "
                f"at q={q!r}, order={order}")
        passes.append((digits, n))
        line = _floor_line(floors)
        predicted = _VIRIAL_MARGIN_DIGITS + max(base[m - 1] - line(m)
                                                for m in range(n, order + 1))
        digits = math.ceil(max(need, min(predicted, _VIRIAL_MAX_DIGITS)))
    # b_n = s_n 2^(k(n-1)) / (n 2^(2 bits) m^(n-1)) with q = m/2^k, the
    # powers of 2 cancelled; int true division rounds correctly
    m, d = q.as_integer_ratio()
    k = d.bit_length() - 1
    coeffs = []
    m_power = 1
    for n, s in enumerate(sums, 1):
        shift = k * (n - 1) - 2 * bits
        try:
            coeffs.append((s << shift) / (n * m_power) if shift >= 0
                          else s / (n * m_power << -shift))
        except OverflowError:
            # the order is at least 2, so no smaller order drops an infinite b_2
            advice = "a larger q" if n == 2 else f"an order below {n} or a larger q"
            raise DomainError(f"b_{n} is beyond the largest double at q={q!r}; "
                              f"give {advice}") from None
        m_power *= m
    return coeffs, passes


def _floor_line(floors):
    # floors[i] = floor(log10 |b_(i+2) q^(i+1)|) for b_2 up to the b_stop a
    # pass stopped at is close to linear in n: the least-squares line
    # through those with n >= stop/2, as a function of n
    stop = len(floors) + 1
    points = [(n, low) for n, low in enumerate(floors, 2) if 2 * n >= stop]
    mean_n = sum(n for n, _ in points) / len(points)
    mean_low = sum(low for _, low in points) / len(points)
    slope = (sum((n - mean_n) * (low - mean_low) for n, low in points)
             / sum((n - mean_n) ** 2 for n, _ in points)) if len(points) > 1 else 0.0
    return lambda n: mean_low + slope * (n - mean_n)


def virial_coefficients(family, q, order):
    """Coefficients b_1..b_order of Pv/kT = 1 + b_2 (lam^3/v) + ...

    Lagrange inversion in x = z/q.  The density rho(x) and the pressure
    p(x) satisfy x p'(x) = rho(x), so with phi = x/rho(x)

        b_n = (1/n) [x^(n-1)] p'(x) phi(x)^n = (1/n) [x^(n-1)] phi(x)^(n-1),

    in binary fixed point on Python ints.  The coefficient
    [x^(n-1)] phi^(n-1) is the dot product of phi^floor((n-1)/2) and
    phi^ceil((n-1)/2), so only the powers up to phi^(order//2) are built,
    each truncated at x^(order-1): about order^3/4 products.  The B inputs
    are built from the exact double q = m/2^k: g(q, z, 3/2) = q rho(x)
    with the positive coefficients (1 + q^2 + ... + q^(2r-2))/r^(5/2),
    which are r^(-3/2) at q = 1, and b_n picks up a factor q^(1-n).

    F has no q: in x the F gas is the plain Fermi gas, f(x, 3/2) =
    -rho_B(-x) with rho_B the B density at q = 1, so its b_n are the
    B sum's at q = 1 with b_2, b_4, ... negated, the same for every q.
    b_1 = 1.0 exactly in both.

    Precision: a pass at P digits holds rho, phi and the powers of phi
    as ints scaled by 2^F, F = ceil((P + 5) log2 10) bits; each power
    coefficient is one exact dot product floored once, and n b_n q^(n-1)
    is an exact dot product at scale 2^(2F), turned into the double b_n
    by one correctly rounded int division.  scale_n is the same sum over
    the absolute values of every term, from the same meet-in-the-middle
    powers of |phi| in plain floats.  The floors move n b_n q^(n-1) by
    at most 10^(0.63 - P) n scale_n up to order 150, and b_n is right to
    a double at P digits when P >= 17 + 5 + log10(scale_n) -
    floor(log10 |b_n q^(n-1)|).  A pass at P digits grows the powers one
    degree at a time, checks each b_n as soon as it is summed, and stops
    at the first that P cannot hold, at about (n/order)^2 of the cost of
    a full pass.  P starts at 34.  After a pass stops at b_n, the next
    runs at the larger of b_n's need and the most any b_m, m >= n, is
    predicted to need, plus a margin of 3 digits: floor(log10 |b_m
    q^(m-1)|) is close to linear in m (it falls about 1.3 per order at
    q = 1 and 0.2 at q = 0.5), so it is fitted by least squares over
    m >= n/2 and extended to the order, and scale_m is already known.
    The first pass, the probe, also stops once it holds b_2..b_n with
    n >= 16 and that line puts b_order's need more than 2.5 digits past
    34.  A prediction too low costs one more pass, never a wrong double,
    as every b_n of a pass is still checked against its own need; the
    first pass to reach b_order is kept.  The result is a list of floats
    whose ``working_digits`` is that pass's P and whose ``passes`` lists
    each pass as (P, the n it stopped at), with None for the kept one:
    34 for B at q = 0.3 and order 40, one pass; 45 for B at q = 0.5 and
    56 at q = 0.9, order 60, after a probe that stops at b_16; 114 for B
    at q = 1 and so for F at order 60, and 252 for F at order 150, after
    a probe that stops at b_10.  An order whose b_n passes the largest
    double raises DomainError; a b_n of exactly 0, whose need is
    infinite, raises ConvergenceError at the cap of 2176 digits.
    """
    family = as_family(family)
    qp = as_qparam(q)
    order = as_count("order", order, 2)
    if family is Family.B:
        return VirialCoefficients(*_bose_virial(qp.q, order))
    coeffs, passes = _bose_virial(1.0, order)
    return VirialCoefficients([-b if n % 2 else b for n, b in enumerate(coeffs)],
                              passes)


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
        if not w < 1.0:
            raise DomainError(
                f"mode at energy {energy!r} has z e^(-beta E) = {w!r}; give z "
                "and beta with z e^(-beta E) below 1 for every mode"
            )
        total -= math.log1p(-w)
    return total


def b_number_from_partition(spectrum, z, beta, q):
    """z D_q(z) ln Z for the B-family partition log (mode-sum occupation)."""
    qp = as_qparam(q)
    return float(z) * jackson_derivative(
        lambda zz: b_partition_log(spectrum, zz, beta), qp, float(z)
    )
