"""Deformation-parameter arithmetic and truncated power series.

Everything downstream is built from two primitives: the basic number
[x] = (q^x - q^-x)/(q - q^-1) and the Jackson finite-difference
derivative that replaces d/dx in the boson-like thermodynamics.

`PowerSeries` keeps only its exact composition and reversion, summed in
rationals and rounded to doubles.  No command calls them: the virial
coefficients are summed in decimal by `thermo.virial_coefficients`.
They stay, with their tests, because the benchmark's span tracer
(perfbench/spans.py) wraps both by name; they go with the next change
to the benchmark.  `fractions` is imported inside them, so no command
loads it.

`QParam` is a frozen class with slots and `PowerSeries` a named tuple,
so the module imports `enum`, `math` and `collections` alone from the
standard library, which the CLI's argparse has loaded already.

The deformation parameter lives in (0, 1].  q = 0 is excluded because
every formula involves q^-1; q = 1 is the undeformed limit, where the
deformed expressions are 0/0 forms.  `basic_number` branches at q = 1
itself, and `jackson_derivative` takes no q closer to 1 than
exp(-1e-6).  `QParam.is_classical_limit` marks the band |q - 1| < 1e-12,
which only the continued-fraction occupations of `distributions` read,
at three sites: `cf_convergent`, `cf_bounds` and `bounds_rows`.
"""

import collections
import enum
import math

from .errors import DomainError

# |q - 1| below which q counts as the undeformed limit
CLASSICAL_EPS = 1e-12
# the q closest to 1 at which jackson_derivative takes its q-difference
_JACKSON_Q_MAX = math.exp(-1e-6)


class Family(enum.Enum):
    """Statistics family: boson-like (B) or fermion-like (F) anyons."""

    B = "B"
    F = "F"


def as_family(value):
    """Coerce a Family, 'b'/'B'/'f'/'F' string into a Family."""
    if isinstance(value, Family):
        return value
    try:
        return Family(str(value).upper())
    except ValueError:
        raise DomainError(f"unknown statistics family: {value!r}") from None


class QParam:
    """Statistics parameter q in (0, 1] with explicit classical-limit handling.

    ``is_classical_limit`` is true iff |q - 1| < 1e-12.  The
    continued-fraction occupations of `distributions` (`cf_convergent`,
    `cf_bounds` and `bounds_rows`) branch to the Bose form in that band.
    Every other function keeps its deformed form there, which holds up
    to the last double below 1, and branches at q = 1 itself if at all.

    ``q_inv`` is 1/q and ``inv_minus_q`` is 1/q - q, formed as
    -2 sinh(ln q) so that it does not cancel as q -> 1.  Both are inf
    below about q = 5.6e-309, where 1/q overflows.  ``ln_q_inv`` is
    ln(1/q), the log of ``q_inv`` where that is finite and -ln q below.

    Frozen: no attribute can be assigned.  Two QParams are equal, and
    hash alike, when their q is.
    """

    __slots__ = ("q", "is_classical_limit", "q_inv", "ln_q_inv", "inv_minus_q")

    def __init__(self, q):
        value = float(q)
        if not math.isfinite(value) or not 0.0 < value <= 1.0:
            raise DomainError(f"q must lie in (0, 1], got {q!r}")
        # derived once: the occupation kernels read them on every row
        q_inv = 1.0 / value
        try:
            inv_minus_q = -2.0 * math.sinh(math.log(value))
        except OverflowError:  # q below about 2.8e-309, where q_inv is inf too
            inv_minus_q = math.inf
        object.__setattr__(self, "q", value)
        object.__setattr__(self, "is_classical_limit", abs(value - 1.0) < CLASSICAL_EPS)
        object.__setattr__(self, "q_inv", q_inv)
        object.__setattr__(self, "ln_q_inv", math.log(q_inv) if q_inv < math.inf
                           else -math.log(value))
        object.__setattr__(self, "inv_minus_q", inv_minus_q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.q,))

    def __repr__(self):
        return f"{type(self).__name__}(q={self.q!r})"

    def __reduce__(self):
        return type(self), (self.q,)


def as_qparam(q):
    """Coerce a float or QParam into a QParam."""
    return q if isinstance(q, QParam) else QParam(float(q))


def basic_number(q, x):
    """The basic number [x] = (q^x - q^-x)/(q - q^-1).

    Defined for any real x; odd in x, strictly increasing in x for fixed
    q, and equal to x at q = 1.  Evaluated through the form
    sinh(x ln q)/sinh(ln q), which does not cancel as q -> 1 and holds
    up to the last double below 1; only q = 1 itself, where it is 0/0,
    returns x.  The rounding of ln q, magnified |x| times in sinh(x ln q),
    bounds the relative error by about |x ln q| 2^-53: 6.9e-14 at
    q = 0.5, x = 1000, where that bound is 7.7e-14.
    Where a sinh overflows, past |x ln q| of about 710.5, it is
    e^((|x| - 1) |ln q|) (1 - q^(2|x|))/(1 - q^2), with the sign of x;
    DomainError where [x] itself passes the largest double.
    """
    qp = as_qparam(q)
    x = float(x)
    if qp.q == 1.0:
        return x
    lq = math.log(qp.q)
    try:
        n = math.sinh(x * lq) / math.sinh(lq)
    except OverflowError:
        n = math.inf
    if math.isinf(n):
        try:  # a sinh or the quotient overflows
            n = math.copysign(math.exp((abs(x) - 1.0) * -lq) * math.expm1(2.0 * abs(x) * lq)
                              / math.expm1(2.0 * lq), x)
        except OverflowError:
            pass
        if math.isinf(n):
            raise DomainError(f"[x] passes the largest double at q={qp.q!r}, x={x!r}; "
                              "give a smaller |x| or a larger q")
    return n


def jackson_derivative(f, q, x):
    """Finite q-difference derivative (f(qx) - f(x/q)) / (x (q - 1/q)).

    Reduces to the ordinary derivative as q -> 1.  The q-difference is a
    central difference in ln x with half-step ln(1/q), so f is sampled
    only on the side of 0 where x lies.  Below a half-step of 1e-6 its
    rounding error, about 2^-53 |f| / (|x| ln(1/q) |f'|), keeps growing
    while D_q f comes within a relative ln(1/q)^2 of f'.  So every q
    above exp(-1e-6), q = 1 among them, is taken as exp(-1e-6); the
    value is then off D_q f by up to about 1e-12 |3x f'' + x^2 f'''| /
    (6 |f'|) relative.  x = 0 is outside the domain.
    """
    q = min(as_qparam(q).q, _JACKSON_Q_MAX)
    x = float(x)
    if x == 0.0:
        raise DomainError("Jackson derivative is undefined at x = 0")
    return (f(q * x) - f(x / q)) / (x * (q - 1.0 / q))


def _mul_trunc(a, b, order):
    # raw coefficient lists of Fractions indexed from power 0, product
    # truncated at `order`; the int zeros take the type of the entries
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


class PowerSeries(collections.namedtuple("PowerSeries", ("coeffs", "constant"))):
    """Truncated power series c0 + c1 t + ... + cK t^K.

    ``coeffs`` holds c1..cK; the constant term is tracked separately.
    Composition and reversion are exact up to the truncation order
    K = len(coeffs) and never silently exceed it: a composition truncates
    to the smaller of the two orders.
    """

    __slots__ = ()

    def __new__(cls, coeffs, constant=0.0):
        return super().__new__(cls, tuple(float(c) for c in coeffs), float(constant))

    @property
    def order(self):
        return len(self.coeffs)

    def _raw(self, order):
        return [self.constant] + list(self.coeffs[:order]) + [0.0] * max(
            0, order - self.order
        )

    def compose(self, inner):
        """Coefficients of self(inner(t)), truncated to the smaller order.

        The inner series must have zero constant term, otherwise the
        composition would shift the expansion point.  The sum is exact and
        each coefficient is rounded once.
        """
        if inner.constant != 0.0:
            raise DomainError("composition requires the inner constant term to be 0")
        k = min(self.order, inner.order)
        acc = self._compose_exact(inner._raw(k), k)
        return PowerSeries(tuple(acc[1:]), acc[0])

    def _compose_exact(self, inner_raw, k):
        # raw coefficients of self(inner) up to t^k as Fractions (Horner)
        from fractions import Fraction

        inner_raw = [Fraction(c) for c in inner_raw[: k + 1]]
        acc = [Fraction(0)] * (k + 1)
        for c in reversed(self.coeffs[:k]):
            acc[0] += Fraction(c)
            acc = _mul_trunc(acc, inner_raw, k)
        acc[0] += Fraction(self.constant)
        return acc

    def revert(self):
        """The compositional inverse r with self(r(t)) = t up to order K.

        Computed by order-by-order substitution (equivalent to Lagrange
        inversion).  Each residual is summed exactly from the already
        rounded lower coefficients, so coefficient m of s(r(t)) - t comes
        only from rounding r_m, at most |c1| ulp(r_m) / 2 for the nearest
        double.  r_m also enters coefficient m + 1, so of the nearest
        double and its two neighbours the one that leaves the smaller
        residual over orders m and m + 1 is kept.
        Requires zero constant term and c1 != 0.
        """
        if self.constant != 0.0:
            raise DomainError("reversion requires a zero constant term")
        if not self.coeffs or self.coeffs[0] == 0.0:
            raise DomainError("reversion requires a nonzero linear coefficient")
        from fractions import Fraction

        c1 = Fraction(self.coeffs[0])

        def exact_next(inv):
            # the rational r_m that zeroes coefficient m, given r_1..r_(m-1)
            m = len(inv) + 1
            return ((m == 1) - self._compose_exact([0.0] + inv, m)[m]) / c1

        def rounding(x):
            return abs(Fraction(float(x)) - x)

        inv = []
        for m in range(1, self.order + 1):
            x = exact_next(inv)
            r = float(x)
            if m < self.order:
                r = min(
                    (r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf)),
                    key=lambda c: max(
                        abs(Fraction(c) - x), rounding(exact_next(inv + [c]))
                    ),
                )
            inv.append(r)
        return PowerSeries(tuple(inv))
