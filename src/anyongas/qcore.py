"""Deformation-parameter arithmetic.

Everything downstream is built from two primitives: the basic number
[x] = (q^x - q^-x)/(q - q^-1) and the Jackson finite-difference
derivative that replaces d/dx in the boson-like thermodynamics.

`PowerSeries` is an empty placeholder that keeps two names the
benchmark's span tracer (perfbench/spans.py) wraps.

`QParam` is a frozen class with slots, so the module imports `enum` and
`math` alone from the standard library, which the CLI's argparse has
loaded already.

The deformation parameter lives in (0, 1].  q = 0 is excluded because
every formula involves q^-1; q = 1 is the undeformed limit, where the
deformed expressions are 0/0 forms.  `basic_number` branches at q = 1
itself, and `jackson_derivative` takes no q closer to 1 than
exp(-1e-6).  `QParam.is_classical_limit` marks the band |q - 1| < 1e-12,
which only the continued-fraction occupations of `distributions` read,
at three sites: `cf_convergent`, `cf_bounds` and `bounds_rows`.
"""

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


def as_count(name, value, least):
    """A whole number value >= least, as an int; DomainError naming it otherwise."""
    # a NaN fails the first test, and 2.5 and inf the second (inf % 1 is NaN)
    if not (value >= least and value % 1 == 0):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    DomainError where [x] itself passes the largest double, as it does
    for an infinite x at every q, and for a NaN x.
    """
    qp = as_qparam(q)
    x = float(x)
    if math.isnan(x):
        raise DomainError(f"[x] needs a number x, got {x!r}")
    n = x  # [x] at q = 1
    if qp.q != 1.0:
        lq = math.log(qp.q)
        try:
            n = math.sinh(x * lq) / math.sinh(lq)
        except OverflowError:
            n = math.inf
        if math.isinf(n):
            try:  # a sinh or the quotient overflows
                n = math.copysign(math.exp((abs(x) - 1.0) * -lq)
                                  * math.expm1(2.0 * abs(x) * lq)
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
    (6 |f'|) relative.  x = 0 and a non-finite x are outside the domain.
    """
    q = min(as_qparam(q).q, _JACKSON_Q_MAX)
    x = float(x)
    if x == 0.0:
        raise DomainError("Jackson derivative is undefined at x = 0")
    if not math.isfinite(x):
        raise DomainError(f"Jackson derivative needs a finite x, got {x!r}")
    return (f(q * x) - f(x / q)) / (x * (q - 1.0 / q))


class PowerSeries:
    """Placeholder: no command composes or reverts a series.

    The benchmark's span tracer wraps `compose` and `revert` by name; the
    class goes with those two span targets.
    """

    def compose(self, inner):
        raise NotImplementedError

    def revert(self):
        raise NotImplementedError
