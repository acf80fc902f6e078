"""Deformation-parameter arithmetic and truncated power series.

Everything downstream is built from three primitives: the basic number
[x] = (q^x - q^-x)/(q - q^-1), the Jackson finite-difference derivative
that replaces d/dx in the boson-like thermodynamics, and a truncated
formal power series supporting composition and reversion in doubles
(the oracle's reference expansions are PowerSeries; the virial
coefficients are summed in decimal by `thermo.virial_coefficients`).

The deformation parameter lives in (0, 1].  q = 0 is excluded because
every formula involves q^-1; q = 1 is the undeformed limit and all
operations branch to the analytic limit there instead of evaluating
0/0 forms.
"""

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

# |q - 1| below which q counts as the undeformed limit
CLASSICAL_EPS = 1e-12


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


@dataclass(frozen=True)
class QParam:
    """Statistics parameter q in (0, 1] with explicit classical-limit handling.

    ``is_classical_limit`` is true iff |q - 1| < 1e-12; callers
    must branch to the analytic q = 1 formulas in that case rather than
    evaluating the deformed expressions, which degenerate to 0/0.
    """

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not math.isfinite(q) or not 0.0 < q <= 1.0:
            raise DomainError(f"q must lie in (0, 1], got {self.q!r}")
        object.__setattr__(self, "q", q)

    @property
    def is_classical_limit(self):
        return abs(self.q - 1.0) < CLASSICAL_EPS

    @property
    def q_inv(self):
        return 1.0 / self.q

    @property
    def inv_minus_q(self):
        """1/q - q, as -2 sinh(ln q): no cancellation as q -> 1."""
        return -2.0 * math.sinh(math.log(self.q))


def as_qparam(q):
    """Coerce a float or QParam into a QParam."""
    return q if isinstance(q, QParam) else QParam(float(q))


def basic_number(q, x):
    """The basic number [x] = (q^x - q^-x)/(q - q^-1).

    Defined for any real x; odd in x, strictly increasing in x for fixed
    q, and equal to x in the classical limit.  Evaluated through the
    numerically stable form sinh(x ln q)/sinh(ln q).
    """
    qp = as_qparam(q)
    x = float(x)
    if qp.is_classical_limit:
        return x
    lq = math.log(qp.q)
    return math.sinh(x * lq) / math.sinh(lq)


def q_factorial(q, n):
    """[n]! = [n][n-1]...[1], with [0]! = 1 by the empty-product convention."""
    if n != int(n) or n < 0:
        raise DomainError(f"q_factorial needs a nonnegative integer, got {n!r}")
    qp = as_qparam(q)
    out = 1.0
    for k in range(2, int(n) + 1):
        out *= basic_number(qp, k)
    return out


def jackson_derivative(f, q, x):
    """Finite q-difference derivative (f(qx) - f(x/q)) / (x (q - 1/q)).

    Reduces to the ordinary derivative as q -> 1; in the classical limit
    a central difference with step 1e-6 * max(1, |x|) is returned
    instead.  x = 0 is outside the domain.
    """
    qp = as_qparam(q)
    x = float(x)
    if x == 0.0:
        raise DomainError("Jackson derivative is undefined at x = 0")
    if qp.is_classical_limit:
        h = 1e-6 * max(1.0, abs(x))
        return (f(x + h) - f(x - h)) / (2.0 * h)
    return (f(qp.q * x) - f(x / qp.q)) / (x * (qp.q - qp.q_inv))


def _mul_trunc(a, b, order):
    # raw coefficient lists indexed from power 0, product truncated at `order`
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series c0 + c1 t + ... + cK t^K.

    ``coeffs`` holds c1..cK; the constant term is tracked separately.
    All arithmetic is exact up to the truncation order K = len(coeffs)
    and never silently exceeds it: binary operations truncate to the
    smaller of the two orders.
    """

    coeffs: tuple
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "constant", float(self.constant))

    @classmethod
    def identity(cls, order):
        """The series t, padded with zeros up to the given order."""
        return cls((1.0,) + (0.0,) * (order - 1))

    @property
    def order(self):
        return len(self.coeffs)

    def _raw(self, order):
        return [self.constant] + list(self.coeffs[:order]) + [0.0] * max(
            0, order - self.order
        )

    def __call__(self, t):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc * t + self.constant

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            return PowerSeries(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                self.constant + other.constant,
            )
        return PowerSeries(self.coeffs, self.constant + float(other))

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(tuple(-c for c in self.coeffs), -self.constant)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -float(other))

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            k = min(self.order, other.order)
            raw = _mul_trunc(self._raw(k), other._raw(k), k)
            return PowerSeries(tuple(raw[1:]), raw[0])
        s = float(other)
        return PowerSeries(tuple(c * s for c in self.coeffs), self.constant * s)

    __rmul__ = __mul__

    def compose(self, inner):
        """Coefficients of self(inner(t)), truncated to the smaller order.

        The inner series must have zero constant term, otherwise the
        composition would shift the expansion point.
        """
        if inner.constant != 0.0:
            raise DomainError("composition requires the inner constant term to be 0")
        k = min(self.order, inner.order)
        inner_raw = inner._raw(k)
        acc = [0.0] * (k + 1)
        for c in reversed(self.coeffs[:k]):
            acc[0] += c
            acc = _mul_trunc(acc, inner_raw, k)
        acc[0] += self.constant
        return PowerSeries(tuple(acc[1:]), acc[0])

    def revert(self):
        """The compositional inverse r with self(r(t)) = t up to order K.

        Computed by order-by-order substitution (equivalent to Lagrange
        inversion).  Requires zero constant term and c1 != 0.
        """
        if self.constant != 0.0:
            raise DomainError("reversion requires a zero constant term")
        if not self.coeffs or self.coeffs[0] == 0.0:
            raise DomainError("reversion requires a nonzero linear coefficient")
        c1 = self.coeffs[0]
        inv = [1.0 / c1]
        for m in range(2, self.order + 1):
            trial = PowerSeries(tuple(inv) + (0.0,) * (self.order - len(inv)))
            resid = self.compose(trial).coeffs[m - 1]
            inv.append(-resid / c1)
        return PowerSeries(tuple(inv))
