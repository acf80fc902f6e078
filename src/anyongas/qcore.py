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

The deformation parameter lives in (0, 1].  q = 0 is excluded because
every formula involves q^-1; q = 1 is the undeformed limit, where the
deformed expressions are 0/0 forms.  `QParam.is_classical_limit` marks
the band |q - 1| < 1e-12, where the functions of this module, like the
occupations, use the q = 1 forms.
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

    ``is_classical_limit`` is true iff |q - 1| < 1e-12.  Callers whose
    q = 1 formula is the more accurate one there branch to it in that
    band.  g (`qfunctions`) and the state functions and density solve
    of `thermo` keep their deformed forms there, which hold up to the
    last double below 1; g alone branches, at q = 1 itself.
    """

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not math.isfinite(q) or not 0.0 < q <= 1.0:
            raise DomainError(f"q must lie in (0, 1], got {self.q!r}")
        object.__setattr__(self, "q", q)
        # derived once: the occupation kernels read both on every row
        object.__setattr__(self, "is_classical_limit", abs(q - 1.0) < CLASSICAL_EPS)
        object.__setattr__(self, "q_inv", 1.0 / q)

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


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series c0 + c1 t + ... + cK t^K.

    ``coeffs`` holds c1..cK; the constant term is tracked separately.
    Composition and reversion are exact up to the truncation order
    K = len(coeffs) and never silently exceed it: a composition truncates
    to the smaller of the two orders.
    """

    coeffs: tuple
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "constant", float(self.constant))

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
