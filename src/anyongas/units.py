"""Unit systems: Planck and Boltzmann constants used by the gas formulas.

Natural units h = k = 1 are the default everywhere; SI values are
provided for desk checks against tabulated numbers (CODATA 2018 exact
values).
"""

import math
from dataclasses import dataclass

from .errors import DomainError

PLANCK_SI = 6.62607015e-34  # J s
BOLTZMANN_SI = 1.380649e-23  # J / K
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class UnitSystem:
    """Planck constant h and Boltzmann constant k, each positive and finite."""

    h: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        for name in ("h", "k"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")

    @classmethod
    def si(cls):
        return cls(h=PLANCK_SI, k=BOLTZMANN_SI)


NATURAL = UnitSystem()
SI = UnitSystem.si()
