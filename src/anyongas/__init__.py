"""Thermostatistics of q-interpolating (anyon) gases.

Occupation functions in closed, continued-fraction and series forms for
the boson-like and fermion-like families, the generalized zeta functions
behind their equations of state, virial coefficients by Lagrange
inversion, truncated Fock-space representations of the underlying
deformed oscillator algebras, and a brute-force trace oracle that
verifies the whole stack.

The names of the `algebra` and `oracle` modules are exported lazily:
each loads its module on first access, through the module __getattr__.
The runtime needs the standard library alone.
"""

import importlib

from .distributions import (ConvergentPair, b_occupation, b_occupation_jd,
                            b_occupation_rows, bounds_rows, cf_bounds,
                            cf_convergent, f_occupation, f_occupation_arcsin,
                            f_occupation_rows, f_occupation_series)
from .errors import ConvergenceError, DomainError
from .qcore import (Family, QParam, as_qparam, basic_number, jackson_derivative,
                    q_factorial)
from .qfunctions import (bose_g, bose_g_supremum, fermi_f, polylog,
                         sommerfeld_density_factor, thermal_wavelength)
from .report import KNOWN_ERRATA, VerificationReport
from .thermo import (GasParams, StateFunctions, b_partition_log, b_state,
                     b_density_supremum, b_number_from_partition,
                     chemical_potential_f, f_partition_log, f_state,
                     fermi_energy, solve_fugacity, virial_coefficients)
from .units import NATURAL, SI, UnitSystem

__version__ = "0.1.0"

# the Fock-space algebra and the trace oracle load on first use of one of
# their names, so importing the package, or any command but fock and
# verify, loads neither
_LAZY = {
    "algebra": ("FockRep", "build_b_rep", "build_f_rep", "eigenvalue_seq_b",
                "eigenvalue_seq_f", "eigenvalue_seq_f_closed", "rep_report",
                "verify_no_basic_number_f"),
    "oracle": ("TraceSpec", "basic_mean_closed_form",
               "check_detailed_trace_identity_b",
               "check_detailed_trace_identity_f", "occupation_relation_residual",
               "run_verification", "taylor_reference", "trace_average",
               "trace_average_matrix"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
