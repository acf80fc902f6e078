"""Thermostatistics of q-interpolating (anyon) gases.

Occupation functions in closed, continued-fraction and arcsine forms for
the boson-like and fermion-like families, the generalized zeta functions
behind their equations of state, in any units of h and k, virial
coefficients by Lagrange inversion, truncated Fock-space representations
of the underlying deformed oscillator algebras, and a brute-force trace
oracle that verifies the whole stack.

Every name is exported lazily: importing the package runs none of its
modules, and a name loads its module on first access, through the
module __getattr__.  So each CLI command loads only the modules it runs.
`__all__` and `dir()` list every export.  The runtime needs the
standard library alone.
"""

__version__ = "0.1.0"

# module -> the names the package exports from it, each loaded on first use
_LAZY = {
    "distributions": ("ConvergentPair", "b_occupation", "b_occupation_jd",
                      "b_occupation_rows", "bounds_rows", "cf_bounds",
                      "cf_convergent", "f_occupation", "f_occupation_arcsin",
                      "f_occupation_rows"),
    "errors": ("ConvergenceError", "DomainError"),
    "qcore": ("Family", "QParam", "as_qparam", "basic_number", "jackson_derivative"),
    "qfunctions": ("bose_g", "bose_g_supremum", "fermi_f", "polylog"),
    "report": ("KNOWN_ERRATA", "VerificationReport"),
    "thermo": ("StateFunctions", "b_partition_log", "b_state", "b_density_supremum",
               "b_number_from_partition", "f_state", "solve_fugacity",
               "thermal_wavelength", "virial_coefficients"),
    "algebra": ("FockRep", "build_b_rep", "build_f_rep", "eigenvalue_seq_b",
                "eigenvalue_seq_f", "eigenvalue_seq_f_closed", "rep_report",
                "verify_no_basic_number_f"),
    "oracle": ("basic_mean_closed_form", "check_detailed_trace_identity_b",
               "check_detailed_trace_identity_f", "occupation_relation_residual",
               "run_verification", "taylor_reference", "trace_average",
               "trace_average_matrix"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}
__all__ = list(_LAZY_MODULE)


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
