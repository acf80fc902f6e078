"""Thermostatistics of q-interpolating (anyon) gases.

Occupation functions in closed, continued-fraction and arcsine forms for
the boson-like and fermion-like families, the generalized zeta functions
behind their equations of state, in any units of h and k, virial
coefficients by Lagrange inversion, truncated Fock-space representations
of the underlying deformed oscillator algebras, and a brute-force trace
oracle that verifies the whole stack.

Each name is imported from the module that defines it, as in
`from anyongas.thermo import b_state`; importing the package runs none
of its modules.  The runtime needs the standard library alone.
"""

__version__ = "0.1.0"
