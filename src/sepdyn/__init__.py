"""Numerics for separability-restricted quantum dynamics.

The package integrates multipartite pure-state dynamics both without
constraints and restricted to product states, using operator splitting and
variational integrators, and provides the diagnostics used to compare the
two evolutions.
"""

__version__ = "0.1.0"
