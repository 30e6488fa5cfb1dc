"""Large-time machinery for two-component cubic Schrodinger-type systems.

Modules
-------
elliptic        Jacobi elliptic functions and first-kind integrals (AGM based).
standard_form   General cubic systems, conserved mass forms, reduction to the
                standard eight-parameter family, and its nonlinearity.
quadratic_flow  The quadratic flow of (D, R, I) on the sphere: numerical
                integrators, the sigma-reduction of uncatalogued orbits,
                fixed points, stability, synchronization.
closed_form     Exact solutions of the quadratic flow for the catalogued
                parameter families, built on three elliptic ODE lemmas.
reconstruction  Rebuilding the complex amplitude pair from its quadratic
                quantities (amplitude + two-chart phase quadrature).
profile         Large-time space-time profiles, specialized closed profiles,
                and the synchronization decay observable.
cli             Command-line interface (``cubicnls``).
"""

from . import closed_form, elliptic, profile, quadratic_flow, reconstruction, standard_form

__all__ = [
    "closed_form",
    "elliptic",
    "profile",
    "quadratic_flow",
    "reconstruction",
    "standard_form",
]

__version__ = "0.1.0"
