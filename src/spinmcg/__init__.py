"""Exact mod-2 homology of free infinite loop spaces.

The package computes, degree by degree, in the homology of spaces of the
form Q(X+) = colim Omega^n Sigma^n (X+) for the base spaces RP^inf,
BSpin(2), BSpin(3) and Sigma(CP^inf_+), entirely over the two-element
field.  On top of that substrate it builds the once- and twice-looped
models, the boundary map and the Becker-Gottlieb transfer, and
assembles the stable mod-2 Betti numbers of the spin mapping class group.
"""

from .algebra import DEFAULT_MAX_DEGREE, Element, QAlgebra, get_model
from .betti import BettiTable, spin_betti
from .maps import (
    PrimitiveBoundary,
    cokernel_generators,
    kernel_poincare,
    partial_on_generator,
    theorem2_composite,
    transfer_iota_plus_c,
)
from .verify import TARGETS, run_target

__all__ = [
    "BettiTable",
    "DEFAULT_MAX_DEGREE",
    "Element",
    "PrimitiveBoundary",
    "QAlgebra",
    "TARGETS",
    "cokernel_generators",
    "get_model",
    "kernel_poincare",
    "partial_on_generator",
    "run_target",
    "spin_betti",
    "theorem2_composite",
    "transfer_iota_plus_c",
]
