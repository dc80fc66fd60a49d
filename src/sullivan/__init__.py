"""Exact rational computations with free commutative differential graded
algebras: Sullivan minimal models, loop-space models, polynomial forms on
simplicial sets with exact integration, and the elliptic/hyperbolic
classification machinery."""

__version__ = "0.1.0"

from .graded import AlgebraError, AlgElement, Derivation, FreeAlgebra, Generator
from .linalg import RatMatrix, kernel_basis, image_basis, rank, rref, solve
from .cdga import (
    Cdga,
    CdgaError,
    CdgaMorphism,
    check_quasi_iso,
    fibered_product_augmented,
    load_cdga,
    tensor_product,
    word_length_quotient,
)
from .models import (
    acyclic_closure,
    check_minimal_sullivan,
    fiber_model,
    free_loop_model,
    loop_cohomology,
    minimal_model,
    path_space_model,
    pushout_model,
)
from .invariants import (
    classify_ellipticity,
    classify_space,
    cuplength,
    finiteness_test,
    loop_poincare_series,
)
from .plforms import (
    GlobalForm,
    PolyForm,
    SimplicialComplexFin,
    builtin_complex,
    integrate,
    verify_stokes,
)
