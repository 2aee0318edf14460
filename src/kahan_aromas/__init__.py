"""Preserved measures and first integrals of Kahan maps via aromatic functions.

Exact (rational) computer algebra throughout: quadratic vector fields, the
Kahan update as a birational map, functional-graph combinatorics, the
coalgebra of aroma multisets with its Q operator, and a Darboux-equation
solver that discovers measure densities in the linear span of aromatic
functions and verifies them symbolically.
"""

from .rationals import Rat, format_rat, parse_rat
from .poly import Polynomial, RationalFunction, rf_substitute, series_in_h
from .linalg import nullspace, rank, rref
from .graphs import (
    Aroma,
    AromaMultiset,
    Forest,
    RootedTree,
    UNIT,
    LOOP,
    TWO_CYCLE,
    THREE_CYCLE,
    LOOP_WITH_TAIL,
    TAILED_TWO_CYCLE,
    enumerate_aromas,
    enumerate_forests,
    enumerate_multisets,
    enumerate_trees,
    parse_any,
    parse_aroma,
    parse_forest,
    parse_multiset,
    tall_tree,
)
from .fields import (
    KahanMap,
    QuadraticVectorField,
    affine_pullback,
    hamiltonian_field,
    modified_hamiltonian,
)
from .coalgebra import (
    CoefficientFunctional,
    TruncationError,
    compose_with_bseries,
    coproduct_comodule,
    coproduct_disjoint,
    counit,
    eta,
    eta_functional,
    kahan_coeff,
    multiply_functionals,
    q_apply,
    q_functional,
    q_row,
    series_evaluate,
)
from .solver import (
    Basis,
    DarbouxSolution,
    KernelRelations,
    SolverError,
    build_basis,
    conjecture_check,
    density_span_solve,
    first_integrals,
    gamma_space,
    kernel_relations,
    necessary_conditions,
    parameter_independent_solve,
    solve_darboux,
    verify_density,
)

__version__ = "0.1.0"
