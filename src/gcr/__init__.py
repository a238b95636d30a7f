"""Exact-arithmetic toolkit for complete reducibility of matrix subgroups
of GL_n: limits under cocharacters, witness parabolics, and optimal
destabilising cocharacters, all over the rationals or prime fields."""

from .cochar import (Cocharacter, ParabolicData, cocharacter_from_flag,
                     limit_conj, limit_tuple, pairing, parabolic_of)
from .engine import (ModuleDecomposition, WitnessParabolic, block_diagonal,
                     borel_tits_flag, composition_series, enumerate_group,
                     has_invariant_complement, is_completely_reducible,
                     normal_closure, orbit_dimension, product_check,
                     ru_conjugator, semisimplify, tuple_witness_search,
                     verify_witness)
from .instability import (BoxOptimum, InstabilityReport, WeightSet,
                          brute_force_optimum, f_compare, min_norm_point, mu,
                          mu_conjugated, norm_sq, optimal_cocharacter,
                          support_of_tuple)
from .linalg import (DEFAULT_BUDGET, GF, QQ, BudgetExceeded, Field, Matrix,
                     MatrixTuple, Subspace, commutant, kernel_basis, rref,
                     solve_affine, span_basis, spin)

__version__ = "0.1.0"
