"""Exact construction of q-Krall orthogonal polynomial families.

Everything runs over the rationals: polynomial families, ladder operators,
the higher-order q-difference operators they generate, moment functionals
with Gram/Hankel orthogonality checks, and an exact nullspace search for
minimal-order operators behind the product/point-mass conjectures.
"""
from __future__ import annotations

from .dops import DOperatorSpec, dop_action, dop_catalog, verify_dop
from .errors import (CrossCheckFailed, DenominatorVanishes, GammaVanishes,
                     MixedBase, NotQuasiDefinite, ParamDegeneracy, ParseError,
                     QKrallError, SingularSystem, UnknownTheorem,
                     UnsupportedFamily, ZeroDenominator, ZeroDilation)
from .exact import (Laurent, Poly, divmod_poly, poly_from_json, poly_gcd,
                    poly_to_json, qpochhammer, rational, rational_str)
from .families import (AL_SALAM_CARLITZ, LAGUERRE, MEIXNER,
                       AlSalamCarlitzParams, LaguerreParams, MeixnerParams,
                       PolynomialFamily, ThreeTermRecurrence,
                       alsalam_carlitz, alsalam_carlitz_recurrence,
                       derive_recurrence, family_operator, family_recurrence,
                       laguerre, laguerre_recurrence, meixner,
                       meixner_recurrence, polys_from_recurrence,
                       q_power_exponent)
from .krall import (KrallConstruction, TheoremData, build, build_P1,
                    theorem_catalog, verify_eigen)
from .linalg import leading_principal_minors, nullspace, rref, solve_exact
from .moments import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                      MEIXNER_III, THEOREMS, GramData, MomentFunctional, add,
                      agree_up_to, christoffel, dilate, favard_positivity,
                      geronimus, gram_matrix, hankel_orthogonal,
                      laguerre_moments, combine_with_point_mass, measure_catalog,
                      meixner_moments, moments_from_recurrence,
                      point_mass, scale, shift)
from .operators import QDiffOperator, poly_of_operator, q_derivative_ops
from .search import (SearchProblem, SearchResult, check_conjecture_a,
                     check_conjecture_b1, check_conjecture_b2, find_operator,
                     minimal_even_order)

__version__ = "0.1.0"

__all__ = [
    "AL_SALAM_CARLITZ", "AlSalamCarlitzParams", "CrossCheckFailed",
    "DOperatorSpec", "DenominatorVanishes",
    "GammaVanishes", "GramData", "KrallConstruction",
    "LAGUERRE", "LAGUERRE_I", "LAGUERRE_II", "LaguerreParams", "Laurent",
    "MEIXNER", "MEIXNER_I", "MEIXNER_II", "MEIXNER_III", "MeixnerParams",
    "MixedBase", "MomentFunctional", "NotQuasiDefinite",
    "ParamDegeneracy", "ParseError", "Poly", "PolynomialFamily",
    "QDiffOperator", "QKrallError", "SearchProblem", "SearchResult",
    "SingularSystem", "THEOREMS", "TheoremData", "ThreeTermRecurrence",
    "UnknownTheorem", "UnsupportedFamily", "ZeroDenominator", "ZeroDilation",
    "add", "agree_up_to", "alsalam_carlitz", "alsalam_carlitz_recurrence",
    "build", "build_P1", "check_conjecture_a", "check_conjecture_b1",
    "check_conjecture_b2", "christoffel", "derive_recurrence", "dilate",
    "divmod_poly", "dop_action", "dop_catalog", "family_operator",
    "family_recurrence", "favard_positivity", "find_operator", "geronimus",
    "gram_matrix", "hankel_orthogonal", "laguerre",
    "laguerre_moments", "laguerre_recurrence", "leading_principal_minors",
    "combine_with_point_mass", "measure_catalog", "meixner",
    "meixner_moments", "meixner_recurrence", "minimal_even_order",
    "moments_from_recurrence", "nullspace", "point_mass", "poly_from_json",
    "poly_gcd", "poly_of_operator", "poly_to_json", "polys_from_recurrence",
    "q_derivative_ops", "q_power_exponent", "qpochhammer", "rational",
    "rational_str", "rref", "scale", "shift", "solve_exact",
    "theorem_catalog", "verify_dop", "verify_eigen",
]
