"""radicalroots: exact radical expressions for roots of solvable polynomials.

Given a monic irreducible integer polynomial and its (solvable) Galois group
as permutation generators, the pipeline computes high-precision numeric roots,
runs the resolvent tensor transforms forward to an integer tensor, and works
backward to branch-tagged radical expressions for every root, verified by
re-evaluation.
"""

__version__ = "0.1.0"

from .errors import (InputSyntaxError, LabelingFailed, NonConvergence,
                     NotSolvable, PhaseAmbiguous, PrecisionInfeasible,
                     ResidualTooLarge, SolverError, UnsupportedInput,
                     VerificationFailed)
from .groups import (CompositionSeries, Permutation, PermutationGroup,
                     closure, composition_series, coset_representatives,
                     orbit_sum_invariant, parse_cycles)
from .oracle import coset_product_certificate, invariant_value, label_roots
from .pipeline import solve
from .polynomial import (IntPolynomial, MonicReduction, eval_poly,
                         parse_polynomial, render_polynomial, sanity_check,
                         to_monic)
from .precision import (format_complex, nearest_integer, principal_root,
                        root_of_unity)
from .radical import (RadicalExpr, SolveReport, emit, evaluate,
                      parse_expr_json, reconstruct, verify)
from .resolvent import (IntegerThetaTensor, MultiplicationCounter,
                        PrecisionPlan, ResolventTensor, build_theta0,
                        forward_level, forward_pass, plan_precision,
                        round_theta_m)
from .rootfinder import (RootSet, find_roots, root_magnitude_bound,
                         root_residuals)

__all__ = [
    "__version__",
    # pipeline
    "solve",
    # polynomial
    "IntPolynomial", "MonicReduction", "parse_polynomial", "render_polynomial",
    "to_monic", "eval_poly", "sanity_check",
    # precision
    "root_of_unity", "principal_root", "nearest_integer", "format_complex",
    # groups
    "Permutation", "PermutationGroup", "CompositionSeries", "parse_cycles",
    "closure", "composition_series", "coset_representatives",
    "orbit_sum_invariant",
    # rootfinder
    "RootSet", "find_roots", "root_magnitude_bound", "root_residuals",
    # resolvent
    "ResolventTensor", "PrecisionPlan", "MultiplicationCounter",
    "IntegerThetaTensor", "plan_precision", "build_theta0", "forward_level",
    "forward_pass", "round_theta_m",
    # radical
    "RadicalExpr", "SolveReport", "reconstruct", "evaluate", "emit",
    "parse_expr_json", "verify",
    # oracle
    "invariant_value", "coset_product_certificate", "label_roots",
    # errors
    "SolverError", "InputSyntaxError", "UnsupportedInput", "NotSolvable",
    "ResidualTooLarge", "PhaseAmbiguous", "LabelingFailed",
    "PrecisionInfeasible", "NonConvergence", "VerificationFailed",
]
