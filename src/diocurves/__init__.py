"""Elliptic curves induced by rational Diophantine triples.

Exact-rational construction of the curves attached to triples whose
pairwise products are one less than a square, with torsion
classification, certified rank lower bounds, a candidate sieve, and a
bundled dataset of published record curves.
"""

from .descent import (IndependenceResult, RankBound, descent_image,
                      independent_mod_two, naive_point_search,
                      rank_lower_bound)
from .errors import (DatasetCorrupt, DegenerateParameter, DegenerateTriple,
                     DiocurvesError, FactorizationIncomplete, NotDiophantine,
                     ParseError, SingularCurve)
from .factoring import Factorization, factor_best_effort, is_probable_prime
from .families import (FAMILY_CONSTRUCTORS, FamilyMember, PaperRecord,
                       ConditionWitness, F_uv, dataset_record, family_k,
                       make_family_member, one_three_c, paper_dataset,
                       torsion_condition, triple_from_alpha_beta,
                       z2z4_doubled_solution, z2z4_doubled_triple,
                       z2z4_family, z2z6_parameters, z2z6_parameters_uv,
                       z2z6_triple, z2z6_triple_uv, z2z8_family)
from .rationals import (QQ, format_rational, is_perfect_square,
                        naive_height, parse_rational, square_class)
from .sieve import (SieveResult, count_points_fp, mestre_nagao_sum,
                    mestre_nagao_sums, primes_upto, summand_forms,
                    trace_of_frobenius)
from .torsion import (TorsionSubgroup, halve_point, point_order,
                      points_with_x, reduction_torsion_bound,
                      torsion_subgroup, two_torsion_points)
from .triples import (CanonicalPoints, InducedCurves, QuadrupleExtension,
                      Triple, canonical_points, euler_extension,
                      extend_to_quadruple, induced_curves, make_triple,
                      mutual_root, validate_tuple)
from .weierstrass import (CurveQ, INFINITY, ModelMap, PointQ, add,
                          clear_denominators, dbl, find_isomorphism,
                          invariants, is_on_curve, minimal_model, neg,
                          scalar_mul, sub)

__version__ = "0.1.0"
