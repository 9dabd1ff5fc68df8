"""The public surface of lct3: the names its top level exports, one a line,
so that adding or removing one shows as a one-line diff here.  Such a change
is a contract change, and CHANGES.md names it."""

from types import ModuleType

import lct3

PUBLIC = [
    "Classification",
    "CrossCheckReport",
    "EnvelopeReport",
    "GREVLEX",
    "GradedPiece",
    "Ideal",
    "JumpTable",
    "MonomialOrder",
    "MultiplierIdealResult",
    "NewtonPolyhedron",
    "PointP2",
    "PointSet",
    "Poly",
    "RatMatrix",
    "UnsupportedArrangement",
    "X",
    "Y",
    "Z",
    "ZeroDimReport",
    "as_lambda",
    "classify",
    "cross_check",
    "eliminate",
    "envelope",
    "envelope_report",
    "general_points",
    "generator_degrees",
    "geometric_generating_degrees",
    "graded_piece",
    "hilbert_function",
    "ideal_equal",
    "ideal_intersect",
    "ideal_of_points",
    "ideal_power",
    "ideal_product",
    "ideal_quotient",
    "ideal_sum",
    "is_smooth_plane_curve",
    "jump_candidates",
    "jumping_numbers",
    "lct",
    "maximal_ideal",
    "membership_by_valuation",
    "monomial_mi",
    "monomials_of_degree",
    "multiplier_ideal",
    "newton_polyhedron",
    "point_prime",
    "poly_from_string",
    "poly_str",
    "power_of_m",
    "radical_zero_dim",
    "saturate",
    "symbolic_power",
    "unit_ideal",
    "variables",
    "zero_dim_report",
    "zero_ideal",
]


def test_top_level_names_are_the_public_surface():
    # submodules become attributes once imported; they are not names of it
    names = [n for n, v in vars(lct3).items() if not (n.startswith("_") or isinstance(v, ModuleType))]
    assert sorted(names) == PUBLIC
