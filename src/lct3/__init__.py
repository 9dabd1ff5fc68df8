"""Exact classification of line arrangements through the origin of affine
3-space via degree envelopes of planar point sets, with closed-form
multiplier ideals, jumping numbers, and log canonical thresholds, plus
independent oracles for cross-verification."""

from .envelopes import (
    Classification,
    EnvelopeReport,
    classify,
    envelope,
    envelope_report,
    generator_degrees,
    geometric_generating_degrees,
    is_smooth_plane_curve,
)
from .ideals import (
    Ideal,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_sum,
    maximal_ideal,
    saturate,
    unit_ideal,
    zero_ideal,
)
from .linalg import RatMatrix
from .multiplier import (
    JumpTable,
    MultiplierIdealResult,
    UnsupportedArrangement,
    as_lambda,
    jump_candidates,
    jumping_numbers,
    lct,
    membership_by_valuation,
    multiplier_ideal,
    power_of_m,
)
from .newton import NewtonPolyhedron, monomial_mi, newton_polyhedron
from .points import (
    GradedPiece,
    PointP2,
    PointSet,
    general_points,
    graded_piece,
    ideal_of_points,
    point_prime,
    symbolic_power,
)
from .polynomials import (
    GREVLEX,
    MonomialOrder,
    Poly,
    X,
    Y,
    Z,
    monomials_of_degree,
    poly_from_string,
    poly_str,
    variables,
)
from .verify import CrossCheckReport, cross_check
from .zerodim import ZeroDimReport, hilbert_function, radical_zero_dim, zero_dim_report

__version__ = "0.1.0"
