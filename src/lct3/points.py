"""Arrangements of lines through the origin, encoded by their direction
points in the projective plane: graded pieces of the interpolation problem,
the saturated ideal they generate, and symbolic powers.

The pieces (I_Z)_d are computed once per arrangement, for d = 0, ..., t + 1
with t the first degree in which Z imposes n = |Z| conditions.  I_Z is
generated in degrees <= t + 1 (Eisenbud, The Geometry of Syzygies, ch. 4),
so these pieces span it."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import lcm

from .ideals import Ideal, _poly_from_int, ideal_intersect, ideal_power, unit_ideal
from .linalg import TRACE_PRIME, echelon, integer_kernel, rank
from .polynomials import monomials_of_degree


def _to_fraction(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("coordinates must be exact rationals, not floats")
    if isinstance(v, str):
        return Fraction(v.strip())
    return Fraction(v)


@dataclass(frozen=True)
class PointP2:
    """A point of the projective plane, normalized so the first nonzero
    coordinate equals 1 (making equality literal)."""

    coords: tuple

    @classmethod
    def of(cls, a, b, c) -> "PointP2":
        raw = (_to_fraction(a), _to_fraction(b), _to_fraction(c))
        lead = next((v for v in raw if v != 0), None)
        if lead is None:
            raise ValueError("projective point cannot be all zero")
        return cls(tuple(v / lead for v in raw))

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class PointSet:
    """A nonempty set of pairwise distinct projective points; equivalently
    the arrangement of lines through the origin with those directions."""

    points: tuple

    @classmethod
    def of(cls, coordinate_triples) -> "PointSet":
        pts = [PointP2.of(*t) for t in coordinate_triples]
        if not pts:
            raise ValueError("a point set must be nonempty")
        seen = set()
        for p in pts:
            if p in seen:
                raise ValueError(f"repeated point {p}")
            seen.add(p)
        return cls(tuple(pts))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class GradedPiece:
    """The forms of one degree vanishing on a point set, as the reduced
    echelon basis of their space: (leading exponent, primitive integer
    form) pairs, leading exponents descending under grevlex."""

    degree: int
    forms: tuple

    @cached_property
    def basis(self) -> tuple:
        """The same basis as monic Polys."""
        return tuple(_poly_from_int(p, lead) for lead, p in self.forms)

    def codim(self) -> int:
        """Conditions the points impose in this degree: C(d+2, 2) - dim."""
        return (self.degree + 1) * (self.degree + 2) // 2 - len(self.forms)

    def ideal(self) -> Ideal:
        """The ideal these forms generate."""
        return Ideal._of([p for _, p in self.forms])


def point_prime(p: PointP2) -> Ideal:
    """The ideal of a single point: its degree-1 graded piece, two canonical
    independent linear forms."""
    return graded_piece(PointSet((p,)), 1).ideal()


def integral_coords(p: PointP2) -> tuple:
    """p's coordinates times the lcm of their denominators: integers, which
    scale the value of a form of degree t by that lcm to the t-th power, so
    that the form vanishes there iff it vanishes at p."""
    scale = lcm(*(v.denominator for v in p.coords))
    return tuple(v.numerator * (scale // v.denominator) for v in p.coords)


def evaluation_matrix(Z: PointSet, d: int) -> list:
    """Integer rows: points of Z, each scaled to integer coordinates (which
    scales its row and keeps the kernel); columns: degree-d monomials in
    descending grevlex order."""
    monos = monomials_of_degree(d)
    rows = []
    for p in Z:
        a, b, c = integral_coords(p)
        rows.append([a**e[0] * b**e[1] * c**e[2] for e in monos])
    return rows


def graded_piece(Z: PointSet, d: int) -> GradedPiece:
    """All degree-d forms vanishing on Z, as the reduced echelon basis of
    the kernel of the evaluation matrix.  With at least as many points as
    monomials, a full rank modulo TRACE_PRIME (one forward-only pass, a
    lower bound on the rank) gives the empty piece.  Every other piece, a
    rank short modulo the prime included, is read off one echelon pass over
    the integers with pivots taken right to left.  Each pivot row is then
    zero right of its pivot, so the kernel vector of a free column f
    (linalg.integer_kernel) is zero left of f and in every other free
    column: f is its leading monomial, and every vector is reduced against
    the others."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    monos = monomials_of_degree(d)
    rows, n = evaluation_matrix(Z, d), len(monos)
    if len(rows) >= n and len(echelon(rows, range(n), TRACE_PRIME, back=False)[1]) == n:
        return GradedPiece(d, ())
    reduced, pivots = echelon(rows, range(n - 1, -1, -1))
    forms = tuple(
        (monos[f], {monos[j]: v for j, v in vec.items()})
        for f, vec in integer_kernel(reduced, pivots, n)
    )
    return GradedPiece(d, forms)


# Entries kept by each arrangement cache (hilbert_pieces, ideal_of_points,
# symbolic_power, classify): ample for reuse within one computation, and
# bounded so a long-lived process does not keep every arrangement it saw.
CACHE_SIZE = 128


@lru_cache(maxsize=CACHE_SIZE)
def hilbert_pieces(Z: PointSet) -> tuple:
    """graded_piece(Z, d) for d = 0, ..., t + 1, where t is the first degree
    in which Z imposes len(Z) conditions."""
    pieces = []
    while len(pieces) < 2 or pieces[-2].codim() < len(Z):
        pieces.append(graded_piece(Z, len(pieces)))
    return tuple(pieces)


@lru_cache(maxsize=CACHE_SIZE)
def ideal_of_points(Z: PointSet) -> Ideal:
    """The saturated homogeneous ideal of Z (equivalently of the cone over
    Z in affine 3-space), generated by its pieces of degree <= t + 1 and
    kept as its reduced grevlex basis.  The basis is computed with the
    floor fat_point_floor(Z, 1) = (t, n), so a degree from t on whose
    leading monomials already leave n standard monomials, such as the one
    past t + 1, is skipped unformed."""
    forms = [p for piece in hilbert_pieces(Z) for _, p in piece.forms]
    generated = Ideal._of(forms)._bounded(fat_point_floor(Z, 1))
    return Ideal._from_basis(generated._int_basis())


def fat_point_floor(Z: PointSet, k: int) -> tuple:
    """(s0, N) = (k*(t + 1) - 1, n*k*(k + 1)/2) for k >= 1, with n = |Z| and
    t + 1 = len(hilbert_pieces(Z)) - 1 the regularity of I_Z: every ideal J
    inside the symbolic power I^(k) = I_Z^(k) has, for every s >= s0, a
    degree-s piece of dimension at most C(s + 2, 2) - N.  This is the floor
    that ideals._graded takes.

    The bound.  N = deg kZ, a fat point of order k in the plane having
    length C(k + 1, 2).  By Chandler ("Regularity of the powers of an
    ideal", Comm. Algebra 25, 1997), reg I^k <= k * reg I_Z = k*(t + 1),
    since R/I_Z has dimension 1.  I^(k), the intersection of the p^k over
    the point primes p, is the saturation of I^k (each p^k is p-primary,
    and I^k agrees with p^k near p), and saturation does not raise the
    regularity: it changes only the local cohomology H^0.  R/I^(k) is then
    Cohen-Macaulay of dimension 1, so its Hilbert function equals its
    Hilbert polynomial, the constant deg kZ = N, from degree reg I^(k) - 1
    on, and so for s >= s0.  Hence dim I^(k)_s = C(s + 2, 2) - N there, and
    dim J_s is at most that.

    The containment for the Skoda ideals.  J(lam) lies in I^(k) for lam >= 3
    and k = floor(lam) - 1.  For lam in [2, 3), J(lam) lies in I_Z, since
    each term of its clause (multiplier._clause) does: a truncation of I_Z,
    or of I_{Z_d} (Z lies in the envelope Z_d), or in case B a multiple of
    the curve form F, which lies in I_Z.  Each point prime has p * p^j
    inside p^(j + 1), so I_Z * I^(j) lies in I^(j + 1), and J(lam) =
    I_Z * J(lam - 1) follows by induction on floor(lam)."""
    t = len(hilbert_pieces(Z)) - 2
    return k * (t + 1) - 1, len(Z) * k * (k + 1) // 2


@lru_cache(maxsize=CACHE_SIZE)
def symbolic_power(Z: PointSet, k: int) -> Ideal:
    """The k-th symbolic power: intersection of the k-th powers of the
    point primes.  k = 0 gives the unit ideal, k = 1 the ideal itself."""
    if k < 0:
        raise ValueError("symbolic power exponent must be non-negative")
    if k == 0:
        return unit_ideal()
    if k == 1:
        return ideal_of_points(Z)
    return reduce(ideal_intersect, (ideal_power(point_prime(p), k) for p in Z))


# ---------------------------------------------------------------------------
# seeded "general" point sets


COORDINATE_BOUND = 50
GENERALITY_RETRIES = 20


def expected_interpolation_data(n: int):
    """(d, r) with C(d+1,2) <= n = C(d+2,2) - r and r > 0: d is the lowest
    degree of a curve through n general points, r the number of independent
    degree-d curves."""
    d = 1
    while (d + 1) * (d + 2) // 2 <= n:
        d += 1
    return d, (d + 1) * (d + 2) // 2 - n


def is_rank_general(Z: PointSet) -> bool:
    """Do the points impose independent conditions in every degree?  With
    t0 the least t where C(t+2, 2) >= n, no form of degree t0 - 1 through
    Z rules out one of lower degree, and n conditions in degree t0 persist
    above it, so those two degrees decide.  In each, the evaluation matrix
    must have rank min(n, C(t+2, 2)), the most it can have, so one modular
    rank (linalg.rank) usually decides and no piece is built."""
    n = len(Z)
    t0 = 0
    while (t0 + 1) * (t0 + 2) // 2 < n:
        t0 += 1
    for t in range(max(t0 - 1, 0), t0 + 1):
        space = (t + 1) * (t + 2) // 2
        if rank(evaluation_matrix(Z, t), space) < min(n, space):
            return False
    return True


class SamplingError(RuntimeError):
    """general_points found no general set within GENERALITY_RETRIES draws."""


def general_points(n: int, seed: int) -> PointSet:
    """A reproducible random point set with verified general rank behavior.

    Samples integer coordinates uniformly from [-B, B]; generality is not
    assumed but checked, with a bounded number of resamples.  Each drawn
    point is normalized once, and the set keeps the points in draw order.
    Rank generality allows three points on a line (at n = 5 first for seed
    1495); such sets are kept, so that each seed keeps its draw."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = random.Random(seed)
    for _ in range(GENERALITY_RETRIES):
        drawn = {}  # normalized point -> None, in draw order
        while len(drawn) < n:
            t = tuple(
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND) for _ in range(3)
            )
            if any(t):
                drawn.setdefault(PointP2.of(*t))
        Z = PointSet(tuple(drawn))
        if n == 1 or is_rank_general(Z):
            return Z
    raise SamplingError(f"could not sample a general {n}-point set (seed {seed})")
