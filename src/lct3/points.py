"""Arrangements of lines through the origin, encoded by their direction
points in the projective plane: saturated ideals, graded pieces of the
interpolation problem, and symbolic powers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .ideals import Ideal, ideal_intersect, ideal_power, unit_ideal
from .linalg import RatMatrix
from .polynomials import Poly, monomials_of_degree


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
    """Echelonized basis of the forms of one degree vanishing on a point set."""

    degree: int
    basis: tuple  # of homogeneous Poly


def point_prime(p: PointP2) -> Ideal:
    """The ideal of a single point: two canonical independent linear forms
    (the echelon kernel basis of the 1x3 evaluation matrix)."""
    matrix = RatMatrix([[c for c in p.coords]])
    monos = monomials_of_degree(1)
    forms = [
        Poly({e: c for e, c in zip(monos, vec)}, 3)
        for vec in matrix.kernel_basis()
    ]
    return Ideal(forms, nvars=3)


def evaluation_matrix(Z: PointSet, d: int) -> RatMatrix:
    """Rows: points of Z; columns: degree-d monomials in grevlex order."""
    monos = monomials_of_degree(d)
    rows = []
    for p in Z:
        a, b, c = p.coords
        rows.append([a**e[0] * b**e[1] * c**e[2] for e in monos])
    return RatMatrix(rows)


def graded_piece(Z: PointSet, d: int) -> GradedPiece:
    """All degree-d forms vanishing on Z, as an echelon basis."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    monos = monomials_of_degree(d)
    basis = [
        Poly({e: c for e, c in zip(monos, vec)}, 3)
        for vec in evaluation_matrix(Z, d).kernel_basis()
    ]
    return GradedPiece(d, tuple(basis))


# Entries kept by each arrangement cache (ideal_of_points, symbolic_power,
# envelope_report, classify): ample for reuse within one computation, and
# bounded so a long-lived process does not keep every arrangement it saw.
CACHE_SIZE = 128


@lru_cache(maxsize=CACHE_SIZE)
def ideal_of_points(Z: PointSet) -> Ideal:
    """The saturated homogeneous ideal of Z (equivalently of the cone over
    Z in affine 3-space), as the intersection of the point primes."""
    return reduce(ideal_intersect, (point_prime(p) for p in Z))


@lru_cache(maxsize=CACHE_SIZE)
def symbolic_power(Z: PointSet, k: int) -> Ideal:
    """The k-th symbolic power: intersection of the k-th powers of the
    point primes.  k = 0 gives the unit ideal, k = 1 the ideal itself."""
    if k < 0:
        raise ValueError("symbolic power exponent must be non-negative")
    if k == 0:
        return unit_ideal(3)
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
    """Do the points impose independent conditions in every degree up to
    (and one past) the first interpolation degree?"""
    n = len(Z)
    d, _ = expected_interpolation_data(n)
    for t in range(1, d + 2):
        space = (t + 1) * (t + 2) // 2
        expected = max(0, space - n)
        if len(graded_piece(Z, t).basis) != expected:
            return False
    return True


def general_points(n: int, seed: int) -> PointSet:
    """A reproducible random point set with verified general rank behavior.

    Samples integer coordinates uniformly from [-B, B]; generality is not
    assumed but checked, with a bounded number of resamples.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = random.Random(seed)
    for _ in range(GENERALITY_RETRIES):
        triples = []
        seen = set()
        while len(triples) < n:
            t = tuple(
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND) for _ in range(3)
            )
            if all(v == 0 for v in t):
                continue
            p = PointP2.of(*t)
            if p in seen:
                continue
            seen.add(p)
            triples.append(t)
        Z = PointSet.of(triples)
        if n == 1 or is_rank_general(Z):
            return Z
    raise RuntimeError(f"could not sample a general {n}-point set (seed {seed})")
