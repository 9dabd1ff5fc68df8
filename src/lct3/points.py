"""Arrangements of lines through the origin, encoded by their direction
points in the projective plane: graded pieces of the interpolation problem,
the saturated ideal they generate, its truncations, and symbolic powers.

The pieces (I_Z)_d are computed once per arrangement, for d = 0, ..., t + 1
with t the first degree in which Z imposes n = |Z| conditions.  I_Z is
generated in degrees <= t + 1 (Eisenbud, The Geometry of Syzygies, ch. 4),
so these pieces span it."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm

from .ideals import Ideal, _int_from_poly, ideal_intersect, ideal_power, unit_ideal
from .linalg import RatMatrix
from .polynomials import GREVLEX, Poly, monomials_of_degree


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

    def codim(self) -> int:
        """Conditions the points impose in this degree: C(d+2, 2) - dim."""
        return (self.degree + 1) * (self.degree + 2) // 2 - len(self.basis)


def point_prime(p: PointP2) -> Ideal:
    """The ideal of a single point: its degree-1 graded piece, two canonical
    independent linear forms."""
    return Ideal(graded_piece(PointSet((p,)), 1).basis, nvars=3)


def integral_coords(p: PointP2) -> tuple:
    """p's coordinates times the lcm of their denominators: integers, which
    scale the value of a form of degree t by that lcm to the t-th power, so
    that the form vanishes there iff it vanishes at p."""
    scale = lcm(*(v.denominator for v in p.coords))
    return tuple(v.numerator * (scale // v.denominator) for v in p.coords)


def evaluation_matrix(Z: PointSet, d: int) -> RatMatrix:
    """Rows: points of Z, each scaled to integer coordinates (which scales
    its row and keeps the kernel); columns: degree-d monomials in grevlex
    order."""
    monos = monomials_of_degree(d)
    rows = []
    for p in Z:
        a, b, c = integral_coords(p)
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
    kept as its reduced grevlex basis."""
    forms = [f for piece in hilbert_pieces(Z) for f in piece.basis]
    return Ideal._from_basis(Ideal(forms, nvars=3)._int_basis(), 3)


def truncation(Z: PointSet, k: int) -> Ideal:
    """(I_Z)_{>=k}, the forms of I_Z of degree >= k: m^k ∩ I_Z, since I_Z is
    homogeneous.  Its reduced basis is the reduced echelon basis of the piece
    (I_Z)_k, which graded_piece gives (hilbert_pieces holds the lower ones),
    followed by the elements of I_Z's reduced basis of degree > k: a
    degree-k monomial of the initial ideal lies under no minimal generator
    of higher degree, and a minimal generator of higher degree lies over no
    degree-k monomial of it."""
    IZ = ideal_of_points(Z)
    if k <= 0:
        return IZ
    basis = [(lead, p) for lead, p in IZ._int_basis() if sum(lead) > k]
    pieces = hilbert_pieces(Z)
    for f in (pieces[k] if k < len(pieces) else graded_piece(Z, k)).basis:
        p = _int_from_poly(f, GREVLEX.key)
        basis.append((max(p, key=GREVLEX.key), p))
    return Ideal._from_basis(basis, 3)


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
    """Do the points impose independent conditions in every degree?  With
    t0 the least t where C(t+2, 2) >= n, no form of degree t0 - 1 through
    Z rules out one of lower degree, and n conditions in degree t0 persist
    above it, so those two degrees decide."""
    n = len(Z)
    t0 = 0
    while (t0 + 1) * (t0 + 2) // 2 < n:
        t0 += 1
    return all(
        graded_piece(Z, t).codim() == min(n, (t + 1) * (t + 2) // 2)
        for t in range(max(t0 - 1, 0), t0 + 1)
    )


class SamplingError(RuntimeError):
    """general_points found no general set within GENERALITY_RETRIES draws."""


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
    raise SamplingError(f"could not sample a general {n}-point set (seed {seed})")
