"""Independent multiplier-ideal oracle for monomial ideals, via the Newton
polyhedron: conv(exponents) + positive orthant, facets enumerated by brute
force over triples of generators and axis rays, membership decided by exact
strict inequalities (a monomial x^v enters the multiplier ideal at exponent
lam exactly when v + (1,1,1) lies in the interior of lam * polyhedron)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .ideals import Ideal, _divides
from .multiplier import as_lambda
from .polynomials import Poly, grevlex_key

_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class NewtonPolyhedron:
    """The unbounded polyhedron conv(exponent points) + orthant, described by
    valid inequalities <normal, v> >= offset with non-negative normals.  The
    list includes every facet (supporting planes through lower-dimensional
    faces are harmless for strict-interior tests)."""

    exponent_points: tuple
    facet_inequalities: tuple  # of (normal triple, offset)

    def strictly_inside(self, v, scale=Fraction(1)) -> bool:
        """Is v in the topological interior of scale * polyhedron?"""
        return all(
            _dot(n, v) > scale * c for n, c in self.facet_inequalities
        )


def newton_polyhedron(exponents) -> NewtonPolyhedron:
    pts = sorted({tuple(int(k) for k in e) for e in exponents})
    if not pts:
        raise ValueError("need at least one exponent vector")
    if any(k < 0 for p in pts for k in p):
        raise ValueError("exponents must be non-negative")
    normals = {}
    elements = [("p", p) for p in pts] + [("r", a) for a in _AXES]
    for combo in combinations(elements, 3):
        points = [v for kind, v in combo if kind == "p"]
        rays = [v for kind, v in combo if kind == "r"]
        if not points:
            continue
        base = points[0]
        span = [tuple(q - b for q, b in zip(p, base)) for p in points[1:]] + rays
        if len(span) != 2:
            continue
        n = _cross(span[0], span[1])
        if n == (0, 0, 0):
            continue
        if all(k <= 0 for k in n):
            n = tuple(-k for k in n)
        if any(k < 0 for k in n):
            continue  # mixed sign: not valid on the recession cone
        g = math.gcd(math.gcd(abs(n[0]), abs(n[1])), abs(n[2]))
        n = tuple(k // g for k in n)
        offset = min(_dot(n, p) for p in pts)
        normals[n] = offset
    facets = tuple(sorted(normals.items()))
    return NewtonPolyhedron(tuple(pts), facets)


def monomial_mi(generators, lam) -> Ideal:
    """Multiplier ideal of the monomial ideal spanned by the given exponent
    vectors (or single-term polynomials), at exponent lam."""
    lam = as_lambda(lam)
    exps = []
    for g in generators:
        if isinstance(g, Poly):
            if len(g.terms) != 1:
                raise ValueError("generators must be monomials")
            exps.append(next(iter(g.terms)))
        else:
            exps.append(tuple(g))
    poly = newton_polyhedron(exps)
    bound = math.ceil(lam * max(k for p in poly.exponent_points for k in p)) + 3
    found = []
    shift = (1, 1, 1)
    for v in product(range(bound + 1), repeat=3):
        if poly.strictly_inside(tuple(a + s for a, s in zip(v, shift)), lam):
            found.append(v)
    minimal = [v for v in found if not any(w != v and _divides(w, v) for w in found)]
    minimal.sort(key=grevlex_key, reverse=True)
    return Ideal._from_basis([(e, {e: 1}) for e in minimal], 3)
