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
from operator import sub

from .ideals import Ideal, _int_from_poly
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

    def strictly_inside(self, v, scale=1) -> bool:
        """Is v in the topological interior of scale * polyhedron?  For
        scale = num/den in lowest terms, <n, v> > scale * c at each facet is
        den<n, v> > num*c, decided in integers."""
        scale = Fraction(scale)
        num, den = scale.numerator, scale.denominator
        return all(den * _dot(n, v) > num * c for n, c in self.facet_inequalities)


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
    vectors (or single-term polynomials) of k[x, y, z], at exponent lam."""
    lam = as_lambda(lam)
    exps = []
    for g in generators:
        if not isinstance(g, Poly):
            g = Poly.monomial(g)
        if len(g.terms) != 1:
            raise ValueError("generators must be monomials")
        exps.append(next(iter(_int_from_poly(g))))
    poly = newton_polyhedron(exps)
    bound = math.ceil(lam * max(k for p in poly.exponent_points for k in p)) + 3
    num, den = lam.numerator, lam.denominator
    # x^v is in J iff v + (1, 1, 1) is strictly inside lam * polyhedron:
    # den<n, v> + den<n, (1, 1, 1)> > num*c at each facet, as in
    # strictly_inside
    facets = [
        (den * a, den * b, den * c, num * k - den * (a + b + c))
        for (a, b, c), k in poly.facet_inequalities
    ]
    found = {
        v
        for v in product(range(bound + 1), repeat=3)
        if all(a * v[0] + b * v[1] + c * v[2] > k for a, b, c, k in facets)
    }
    # the normals are non-negative, so found is closed upward in the box:
    # v is a minimal exponent iff no v - e_i is in it
    minimal = [v for v in found if not any(tuple(map(sub, v, e)) in found for e in _AXES)]
    minimal.sort(key=grevlex_key, reverse=True)
    return Ideal._from_basis([(e, {e: 1}) for e in minimal])
