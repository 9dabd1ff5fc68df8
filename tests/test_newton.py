import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lct3 import (
    classify,
    ideal_equal,
    maximal_ideal,
    monomial_mi,
    multiplier_ideal,
    newton_polyhedron,
)

F = Fraction

AXES = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_axes_at_three_halves():
    assert ideal_equal(monomial_mi(AXES, F(3, 2)), maximal_ideal())


def test_smooth_divisor():
    assert monomial_mi([(1, 0, 0)], F(1, 2)).is_unit()
    got = monomial_mi([(1, 0, 0)], 1)
    assert [str(g) for g in got.groebner()] == ["x"]


@pytest.mark.parametrize(
    "lam", [F(1, 3), F(1), F(3, 2), F(2), F(7, 3), F(3), F(7, 2), F(4), F(5)]
)
def test_smooth_divisor_floor_powers(lam):
    got = monomial_mi([(1, 0, 0)], lam)
    k = lam.numerator // lam.denominator
    if k == 0:
        assert got.is_unit()
    else:
        assert [str(g) for g in got.groebner()] == [f"x^{k}" if k > 1 else "x"]


def test_lambda_zero_unit():
    assert monomial_mi(AXES, 0).is_unit()


def test_monotone_in_lambda():
    grid = [F(k, 4) for k in range(0, 13)]
    ideals = [monomial_mi(AXES, lam) for lam in grid]
    for smaller, larger in zip(ideals, ideals[1:]):
        assert smaller.contains_ideal(larger)


def test_polyhedron_facets_valid():
    poly = newton_polyhedron(AXES + [(4, 0, 0)])
    for n, c in poly.facet_inequalities:
        assert all(k >= 0 for k in n)
        for p in poly.exponent_points:
            assert sum(a * b for a, b in zip(n, p)) >= c


def test_axes_facet_geometry():
    poly = newton_polyhedron(AXES)
    # the deep facet x+y+z >= 2 must be present
    assert ((1, 1, 1), 2) in poly.facet_inequalities
    assert not poly.strictly_inside((1, 1, 1), F(3, 2))  # on the boundary of (3/2)P
    assert poly.strictly_inside((2, 1, 1), F(3, 2))


def test_agrees_with_case_a_formula(coordinate_points):
    c = classify(coordinate_points)
    for lam in [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]:
        closed = multiplier_ideal(c, coordinate_points, lam).ideal
        assert ideal_equal(closed, monomial_mi(AXES, lam))


def reference_monomial_mi(exponents, lam):
    """The minimal exponents of monomial_mi by the definition: v + (1, 1, 1)
    strictly inside lam * polyhedron, compared in Fractions, over the same
    box, and the minimal ones by divisibility."""
    poly = newton_polyhedron(exponents)
    bound = math.ceil(lam * max(k for p in poly.exponent_points for k in p)) + 3
    found = [
        v
        for v in product(range(bound + 1), repeat=3)
        if all(
            sum(a * (b + 1) for a, b in zip(n, v)) > lam * c
            for n, c in poly.facet_inequalities
        )
    ]
    return sorted(
        v
        for v in found
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in found)
    )


exponent_vectors = st.tuples(*[st.integers(0, 4)] * 3).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    exponents=st.lists(exponent_vectors, min_size=1, max_size=4),
    lam=st.builds(F, st.integers(0, 12), st.integers(1, 4)).filter(lambda l: l <= 3),
    v=st.tuples(*[st.integers(0, 12)] * 3),
)
def test_integer_oracle_matches_the_fraction_definition(exponents, lam, v):
    # monomial_mi decides the interior in integers and minimality by the
    # up-set test; strictly_inside still takes a Fraction or an int scale
    assert sorted(monomial_mi(exponents, lam).leading_exponents()) == (
        reference_monomial_mi(exponents, lam)
    )
    poly = newton_polyhedron(exponents)
    for scale in (lam, lam.numerator):
        want = all(
            sum(a * b for a, b in zip(n, v)) > scale * c
            for n, c in poly.facet_inequalities
        )
        assert poly.strictly_inside(v, scale) == want
