"""Metamorphic properties of classify and the jump list: the result depends
on the set of points only, not on their order, and classify is invariant
under a projective change of coordinates, as are, under an integer one, the
jumping numbers and the multiplier ideals, whose forms move with it."""

import json
import random
from argparse import Namespace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from lct3 import (
    Ideal,
    Poly,
    PointSet,
    UnsupportedArrangement,
    classify,
    general_points,
    ideal_equal,
    jumping_numbers,
    lct,
    multiplier_ideal,
    variables,
)
from lct3.cli import classification_doc, cmd_jumps

FIXTURES = (
    "coordinate_points",
    "three_collinear",
    "six_on_conic",
    "four_three_collinear",
    "eleven_on_cubic",
    "five_general",
    "six_general",
    "eight_general",
)

general_sets = st.builds(general_points, st.integers(1, 8), st.integers(0, 10**6))


def document(Z_) -> str:
    return json.dumps(classification_doc(classify(Z_)), sort_keys=True)


def reordered(Z_, rng) -> PointSet:
    points = list(Z_.points)
    rng.shuffle(points)
    return PointSet(tuple(points))


@settings(max_examples=15, deadline=None)
@given(Z_=general_sets, rng=st.randoms(use_true_random=False))
def test_classify_ignores_point_order(Z_, rng):
    assert document(reordered(Z_, rng)) == document(Z_)


@pytest.mark.parametrize("name", FIXTURES)
def test_classify_ignores_point_order_of_fixtures(name, request):
    Z_ = request.getfixturevalue(name)
    expected = document(Z_)
    assert document(PointSet(Z_.points[::-1])) == expected
    assert document(reordered(Z_, random.Random(name))) == expected


def jumps_document(Z_) -> str:
    try:
        return json.dumps(cmd_jumps(Z_, Namespace(lambda_max="3")), sort_keys=True)
    except UnsupportedArrangement as exc:
        return f"unsupported: {exc}"


@settings(max_examples=10, deadline=None)
@given(
    Z_=st.builds(general_points, st.integers(1, 6), st.integers(0, 10**6)),
    rng=st.randoms(use_true_random=False),
)
def test_jumps_ignore_point_order(Z_, rng):
    assert jumps_document(reordered(Z_, rng)) == jumps_document(Z_)


@pytest.mark.parametrize("name", FIXTURES)
def test_jumps_ignore_point_order_of_fixtures(name, request):
    Z_ = request.getfixturevalue(name)
    assert jumps_document(reordered(Z_, random.Random(name))) == jumps_document(Z_)


def det3(g) -> int:
    (a, b, c), (d, e, f), (h, i, j) = g
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)


invertible = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3
).filter(det3)


def invariants(Z_) -> dict:
    """Everything classify reports that no change of coordinates moves:
    the forms (curve, W and Z_d generators) are left out."""
    c = classify(Z_)
    doc = classification_doc(c)
    out = {k: v for k, v in doc.items() if not k.endswith(("_form", "_generators"))}
    if c.is_supported():
        out["lct"] = lct(c)
    return out


def transformed(Z_, g) -> PointSet:
    return PointSet.of(
        [[sum(a * x for a, x in zip(row, p.coords)) for row in g] for p in Z_]
    )


@settings(max_examples=15, deadline=None)
@given(Z_=general_sets, g=invertible)
def test_classify_is_projectively_invariant(Z_, g):
    assert invariants(transformed(Z_, g)) == invariants(Z_)


@pytest.mark.parametrize("name", FIXTURES)
def test_classify_of_fixtures_is_projectively_invariant(name, request):
    Z_ = request.getfixturevalue(name)
    rng = random.Random(name)
    for _ in range(3):
        g = [[0] * 3] * 3
        while not det3(g):
            g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        assert invariants(transformed(Z_, g)) == invariants(Z_)


def unimodular(rng):
    """A 3x3 integer matrix with entries in [-3, 3] and determinant +-1."""
    g = [[0] * 3] * 3
    while abs(det3(g)) != 1:
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    return g


def inverse(g):
    """The inverse of a unimodular matrix: its adjugate times det = +-1,
    each cofactor read cyclically."""
    det = det3(g)

    def cofactor(i, j):
        (a, b), (c, d) = [[g[(i + r) % 3][(j + s) % 3] for s in (1, 2)] for r in (1, 2)]
        return a * d - b * c

    return [[det * cofactor(j, i) for j in range(3)] for i in range(3)]


def composed(f: Poly, h) -> Poly:
    """f(h x): each variable x_i replaced by the linear form sum_j h[i][j] x_j."""
    forms = [sum((v * c for c, v in zip(row, variables(3))), Poly.zero(3)) for row in h]
    out = Poly.zero(3)
    for e, c in f.terms.items():
        term = Poly.constant(c, 3)
        for form, k in zip(forms, e):
            term = term * form**k
        out = out + term
    return out


def assert_moves_with_coordinates(Z_, kind, lam_max, lams, seed):
    # Z -> g Z moves each form f through Z to f o g^-1 through g Z, and the
    # multiplier ideals with it: the jumps up to lam_max stay, and J(lam) of
    # g Z is J(lam) of Z moved, for each lam of lams
    g = unimodular(random.Random(seed))
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert [[sum(map(mul, r, col)) for col in zip(*inverse(g))] for r in g] == identity
    moved = transformed(Z_, g)
    c, c_moved = classify(Z_), classify(moved)
    assert c.kind == c_moved.kind == kind
    jumps = [lam for lam, _ in jumping_numbers(c, Z_, lam_max).jumps]
    assert [lam for lam, _ in jumping_numbers(c_moved, moved, lam_max).jumps] == jumps
    for lam in lams:
        J = multiplier_ideal(c, Z_, lam).ideal
        expected = Ideal([composed(f, inverse(g)) for f in J.generators])
        assert ideal_equal(multiplier_ideal(c_moved, moved, lam).ideal, expected), lam


@pytest.mark.parametrize("seed", [0, 1])
def test_case_c_is_invariant_under_integer_changes_of_coordinates(seed, eight_general):
    assert_moves_with_coordinates(eight_general, "C", 3, [Fraction(5, 2)], seed)


# (kind, lam_max, lams) per set; above 3 on the small special sets only, as
# J(7/2) on a general set takes seconds
MOVED_RANGES = {
    "coordinate_points": ("A", 4, [Fraction(5, 2), Fraction(7, 2)]),
    "three_collinear": ("B", 4, [Fraction(5, 2), Fraction(7, 2)]),
    "six_on_conic": ("B", 4, [Fraction(5, 2), Fraction(7, 2)]),
    "six_general": ("A", 3, [Fraction(5, 2)]),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fixture", MOVED_RANGES)
def test_cases_a_and_b_are_invariant_under_integer_changes_of_coordinates(
    request, fixture, seed
):
    Z_ = request.getfixturevalue(fixture)
    assert_moves_with_coordinates(Z_, *MOVED_RANGES[fixture], seed)
