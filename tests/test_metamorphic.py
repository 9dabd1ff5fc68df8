"""Metamorphic properties of classify: the result depends on the set of
points only, not on their order, and is invariant under a projective
change of coordinates."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lct3 import PointSet, classify, general_points, lct
from lct3.cli import classification_doc

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
