import sys
from fractions import Fraction

import pytest

from lct3 import PointSet, general_points


@pytest.fixture
def cold_caches():
    """Empty every lru_cache found in the lct3 modules, so a test that
    counts work sees one computation from a cold start.  The caches are
    found by looking, so moving one does not touch the tests."""
    for name, module in list(sys.modules.items()):
        if name == "lct3" or name.startswith("lct3."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture(scope="session")
def coordinate_points():
    return PointSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def three_collinear():
    return PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


@pytest.fixture(scope="session")
def six_on_conic():
    # six rational points [1 : t : t^2] on the smooth conic y^2 = x*z
    return PointSet.of(
        [(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)]
    )


@pytest.fixture(scope="session")
def four_three_collinear():
    return PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def eleven_on_cubic():
    # eleven rational points on the smooth cubic y^2*z = x^3 - x*z^2 + z^3
    return PointSet.of(
        [
            (0, 1, 0),
            (0, 1, 1),
            (0, -1, 1),
            (1, 1, 1),
            (1, -1, 1),
            (-1, 1, 1),
            (-1, -1, 1),
            (3, 5, 1),
            (3, -5, 1),
            (Fraction(1, 4), Fraction(7, 8), 1),
            (5, 11, 1),
        ]
    )


@pytest.fixture(scope="session")
def five_general():
    return general_points(5, 5)


@pytest.fixture(scope="session")
def six_general():
    return general_points(6, 6)


@pytest.fixture(scope="session")
def eight_general():
    return general_points(8, 8)


@pytest.fixture(scope="session")
def supported_arrangements(
    coordinate_points, three_collinear, six_on_conic, six_general, eight_general
):
    """One arrangement per supported case kind, plus a second curve case."""
    return [
        ("coordinate-axes", coordinate_points),
        ("three-collinear", three_collinear),
        ("six-on-conic", six_on_conic),
        ("six-general", six_general),
        ("eight-general", eight_general),
    ]
