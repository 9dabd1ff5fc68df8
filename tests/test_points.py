import math
import random
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st
from test_linalg import eliminations_taken

from lct3 import (
    Ideal,
    PointP2,
    PointSet,
    X,
    Y,
    Z,
    general_points,
    graded_piece,
    hilbert_function,
    ideal_equal,
    ideal_intersect,
    ideal_of_points,
    ideal_power,
    maximal_ideal,
    point_prime,
    symbolic_power,
    unit_ideal,
    variables,
)
from lct3 import linalg, points
from lct3.envelopes import classify
from lct3.ideals import _reduced_basis, truncation
from lct3.linalg import TRACE_PRIME, echelon, integer_kernel
from lct3.points import (
    COORDINATE_BOUND,
    GENERALITY_RETRIES,
    evaluation_matrix,
    expected_interpolation_data,
    fat_point_floor,
    hilbert_pieces,
    integral_coords,
    is_rank_general,
)
from lct3.polynomials import GREVLEX, monomials_of_degree


def test_point_normalization():
    p = PointP2.of(2, 4, 6)
    assert p == PointP2.of(1, 2, 3)
    q = PointP2.of(0, -3, 6)
    assert q.coords[1] == 1


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        PointP2.of(0, 0, 0)


def test_repeated_points_rejected():
    with pytest.raises(ValueError):
        PointSet.of([(1, 0, 0), (2, 0, 0)])


def test_point_prime_of_coordinate_point():
    I = point_prime(PointP2.of(1, 0, 0))
    assert [str(g) for g in I.groebner()] == ["y", "z"]


def test_ideal_of_single_point():
    Z1 = PointSet.of([(1, 0, 0)])
    assert [str(g) for g in ideal_of_points(Z1).groebner()] == ["y", "z"]


def test_ideal_of_coordinate_points(coordinate_points):
    I = ideal_of_points(coordinate_points)
    expected = Ideal([X * Y, X * Z, Y * Z])
    assert ideal_equal(I, expected)
    for g in expected.groebner():
        assert I.contains(g)


def test_ideal_of_collinear_points(three_collinear):
    I = ideal_of_points(three_collinear)
    degrees = sorted(g.total_degree() for g in I.groebner())
    assert degrees == [1, 3]
    assert I.contains(Z)


def test_graded_pieces(three_collinear, coordinate_points, five_general):
    assert graded_piece(coordinate_points, 1).basis == ()
    collinear_lines = graded_piece(three_collinear, 1).basis
    assert [str(f) for f in collinear_lines] == ["z"]
    conics = graded_piece(five_general, 2).basis
    assert len(conics) == 1


def test_graded_piece_matches_ideal(three_collinear, five_general):
    for Z_ in (three_collinear, five_general):
        I = ideal_of_points(Z_)
        for d in range(1, 5):
            piece = graded_piece(Z_, d).basis
            dim_from_ideal = (d + 1) * (d + 2) // 2 - hilbert_function(I, d)
            assert len(piece) == dim_from_ideal
            for f in piece:
                assert I.contains(f)


def test_symbolic_power_basics(coordinate_points):
    assert symbolic_power(coordinate_points, 0).is_unit()
    assert ideal_equal(
        symbolic_power(coordinate_points, 1), ideal_of_points(coordinate_points)
    )


def test_symbolic_square_contains_xyz(coordinate_points):
    xyz = X * Y * Z
    S2 = symbolic_power(coordinate_points, 2)
    assert S2.contains(xyz)
    I2 = ideal_power(ideal_of_points(coordinate_points), 2)
    assert not I2.contains(xyz)


def test_powers_inside_symbolic_powers(supported_arrangements):
    for _, Z_ in supported_arrangements:
        I = ideal_of_points(Z_)
        for k in (1, 2):
            assert symbolic_power(Z_, k).contains_ideal(ideal_power(I, k))


def test_interpolation_dimension_for_random_sets():
    rng = random.Random(14)
    for _ in range(6):
        n = rng.randint(2, 8)
        Z_ = general_points(n, rng.randint(0, 10**6))
        d, _ = expected_interpolation_data(n)
        # from the first interpolation-regular degree on, the kernel has the
        # expected codimension-n dimension
        for t in range(d, d + 3):
            space = (t + 1) * (t + 2) // 2
            assert len(graded_piece(Z_, t).basis) == space - n


def test_general_points_deterministic():
    assert general_points(7, 123) == general_points(7, 123)
    assert is_rank_general(general_points(9, 77))


def drawn_with_two_normalizations(n, seed):
    """The draw of general_points, written out with two normalizations:
    the triples kept in draw order, normalized once to reject repeats and
    again by PointSet.of, and rank generality read off the exact rank of
    the evaluation matrix in the two degrees that decide it."""
    rng = random.Random(seed)
    t0 = 0
    while (t0 + 1) * (t0 + 2) // 2 < n:
        t0 += 1
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
        Z_ = PointSet.of(triples)
        if n == 1 or all(
            independent_conditions(Z_, t) for t in range(max(t0 - 1, 0), t0 + 1)
        ):
            return Z_
    return None


def independent_conditions(Z_, t):
    """Does Z_ impose min(n, C(t + 2, 2)) conditions in degree t, by the
    exact rank of its evaluation matrix?"""
    space = (t + 1) * (t + 2) // 2
    return len(echelon(evaluation_matrix(Z_, t), range(space))[1]) == min(len(Z_), space)


@pytest.mark.parametrize("n", range(1, 16))
def test_each_seed_keeps_its_points(n):
    for seed in range(30):
        assert general_points(n, seed) == drawn_with_two_normalizations(n, seed)


def test_general_points_may_hold_a_collinear_triple():
    # general_points checks rank generality only.  Seed 1495 is the first in
    # 1..1495 whose five points hold three on a line; the one conic through
    # them is then a line pair, so classify reports the set unsupported.
    Z_ = general_points(5, 1495)
    assert is_rank_general(Z_)

    def collinear(p, q, r):
        (a, b, c), (d, e, f), (g, h, i) = p.coords, q.coords, r.coords
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0

    assert any(collinear(*triple) for triple in combinations(Z_, 3))
    c = classify(Z_)
    assert not c.is_supported()
    assert c.reason == "intermediate envelope is a singular curve"


def reference_ideal_of_points(Z_):
    """I_Z as the intersection of the point primes."""
    return reduce(ideal_intersect, (point_prime(p) for p in Z_))


def distinct_points(triples):
    """(point, triple) for the nonzero triples, one per projective point,
    first seen first."""
    kept = {}
    for t in triples:
        if any(t):
            kept.setdefault(PointP2.of(*t), t)
    return list(kept.items())


# small coordinates put many triples of points on a line
grid = range(-2, 3)
POINT_KINDS = (
    distinct_points(product(grid, repeat=3)),
    distinct_points((1, t, t * t) for t in range(-3, 4)),  # on y^2 = x*z
    distinct_points((a, b, 0) for a, b in product(grid, grid)),  # on z = 0
    # one coordinate set to zero: a point on a coordinate line
    distinct_points(
        tuple(0 if i == k else c for i, c in enumerate((a, b, 1)))
        for a, b in product(grid, grid)
        for k in range(3)
    ),
)


@st.composite
def special_point_sets(draw, max_size=8):
    """One to max_size distinct points, mixing collinear subsets, points on
    a conic, points on z = 0 and points on the coordinate lines.  Each point
    is drawn from the precomputed points of a kind, among those not yet
    drawn, so no draw is rejected."""
    n = draw(st.integers(1, max_size))
    chosen = {}
    while len(chosen) < n:
        pools = [[pt for pt in kind if pt[0] not in chosen] for kind in POINT_KINDS]
        pool = draw(st.sampled_from([p for p in pools if p]))
        point, triple = draw(st.sampled_from(pool))
        chosen[point] = triple
    return PointSet.of(chosen.values())


@settings(max_examples=60, deadline=None)
@given(Z_=special_point_sets())
def test_ideal_of_points_is_the_intersection_of_point_primes(Z_):
    I = ideal_of_points(Z_)
    assert I.groebner() == reference_ideal_of_points(Z_).groebner()
    # the ideal is kept as its reduced basis, so its generators are that
    # basis made integral and primitive
    assert tuple(g.monic() for g in I.generators) == I.groebner()


def kernel_piece(Z_, t):
    """The degree-t forms through Z_ as (leading exponent, form) pairs: the
    kernel of the evaluation matrix, read off echelon's full pass with
    pivots taken right to left, with no rank taken first."""
    monos = monomials_of_degree(t)
    order = range(len(monos) - 1, -1, -1)
    kernel = integer_kernel(*echelon(evaluation_matrix(Z_, t), order), len(monos))
    return tuple((monos[f], {monos[j]: v for j, v in vec.items()}) for f, vec in kernel)


def test_a_short_rank_is_decided_by_the_kernel_pass(
    monkeypatch, three_collinear, six_on_conic
):
    # as many points as monomials, but a rank short of full: the modular
    # full-rank question, then the kernel pass, with no rank over Z between
    passes = eliminations_taken(monkeypatch, (linalg, points))
    for Z_, d in ((three_collinear, 1), (six_on_conic, 2)):
        passes.clear()
        assert len(graded_piece(Z_, d).forms) == 1
        assert passes == [(TRACE_PRIME, False), (None, True)]


def rank_general_in_every_degree(Z_):
    """n points impose independent conditions in degree n - 1, so degrees
    0 ... n - 1 are every degree."""
    n = len(Z_)
    return all(
        len(kernel_piece(Z_, t)) == max((t + 1) * (t + 2) // 2 - n, 0)
        for t in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(Z_=special_point_sets())
@example(Z_=PointSet.of([(1, t, t * t) for t in range(-3, 3)]))
@example(Z_=PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
def test_graded_piece_is_the_kernel_in_every_degree(Z_):
    # as many points as monomials but a short rank (six points on a conic
    # in degree 2, three collinear points in degree 1) still give a kernel
    for t in range(len(Z_)):
        assert graded_piece(Z_, t).forms == kernel_piece(Z_, t)


@settings(max_examples=60, deadline=None)
@given(Z_=special_point_sets())
@example(Z_=general_points(9, 77))
@example(Z_=PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
# seven points on a conic impose 7 conditions on cubics: only degree 2 fails
@example(Z_=PointSet.of([(1, t, t * t) for t in range(-3, 4)]))
def test_is_rank_general_checks_every_degree(Z_):
    assert is_rank_general(Z_) is rank_general_in_every_degree(Z_)


# general sets of up to seven points
general_point_sets = st.builds(general_points, st.integers(1, 7), st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(Z_=st.one_of(general_point_sets, special_point_sets()), k=st.integers(0, 9))
@example(Z_=PointSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), k=2)
def test_truncation_is_the_meet_with_a_power_of_m(Z_, k):
    assert_truncation_is_the_meet(ideal_of_points(Z_), k)


def assert_truncation_is_the_meet(J, k):
    # the same reduced basis, in the same order, as the intersection with
    # m^k built as a product of maximal ideals, not as a truncation
    expected = ideal_intersect(ideal_power(maximal_ideal(), k), J)
    assert truncation(J, k)._int_basis() == expected._int_basis()


def case_b_curve_power(power):
    c = classify(general_points(5, 5))
    assert c.kind == "B"
    return Ideal([c.curve_form**power])


@pytest.mark.parametrize(
    "build",
    [
        *(lambda s=s: classify(general_points(8, s)).zd_ideal for s in (1, 2, 8)),
        lambda: case_b_curve_power(1),
        lambda: case_b_curve_power(2),
        lambda: unit_ideal(3),
    ],
    ids=["zd-8-1", "zd-8-2", "zd-8-8", "curve-form", "curve-form-squared", "unit"],
)
def test_truncation_of_a_homogeneous_ideal_is_the_meet(build):
    # Case C's envelope ideal I_{Z_d}, the principal ideals (F) and (F^2) of
    # a Case B curve form, and the unit ideal, whose truncations are m^k*F,
    # m^k*F^2 and m^k from their generators' degree on
    J = build()
    for k in range(9):
        assert_truncation_is_the_meet(J, k)


def test_truncation_rejects_an_inhomogeneous_ideal():
    # truncation never sees one: the constructor refuses it
    with pytest.raises(ValueError, match="generators must be homogeneous"):
        Ideal([X + Y * Y])


def test_truncation_keeps_the_ring():
    # an ideal in two variables, truncated among their monomials
    x, y = variables(2)
    J = Ideal([x * x - y * y, x * y * y])
    expected = ideal_intersect(ideal_power(Ideal([x, y]), 3), J)
    assert truncation(J, 3)._int_basis() == expected._int_basis()


@settings(max_examples=40, deadline=None)
@given(Z_=st.one_of(general_point_sets, special_point_sets()))
@example(Z_=general_points(12, 12))
@example(Z_=general_points(15, 15))
@example(Z_=PointSet.of([(1, t, 0) for t in range(-2, 4)]))  # six on a line
def test_floor_keeps_the_basis_of_the_ideal_of_points(Z_):
    # I_Z's basis, computed with the floor fat_point_floor(Z_, 1), is the
    # reduced basis of the same generators, its pieces, computed without it
    forms = Ideal._of([p for piece in hilbert_pieces(Z_) for _, p in piece.forms], 3)
    assert ideal_of_points(Z_)._int_basis() == _reduced_basis(forms._ints, GREVLEX)


def fat_point_conditions(Z_, k, s):
    """The linear conditions on a degree-s form to vanish to order k at each
    point of Z_: its partials of order k - 1 vanish there (Euler's formula
    and Zariski-Nagata).  One integer row per point, scaled to integer
    coordinates, and derivative; one column per degree-s monomial."""
    monos = monomials_of_degree(s)
    rows = []
    for p in Z_:
        coords = integral_coords(p)
        for alpha in monomials_of_degree(k - 1):
            row = []
            for e in monos:
                value = 1
                for x, a, b in zip(coords, e, alpha):
                    value *= math.perm(a, b) * x ** (a - b) if a >= b else 0
                row.append(value)
            rows.append(row)
    return rows


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fat_points_impose_every_condition_from_the_floor_degree(
    k, coordinate_points, three_collinear, six_on_conic, four_three_collinear
):
    # the floor (s0, N) of kZ: its N conditions are independent in degree
    # s0, so the k-th symbolic power has codimension N there
    sets = [general_points(n, n) for n in range(1, 7)] + [
        coordinate_points,
        three_collinear,
        six_on_conic,
        four_three_collinear,
        PointSet.of([(1, t, 0) for t in range(-2, 4)]),  # six on a line
    ]
    for Z_ in sets:
        s0, N = fat_point_floor(Z_, k)
        assert N == len(Z_) * k * (k + 1) // 2
        rows = fat_point_conditions(Z_, k, s0)
        assert len(rows) == N
        assert len(echelon(rows, range(len(rows[0])))[1]) == N, (Z_, k)
