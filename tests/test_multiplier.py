import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lct3 import (
    Poly,
    X,
    Z,
    as_lambda,
    classify,
    ideal_equal,
    ideal_of_points,
    jump_candidates,
    jumping_numbers,
    lct,
    maximal_ideal,
    membership_by_valuation,
    multiplier_ideal,
    power_of_m,
    symbolic_power,
)
from lct3 import GREVLEX, PointSet, general_points, monomials_of_degree
from lct3.ideals import _int_from_poly
from lct3.multiplier import _curve_order, _require_supported, _valuation_memberships
from lct3.verify import _oracle_inputs

F = Fraction


def test_power_of_m():
    assert power_of_m(-1).is_unit()
    assert power_of_m(0).is_unit()
    assert [str(g) for g in power_of_m(2).groebner()] == [
        "x^2",
        "x*y",
        "y^2",
        "x*z",
        "y*z",
        "z^2",
    ]


def test_lambda_validation():
    with pytest.raises(TypeError):
        as_lambda(0.5)
    with pytest.raises(ValueError):
        as_lambda(F(-1, 2))
    assert as_lambda("3/2") == F(3, 2)


def test_case_a_values(coordinate_points):
    c = classify(coordinate_points)
    assert multiplier_ideal(c, coordinate_points, 1).ideal.is_unit()
    r = multiplier_ideal(c, coordinate_points, F(3, 2))
    assert ideal_equal(r.ideal, maximal_ideal())
    assert r.branch == "A[0,2)"
    r2 = multiplier_ideal(c, coordinate_points, 2)
    assert r2.branch == "A[2,3)"
    assert ideal_equal(r2.ideal, ideal_of_points(coordinate_points))


def test_case_b_straddles_lct(three_collinear):
    c = classify(three_collinear)
    at = multiplier_ideal(c, three_collinear, F(5, 3))
    assert ideal_equal(at.ideal, maximal_ideal())
    assert at.branch == "B[1,2)"
    below = multiplier_ideal(c, three_collinear, F(5, 3) - F(1, 100))
    assert below.ideal.is_unit()


def test_lct_closed_forms(coordinate_points, three_collinear, six_on_conic):
    assert lct(classify(coordinate_points)) == F(3, 2)
    assert lct(classify(three_collinear)) == F(5, 3)
    assert lct(classify(six_on_conic)) == F(4, 3)


def test_lct_rejects_unsupported(four_three_collinear):
    with pytest.raises(ValueError):
        lct(classify(four_three_collinear))
    with pytest.raises(ValueError):
        multiplier_ideal(classify(four_three_collinear), four_three_collinear, 1)


def test_lambda_zero_is_unit(supported_arrangements):
    for _, Z_ in supported_arrangements:
        c = classify(Z_)
        assert multiplier_ideal(c, Z_, 0).ideal.is_unit()


def test_outputs_are_homogeneous(three_collinear, six_on_conic, eight_general):
    for Z_ in (three_collinear, six_on_conic, eight_general):
        c = classify(Z_)
        for lam in (F(1, 2), F(3, 2), F(9, 4), F(10, 3)):
            ideal = multiplier_ideal(c, Z_, lam).ideal
            assert all(g.is_homogeneous() for g in ideal.groebner())


def test_jump_scan_coordinate_points(coordinate_points):
    c = classify(coordinate_points)
    table = jumping_numbers(c, coordinate_points, 2)
    assert table.lct == F(3, 2) == lct(c)
    lams = [lam for lam, _ in table.jumps]
    assert lams == [F(3, 2), F(2)]
    assert ideal_equal(table.jumps[0][1], maximal_ideal())
    # table ideals strictly decrease
    for (_, earlier), (_, later) in zip(table.jumps, table.jumps[1:]):
        assert earlier.contains_ideal(later)
        assert not ideal_equal(earlier, later)


def test_jump_scan_conic(six_on_conic):
    c = classify(six_on_conic)
    table = jumping_numbers(c, six_on_conic, 2)
    assert table.lct == F(4, 3)
    # the scanned first jump and the closed form must agree exactly
    assert table.lct == lct(c)


def test_no_jumps_below_lct(coordinate_points):
    c = classify(coordinate_points)
    table = jumping_numbers(c, coordinate_points, 1)
    assert table.jumps == ()
    assert table.lct is None


def test_fine_grid_monotonicity(coordinate_points, three_collinear):
    # grid step 1/(2de) is finer than every floor-term breakpoint
    for Z_ in (coordinate_points, three_collinear):
        c = classify(Z_)
        step = F(1, 2 * c.d * (c.e or 1))
        grid = [step * k for k in range(0, int(3 / step) + 1)]
        ideals = [multiplier_ideal(c, Z_, lam).ideal for lam in grid]
        for smaller, larger in zip(ideals, ideals[1:]):
            assert smaller.contains_ideal(larger)


def test_skoda_branch(coordinate_points):
    c = classify(coordinate_points)
    r = multiplier_ideal(c, coordinate_points, F(7, 2))
    assert r.branch == "skoda-recursion"
    with pytest.raises(ValueError):
        multiplier_ideal(c, coordinate_points, F(21, 2))


def test_valuation_membership_case_a(coordinate_points):
    c = classify(coordinate_points)
    assert membership_by_valuation(c, coordinate_points, X, F(3, 2))
    assert not membership_by_valuation(
        c, coordinate_points, Poly.constant(1, 3), F(3, 2)
    )


def test_valuation_membership_case_b(three_collinear):
    c = classify(three_collinear)
    assert membership_by_valuation(c, three_collinear, Z, 1)


def test_valuation_membership_rejects_case_c(eight_general):
    c = classify(eight_general)
    with pytest.raises(ValueError, match="no valuation oracle for Case C"):
        membership_by_valuation(c, eight_general, X, 1)


def test_valuation_membership_rejects_large_lambda(coordinate_points):
    c = classify(coordinate_points)
    with pytest.raises(ValueError):
        membership_by_valuation(c, coordinate_points, X, 3)


def test_case_b_with_degree_gap_two():
    # eight points on a smooth conic give generating degrees {2, 4}; the
    # valuation test then ranges over three exceptional orders (j = 0, 1, 2)
    from lct3 import PointSet, membership_by_valuation as member

    Z_ = PointSet.of([(1, t, t * t) for t in (0, 1, -1, 2, -2, 3, -3, 4)])
    c = classify(Z_)
    assert (c.d, c.e) == (2, 4)
    assert lct(c) == F(5, 4) == min(F(3, 2), F(3 + 4 - 2, 4), F(2))
    table = jumping_numbers(c, Z_, F(3, 2))
    assert table.lct == F(5, 4)
    # spot-check the valuation oracle against the assembled ideals
    from lct3 import Poly, monomials_of_degree

    forms = [
        Poly.monomial(e, 1) * c.curve_form**a
        for a in range(3)
        for t in range(5)
        for e in monomials_of_degree(t)
    ]
    for lam in (F(5, 4), F(3, 2), F(7, 4), F(2), F(9, 4)):
        J = multiplier_ideal(c, Z_, lam).ideal
        for G in forms:
            assert member(c, Z_, G, lam) == J.contains(G), (lam, str(G))


def test_candidates_cover_integers(six_on_conic):
    c = classify(six_on_conic)
    cands = jump_candidates(c, 3)
    assert F(1) in cands and F(2) in cands and F(3) in cands
    assert F(1, 2) in cands and F(1, 3) in cands


def reference_membership_by_valuation(c, Z_, G, lam):
    """membership_by_valuation as it was before the batched helper: G is
    factored and tested against the symbolic power at every exponent."""
    lam = as_lambda(lam)
    if lam >= 3:
        raise ValueError("valuation test only covers exponents below 3")
    if G.is_zero() or not G.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous form")
    _require_supported(c)
    if c.kind == "C":
        raise ValueError("no valuation oracle for Case C")
    k = math.floor(lam) - 1
    if k > 0 and not symbolic_power(Z_, k).contains(G):
        return False
    if c.kind == "A":
        return G.total_degree() >= math.floor(lam * c.d) - 2
    d, e, F = c.d, c.e, c.curve_form
    H, a = G, 0
    while True:
        q = H.exact_div(F)
        if q is None:
            break
        H, a = q, a + 1
    degH = H.total_degree()
    return all(
        degH + (d + j) * a >= math.floor(lam * (d + j)) - (2 + j)
        for j in range(e - d + 1)
    )


def memberships(c, Z_, G, lams):
    """_valuation_memberships of the one form G, given as a Poly, with its
    curve order found by division."""
    G = _int_from_poly(G, GREVLEX.key)
    return _valuation_memberships(c, Z_, [(G, _curve_order(c, G))], lams)[0]


lambdas_below_3 = st.lists(
    st.builds(Fraction, st.integers(0, 35), st.integers(1, 12)).filter(
        lambda lam: lam < 3
    ),
    min_size=1,
    max_size=6,
)


def assert_oracle_matches_reference(c, Z_, data, lams):
    """_valuation_memberships against the reference on a sample of the
    verify test forms, with the curve orders verify gives them, plus random
    monomial * F^a forms."""
    for G, a in data.draw(st.lists(st.sampled_from(_oracle_inputs(c, Z_)), max_size=12)):
        assert a == _curve_order(c, G)
        got = _valuation_memberships(c, Z_, [(G, a)], lams)[0]
        want = [reference_membership_by_valuation(c, Z_, Poly(G, 3), lam) for lam in lams]
        assert got == want, (str(Poly(G, 3)), lams)
        assert got[:1] == [membership_by_valuation(c, Z_, Poly(G, 3), lams[0])]
    sample = []
    for _ in range(data.draw(st.integers(0, 6))):
        t = data.draw(st.integers(0, 5))
        G = Poly.monomial(data.draw(st.sampled_from(monomials_of_degree(t))), 1)
        if c.kind == "B":
            G = G * c.curve_form ** data.draw(st.integers(0, 3))
        sample.append(G)
    for G in sample:
        got = memberships(c, Z_, G, lams)
        want = [reference_membership_by_valuation(c, Z_, G, lam) for lam in lams]
        assert got == want, (str(G), lams)
        assert got[:1] == [membership_by_valuation(c, Z_, G, lams[0])]


def test_oracle_inputs_carry_their_curve_orders(
    coordinate_points, three_collinear, six_on_conic
):
    # verify builds each Case B test form as m * F^a and states its F-adic
    # order without dividing; the curve form of three collinear points is the
    # monomial z, which divides m too
    assert str(classify(three_collinear).curve_form) == "z"
    for Z_ in (coordinate_points, three_collinear, six_on_conic):
        c = classify(Z_)
        pairs = _oracle_inputs(c, Z_)
        assert [a for _, a in pairs] == [_curve_order(c, G) for G, _ in pairs]
    assert max(a for _, a in _oracle_inputs(classify(three_collinear), three_collinear)) == 8


# eight points on a smooth conic: Case B with (d, e) = (2, 4), so the
# valuation test ranges over j = 0, 1, 2
EIGHT_ON_CONIC = PointSet.of([(1, t, t * t) for t in (0, 1, -1, 2, -2, 3, -3, 4)])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), lams=lambdas_below_3)
def test_valuation_memberships_match_reference_on_fixtures(
    coordinate_points, three_collinear, six_on_conic, six_general, data, lams
):
    arrangements = [coordinate_points, three_collinear, six_on_conic, six_general]
    Z_ = data.draw(st.sampled_from(arrangements + [EIGHT_ON_CONIC]))
    c = classify(Z_)
    assert c.kind in ("A", "B")
    assert_oracle_matches_reference(c, Z_, data, lams)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    data=st.data(),
    lams=lambdas_below_3,
)
def test_valuation_memberships_match_reference_on_general_sets(n, seed, data, lams):
    Z_ = general_points(n, seed)
    c = classify(Z_)
    assume(c.kind in ("A", "B"))  # a rare draw has three points on a line
    assert_oracle_matches_reference(c, Z_, data, lams)


def moved(Z_, g):
    """The image of the point set under the 3x3 matrix g (rows of ints)."""
    return PointSet.of(
        [tuple(sum(a * v for a, v in zip(row, p.coords)) for row in g) for p in Z_]
    )


def determinant(g):
    (a, b, c), (d, e, f), (h, i, j) = g
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)


entries = st.integers(-3, 3)
invertible = st.tuples(*[st.tuples(entries, entries, entries)] * 3).filter(determinant)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=invertible, lams=lambdas_below_3)
def test_valuation_memberships_match_reference_on_moved_fixtures(
    coordinate_points, three_collinear, six_on_conic, six_general, data, g, lams
):
    # the points are evaluated scaled to integers; the moved sets have
    # coordinates with denominators once normalized
    arrangements = [coordinate_points, three_collinear, six_on_conic, six_general]
    Z_ = moved(data.draw(st.sampled_from(arrangements + [EIGHT_ON_CONIC])), g)
    assume(any(v.denominator > 1 for p in Z_ for v in p.coords))
    c = classify(Z_)
    assert c.kind in ("A", "B")
    assert_oracle_matches_reference(c, Z_, data, lams)


def test_valuation_memberships_validate_like_the_public_oracle(
    coordinate_points, eight_general
):
    c = classify(coordinate_points)
    with pytest.raises(TypeError):
        memberships(c, coordinate_points, X, [1, 0.5])
    with pytest.raises(ValueError, match="only covers exponents below 3"):
        memberships(c, coordinate_points, X, [1, 3])
    with pytest.raises(ValueError, match="nonzero homogeneous form"):
        memberships(c, coordinate_points, X + X * X, [1])
    with pytest.raises(ValueError, match="no valuation oracle for Case C"):
        memberships(classify(eight_general), eight_general, X, [1])
    assert memberships(c, coordinate_points, X, []) == []
