from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_points import general_point_sets, special_point_sets

from lct3 import (
    X,
    classify,
    cross_check,
    ideal_product,
    maximal_ideal,
    multiplier_ideal,
    unit_ideal,
)
from lct3 import ideals, multiplier, verify
from lct3.points import hilbert_pieces
from lct3.polynomials import monomials_of_degree

F = Fraction


def test_cross_check_coordinate_axes(coordinate_points):
    grid = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]
    report = cross_check(coordinate_points, grid)
    assert report.ok
    names = {e.name for e in report.entries}
    assert "monomial-oracle" in names
    assert "valuation-oracle" in names
    assert all(e.passed for e in report.entries)


def test_cross_check_collinear(three_collinear):
    grid = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]
    report = cross_check(three_collinear, grid)
    assert report.ok
    assert any(e.name == "valuation-oracle" and e.passed for e in report.entries)


def test_cross_check_case_c_skips_valuation(eight_general):
    report = cross_check(eight_general, [F(1), F(2)])
    assert report.ok
    assert not any(e.name == "valuation-oracle" for e in report.entries)


def test_cross_check_case_c_with_a_three_form_piece(twelve_on_two_quartics):
    grid = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]
    report = cross_check(twelve_on_two_quartics, grid)
    assert report.ok
    assert [e.name for e in report.entries] == ["monotonicity", "power-containment"]


def test_cross_check_unsupported(four_three_collinear):
    report = cross_check(four_three_collinear, [F(1)])
    assert not report.ok
    assert len(report.entries) == 1
    assert report.entries[0].name == "classification"
    assert "unsupported" in report.entries[0].details


DEFAULT_GRID = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]

# Noise-free gate on the valuation oracle, in one cross_check at the default
# grid after classify: exact integer divisions by the curve form; the
# membership tests by normal form (Ideal._holds, which the public contains and
# contains_ideal also call) that are left, those of monotonicity and power
# containment; the batched passes (Ideal._holds_each), one per distinct ideal
# object of the grid; the dual bases asked for, one per pass and degree 0..8
# of the test forms; and how many of these needed an echelon pass, the others
# being degrees of monomial pieces or with no standard monomial, or pieces
# equal to one eliminated before on the grid.  The test forms were decided
# by one normal form each until the assembled ideals answered them from dual
# bases: 2145 and 1511 normal forms then (2567 and 1795 while the oracle
# tested each form against the symbolic power; 7995/2995 and 2060/2099 when
# both were redone at every exponent).  The oracle divided 1617 and 478 test
# forms by the curve form until verify gave it their orders, and each
# exponent eliminated its own pieces, 12 and 13 passes, until the grid shared
# one store of dual bases.  On the coordinate axes and three collinear points
# J(1/2) and J(1) are one unit ideal object, tested twice (5 passes, 45 dual
# bases, 42 and 20 normal forms) until its answers were replayed and an ideal
# was known to contain itself.  The counts may only go down.
GATE_ORACLE = {
    "coordinate_points": (0, 41, 4, 36, 0),
    "three_collinear": (0, 19, 4, 36, 6),
    "six_on_conic": (0, 41, 5, 45, 8),
}


@pytest.mark.parametrize("name", sorted(GATE_ORACLE))
def test_cross_check_oracle_counts_are_pinned(request, monkeypatch, cold_caches, name):
    Z_ = request.getfixturevalue(name)
    classify(Z_)
    calls = {"divide": 0, "holds": 0, "holds_each": 0, "dual": 0, "eliminated": 0}
    divide, holds = multiplier._exact_quotient, ideals.Ideal._holds
    holds_each = ideals.Ideal._holds_each
    dual, kernel = ideals._dual_basis, ideals.integer_kernel

    def counted(key, function):
        def wrapped(*args):
            calls[key] += 1
            return function(*args)

        return wrapped

    monkeypatch.setattr(multiplier, "_exact_quotient", counted("divide", divide))
    monkeypatch.setattr(ideals.Ideal, "_holds", counted("holds", holds))
    monkeypatch.setattr(ideals.Ideal, "_holds_each", counted("holds_each", holds_each))
    monkeypatch.setattr(ideals, "_dual_basis", counted("dual", dual))
    monkeypatch.setattr(ideals, "integer_kernel", counted("eliminated", kernel))
    assert cross_check(Z_, DEFAULT_GRID).ok
    assert tuple(calls.values()) == GATE_ORACLE[name], calls


coefficients = st.integers(-3, 3)


@st.composite
def random_forms(draw, basis):
    """Integer forms of degree <= 8: a few with random terms, and a few
    random combinations of monomial shifts of basis elements, which lie in
    the ideal unless they cancel to zero."""
    forms = []
    for _ in range(draw(st.integers(0, 4))):
        monos = monomials_of_degree(draw(st.integers(0, 8)))
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4))
        form = {e: draw(coefficients) for e in terms}
        forms.append({e: v for e, v in form.items() if v})
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(0, 8))
        low = [(lead, g) for lead, g in basis if sum(lead) <= t]
        if not low:
            continue
        form = {}
        for lead, g in draw(st.lists(st.sampled_from(low), max_size=3)):
            shift = draw(st.sampled_from(monomials_of_degree(t - sum(lead))))
            c = draw(coefficients)
            for e, v in g.items():
                e = tuple(a + b for a, b in zip(e, shift))
                form[e] = form.get(e, 0) + c * v
        forms.append({e: v for e, v in form.items() if v})
    return forms


@settings(max_examples=30, deadline=None)
@given(Z_=st.one_of(general_point_sets, special_point_sets()), data=st.data())
def test_batched_membership_is_the_normal_form_test(Z_, data):
    # J(lambda) over the default grid decides each verify test form, and
    # random forms, from its dual bases exactly as by one normal form each,
    # the grid sharing one store of dual bases as in cross_check
    c = classify(Z_)
    assume(c.is_supported())
    memo, store = {}, {}
    for lam in DEFAULT_GRID:
        J = verify._lookup(c, Z_, lam, memo).ideal
        forms = [G for G, _ in verify._oracle_inputs(c, Z_)]
        forms += data.draw(random_forms(J._int_basis()))
        assert list(J._holds_each(forms, store)) == [J._holds(G) for G in forms], lam


def test_cross_check_assembles_the_grid_on_one_memo(monkeypatch, five_general):
    # J(2) is a sum of truncations, with no product, and on the grid's one
    # memo each Skoda step takes one
    c = classify(five_general)
    assert (c.kind, c.d, c.e) == ("B", 2, 3)
    products, skoda = [], []
    product = multiplier.ideal_product

    def counted(I, J):
        products.append((I, J))
        if I is multiplier.ideal_of_points(five_general):
            skoda.append(J)
        return product(I, J)

    monkeypatch.setattr(multiplier, "ideal_product", counted)
    assert cross_check(five_general, [3, 4, 5]).ok
    assert len(skoda) == 3
    assert len(products) == 3


def tampered_oracle_entry(monkeypatch, Z_, grid):
    """cross_check's report and valuation-oracle entry with J(3/2) and J(5/2)
    replaced by m * J, J(2) by the unit ideal."""
    lookup = verify._lookup

    def tampered(c, Z_, lam, memo):
        result = lookup(c, Z_, lam, memo)
        if lam in (F(3, 2), F(5, 2)):
            ideal = ideal_product(result.ideal, maximal_ideal())
        elif lam == 2:
            ideal = unit_ideal()
        else:
            return result
        return multiplier.MultiplierIdealResult(lam, ideal, result.branch)

    monkeypatch.setattr(verify, "_lookup", tampered)
    report = cross_check(Z_, grid)
    (entry,) = [e for e in report.entries if e.name == "valuation-oracle"]
    return report, entry


@pytest.mark.parametrize(
    "grid, witness",
    [
        (DEFAULT_GRID, "lambda=3/2, form=x"),
        ([F(5, 2)], "lambda=5/2, form=x*y^2 - x^2*z"),
        ([F(2), F(5, 2)], "lambda=2, form=1"),
    ],
)
def test_valuation_witness_is_the_first_disagreement(
    monkeypatch, six_on_conic, grid, witness
):
    # The report names the least exponent with a disagreement and, there,
    # the first test form in _oracle_inputs order: on the default grid that
    # is x at 3/2, although the form 1 disagrees earlier in form order, at 2.
    report, entry = tampered_oracle_entry(monkeypatch, six_on_conic, grid)
    assert not report.ok
    assert not entry.passed
    assert entry.details == witness


def test_valuation_witness_on_a_replayed_ideal(monkeypatch, six_on_conic):
    # J(3/2) replaced by the memo's object for J(1) = (1): the pass on J(1)
    # decides both exponents, and the witness is still named at the least
    # exponent where the oracle disagrees
    lookup = verify._lookup
    monkeypatch.setattr(
        verify, "_lookup", lambda c, Z_, lam, memo: lookup(c, Z_, min(lam, F(1)), memo)
    )
    passes = []
    holds_each = ideals.Ideal._holds_each

    def counted(J, forms, store):
        passes.append(J)
        return holds_each(J, forms, store)

    monkeypatch.setattr(ideals.Ideal, "_holds_each", counted)
    report = cross_check(six_on_conic, [F(1, 2), F(1), F(3, 2)])
    (entry,) = [e for e in report.entries if e.name == "valuation-oracle"]
    assert not entry.passed and entry.details == "lambda=3/2, form=1"
    assert len(passes) == 2 and all(J.is_unit() for J in passes)


def test_valuation_witness_in_case_a_is_that_of_the_normal_forms(
    monkeypatch, six_general
):
    # J(5/2) = (I_Z)_{>=5} replaced by m * J(5/2), whose dual bases in
    # degrees 6 to 8 come from echelon passes.  No monomial vanishes on these
    # points, so none lies in either ideal.  The Case A test forms through Z
    # follow the monomials: the cubics F of (I_Z)_3, then x*F, y*F, z*F, then
    # x^2*F, the first of degree 5, which lies in J(5/2) but not in m * J(5/2).
    # One normal form per form decides the same.
    report, entry = tampered_oracle_entry(monkeypatch, six_general, [F(5, 2)])
    assert not report.ok and not entry.passed
    c = classify(six_general)
    assert (c.kind, c.d) == ("A", 3)
    witness = X**2 * hilbert_pieces(six_general)[3].basis[0]
    J = multiplier_ideal(c, six_general, F(5, 2)).ideal
    assert J.contains(witness)
    assert not ideal_product(J, maximal_ideal()).contains(witness)
    assert entry.details == f"lambda=5/2, form={witness}"
