import random
from fractions import Fraction

import pytest

from lct3 import (
    Ideal,
    Poly,
    classify,
    cross_check,
    ideal_product,
    maximal_ideal,
    unit_ideal,
    verify_chart_identity,
    variables,
)
from lct3 import ideals, multiplier, verify

F = Fraction

U, V, W = variables(3)  # W is the distinguished third variable


def test_single_ideal_identity():
    assert verify_chart_identity([Ideal([U * V])], [1])


def test_two_principal_ideals():
    # (u, z^2 v) = (u, z^2) ∩ (u, v)
    assert verify_chart_identity([Ideal([U]), Ideal([V])], [0, 2])


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        verify_chart_identity([Ideal([U]), Ideal([V])], [2, 2])


def test_rejects_third_variable_in_inputs():
    with pytest.raises(ValueError):
        verify_chart_identity([Ideal([W])], [1])


def _random_plane_monomial_ideal(rng):
    gens = []
    for _ in range(rng.randint(1, 3)):
        e = (rng.randint(0, 4), rng.randint(0, 4), 0)
        gens.append(Poly.monomial(e, 1))
    return Ideal(gens, nvars=3)


def test_chart_identity_randomized():
    rng = random.Random(2718)
    for _ in range(50):
        p = rng.randint(1, 3)
        ideals = [_random_plane_monomial_ideal(rng) for _ in range(p)]
        exponents = sorted(rng.sample(range(5), p))
        assert verify_chart_identity(ideals, exponents)


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


def test_cross_check_unsupported(four_three_collinear):
    report = cross_check(four_three_collinear, [F(1)])
    assert not report.ok
    assert len(report.entries) == 1
    assert report.entries[0].name == "classification"
    assert "unsupported" in report.entries[0].details


DEFAULT_GRID = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]

# Noise-free gate on the valuation oracle: exact integer divisions by the
# curve form and integer membership tests (Ideal._holds, which the public
# contains and contains_ideal also call) in one cross_check at the default
# grid, after classify.  Each form is factored once and evaluated at the
# points at most once, so the membership tests are those of the assembled
# ideals alone (2567 and 1795 while the oracle tested each form against the
# symbolic power; 7995/2995 and 2060/2099 when both were redone at every
# exponent).  The counts may only go down.
GATE_ORACLE = {"three_collinear": (1617, 2145), "six_on_conic": (478, 1511)}


@pytest.mark.parametrize("name", sorted(GATE_ORACLE))
def test_cross_check_oracle_counts_are_pinned(request, monkeypatch, cold_caches, name):
    Z_ = request.getfixturevalue(name)
    classify(Z_)
    calls = {"divide": 0, "holds": 0}
    divide, holds = multiplier._exact_quotient, ideals.Ideal._holds

    def counted_divide(*args):
        calls["divide"] += 1
        return divide(*args)

    def counted_holds(self, p):
        calls["holds"] += 1
        return holds(self, p)

    monkeypatch.setattr(multiplier, "_exact_quotient", counted_divide)
    monkeypatch.setattr(ideals.Ideal, "_holds", counted_holds)
    assert cross_check(Z_, DEFAULT_GRID).ok
    assert (calls["divide"], calls["holds"]) == GATE_ORACLE[name], calls


def test_cross_check_assembles_the_grid_on_one_memo(monkeypatch, five_general):
    # J(2) takes two products in its closed form and each Skoda step one;
    # with a memo per exponent, J(3), J(4) and J(5) took 12 products
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
    assert len(products) == 5


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
    # J(3/2) and J(5/2) replaced by m * J, J(2) by the unit ideal.  The
    # report names the least exponent with a disagreement and, there, the
    # first test form in _oracle_inputs order: on the default grid that is
    # x at 3/2, although the form 1 disagrees earlier in form order, at 2.
    lookup = verify._lookup

    def tampered(c, Z_, lam, memo):
        result = lookup(c, Z_, lam, memo)
        if lam in (F(3, 2), F(5, 2)):
            ideal = ideal_product(result.ideal, maximal_ideal())
        elif lam == 2:
            ideal = unit_ideal(3)
        else:
            return result
        return multiplier.MultiplierIdealResult(lam, ideal, result.branch)

    monkeypatch.setattr(verify, "_lookup", tampered)
    report = cross_check(six_on_conic, grid)
    assert not report.ok
    (entry,) = [e for e in report.entries if e.name == "valuation-oracle"]
    assert not entry.passed
    assert entry.details == witness
