"""End-to-end acceptance suite.  Each test covers one release criterion at
exact tolerance (literal equality of rationals and reduced Groebner bases)
and prints a single PASS/FAIL line (visible with pytest -s)."""

import math
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lct3 import (
    Ideal,
    PointSet,
    Poly,
    classify,
    envelope,
    envelope_report,
    general_points,
    graded_piece,
    ideal_equal,
    ideal_intersect,
    ideal_of_points,
    ideal_power,
    ideal_product,
    ideal_sum,
    jump_candidates,
    lct,
    membership_by_valuation,
    monomial_mi,
    multiplier_ideal,
    power_of_m,
    symbolic_power,
    zero_dim_report,
)
from lct3.points import expected_interpolation_data
from lct3.verify import _oracle_inputs
from test_points import general_point_sets, special_point_sets

F = Fraction


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_lct_regression(
    coordinate_points, three_collinear, six_general, six_on_conic
):
    with criterion(1, "lct regression"):
        assert lct(classify(coordinate_points)) == F(3, 2)
        assert lct(classify(three_collinear)) == F(5, 3)
        assert lct(classify(six_general)) == F(1)
        assert lct(classify(six_on_conic)) == F(4, 3)


def test_criterion_2_general_classification():
    with criterion(2, "general-points classification"):
        for n in range(2, 13):
            Z = general_points(n, 100 + n)
            d, r = expected_interpolation_data(n)
            c = classify(Z)
            if r == 1:
                assert c.kind == "B", (n, c.kind)
                assert c.report.ggds == (d, d + 1)
                assert c.curve_form.total_degree() == d
                assert len(graded_piece(Z, d).basis) == 1
            elif r == 2 and d > 2:
                assert c.kind == "C", (n, c.kind)
                assert c.report.ggds == (d, d + 1)
                zd = zero_dim_report(c.zd_ideal)
                w = zero_dim_report(c.w_ideal)
                assert zd.is_zero_dimensional and zd.is_reduced
                assert zd.degree == d * d
                assert w.degree == (d - 1) * (d - 2) // 2
                assert zd.degree == n + w.degree
            else:
                assert c.kind == "A", (n, c.kind)
                assert c.report.ggds == (d,)


def test_criterion_3_envelope_examples(five_general, eight_general, eleven_on_cubic):
    with criterion(3, "envelope examples"):
        conic_env = envelope(five_general, 2)
        gb = conic_env.groebner()
        assert len(gb) == 1 and gb[0].total_degree() == 2
        assert envelope_report(five_general).ggds == (2, 3)

        z3 = zero_dim_report(envelope(eight_general, 3))
        assert z3.is_zero_dimensional and z3.degree == 9 and z3.is_reduced

        c = classify(eleven_on_cubic)
        assert c.report.ggds == (3, 4, 5)
        assert c.kind == "unsupported"


def test_criterion_4_monomial_oracle(coordinate_points):
    with criterion(4, "monomial oracle equivalence"):
        c = classify(coordinate_points)
        gens = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        for lam in [F(1, 2), F(1), F(5, 4), F(3, 2), F(7, 4), F(2), F(5, 2)]:
            closed = multiplier_ideal(c, coordinate_points, lam).ideal
            assert ideal_equal(closed, monomial_mi(gens, lam)), lam


def test_criterion_5_valuation_oracle(three_collinear, six_on_conic):
    with criterion(5, "valuation oracle equivalence"):
        for Z in (three_collinear, six_on_conic):
            c = classify(Z)
            forms = [Poly(G, 3) for G, _ in _oracle_inputs(c, Z)]
            for lam in jump_candidates(c, 3):
                if lam >= 3:
                    continue
                J = multiplier_ideal(c, Z, lam).ideal
                for G in forms:
                    assert membership_by_valuation(c, Z, G, lam) == J.contains(G), (
                        lam,
                        str(G),
                    )


def test_criterion_6_property_suite(supported_arrangements):
    with criterion(6, "property suite"):
        for name, Z in supported_arrangements:
            c = classify(Z)
            I = ideal_of_points(Z)
            threshold = lct(c)

            # multiplier ideals over the candidate grid up to 4, with the
            # midpoints just below each candidate
            cache = {}

            def J(lam):
                if lam not in cache:
                    cache[lam] = multiplier_ideal(c, Z, lam).ideal
                return cache[lam]

            grid = []
            previous = F(0)
            for cand in jump_candidates(c, 4):
                grid.append((previous + cand) / 2)
                grid.append(cand)
                previous = cand
            for small, large in zip(grid, grid[1:]):
                assert J(small).contains_ideal(J(large)), (name, small, large)

            # unit below the threshold, proper from the threshold on
            for lam in grid:
                if lam < threshold:
                    assert J(lam).is_unit(), (name, lam)
            assert not J(threshold).is_unit(), name

            for lam in [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]:
                assert J(lam).contains_ideal(ideal_power(I, math.ceil(lam))), (
                    name,
                    lam,
                )

            report = envelope_report(Z)
            assert set(report.ggds) <= set(report.generator_degrees), name
            assert min(report.ggds) == min(report.generator_degrees), name
            for earlier, later in zip(report.entries, report.entries[1:]):
                assert envelope(Z, later.degree).contains_ideal(
                    envelope(Z, earlier.degree)
                ), name

            assert ideal_equal(symbolic_power(Z, 1), I), name
            assert symbolic_power(Z, 2).contains_ideal(ideal_power(I, 2)), name


def _closed_form_two_to_three(c, Z, lam):
    """The [2,3) clause reassembled from engine primitives, independently of
    the implementation in the multiplier module."""
    assert F(2) <= lam < F(3)
    I = ideal_of_points(Z)
    d = c.d
    if c.kind == "A":
        return ideal_intersect(power_of_m(math.floor(lam * d) - 2), I)
    if c.kind == "B":
        e, Fd = c.e, c.curve_form
        part = ideal_sum(
            power_of_m(math.floor(lam * e) - (2 + e - d)),
            ideal_product(
                power_of_m(math.floor(lam * e) - (2 + 2 * e - d)),
                Ideal([Fd], nvars=3),
            ),
            ideal_product(
                power_of_m(math.floor(lam * d) - (2 + 2 * d)),
                Ideal([Fd * Fd], nvars=3),
            ),
        )
        return ideal_intersect(part, I)
    e = c.e
    part = ideal_sum(
        ideal_intersect(power_of_m(math.floor(lam * d) - 2), c.w_ideal),
        power_of_m(math.floor(lam * e) - 2 * (1 + e - d)),
    )
    return ideal_intersect(part, I)


def test_criterion_7_skoda_consistency(supported_arrangements):
    with criterion(7, "Skoda consistency"):
        for name, Z in supported_arrangements:
            c = classify(Z)
            I = ideal_of_points(Z)
            for lam in [F(3), F(10, 3), F(7, 2)]:
                recursive = multiplier_ideal(c, Z, lam).ideal
                direct = ideal_product(I, _closed_form_two_to_three(c, Z, lam - 1))
                assert ideal_equal(recursive, direct), (name, lam)


# A Case C set with points on all three coordinate lines
CASE_C_ON_COORDINATE_LINES = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (2, -3, 5),
    (7, 1, -2),
    (3, 4, 11),
    (-5, 2, 9),
]


@settings(max_examples=40, deadline=None)
@given(
    Z=st.one_of(general_point_sets, special_point_sets()),
    lam=st.sampled_from([F(2), F(9, 4), F(7, 3), F(5, 2), F(8, 3), F(11, 4)]),
)
@example(Z=general_points(5, 5), lam=F(8, 3))  # Case B, (d, e) = (2, 3)
@example(Z=PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0)]), lam=F(5, 2))
@example(Z=general_points(8, 8), lam=F(7, 3))  # Case C, (d, e) = (3, 4)
@example(Z=general_points(8, 1), lam=F(11, 4))
@example(Z=PointSet.of(CASE_C_ON_COORDINATE_LINES), lam=F(5, 2))
def test_two_to_three_matches_the_intersection(Z, lam):
    # cases A and B meet I_Z by truncation and the modular law, and case C
    # adds two truncations; the reference takes the intersections, and both
    # keep the reduced basis as generators
    c = classify(Z)
    assume(c.is_supported())
    expected = _closed_form_two_to_three(c, Z, lam)
    assert multiplier_ideal(c, Z, lam).ideal._ints == expected._ints
