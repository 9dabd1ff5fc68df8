"""The lambda path: the memoized Skoda chain and the single-evaluation jump
scan, checked against a reference midpoint scan and pinned by operation
counts."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_points import special_point_sets

from lct3 import (
    classify,
    general_points,
    ideal_equal,
    jump_candidates,
    jumping_numbers,
    multiplier_ideal,
)
from lct3 import ideals, multiplier
from lct3.points import fat_point_floor
from lct3.polynomials import GREVLEX


def reference_scan(c, Z, lam_max):
    """The jump scan evaluated twice per candidate: at the midpoint below it
    and at the candidate itself, each by a separate multiplier_ideal call."""
    jumps = []
    previous = Fraction(0)
    for cand in jump_candidates(c, lam_max):
        before = multiplier_ideal(c, Z, (previous + cand) / 2).ideal
        at = multiplier_ideal(c, Z, cand).ideal
        if not ideal_equal(at, before):
            assert before.contains_ideal(at)
            jumps.append((cand, at))
        previous = cand
    return jumps


def assert_same_table(c, Z, lam_max):
    table = jumping_numbers(c, Z, lam_max)
    expected = reference_scan(c, Z, lam_max)
    assert [lam for lam, _ in table.jumps] == [lam for lam, _ in expected]
    for (_, got), (_, want) in zip(table.jumps, expected):
        assert ideal_equal(got, want)
    assert table.lct == (expected[0][0] if expected else None)


def test_scan_matches_midpoint_reference_on_fixtures(
    supported_arrangements, five_general
):
    for _, Z in supported_arrangements + [("five-general", five_general)]:
        assert_same_table(classify(Z), Z, 3)


@settings(max_examples=6, deadline=None)
@given(n=st.integers(3, 6), seed=st.integers(0, 10**6))
def test_scan_matches_midpoint_reference_on_general_sets(n, seed):
    Z = general_points(n, seed)
    c = classify(Z)
    assume(c.is_supported())  # a rare draw has three points on a line
    assert_same_table(c, Z, 4)


def test_skoda_chain_is_assembled_once_per_call(monkeypatch, five_general):
    c = classify(five_general)
    calls = Counter()
    assemble = multiplier._assemble

    def counted(c, Z, lam, memo):
        calls[lam] += 1
        return assemble(c, Z, lam, memo)

    monkeypatch.setattr(multiplier, "_assemble", counted)
    result = multiplier_ideal(c, five_general, Fraction(13, 2))
    assert result.branch == "skoda-recursion"
    assert sorted(calls) == [Fraction(k, 2) for k in (5, 7, 9, 11, 13)]
    assert set(calls.values()) == {1}


# Noise-free gate on the lambda path: jumping_numbers(c, Z, 5) on a fixed
# Case B set of five points, from empty arrangement caches.  The counts may
# only go down.
GATE_ASSEMBLED = 21  # J(0) plus each of the 20 candidates, once
# Fresh Groebner bases computed by the scan, counted where the engine is
# entered, on integer polynomials.  A [2, 3) clause meets I_Z with no
# intersection: one basis of (I_Z)_{>=a} + m^b*F + m^k*F^2, shared by the
# candidates with the same exponents a, b, k (17 with a shared intersection,
# 19 when each candidate built its own).
GATE_GROEBNER = 14


def test_jump_scan_counts_are_pinned(monkeypatch, cold_caches, five_general):
    c = classify(five_general)  # caches the graded pieces of the points
    assert (c.kind, c.d, c.e) == ("B", 2, 3)
    assembled = Counter()
    computed = []
    assemble, reduced_basis = multiplier._assemble, ideals._reduced_basis

    def counted_assemble(c, Z, lam, memo):
        assembled[lam] += 1
        return assemble(c, Z, lam, memo)

    def counted_reduced_basis(gens, order, floor=None):
        computed.append(gens)
        return reduced_basis(gens, order, floor)

    monkeypatch.setattr(multiplier, "_assemble", counted_assemble)
    monkeypatch.setattr(ideals, "_reduced_basis", counted_reduced_basis)
    table = jumping_numbers(c, five_general, 5)
    assert table.lct == Fraction(4, 3)
    assert set(assembled.values()) == {1}
    assert sorted(assembled) == [Fraction(0)] + jump_candidates(c, 5)
    assert sum(assembled.values()) == GATE_ASSEMBLED
    assert len(computed) == GATE_GROEBNER, len(computed)


# Noise-free gate on the Skoda step: S-pairs formed (all of them batched by
# the graded engine after the Gebauer-Moller update) in one
# multiplier_ideal(c, Z, 4) on the same set, from empty arrangement caches.
# J(2) takes one basis in x, y, z, not an intersection through the
# auxiliary variable t (31 pairs), and the basis of I_Z skips the degree past
# its regularity by the floor fat_point_floor(Z, 1) (4 pairs when it formed
# that degree's two).  The count may only go down.
GATE_BATCHED_PAIRS = 2


def test_skoda_batched_pairs_are_pinned(monkeypatch, cold_caches, five_general):
    c = classify(five_general)  # caches the graded pieces of the points
    formed = []
    spoly = ideals._spoly

    def counted_spoly(*args):
        formed.append(args)
        return spoly(*args)

    monkeypatch.setattr(ideals, "_spoly", counted_spoly)
    assert multiplier_ideal(c, five_general, 4).branch == "skoda-recursion"
    assert len(formed) == GATE_BATCHED_PAIRS, len(formed)


# Noise-free gate on the Hilbert-driven skip: degree steps of the graded
# engine that find no new basis element, in multiplier_ideal(c, Z, lam) and
# the basis of its ideal, on general_points(n, n) from empty arrangement
# caches after classify.  Without the fat-point floor they were 3, 2 and 2;
# with it on the Skoda products only, 2, 1 and 1, the last degree of I_Z's
# own basis being the other empty step.  The one left at (5, 6) is the last
# degree of the B[2,3) basis of J(2).  The counts may only go down.
GATE_EMPTY_STEPS = {(5, 6): 1, (6, 4): 0, (7, 4): 0}


@pytest.mark.parametrize("n, lam", sorted(GATE_EMPTY_STEPS))
def test_empty_degree_steps_are_pinned(monkeypatch, cold_caches, n, lam):
    Z = general_points(n, n)
    c = classify(Z)
    empty = []
    step = ideals._degree_step

    def counted(*args):
        found = step(*args)
        empty.append(not found)
        return found

    monkeypatch.setattr(ideals, "_degree_step", counted)
    multiplier_ideal(c, Z, lam).ideal._int_basis()
    assert sum(empty) == GATE_EMPTY_STEPS[n, lam], sum(empty)


# Noise-free gate on Case C below 3: intersections (the elimination through
# an auxiliary variable in ideals.ideal_intersect) in one computation on
# eight_general, from empty arrangement caches after classify.  The [2,3)
# clause is (I_{Z_d})_{>=a} + (I_Z)_{>=b}, two truncations; as the meet
# (m^a ∩ I_W + m^b) ∩ I_Z it took 9 in the scan to 3 and 2 at 5/2.  The
# counts may only go down.
GATE_CASE_C_INTERSECT = {"jumping_numbers": 0, "multiplier_ideal": 0}


@pytest.mark.parametrize("name", sorted(GATE_CASE_C_INTERSECT))
def test_case_c_intersections_are_pinned(monkeypatch, cold_caches, eight_general, name):
    c = classify(eight_general)
    assert c.kind == "C"
    calls = []
    intersect = ideals.ideal_intersect

    def counted(I, J):
        calls.append((I, J))
        return intersect(I, J)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "lct3" and hasattr(module, "ideal_intersect"):
            monkeypatch.setattr(module, "ideal_intersect", counted)
    if name == "jumping_numbers":
        jumping_numbers(c, eight_general, 3)
    else:
        multiplier_ideal(c, eight_general, Fraction(5, 2)).ideal._int_basis()
    assert len(calls) == GATE_CASE_C_INTERSECT[name], len(calls)


SKODA_LAMBDAS = [Fraction(3), Fraction(7, 2), Fraction(4), Fraction(9, 2), Fraction(5)]


def assert_floor_keeps_the_basis(c, Z, lam):
    """The basis of a Skoda ideal, computed with the fat-point floor, is the
    reduced basis of the same generators computed without it."""
    ideal = multiplier_ideal(c, Z, lam).ideal
    assert ideal._floor == fat_point_floor(Z, math.floor(lam) - 1)
    assert ideal._int_basis() == ideals._reduced_basis(ideal._ints, GREVLEX)


@st.composite
def general_skoda_draws(draw):
    """A general set of 3 to 7 points and an exponent of SKODA_LAMBDAS.  The
    two bases of J(5) at n = 6, and of J(9/2) and J(5) at n = 7, take 0.6 to
    3.3 s together, so those exponents are left to the smaller sets."""
    n = draw(st.integers(3, 7))
    lam = draw(st.sampled_from(SKODA_LAMBDAS[: {6: 4, 7: 3}.get(n, 5)]))
    return general_points(n, draw(st.integers(0, 10**6))), lam


@settings(max_examples=8, deadline=None)
@given(draw=general_skoda_draws())
def test_floor_keeps_the_skoda_bases_of_general_sets(draw):
    Z, lam = draw
    c = classify(Z)
    assume(c.is_supported())  # a rare draw has three points on a line
    assert_floor_keeps_the_basis(c, Z, lam)


@settings(max_examples=8, deadline=None)
@given(Z=special_point_sets(max_size=6), lam=st.sampled_from(SKODA_LAMBDAS))
def test_floor_keeps_the_skoda_bases_of_special_sets(Z, lam):
    c = classify(Z)
    assume(c.is_supported())
    assert_floor_keeps_the_basis(c, Z, lam)


def test_floor_keeps_the_skoda_basis_of_a_case_c_set(eight_general):
    c = classify(eight_general)
    assert c.kind == "C"
    assert_floor_keeps_the_basis(c, eight_general, Fraction(3))


# Periodicity above 2 (Ein, Lazarsfeld, Smith and Varolin, "Jumping
# coefficients of multiplier ideals", Duke 2004, Prop. 1.12): I_Z has
# analytic spread at most 3, so xi > 2 is a jump iff xi + 1 is.  A scan to
# lam_max sees xi + 1 only for xi <= lam_max - 1, and xi - 1 only for xi > 3.
# The scan records a jump wherever J differs from just below; that each jump
# is a shrink is proved in its docstring and checked here.
@pytest.mark.parametrize(
    "fixture, lam_max",
    [
        ("coordinate_points", 5),
        ("three_collinear", 5),
        ("six_on_conic", 5),
        ("six_general", 5),
        ("eight_general", 4),
    ],
)
def test_jumps_above_two_are_periodic(request, fixture, lam_max):
    Z = request.getfixturevalue(fixture)
    c = classify(Z)
    table = jumping_numbers(c, Z, lam_max)
    jumps = {xi for xi, _ in table.jumps}
    assert all(xi + 1 in jumps for xi in jumps if 2 < xi <= lam_max - 1), jumps
    assert all(xi - 1 in jumps for xi in jumps if xi > 3), jumps
    chain = [multiplier_ideal(c, Z, 0).ideal] + [J for _, J in table.jumps]
    for (lam, _), larger, J in zip(table.jumps, chain, chain[1:]):
        assert larger.contains_ideal(J), (fixture, lam)
