"""The lambda path: the memoized Skoda chain and the single-evaluation jump
scan, checked against a reference midpoint scan and pinned by operation
counts."""

from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from lct3 import (
    Ideal,
    classify,
    general_points,
    ideal_equal,
    jump_candidates,
    jumping_numbers,
    multiplier_ideal,
)
from lct3 import multiplier


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
GATE_GROEBNER = 19  # fresh Groebner bases computed by the scan


def test_jump_scan_counts_are_pinned(monkeypatch, cold_caches, five_general):
    c = classify(five_general)  # caches the ideal of the points and its basis
    assert (c.kind, c.d, c.e) == ("B", 2, 3)
    assembled = Counter()
    computed = []
    assemble, groebner = multiplier._assemble, Ideal.groebner

    def counted_assemble(c, Z, lam, memo):
        assembled[lam] += 1
        return assemble(c, Z, lam, memo)

    def counted_groebner(self):
        if self._gb is None:
            computed.append(self)
        return groebner(self)

    monkeypatch.setattr(multiplier, "_assemble", counted_assemble)
    monkeypatch.setattr(Ideal, "groebner", counted_groebner)
    table = jumping_numbers(c, five_general, 5)
    assert table.lct == Fraction(4, 3)
    assert set(assembled.values()) == {1}
    assert sorted(assembled) == [Fraction(0)] + jump_candidates(c, 5)
    assert sum(assembled.values()) == GATE_ASSEMBLED
    assert len(computed) == GATE_GROEBNER, len(computed)


# Noise-free gate on the Skoda step: S-pairs formed (all of them batched by
# the graded engine after the Gebauer-Moller update) in one
# multiplier_ideal(c, Z, 4) on the same set, from empty arrangement caches.
# The count may only go down.
GATE_BATCHED_PAIRS = 31


def test_skoda_batched_pairs_are_pinned(monkeypatch, cold_caches, five_general):
    from lct3 import ideals

    c = classify(five_general)  # caches the ideal of the points and its basis
    formed = []
    spoly = ideals._spoly

    def counted_spoly(*args):
        formed.append(args)
        return spoly(*args)

    monkeypatch.setattr(ideals, "_spoly", counted_spoly)
    assert multiplier_ideal(c, five_general, 4).branch == "skoda-recursion"
    assert len(formed) == GATE_BATCHED_PAIRS, len(formed)
