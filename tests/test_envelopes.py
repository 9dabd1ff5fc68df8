import random
from itertools import combinations, count

import pytest
from hypothesis import example, given, settings, strategies as st
from test_linalg import eliminations_taken
from test_metamorphic import composed, unimodular
from test_points import special_point_sets

from lct3 import (
    Ideal,
    PointSet,
    Poly,
    X,
    Y,
    Z,
    classify,
    envelope,
    envelope_report,
    general_points,
    generator_degrees,
    geometric_generating_degrees,
    graded_piece,
    ideal_equal,
    ideal_of_points,
    is_smooth_plane_curve,
    maximal_ideal,
    monomials_of_degree,
    saturate,
    variables,
    zero_dim_report,
)
from lct3 import envelopes, ideals, linalg, zerodim
from lct3.points import hilbert_pieces
from lct3.zerodim import hilbert_polynomial


def test_envelope_of_collinear_points(three_collinear):
    env = envelope(three_collinear, 1)
    assert [str(g) for g in env.groebner()] == ["z"]


def test_envelope_of_five_general(five_general):
    env = envelope(five_general, 2)
    gb = env.groebner()
    assert len(gb) == 1 and gb[0].total_degree() == 2


def test_envelope_of_eight_general(eight_general):
    report = zero_dim_report(envelope(eight_general, 3))
    assert report.is_zero_dimensional
    assert report.degree == 9
    assert report.is_reduced


def test_ggds(five_general, four_three_collinear, eleven_on_cubic):
    assert geometric_generating_degrees(five_general) == [2, 3]
    assert geometric_generating_degrees(four_three_collinear) == [2, 3]
    assert geometric_generating_degrees(eleven_on_cubic) == [3, 4, 5]


def test_generator_degrees(three_collinear, five_general, coordinate_points):
    assert generator_degrees(three_collinear) == [1, 3]
    assert generator_degrees(five_general) == [2, 3]
    assert generator_degrees(coordinate_points) == [2]


def test_generator_degrees_of_general_points_rank_modulo_the_prime_only(
    monkeypatch,
):
    # a new generator leaves the shifts short of the piece's dimension, but
    # no more shifts than the rank they reach modulo the prime
    sets = [general_points(n, s) for n in (8, 9, 13, 14) for s in (1, 2)]
    for Z_ in sets:
        hilbert_pieces(Z_)  # the pieces rank too
    passes = eliminations_taken(monkeypatch)
    for Z_ in sets:
        passes.clear()
        degrees = generator_degrees(Z_)
        assert passes == [(linalg.TRACE_PRIME, False)] * len(hilbert_pieces(Z_))
        assert degrees, Z_


def test_smoothness():
    assert is_smooth_plane_curve(Z)
    assert is_smooth_plane_curve(X * X + Y * Y + Z * Z)
    assert not is_smooth_plane_curve(X * Y)
    with pytest.raises(ValueError):
        is_smooth_plane_curve(X + X * X)


def test_smoothness_refuses_forms_outside_the_ring():
    # x^2 - y*z in four variables and x^2 - y^2 in two are not plane curves
    t, x, y, z = variables(4)
    u, v = variables(2)
    for F in (x * x - y * z, u * u - v * v):
        with pytest.raises(ValueError, match=r"not in k\[x, y, z\]"):
            is_smooth_plane_curve(F)


def smooth_by_groebner(F) -> bool:
    """The reference the rank test replaced: F and its partials vanish
    together nowhere, i.e. their ideal has Hilbert polynomial 0."""
    partials = [
        Poly({e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in F.terms.items() if e[i]}, 3)
        for i in range(3)
    ]
    J = Ideal([F, *partials])
    return hilbert_polynomial(J) == (0, 0)


@st.composite
def plane_forms(draw):
    """Nonzero forms of degree 1-4 with coefficients in {-2, -1, 1, 2},
    dense or with few terms (which are often singular)."""
    monos = monomials_of_degree(draw(st.integers(1, 4)))
    coefficient = st.sampled_from((-2, -1, 1, 2))
    terms = draw(st.dictionaries(st.sampled_from(monos), coefficient, min_size=1))
    return Poly(terms, 3)


@settings(max_examples=150, deadline=None)
@given(F=plane_forms())
@example(F=X**3 + Y**3)
@example(F=X**2 * Y + Y**2 * Z + Z**2 * X)
def test_smoothness_is_the_groebner_test(F):
    assert is_smooth_plane_curve(F) == smooth_by_groebner(F)


NODE = Y**2 * Z - X**3 - X**2 * Z
CUSP = Y**2 * Z - X**3


@pytest.mark.parametrize(
    "F, smooth",
    [
        (NODE, False),
        (CUSP, False),
        ((X + Y) * (X - 2 * Z), False),  # a line pair
        ((X - Y + 3 * Z) ** 2, False),  # a double line
        (X * Z - Y**2, True),
        (Y**2 * Z - X**3 + X * Z**2 - Z**3, True),
        (X**4 + Y**4 + Z**4, True),
    ],
    ids=["node", "cusp", "line-pair", "double-line", "conic", "cubic", "quartic"],
)
@pytest.mark.parametrize("seed", range(3))
def test_smoothness_is_invariant_under_integer_changes_of_coordinates(F, smooth, seed):
    moved = composed(F, unimodular(random.Random(seed)))
    assert is_smooth_plane_curve(moved) == smooth_by_groebner(moved) == smooth


def test_smoothness_falls_back_to_the_rank_over_q(monkeypatch):
    # the partials 2x, 2y and 2p*z: singular modulo p, smooth over Q
    passes = eliminations_taken(monkeypatch)
    assert is_smooth_plane_curve(X * X + Y * Y + linalg.TRACE_PRIME * Z * Z)
    assert passes == [(linalg.TRACE_PRIME, False), (None, False)]


def test_smoothness_builds_no_groebner_basis(
    monkeypatch, six_on_conic, eleven_on_cubic
):
    # the curves through Z that classify tests, and the cubic of eleven
    # points, which classify leaves unsupported: one forward-only modular
    # rank each
    sets = [six_on_conic, eleven_on_cubic]
    sets += [general_points(n, s) for n in (9, 14) for s in (1, 2)]
    curves = []
    for Z_ in sets:
        (F,) = next(p for p in hilbert_pieces(Z_) if p.forms).basis
        curves.append(F)
    runs = []
    monkeypatch.setattr(ideals, "_graded", lambda *args: runs.append(args))
    passes = eliminations_taken(monkeypatch)
    assert all(map(is_smooth_plane_curve, curves))
    assert runs == [] and passes == [(linalg.TRACE_PRIME, False)] * len(curves)


def test_classify_three_noncollinear(coordinate_points):
    c = classify(coordinate_points)
    assert c.kind == "A" and c.d == 2
    assert c.report.ggds == (2,)


def test_classify_six_on_conic(six_on_conic):
    c = classify(six_on_conic)
    assert c.kind == "B" and (c.d, c.e) == (2, 3)
    assert str(c.curve_form) == "y^2 - x*z"
    assert len(graded_piece(six_on_conic, 2).basis) == 1


def test_classify_mixed_dimension(four_three_collinear):
    c = classify(four_three_collinear)
    assert c.kind == "unsupported"
    assert "different dimensions" in c.reason


def test_classify_three_ggds(eleven_on_cubic):
    c = classify(eleven_on_cubic)
    assert c.kind == "unsupported"
    assert c.reason == "3 geometric generating degrees"


def test_unread_reducedness_is_not_computed(monkeypatch, cold_caches, eleven_on_cubic):
    # three generating degrees: no intermediate envelope is examined, so the
    # finite-scheme envelopes of the chain get a degree but no chart analysis
    from lct3 import envelopes, zerodim

    charts = []
    chart_fn = zerodim._chart_reduced
    monkeypatch.setattr(
        zerodim, "_chart_reduced", lambda J: charts.append(J) or chart_fn(J)
    )
    c = classify(eleven_on_cubic)
    assert c.reason == "3 geometric generating degrees"
    assert envelopes.FINITE_SCHEME in [e.descriptor for e in c.report.entries]
    assert charts == []


def test_classify_case_c(eight_general):
    c = classify(eight_general)
    assert c.kind == "C" and (c.d, c.e) == (3, 4)
    zd = zero_dim_report(c.zd_ideal)
    w = zero_dim_report(c.w_ideal)
    assert zd.is_reduced and zd.degree == 9
    assert w.degree == 1
    assert zd.degree == len(eight_general) + w.degree
    # Z_d is saturated, so Z_d : I_Z is too, with no saturation of its own
    assert ideal_equal(saturate(c.w_ideal, maximal_ideal()), c.w_ideal)
    # the intermediate envelope contains the arrangement
    assert ideal_of_points(eight_general).contains_ideal(c.zd_ideal)


def test_classify_case_c_with_a_three_form_piece(twelve_on_two_quartics):
    Z_ = twelve_on_two_quartics
    listed = [
        (-52, 45, 3), (29, -31, 41), (30, 48, -51), (49, -35, 49),
        (30, 42, -15), (36, -27, -18), (30, 48, -15), (42, -39, -21),
        (-15, -21, -73), (-27, 17, 33), (-15, -24, -82), (-12, 16, 40),
    ]
    assert set(Z_.points) == set(PointSet.of(listed).points)
    c = classify(Z_)
    assert c.kind == "C" and (c.d, c.e) == (4, 5)
    forms = [p for _, p in hilbert_pieces(Z_)[c.d].forms]
    assert len(forms) == 3
    assert (c.zd_degree, c.w_degree) == (13, 1)
    zd = zero_dim_report(c.zd_ideal)
    assert zd.is_reduced and zd.degree == 13
    # W is the dropped point L2 ∩ M1 = [30 : 42 : -44]
    assert ideal_equal(c.w_ideal, ideal_of_points(PointSet.of([(30, 42, -44)])))
    assert ideal_of_points(Z_).contains_ideal(c.zd_ideal)
    # the envelope is no complete intersection: zd_degree is not d^2, and
    # each pencil of two of the forms cuts d^2 = 16 points
    assert c.zd_degree != c.d**2
    for F, G in combinations(forms, 2):
        pencil = Ideal._of([F, G])
        assert zero_dim_report(pencil).degree == c.d**2
        assert not ideal_equal(pencil, c.zd_ideal)


def test_ggds_inside_generator_degrees(supported_arrangements):
    for _, Z_ in supported_arrangements:
        report = envelope_report(Z_)
        assert set(report.ggds) <= set(report.generator_degrees)
        assert min(report.generator_degrees) == min(report.ggds)


def test_envelope_chain_monotone(supported_arrangements, eleven_on_cubic):
    sets = [Z_ for _, Z_ in supported_arrangements] + [eleven_on_cubic]
    for Z_ in sets:
        entries = envelope_report(Z_).entries
        for earlier, later in zip(entries, entries[1:]):
            assert envelope(Z_, later.degree).contains_ideal(
                envelope(Z_, earlier.degree)
            )


def test_classify_singular_curve_envelope():
    # six points on the singular conic xy = 0, three on each line, away
    # from the node: the unique conic through them is xy itself
    from lct3 import PointSet

    Z_ = PointSet.of([(0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 0, 1), (1, 0, 2), (1, 0, 3)])
    c = classify(Z_)
    assert c.kind == "unsupported"
    assert c.reason == "intermediate envelope is a singular curve"
    assert c.report.ggds == (2, 3)


def test_classify_case_b_with_degree_gap_two():
    # eight points on a smooth conic: the envelope chain stalls on the conic
    # through degree three and drops to the points only at degree four
    from lct3 import PointSet

    Z_ = PointSet.of([(1, t, t * t) for t in (0, 1, -1, 2, -2, 3, -3, 4)])
    c = classify(Z_)
    assert c.kind == "B" and (c.d, c.e) == (2, 4)
    assert str(c.curve_form) == "y^2 - x*z"


def test_classify_nonreduced_finite_envelope():
    # eight points on y^2*z = x^3 - x*z^2 + z^3 chosen (via the group law)
    # so the ninth base point of their cubic pencil falls back on (0, 1):
    # the intermediate envelope is a length-9 scheme supported on 8 points
    from fractions import Fraction
    from lct3 import PointSet

    Z_ = PointSet.of(
        [
            (0, 1, 1),
            (1, 1, 1),
            (1, -1, 1),
            (-1, 1, 1),
            (-1, -1, 1),
            (3, 5, 1),
            (3, -5, 1),
            (Fraction(1, 4), Fraction(7, 8), 1),
        ]
    )
    c = classify(Z_)
    assert c.kind == "unsupported"
    assert c.reason == "intermediate envelope is a non-reduced finite scheme"
    assert c.report.ggds == (3, 4)
    report = zero_dim_report(envelope(Z_, c.report.entries[0].degree))
    assert report.is_zero_dimensional and report.degree == 9 and not report.is_reduced


def test_case_b_unique_curve(six_on_conic, three_collinear):
    for Z_ in (six_on_conic, three_collinear):
        c = classify(Z_)
        assert c.kind == "B"
        assert len(graded_piece(Z_, c.d).basis) == 1
        assert c.curve_form.total_degree() == c.d
        assert is_smooth_plane_curve(c.curve_form)
        assert ideal_equal(envelope(Z_, c.d), Ideal([c.curve_form]))


# Noise-free gate on classify: fresh Groebner bases, the runs of the one
# engine (an intersection's homogeneous lift is one run), for one
# classification from empty arrangement caches.  The counts may only go
# down.
GATE_GROEBNER_RUNS = {"eight-general": 18, "six-on-conic": 2}


@pytest.mark.parametrize("name", sorted(GATE_GROEBNER_RUNS))
def test_classify_groebner_runs_are_pinned(
    monkeypatch, cold_caches, name, eight_general, six_on_conic
):
    from lct3 import ideals

    Z_ = {"eight-general": eight_general, "six-on-conic": six_on_conic}[name]
    runs = []
    graded = ideals._graded

    def counted(gens, order, floor=None):
        runs.append(order)
        return graded(gens, order, floor)

    monkeypatch.setattr(ideals, "_graded", counted)
    classify(Z_)
    assert len(runs) == GATE_GROEBNER_RUNS[name], len(runs)


# Noise-free gate on classify: intersections for one classification from
# empty arrangement caches (the Case C colon ideal and the saturation of its
# intermediate envelope).  The counts may only go down.
GATE_INTERSECT = {"eight-general": 9, "six-on-conic": 0}


@pytest.mark.parametrize("name", sorted(GATE_INTERSECT))
def test_classify_intersections_are_pinned(
    monkeypatch, cold_caches, name, eight_general, six_on_conic
):
    from lct3 import ideals, points

    Z_ = {"eight-general": eight_general, "six-on-conic": six_on_conic}[name]
    calls = []
    intersect = ideals.ideal_intersect

    def counted(I, J):
        calls.append((I, J))
        return intersect(I, J)

    for module in (ideals, points):
        monkeypatch.setattr(module, "ideal_intersect", counted)
    classify(Z_)
    assert len(calls) == GATE_INTERSECT[name], len(calls)


def test_classify_computes_each_graded_piece_once(monkeypatch, cold_caches):
    # the pieces (I_Z)_d are the primary data: one classify computes each
    # degree's piece once and derives I_Z, the envelope chain and the
    # generator degrees from them; each piece is one elimination, a
    # forward-only modular rank while the points outnumber the monomials
    # (the piece is then empty), and the kernel pass after that
    from lct3 import points

    Z_ = general_points(8, 42)  # drawn before counting: it ranks pieces too
    degrees, per_piece = [], []
    piece = points.graded_piece
    eliminations = eliminations_taken(monkeypatch, (linalg, points))

    def counted(Z, d):
        degrees.append(d)
        before = len(eliminations)
        result = piece(Z, d)
        per_piece.append(eliminations[before:])
        return result

    for module in (points, envelopes):
        monkeypatch.setattr(module, "graded_piece", counted)
    c = classify(Z_)
    assert c.kind == "C"
    assert degrees == list(range(len(points.hilbert_pieces(Z_))))
    assert len(degrees) == 5
    rank, kernel = (linalg.TRACE_PRIME, False), (None, True)
    assert per_piece == [[rank]] * 3 + [[kernel]] * 2


# Noise-free gate on classify: saturations per classification.  The chain
# is read off Hilbert polynomials, so only a Case C intermediate envelope
# (or a non-reduced finite one) is saturated.
GATE_SATURATE = {
    "coordinate-axes": 0,
    "three-collinear": 0,
    "six-on-conic": 0,
    "six-general": 0,
    "eleven-on-cubic": 0,
    "eight-general": 1,
}


def test_classify_saturates_only_the_case_c_envelope(
    monkeypatch, cold_caches, supported_arrangements, eleven_on_cubic
):
    from lct3 import envelopes, ideals

    sets = dict(supported_arrangements, **{"eleven-on-cubic": eleven_on_cubic})
    calls = []
    original = ideals.saturate

    def counted(I, J):
        calls.append(I)
        return original(I, J)

    for module in (ideals, envelopes):
        monkeypatch.setattr(module, "saturate", counted)
    counts = {}
    for name, Z_ in sets.items():
        calls.clear()
        classify(Z_)
        counts[name] = len(calls)
    assert counts == GATE_SATURATE
    assert classify(sets["eight-general"]).kind == "C"


def reference_chain(Z_):
    """(ggds, descriptors) of the envelope chain from saturated envelopes:
    a ggd where the envelope changes, stopping when it is Z."""
    IZ = ideal_of_points(Z_)
    ggds, descriptors = [], []
    previous = None
    for d in count():
        if not graded_piece(Z_, d).basis:
            continue
        env = envelope(Z_, d)
        if previous is None or not ideal_equal(env, previous):
            ggds.append(d)
        if ideal_equal(env, IZ):
            descriptors.append("equals-Z")
            break
        if len(env.groebner()) == 1:
            descriptors.append("curve")
        elif zero_dim_report(env).is_zero_dimensional:
            descriptors.append("finite-scheme")
        else:
            descriptors.append("mixed-dimension")
        previous = env
    return ggds, descriptors


@settings(max_examples=60, deadline=None)
@given(Z_=special_point_sets())
# one set per descriptor: points, a curve, a finite scheme, mixed dimension
@example(Z_=PointSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
@example(Z_=PointSet.of([(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)]))
@example(Z_=general_points(8, 8))
@example(Z_=PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]))
def test_envelope_report_matches_saturated_chain(Z_):
    report = envelope_report(Z_)
    ggds, descriptors = reference_chain(Z_)
    assert list(report.ggds) == ggds
    assert [e.descriptor for e in report.entries] == descriptors
