import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from lct3 import (
    Ideal,
    PointP2,
    PointSet,
    Poly,
    X,
    Y,
    Z,
    ZeroDimReport,
    classify,
    general_points,
    hilbert_function,
    ideal_equal,
    ideal_intersect,
    ideal_of_points,
    ideal_power,
    maximal_ideal,
    monomials_of_degree,
    point_prime,
    radical_zero_dim,
    saturate,
    unit_ideal,
    variables,
    zero_dim_report,
)
from lct3 import ideals, polynomials, zerodim
from lct3.linalg import TRACE_PRIME


def test_three_coordinate_points():
    report = zero_dim_report(Ideal([X * Y, X * Z, Y * Z]))
    assert report.is_zero_dimensional
    assert report.degree == 3
    assert report.is_reduced


def test_fat_point_not_reduced():
    # (x, y)^2 is saturated (primary away from z); S/(x,y)^2 has Hilbert
    # function 1, 3, 3, ... so the scheme is a triple structure on one point
    report = zero_dim_report(Ideal([X * X, X * Y, Y * Y]))
    assert report.is_zero_dimensional
    assert report.degree == 3
    assert not report.is_reduced


def test_cubic_pencil_basepoints():
    # nine basepoints of a general cubic pencil: complete intersection (3,3)
    rng = random.Random(17)
    while True:
        c1 = {e: rng.randint(-5, 5) for e in [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0)]}
        c2 = {e: rng.randint(-5, 5) for e in [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (0, 2, 1)]}
        I = Ideal([Poly(c1, 3), Poly(c2, 3)])
        report = zero_dim_report(I)
        if report.is_zero_dimensional:
            break
    assert report.degree == 9
    assert report.is_reduced


def test_curve_is_not_zero_dimensional():
    report = zero_dim_report(Ideal([X * X + Y * Y + Z * Z]))
    assert not report.is_zero_dimensional
    assert report.degree == 0


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        zero_dim_report(Ideal([Poly.constant(1, 3)]))


def test_hilbert_function_of_points():
    I = ideal_of_points(PointSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
    values = [hilbert_function(I, t) for t in range(5)]
    assert values == [1, 2, 3, 3, 3]


def test_degree_additive_over_disjoint_sets():
    rng = random.Random(8)
    for _ in range(5):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        Z1 = general_points(n1, rng.randint(0, 10**6))
        Z2 = general_points(n2, rng.randint(0, 10**6))
        if set(Z1.points) & set(Z2.points):
            continue
        both = PointSet.of(
            [tuple(p.coords) for p in Z1] + [tuple(p.coords) for p in Z2]
        )
        assert zero_dim_report(ideal_of_points(both)).degree == n1 + n2


def test_radical_examples():
    # a homogeneous zero-dimensional ideal is m-primary, so its radical is m
    x2, y2 = variables(2)
    assert ideal_equal(radical_zero_dim(Ideal([x2 * x2, y2])), Ideal([x2, y2]))
    assert ideal_equal(radical_zero_dim(Ideal([x2, y2])), Ideal([x2, y2]))
    m = maximal_ideal()
    for I in (
        m,
        Ideal([X * X, Y * Y, Z * Z]),
        Ideal([X**2 + Y * Z, Y**2 - X * Z, Z**3]),
        ideal_power(m, 3),
    ):
        assert ideal_equal(radical_zero_dim(I), m)


def test_radical_rejects_positive_dimension():
    x2, y2 = variables(2)
    with pytest.raises(ValueError):
        radical_zero_dim(Ideal([x2 * y2]))


U, W = sympy.symbols("u w")


def chart_polys(I, v):
    """I's generators with the variable v set to 1, as sympy expressions in
    the other two variables, renamed u and w."""
    a, b = (i for i in range(3) if i != v)
    return [sum(c * U ** e[a] * W ** e[b] for e, c in g.items()) for g in I._ints]


def reference_chart(I, v=2):
    """The ideal of the scheme on the affine chart v = 1, as sympy's reduced
    grevlex basis of I's generators with v set to 1."""
    return sympy.groebner(chart_polys(I, v), U, W, order="grevlex")


def chart_eliminants(I, v):
    """The generators of the chart ideal's intersections with k[u] and
    k[w], zero-dimensional charts only: the last elements of its lex bases
    with the other variable first."""
    polys = chart_polys(I, v)
    return [sympy.groebner(polys, *gens, order="lex").exprs[-1] for gens in ((W, U), (U, W))]


def chart_is_radical(I, v):
    """Seidenberg's lemma: a zero-dimensional ideal over a field of
    characteristic 0 is radical iff its univariate eliminants are
    square-free (Kreuzer and Robbiano, Computational Commutative Algebra 1,
    Prop. 3.7.15)."""
    return all(sympy.degree(sympy.gcd(p, sympy.diff(p))) == 0 for p in chart_eliminants(I, v))


AFFINE = ideal_of_points(PointSet.of([(0, 1, 1), (1, 2, 1), (3, 1, 1)]))
CHART_IDEALS = [
    # (x, y)^2 at [0:0:1]: the chart z = 1 holds all three of its length
    pytest.param(Ideal([X * X, X * Y, Y * Y]), 3, False, 1, id="fat-point"),
    pytest.param(AFFINE, 3, True, 1, id="affine-points"),
    # a double point at [1:0:0] along z = 0, plus three affine points:
    # z = 1 sees only the reduced part, the chart x = 1 finds the rest
    pytest.param(
        ideal_intersect(Ideal([Z, Y * Y]), AFFINE), 5, False, 2,
        id="double-point-at-infinity",
    ),
    pytest.param(
        ideal_intersect(Ideal([Z, Y]), AFFINE), 4, True, 3,
        id="reduced-point-at-infinity",
    ),
    # everything on z = 0: the chart z = 1 is empty
    pytest.param(
        Ideal([Z, X * Y * (X - Y)]), 3, True, 2, id="three-points-at-infinity"
    ),
    pytest.param(
        Ideal([Z, X * X * Y]), 3, False, 2, id="double-point-all-at-infinity"
    ),
]


@pytest.mark.parametrize("ideal, degree, reduced, charts", CHART_IDEALS)
def test_chart_logic(monkeypatch, ideal, degree, reduced, charts):
    calls = []
    chart_reduced = zerodim._chart_reduced

    def counted(J):
        calls.append(J)
        return chart_reduced(J)

    monkeypatch.setattr(zerodim, "_chart_reduced", counted)
    report = zero_dim_report(ideal)
    assert report.is_zero_dimensional
    assert report.degree == degree
    assert report.is_reduced is reduced
    assert len(calls) == charts


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_doubling_a_point_breaks_reducedness(n, seed):
    Zset = general_points(n, seed)
    assume(all(p.coords[2] != 0 for p in Zset))
    IZ = ideal_of_points(Zset)
    report = zero_dim_report(IZ)
    assert report.is_reduced and report.degree == n
    # replace the first point's prime P by P^2, a scheme of length 3
    first, rest = Zset.points[0], Zset.points[1:]
    doubled = ideal_power(point_prime(first), 2)
    if rest:
        doubled = ideal_intersect(doubled, ideal_of_points(PointSet(rest)))
    report = zero_dim_report(doubled)
    assert not report.is_reduced and report.degree == n + 2
    # on the chart z = 1, I_Z is radical and the doubled ideal is not, and
    # both have their points where I_Z does: the square-free parts of the
    # doubled eliminants are those of I_Z
    assert chart_is_radical(IZ, 2) and not chart_is_radical(doubled, 2)
    for p, q in zip(chart_eliminants(doubled, 2), chart_eliminants(IZ, 2)):
        assert sympy.Poly(sympy.sqf_part(p), U, W).monic() == sympy.Poly(q, U, W).monic()



def standard_monomials_below(leads, top):
    """The monomials in two variables of degree below top that no exponent
    of leads divides, ascending in grevlex."""
    return [
        m
        for d in range(top)
        for m in reversed(monomials_of_degree(d, 2))
        if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
    ]


def checked_chart(I, v, degree):
    """(dim, is reduced) of the chart v = 1 read off I's bases, None when it
    is empty, after checking that the chart ideal agrees on emptiness and
    standard monomials.  A chart holds at most the degree's length, so its
    standard monomials have degree below it."""
    chart, J = zerodim._chart(I, v), reference_chart(I, v)
    empty = not all(any(lead) for lead, _ in chart)
    assert empty == (J.exprs == [1])
    if empty:
        return None
    leads = [g.monoms(order="grevlex")[0] for g in J.polys]
    basis = standard_monomials_below(leads, degree)
    assert zerodim._standard_monomials([lead for lead, _ in chart], 2) == basis
    return zerodim._chart_reduced(chart)


@pytest.mark.parametrize("ideal, degree, reduced, charts", CHART_IDEALS)
def test_charts_match_the_chart_ideals(ideal, degree, reduced, charts):
    # a chart's algebra is reduced iff the chart ideal is radical
    for v in range(3):
        found = checked_chart(ideal, v, degree)
        if found is not None:
            assert found[1] == chart_is_radical(ideal, v)


@st.composite
def points_on_coordinate_lines(draw):
    """One to five distinct points with coordinates in [-3, 3], some forced
    onto the line x = 0, y = 0 or z = 0, which lies off that chart."""
    coordinate = st.integers(-3, 3)
    where = st.sampled_from((None, 0, 1, 2))
    triples = st.tuples(coordinate, coordinate, coordinate, where)
    kept = {}
    for *t, zero in draw(st.lists(triples, min_size=1, max_size=5)):
        if zero is not None:
            t[zero] = 0
        if any(t):
            kept.setdefault(PointP2.of(*t), None)
    assume(kept)
    return PointSet(tuple(kept))


@settings(max_examples=40, deadline=None)
@given(Z_=points_on_coordinate_lines(), doubled=st.booleans())
@example(Z_=PointSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), doubled=True)
@example(Z_=PointSet.of([(0, 1, 2), (1, 0, 3), (2, 3, 0)]), doubled=False)
def test_charts_see_the_points_off_their_lines(Z_, doubled):
    # chart v holds the points with a nonzero v coordinate, each of length
    # 1, and the first point of length 3 when it is doubled: reduced iff
    # that point is not doubled there
    first, rest = Z_.points[0], Z_.points[1:]
    I = ideal_of_points(Z_)
    if doubled:
        I = ideal_power(point_prime(first), 2)
        if rest:
            I = ideal_intersect(I, ideal_of_points(PointSet(rest)))
    degree = len(Z_) + 2 * doubled
    assert zero_dim_report(I) == ZeroDimReport(True, degree, not doubled)
    for v in range(3):
        on_chart = sum(p.coords[v] != 0 for p in Z_)
        fat = doubled and first.coords[v] != 0
        expected = (on_chart + 2 * fat, not fat) if on_chart else None
        assert checked_chart(I, v, degree) == expected


def sympy_trace_matrix(chart, basis):
    """Tr(b_i b_j) as the sum over l of the coefficient of b_l in the normal
    form of b_i b_j b_l, normal forms taken by sympy over QQ."""
    u, v = sympy.symbols("u v")
    G = sympy.groebner(
        [sum(c * u ** e[0] * v ** e[1] for e, c in g.items()) for _, g in chart],
        u, v, order="grevlex",
    )

    def coefficient(m, b):
        _, r = sympy.reduced(u ** m[0] * v ** m[1], list(G), u, v, order="grevlex")
        q = sympy.Poly(r, u, v).coeff_monomial(u ** b[0] * v ** b[1])
        return Fraction(int(q.p), int(q.q))

    def trace(a, b):
        return sum(coefficient(tuple(map(sum, zip(a, b, c))), c) for c in basis)

    return [[trace(a, b) for b in basis] for a in basis]


@pytest.mark.parametrize(
    "ideal, v",
    [
        (Ideal([X * X, X * Y, Y * Y]), 2),
        (AFFINE, 2),
        (ideal_intersect(Ideal([Z, Y * Y]), AFFINE), 0),
        (ideal_intersect(Ideal([Z, Y]), AFFINE), 1),
    ],
    ids=["fat-point", "affine-points", "double-point-x", "points-y"],
)
def test_trace_matrix_matches_sympy_normal_forms(ideal, v):
    chart = zerodim._chart(ideal, v)
    basis = zerodim._standard_monomials([lead for lead, _ in chart], 2)
    expected = sympy_trace_matrix(chart, basis)
    assert zerodim._trace_matrix(chart, basis) == expected
    p = TRACE_PRIME
    modular = [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in expected]
    assert zerodim._trace_matrix(chart, basis, p) == modular


def test_report_on_a_kept_basis_builds_no_groebner_basis(monkeypatch, eight_general):
    # the envelope's own basis is the chart z = 1, which decides alone: no
    # basis is computed, and no chart ideal or monic basis is built
    zd = classify(eight_general).zd_ideal
    runs, built = [], []
    monkeypatch.setattr(ideals, "_graded", lambda *args: runs.append(args))
    monkeypatch.setattr(ideals.Ideal, "groebner", lambda I: built.append(I))
    monkeypatch.setattr(polynomials.Poly, "set_var_one", lambda *a: built.append(a))
    assert zero_dim_report(zd) == ZeroDimReport(True, 9, True)
    assert runs == [] and built == []


def test_non_homogeneous_ideal_rejected():
    # zero_dim_report never sees one: the constructor refuses it
    x2, y2 = variables(2)
    for gens in ([X * X - Z, Y], [x2 * x2 - Poly.constant(1, 2), y2]):
        with pytest.raises(ValueError, match="generators must be homogeneous"):
            Ideal(gens)

@pytest.mark.parametrize(
    "a",
    [
        # the trace form is diag(2, 2a), singular modulo the prime
        zerodim.TRACE_PRIME,
        # a coefficient the prime cannot reduce
        Fraction(1, zerodim.TRACE_PRIME),
    ],
    ids=["singular-mod-prime", "denominator-of-prime"],
)
def test_modular_rank_falls_back_to_exact(a):
    # x^2 = a z^2 on the line y = 0: two distinct points for any a != 0
    report = zero_dim_report(Ideal([X * X - a * Z * Z, Y]))
    assert report.degree == 2 and report.is_reduced


def random_form(rng, degree):
    """A homogeneous form with a few small random integer coefficients."""
    monos = monomials_of_degree(degree)
    terms = {e: rng.randint(-3, 3) for e in rng.sample(monos, min(3, len(monos)))}
    return Poly(terms, 3)


def random_ideals(rng):
    """Homogeneous ideals of each kind the Hilbert polynomial must handle:
    unsaturated, saturated, m-primary and the unit ideal."""
    for _ in range(12):
        forms = [random_form(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        I = Ideal(forms, nvars=3)
        if I.is_zero():
            continue
        yield I
        yield saturate(I, maximal_ideal())
    yield Ideal([X**2, Y**3, Z**2, X * Y * Z])  # m-primary
    yield Ideal([X**2 + Y * Z, Y**2 - X * Z, Z**3])  # m-primary
    yield unit_ideal(3)


def test_hilbert_polynomial_agrees_with_hilbert_function_past_the_bound():
    rng = random.Random(2718)
    for I in random_ideals(rng):
        a, b = zerodim.hilbert_polynomial(I)
        lcm = [max(e[v] for e in I.leading_exponents()) for v in range(3)]
        start = max(sum(lcm) - 2, 0)
        for t in range(start, start + 15):
            assert hilbert_function(I, t) == a * t + b, (I, t)
        m_primary = saturate(I, maximal_ideal()).is_unit()
        assert ((a, b) == (0, 0)) is m_primary


def test_hilbert_polynomial_of_known_ideals():
    assert zerodim.hilbert_polynomial(Ideal([X**2, Y**3, Z**2])) == (0, 0)
    assert zerodim.hilbert_polynomial(unit_ideal(3)) == (0, 0)
    # a plane curve of degree a: a*t + a(3 - a)/2
    assert zerodim.hilbert_polynomial(Ideal([X**3 + Y**3 + Z**3])) == (3, 0)
    # a line plus a point off it
    assert zerodim.hilbert_polynomial(Ideal([X * Z, Y * Z])) == (1, 2)
    with pytest.raises(ValueError):
        zerodim.hilbert_polynomial(Ideal([], nvars=3))
