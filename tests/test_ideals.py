import heapq
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from lct3 import (
    GREVLEX,
    LEX,
    Ideal,
    Poly,
    PointSet,
    X,
    Y,
    Z,
    eliminate,
    elimination_order,
    ideal_equal,
    ideal_intersect,
    ideal_of_points,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_sum,
    maximal_ideal,
    monomials_of_degree,
    saturate,
    unit_ideal,
    variables,
    zero_ideal,
)
from lct3.ideals import _autoreduce, _divides, _nf, _spoly


def gens(I):
    return [str(g) for g in I.groebner()]


def test_groebner_principal():
    assert gens(Ideal([X])) == ["x"]


def test_groebner_coordinate_points():
    # all three S-pairs reduce to zero by hand, so the input is its own basis
    I = Ideal([X * Y, X * Z, Y * Z])
    assert gens(I) == ["x*y", "x*z", "y*z"]


def test_groebner_square_of_m():
    I = ideal_power(maximal_ideal(), 2)
    assert set(I.leading_exponents()) == set(monomials_of_degree(2))


def test_groebner_idempotent_and_deterministic():
    I = Ideal([X * X - Y * Z, X * Y - Z * Z])
    first = I.groebner()
    again = Ideal(list(first)).groebner()
    assert first == again
    fresh = Ideal([X * X - Y * Z, X * Y - Z * Z]).groebner()
    assert fresh == first


def test_unit_ideal_basis():
    J = Ideal([X, Poly.constant(1, 3) - X])
    assert gens(J) == ["1"]
    assert J.is_unit()


def test_contains_basics():
    I = Ideal([X, Y])
    assert I.contains(X * X + X * Y)
    assert not Ideal([X * Y, X * Z, Y * Z]).contains(X * X)
    assert unit_ideal().contains(Z * Z * Z)
    for g in Ideal([X * X - Y * Z, Y * Y - X * Z]).groebner():
        assert Ideal([X * X - Y * Z, Y * Y - X * Z]).contains(g)


def test_sum_product_power():
    assert ideal_equal(ideal_sum(Ideal([X]), Ideal([Y])), Ideal([X, Y]))
    P = ideal_product(Ideal([X, Y]), Ideal([X, Z]))
    assert ideal_equal(P, Ideal([X * X, X * Z, X * Y, Y * Z]))
    sq = ideal_power(Ideal([X, Y]), 2)
    assert ideal_equal(sq, Ideal([X * X, X * Y, Y * Y]))
    assert ideal_power(Ideal([X, Y]), 0).is_unit()


def test_intersect_examples():
    assert gens(ideal_intersect(Ideal([X]), Ideal([Y]))) == ["x*y"]
    I = Ideal([X * X - Y * Z, Z])
    assert ideal_equal(ideal_intersect(I, I), I)
    triple = ideal_intersect(
        ideal_intersect(Ideal([X, Y]), Ideal([X, Z])), Ideal([Y, Z])
    )
    expected = Ideal([X * Y, X * Z, Y * Z])
    # containment both ways by normal-form membership
    assert all(expected.contains(g) for g in triple.groebner())
    assert all(triple.contains(g) for g in expected.groebner())
    assert ideal_equal(triple, expected)


def test_quotient_examples():
    assert gens(ideal_quotient(Ideal([X * Y]), Ideal([Y]))) == ["x"]
    I = Ideal([X * X - Y * Z])
    assert ideal_equal(ideal_quotient(I, unit_ideal()), I)


def test_saturate_examples():
    m = maximal_ideal()
    assert gens(saturate(Ideal([X * X, X * Y, X * Z]), m)) == ["x"]
    assert saturate(ideal_power(m, 3), m).is_unit()
    assert saturate(zero_ideal(), m).is_zero()


def reference_saturate(I, J, rounds=20):
    """I : J^infinity by the quotient chain I, I : J, (I : J) : J, ...,
    stopped where two consecutive ideals agree."""
    current = I
    for _ in range(rounds):
        nxt = ideal_quotient(current, J)
        if ideal_equal(nxt, current):
            return current
        current = nxt
    raise AssertionError("the quotient chain did not stabilize")


coordinate = st.integers(-2, 2)
# points with a zero coordinate about half the time, so on a coordinate line
point = st.tuples(coordinate, coordinate, coordinate, st.integers(0, 3)).map(
    lambda t: tuple(0 if i == t[3] else c for i, c in enumerate(t[:3]))
)


@st.composite
def homogeneous_ideals(draw):
    """A non-monomial homogeneous ideal: the ideal of one to four points,
    times or intersected with a power of m, plus up to two random forms,
    each either free (it may cut points away) or a multiple of a form
    through the points."""
    raw = draw(st.lists(point, min_size=1, max_size=4))
    try:
        Z_ = PointSet.of(raw)
    except ValueError:  # a zero triple or a repeated point
        assume(False)
    IZ = ideal_of_points(Z_)
    m_k = ideal_power(maximal_ideal(), draw(st.integers(1, 3)))
    I = draw(st.sampled_from([ideal_product, ideal_intersect]))(IZ, m_k)
    for _ in range(draw(st.integers(0, 2))):
        monos = monomials_of_degree(draw(st.integers(1, 3)))
        form = Poly({e: draw(st.integers(-3, 3)) for e in monos}, 3)
        if draw(st.booleans()):
            form = form * draw(st.sampled_from(IZ.groebner()))
        I = ideal_sum(I, Ideal([form], nvars=3))
    return I


variable_ideals = st.sampled_from([(0, 1, 2), (2,), (0,), (0, 1), (1, 2)]).map(
    lambda vs: Ideal([Poly.variable(v, 3) for v in vs], nvars=3)
)


@settings(max_examples=30, deadline=None)
@given(I=homogeneous_ideals(), J=variable_ideals)
def test_saturate_matches_the_quotient_chain(I, J):
    S = saturate(I, J)
    assert ideal_equal(S, reference_saturate(I, J))
    assert S.contains_ideal(I)


def test_saturate_refuses_what_it_cannot_compute():
    m = maximal_ideal()
    with pytest.raises(ValueError, match="homogeneous"):
        saturate(Ideal([X * X - Y]), m)
    for J in (Ideal([X + Y]), Ideal([X * X, Y]), unit_ideal(), zero_ideal()):
        with pytest.raises(ValueError, match="variables"):
            saturate(Ideal([X * Y]), J)


def test_eliminate_examples():
    t, x, y, z = variables(4)
    one4 = Poly.constant(1, 4)
    E = eliminate(Ideal([t * x, (one4 - t) * y]), 0)
    assert [str(g) for g in E.groebner()] == ["x*y"]
    E2 = eliminate(Ideal([X - Z, Y - Z]), 0)
    assert gens(E2) == ["y - z"]
    E3 = eliminate(Ideal([X * Y, X * Z, Y * Z]), 2)
    assert gens(E3) == ["x*y"]


def test_ideal_equal_examples():
    assert ideal_equal(Ideal([X, Y]), Ideal([Y, X + Y]))
    assert not ideal_equal(Ideal([X]), Ideal([X * X]))


def _random_monomial_ideal(rng, max_exp=3, max_gens=3):
    n = rng.randint(1, max_gens)
    ms = []
    for _ in range(n):
        e = tuple(rng.randint(0, max_exp) for _ in range(3))
        if e != (0, 0, 0):
            ms.append(Poly.monomial(e, 1))
    return Ideal(ms or [X], nvars=3)


def test_randomized_lattice_relations():
    rng = random.Random(2024)
    for _ in range(30):
        I = _random_monomial_ideal(rng)
        J = _random_monomial_ideal(rng)
        prod = ideal_product(I, J)
        inter = ideal_intersect(I, J)
        total = ideal_sum(I, J)
        assert inter.contains_ideal(prod)
        assert I.contains_ideal(inter) and J.contains_ideal(inter)
        assert total.contains_ideal(I) and total.contains_ideal(J)


def test_randomized_quotient_relation():
    rng = random.Random(99)
    for _ in range(15):
        I = _random_monomial_ideal(rng)
        J = _random_monomial_ideal(rng)
        Q = ideal_quotient(I, J)
        assert I.contains_ideal(ideal_product(Q, J))


def test_saturate_grows_and_is_idempotent():
    rng = random.Random(5)
    m = maximal_ideal()
    for _ in range(10):
        I = _random_monomial_ideal(rng)
        S = saturate(I, m)
        assert S.contains_ideal(I)
        assert ideal_equal(saturate(S, m), S)


def _to_sympy(p, syms):
    expr = 0
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        expr += term
    return sympy.expand(expr)


def _canon(exprs, syms):
    out = set()
    for e in exprs:
        poly = sympy.Poly(e, *syms, domain="QQ")
        monic = poly.monic()
        out.add(frozenset(monic.terms()))
    return out


def test_groebner_matches_sympy_on_random_ideals():
    syms = sympy.symbols("x y z")
    rng = random.Random(321)
    for _ in range(12):
        polys = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                terms[e] = terms.get(e, 0) + Fraction(rng.randint(-5, 5))
            p = Poly(terms, 3)
            if not p.is_zero():
                polys.append(p)
        if not polys:
            continue
        mine = Ideal(polys).groebner()
        theirs = sympy.groebner(
            [_to_sympy(p, syms) for p in polys], *syms, order="grevlex"
        ).exprs
        assert _canon([_to_sympy(g, syms) for g in mine], syms) == _canon(
            theirs, syms
        )


def test_zero_ideal_requires_ring_width():
    with pytest.raises(ValueError):
        Ideal([])
    assert zero_ideal(3).is_zero()


def _random_rational_poly(rng):
    """A random form with rational coefficients, scaled by a non-unit
    rational so it is not primitive, with a negative leading coefficient
    about half the time."""
    degree = rng.randint(0, 3)
    monos = monomials_of_degree(degree)
    terms = {
        e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for e in rng.sample(monos, rng.randint(1, min(4, len(monos))))
    }
    p = Poly(terms, 3) * Fraction(rng.choice([2, 6, 10]), rng.choice([1, 3, 7]))
    if p.is_zero():
        return Poly.constant(Fraction(-3, 2))
    if rng.random() < 0.5 and p.leading_coefficient() > 0:
        p = -p
    return p


def test_integer_products_equal_rational_products():
    rng = random.Random(77)
    for _ in range(25):
        I = Ideal([_random_rational_poly(rng) for _ in range(rng.randint(1, 3))])
        J = Ideal([_random_rational_poly(rng) for _ in range(rng.randint(1, 3))])
        product = ideal_product(I, J)
        by_poly = Ideal([f * g for f in I.generators for g in J.generators])
        assert ideal_equal(product, by_poly)
        # each product is primitive with a positive leading coefficient, so
        # the two orders of the factors give the same generators
        assert set(product.generators) == set(ideal_product(J, I).generators)
        for g in product.generators:
            assert g.leading_coefficient() > 0
            assert all(c.denominator == 1 for c in g.terms.values())


def test_contains_ideal_starts_no_groebner_run_on_its_argument():
    rng = random.Random(43)
    answers = set()
    for _ in range(20):
        I = Ideal([_random_rational_poly(rng) for _ in range(rng.randint(1, 3))])
        K = Ideal([_random_rational_poly(rng) for _ in range(rng.randint(1, 2))])
        for J in (I, K, ideal_sum(I, K)):
            P = ideal_power(I, 2)
            answer = J.contains_ideal(P)
            assert P._gb is None
            assert answer == all(J.contains(g) for g in P.groebner())
            answers.add(answer)
    assert answers == {True, False}


def test_heap_key_reverses_the_order():
    rng = random.Random(8)
    for order in (GREVLEX, LEX, elimination_order(1)):
        exps = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(60)]
        exps += [(0, 70000, 0, 0), (0, 69999, 1, 0), (1, 0, 0, 70000)]
        descending = sorted(set(exps), key=order.key, reverse=True)
        assert sorted(set(exps), key=order.heap_key) == descending


def test_normal_form_beyond_any_key_width():
    # exponents past 2^16: a key packed into fixed-width fields would wrap
    big = 70000
    x_big = Poly.monomial((big, 0, 0))
    assert Ideal([x_big - Poly.monomial((big - 1, 1, 0))]).leading_exponents() == (
        (big, 0, 0),
    )
    # leading term x^69999*y beats z^70000 in grevlex
    b = Poly.monomial((big - 1, 1, 0)) - Poly.monomial((0, 0, big))
    I = Ideal([b])
    assert I.leading_exponents() == ((big - 1, 1, 0),)
    # x^70000*y + x^69999*y^2 reduces by x*b, then y*b, to (x + y)*z^70000
    p = Poly.monomial((big, 1, 0)) + Poly.monomial((big - 1, 2, 0))
    assert not I.contains(p)
    assert I.contains(p - (X + Y) * Poly.monomial((0, 0, big)))
    assert I.contains(X * b) and not I.contains(x_big)


# The graded engine (one degree at a time, inhomogeneous generators
# homogenized first) against Buchberger's algorithm as the reference: both
# return the reduced basis as primitive integer polynomials sorted by leading
# exponent, so they must agree term for term.


def reference_buchberger(gens, order):
    """Reduced Groebner basis (list of primitive IntPoly, descending leads)
    by Buchberger's algorithm: pairs by ascending lcm degree with the product
    criterion and the chain criterion (justified only by pairs treated
    strictly earlier, so discards are well-founded), reduced by normal forms
    and auto-reduced at the end."""
    keyf = order.key
    G: list = []
    lts: list = []
    for g in gens:
        r = _nf(g, list(zip(lts, G)), order)
        if r:
            G.append(r)
            lts.append(max(r, key=keyf))

    heap: list = []

    def push_pairs(j):
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(lts[i], lts[j]))
            heapq.heappush(heap, (sum(lcm), keyf(lcm), i, j))

    for j in range(len(G)):
        push_pairs(j)

    treated = set()
    while heap:
        _, _, i, j = heapq.heappop(heap)
        treated.add((i, j))
        lti, ltj = lts[i], lts[j]
        lcm = tuple(max(a, b) for a, b in zip(lti, ltj))
        if all(a + b == l for a, b, l in zip(lti, ltj, lcm)):
            continue  # coprime leading terms
        skipped = False
        for k in range(len(G)):
            if k == i or k == j or not _divides(lts[k], lcm):
                continue
            if (min(i, k), max(i, k)) in treated and (min(j, k), max(j, k)) in treated:
                skipped = True
                break
        if skipped:
            continue
        r = _nf(_spoly(G[i], lti, G[j], ltj), list(zip(lts, G)), order)
        if r:
            G.append(r)
            lts.append(max(r, key=keyf))
            push_pairs(len(G) - 1)

    return _autoreduce(G, order)


@st.composite
def homogeneous_forms(draw, max_forms=4):
    """One to max_forms integer forms of mixed degrees 1-3, each with one
    to five terms, or a constant now and then (the unit ideal)."""
    forms = []
    for _ in range(draw(st.integers(1, max_forms))):
        degree = draw(st.integers(0, 3) if draw(st.booleans()) else st.integers(1, 3))
        monos = monomials_of_degree(degree)
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5))
        forms.append(Poly({e: draw(st.integers(-4, 4)) for e in chosen}, 3))
    return forms


def assert_engines_agree(forms, order=GREVLEX):
    from lct3 import ideals

    I = Ideal(forms, nvars=3, order=order)
    ints = [ideals._int_from_poly(g, order.key) for g in I.generators]
    graded = ideals._graded(ints, order)
    assert graded == reference_buchberger(ints, order)
    # Ideal.groebner takes the graded engine for these generators
    assert I.groebner() == tuple(
        ideals._poly_from_int(p, 3, order.key) for p in graded
    )


# Drawn at random, one in several hundred sets does this: a Gebauer-Moller
# update that keeps none of the new pairs sharing one lcm, or that drops an
# old pair whose lcm the new pairs reach with equality, changes their
# bases, and so does a preprocessing that leaves the reducers' tails
# unreduced.
NEEDS_EVERY_PAIR = [
    [-2 * X**2 * Z, X**2 * Y + 2 * X * Y**2 - Z**3],
    [
        2 * X * Y**2 - X**3,
        -(X**3) - X**2 * Z - X * Y * Z,
        2 * X * Y * Z - 2 * X * Z**2 - 2 * Y**2 * Z,
        2 * X * Z**2 + Y**2 * Z,
    ],
    [
        -2 * X**2 * Y - Y**3 - 2 * Y * Z**2,
        -2 * X * Y * Z - 2 * Y * Z**2,
        -2 * Y**3 - X**2 * Z,
        -(Y**3) - X * Z**2,
    ],
]


@settings(max_examples=60, deadline=None)
@given(
    forms=homogeneous_forms(),
    order=st.sampled_from([GREVLEX, LEX, elimination_order(1)]),
)
@example(forms=NEEDS_EVERY_PAIR[0], order=GREVLEX)
@example(forms=NEEDS_EVERY_PAIR[1], order=GREVLEX)
@example(forms=NEEDS_EVERY_PAIR[2], order=GREVLEX)
def test_graded_engine_matches_buchberger_on_random_forms(forms, order):
    assert_engines_agree(forms, order)


@settings(max_examples=25, deadline=None)
@given(first=homogeneous_forms(max_forms=3), second=homogeneous_forms(max_forms=3))
def test_graded_engine_matches_buchberger_on_products(first, second):
    I, J = Ideal(first, nvars=3), Ideal(second, nvars=3)
    assert_engines_agree(ideal_product(I, J).generators)


@settings(max_examples=25, deadline=None)
@given(I=homogeneous_ideals(), v=st.integers(0, 2))
def test_graded_engine_matches_buchberger_on_permuted_ideals(I, v):
    # saturate's basis with the variable v moved to the last place
    perm = tuple(i for i in range(3) if i != v) + (v,)
    assert_engines_agree([g.permute(perm) for g in I.generators])


def test_graded_engine_on_zero_and_unit_ideals():
    from lct3 import ideals

    assert ideals._graded([], GREVLEX) == []
    one = Poly.constant(1, 3)
    for forms in ([one], [X * Y, one, Z**3], [X, Y, Z, one]):
        assert_engines_agree(forms)
        assert Ideal(forms).is_unit()


def test_graded_engine_needs_no_normal_forms(monkeypatch):
    # each degree step is one elimination whose pivot rows are already
    # reduced: no normal form and no auto-reduction
    from lct3 import ideals

    def refuse(*args):
        raise AssertionError("a normal form for homogeneous input")

    monkeypatch.setattr(ideals, "_nf", refuse)
    monkeypatch.setattr(ideals, "_autoreduce", refuse)
    I = ideal_product(Ideal([X * X - Y * Z, X * Y - Z * Z, Y * Y]), maximal_ideal())
    assert len(I.groebner()) > len(monomials_of_degree(1))
    assert saturate(ideal_power(maximal_ideal(), 3), maximal_ideal()).is_unit()


@st.composite
def inhomogeneous_polys(draw, nvars):
    """One to three integer polynomials in nvars variables, each with one to
    four terms of degrees 0-3 (constants allowed), not all homogeneous."""
    monos = [e for e in product(range(4), repeat=nvars) if sum(e) <= 3]
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4))
        polys.append(Poly({e: draw(st.integers(-3, 3)) for e in chosen}, nvars))
    assume(not all(p.is_homogeneous() for p in polys))
    return polys


def assert_matches_reference(polys, nvars, order):
    from lct3 import ideals

    I = Ideal(polys, nvars=nvars, order=order)
    ints = [ideals._int_from_poly(g, order.key) for g in I.generators]
    assert I.groebner() == tuple(
        ideals._poly_from_int(p, nvars, order.key)
        for p in reference_buchberger(ints, order)
    )


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    nvars=st.integers(2, 4),
    order=st.sampled_from([GREVLEX, LEX, elimination_order(1)]),
)
def test_inhomogeneous_bases_match_buchberger(data, nvars, order):
    assert_matches_reference(data.draw(inhomogeneous_polys(nvars)), nvars, order)


def test_inhomogeneous_bases_of_the_package_match_buchberger():
    # the t-lift of two point ideals, as ideal_intersect builds it
    t, one = Poly.variable(0, 4), Poly.constant(1, 4)
    first = ideal_of_points(PointSet.of([(1, 2, 3), (0, 1, -1)]))
    second = ideal_of_points(PointSet.of([(2, -1, 1)]))
    lift = [t * f.insert_var(0) for f in first.groebner()]
    lift += [(one - t) * g.insert_var(0) for g in second.groebner()]
    assert_matches_reference(lift, 4, elimination_order(1))
    # the chart z = 1 of three points, as zero_dim_report reads it
    points = ideal_of_points(PointSet.of([(1, 0, 1), (0, 1, 1), (2, 3, 1)]))
    chart = [g.set_var_one(2) for g in points.groebner()]
    assert_matches_reference(chart, 2, GREVLEX)
    assert_matches_reference(chart, 2, LEX)
