import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lct3 import GREVLEX, Poly, X, Y, Z, monomials_of_degree, poly_from_string, poly_str
from lct3.cli import any_length
from lct3.polynomials import ELIMINATION, form_str, grevlex_key


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_monomials_of_degree_small():
    assert monomials_of_degree(0) == [(0, 0, 0)]
    assert monomials_of_degree(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomials_of_degree(3)) == 10


@pytest.mark.parametrize("d", range(11))
def test_monomials_of_degree_count(d):
    assert len(monomials_of_degree(d)) == (d + 1) * (d + 2) // 2


def test_monomials_are_grevlex_sorted():
    for d in range(6):
        keys = [grevlex_key(e) for e in monomials_of_degree(d)]
        assert keys == sorted(keys, reverse=True)


def test_grevlex_classic_order():
    # in degree 2: x^2 > xy > y^2 > xz > yz > z^2
    assert monomials_of_degree(2) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_homogeneous_product_degree():
    rng = random.Random(7)
    for _ in range(25):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        p = sum(
            (Poly.monomial(e, rng.randint(1, 5)) for e in monomials_of_degree(d1)),
            Poly.zero(3),
        )
        q = sum(
            (Poly.monomial(e, rng.randint(1, 5)) for e in monomials_of_degree(d2)),
            Poly.zero(3),
        )
        assert p.is_homogeneous() and q.is_homogeneous()
        assert (p * q).total_degree() == d1 + d2


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly({(1, 0, 0): 0.5}, 3)


def test_leading_monomial_grevlex():
    p = X * Y + Z * Z  # xy > z^2 in grevlex
    assert p.leading_monomial(GREVLEX) == (1, 1, 0)


def test_elimination_order_blocks():
    order = ELIMINATION
    # anything containing the first variable beats anything without it, and
    # grevlex decides among the rest
    assert order.key((1, 0, 0, 0)) > order.key((0, 5, 5, 5))
    assert order.key((1, 1, 0, 0)) > order.key((1, 0, 0, 1))
    assert order.key((0, 2, 0, 0)) > order.key((0, 1, 1, 0)) > order.key((0, 0, 2, 0))


def test_render_parse_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly(terms, 3)
        assert poly_from_string(poly_str(p)) == p


def test_render_examples():
    assert poly_str(X * X - Y * Y) == "x^2 - y^2"
    assert poly_str(Poly.zero(3)) == "0"
    assert poly_str(Poly.constant(Fraction(-3, 7), 3)) == "-3/7"


def fraction_str(form, den, names) -> str:
    """The rendering form_str replaced: each term's Fraction(c, den) by
    poly_str's rules, terms in descending grevlex order."""
    out = []
    for e in sorted(form, key=grevlex_key, reverse=True):
        c = Fraction(form[e], den)
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out) or "0"


int_forms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-40, 40).filter(bool), max_size=7
)
LONG = 7**6000  # 5071 digits, past the interpreter's default limit of 4300


@settings(max_examples=200, deadline=None)
@given(
    form=int_forms,
    den=st.one_of(st.just(1), st.just("lead"), st.integers(2, 90)),
    scale=st.sampled_from((1, LONG)),
    rng=st.randoms(use_true_random=False),
)
@example(form={(0, 0, 0): -3}, den=7, scale=1, rng=random.Random(0))
@example(form={(0, 0, 0): 6, (0, 0, 1): -1}, den="lead", scale=LONG, rng=random.Random(0))
@example(form={(0, 0, 2): 1, (2, 0, 0): -2, (1, 1, 0): 4}, den=1, scale=1, rng=random.Random(0))
def test_form_str_matches_the_fraction_rendering(form, den, scale, rng):
    # the exponents come in any order: form_str sorts them itself
    items = [(e, c * scale) for e, c in form.items()]
    rng.shuffle(items)
    form = dict(items)
    if den == "lead":  # the monic text of a basis element
        lead = max(form, key=grevlex_key, default=None)
        if lead is not None and form[lead] < 0:
            form = {e: -c for e, c in form.items()}
        den = form[lead] if lead is not None else 1
    with any_length():
        assert form_str(form, den, ("x", "y", "z")) == fraction_str(form, den, ("x", "y", "z"))
