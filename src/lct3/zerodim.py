"""Zero-dimensional analysis of saturated homogeneous ideals: Hilbert
functions and polynomials, projective degree, reducedness via the rank of the
Hermite trace form on the standard affine charts."""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import Ideal, ideal_sum, _divides, _standard_count
from .linalg import TRACE_PRIME, echelon, integer_kernel
from .polynomials import GREVLEX


@dataclass(frozen=True)
class ZeroDimReport:
    is_zero_dimensional: bool
    degree: int  # length of the projective scheme; 0 when not zero-dimensional
    is_reduced: bool


def hilbert_function(I: Ideal, t: int) -> int:
    """dim of the degree-t piece of S/I, by counting standard monomials."""
    return _standard_count(I.leading_exponents(), t, I.nvars)


def zero_dim_report(I: Ideal) -> ZeroDimReport:
    """Analyze a saturated homogeneous ideal in three variables: its
    projective degree and, for a zero-dimensional scheme, reducedness."""
    degree = projective_degree(I)
    if not degree:
        return ZeroDimReport(False, 0, False)
    return ZeroDimReport(True, degree, _charts_reduced(I, degree))


def hilbert_polynomial(I: Ideal):
    """(a, b) with HP(S/I)(t) = a*t + b, for a nonzero homogeneous ideal in
    three variables.  The Taylor resolution of in(I) writes HF(S/in(I)) as
    a signed sum of binomials C(t - D + 2, 2), D the degrees of lcms of
    leading terms, each polynomial in t from D - 2 on; so HF = HP from
    t0 = deg lcm(in I) - 2 on, and two values there determine it."""
    if I.nvars != 3:
        raise ValueError("expected an ideal in the homogeneous coordinate ring")
    if I.is_zero():
        raise ValueError("the zero ideal has a quadratic Hilbert polynomial")
    lcm = map(max, zip(*I.leading_exponents()))  # exponents of lcm(in I)
    t0 = max(sum(lcm) - 2, 0)
    h0 = hilbert_function(I, t0)
    a = hilbert_function(I, t0 + 1) - h0
    return a, h0 - a * t0


def projective_degree(I: Ideal) -> int:
    """Length of the scheme of a homogeneous ideal in three variables; 0
    when the scheme is not zero-dimensional (a constant Hilbert polynomial
    is the length)."""
    if I.nvars != 3:
        raise ValueError("expected an ideal in the homogeneous coordinate ring")
    if I.is_unit():
        raise ValueError("the unit ideal defines the empty scheme")
    if I.is_zero():
        return 0
    a, b = hilbert_polynomial(I)
    return b if a == 0 else 0


def _charts_reduced(I: Ideal, degree: int) -> bool:
    """Is the scheme reduced on every standard affine chart?  The chart
    z = 1 goes first: when its algebra has the full projective degree, no
    point lies on z = 0 and that chart decides alone."""
    gb = I.groebner()
    for chart in (2, 0, 1):
        J = Ideal([g.set_var_one(chart) for g in gb], nvars=2)
        if J.is_unit():
            continue  # no points in this chart
        dim, reduced = _chart_reduced(J)
        if not reduced:
            return False
        if chart == 2 and dim == degree:
            return True
    return True


def _chart_reduced(J: Ideal):
    """(dim A, is A reduced) for A = k[u,v]/J: A is reduced iff its trace
    form has full rank.  The rank is first taken modulo TRACE_PRIME, which
    can only lower it; a form short of full rank there is ranked again
    over Q."""
    basis = _standard_monomials(J)
    n = len(basis)
    coefficients = [c for g in J.groebner() for c in g.terms.values()]
    if all(c.denominator % TRACE_PRIME for c in coefficients):
        modular = _trace_matrix(J, basis, TRACE_PRIME)
        if len(echelon(modular, range(n), TRACE_PRIME)[1]) == n:
            return n, True
    return n, len(echelon(_trace_matrix(J, basis), range(n))[1]) == n


def radical_zero_dim(I: Ideal) -> Ideal:
    """Radical of a zero-dimensional affine ideal.  In characteristic 0 the
    nilradical of A = k[x]/I is the kernel of the trace form of A, so the
    radical is I plus the polynomials that kernel spans.  With pivots taken
    left to right, each kernel vector (linalg.integer_kernel) is positive
    in its last nonzero column, the leading one of the ascending basis."""
    basis = _standard_monomials(I)
    n = len(basis)
    kernel = integer_kernel(*echelon(_trace_matrix(I, basis), range(n)), n)
    nilpotents = [{basis[j]: v for j, v in vec.items()} for _, vec in kernel]
    return ideal_sum(I, Ideal._of(nilpotents, I.nvars))


def _trace_matrix(I: Ideal, basis, prime: int = None) -> list:
    """The matrix Tr(b_i b_j) of the Hermite trace form of A = k[x]/I on its
    standard monomials b_i.  Its rank is the number of distinct points of I
    (characteristic 0), so I is radical iff the form has full rank (Cox,
    Little, O'Shea, Using Algebraic Geometry, ch. 2 §§4-5).  Entries are
    Fractions, or integers modulo `prime` when one is given (no coefficient
    of I may then have a denominator divisible by it)."""
    if prime is None:
        lift = norm = lambda v: v
    else:
        lift = lambda c: c.numerator * pow(c.denominator, -1, prime) % prime
        norm = lambda v: v % prime
    index = {b: i for i, b in enumerate(basis)}
    reducers = [
        (g.leading_monomial(), {e: lift(c) for e, c in g.terms.items()})
        for g in I.groebner()
    ]
    keyf = GREVLEX.key
    forms = {}  # monomial -> its normal form, as {basis index: coefficient}

    def coords(i, j):
        m = tuple(a + b for a, b in zip(basis[i], basis[j]))
        if m not in forms:
            forms[m] = _normal_form(m, reducers, index, keyf, norm)
        return forms[m]

    n = len(basis)
    products = [[coords(i, j) for j in range(n)] for i in range(n)]
    # Tr(b_k) is the trace of multiplication by b_k on the basis
    traces = [
        norm(sum(products[k][l].get(l, 0) for l in range(n))) for k in range(n)
    ]
    return [
        [
            norm(sum(c * traces[k] for k, c in products[i][j].items()))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _standard_monomials(I: Ideal) -> list:
    """Monomials outside the leading-term ideal, ascending in grevlex.
    They are finitely many exactly when I is zero-dimensional."""
    if I.is_unit():
        return []
    lts = I.leading_exponents()
    for v in range(I.nvars):
        if not any(l[v] > 0 and sum(l) == l[v] for l in lts):
            raise ValueError(
                f"no leading term is a power of variable {v}: ideal is not zero-dimensional"
            )
    found = {(0,) * I.nvars}
    frontier = list(found)
    while frontier:
        e = frontier.pop()
        for v in range(I.nvars):
            f = e[:v] + (e[v] + 1,) + e[v + 1 :]
            if f not in found and not any(_divides(l, f) for l in lts):
                found.add(f)
                frontier.append(f)
    return sorted(found, key=GREVLEX.key)


def _normal_form(m, reducers, index, keyf, norm) -> dict:
    """Coordinates of the monomial m modulo a monic Groebner basis, given as
    [(leading exponent, terms)], in the standard monomials listed by index."""
    work = {m: 1}
    out = {}
    while work:
        lt = max(work, key=keyf)
        c = work.pop(lt)
        for blt, terms in reducers:
            if _divides(blt, lt):
                shift = tuple(a - b for a, b in zip(lt, blt))
                for e, t in terms.items():
                    if e == blt:
                        continue
                    f = tuple(a + s for a, s in zip(e, shift))
                    v = norm(work.get(f, 0) - c * t)
                    if v:
                        work[f] = v
                    else:
                        work.pop(f, None)
                break
        else:
            out[index[lt]] = c
    return out
