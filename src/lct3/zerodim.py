"""Zero-dimensional analysis of saturated homogeneous ideals of k[x, y, z]:
Hilbert functions and polynomials, projective degree, reducedness via the
rank of the Hermite trace form on the standard affine charts, which are
algebras in two variables.  A homogeneous ideal that is zero-dimensional in
affine 3-space is m-primary, so its radical needs no computation."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, sub

from .ideals import Ideal, _basis_with_last, _divides, _standard_count, maximal_ideal, unit_ideal
from .linalg import TRACE_PRIME, echelon
from .polynomials import GREVLEX


@dataclass(frozen=True)
class ZeroDimReport:
    is_zero_dimensional: bool
    degree: int  # length of the projective scheme; 0 when not zero-dimensional
    is_reduced: bool


def hilbert_function(I: Ideal, t: int) -> int:
    """dim of the degree-t piece of S/I, by counting standard monomials."""
    return _standard_count(I.leading_exponents(), t)


def zero_dim_report(I: Ideal) -> ZeroDimReport:
    """Analyze a saturated homogeneous ideal: its projective degree and, for
    a zero-dimensional scheme, reducedness."""
    degree = projective_degree(I)
    if not degree:
        return ZeroDimReport(False, 0, False)
    return ZeroDimReport(True, degree, _charts_reduced(I, degree))


def hilbert_polynomial(I: Ideal):
    """(a, b) with HP(S/I)(t) = a*t + b, for a nonzero homogeneous ideal
    of S = k[x, y, z].  The Taylor resolution of in(I) writes HF(S/in(I)) as
    a signed sum of binomials C(t - D + 2, 2), D the degrees of lcms of
    leading terms, each polynomial in t from D - 2 on; so HF = HP from
    t0 = deg lcm(in I) - 2 on, and two values there determine it."""
    if I.is_zero():
        raise ValueError("the zero ideal has a quadratic Hilbert polynomial")
    lcm = map(max, zip(*I.leading_exponents()))  # exponents of lcm(in I)
    t0 = max(sum(lcm) - 2, 0)
    h0 = hilbert_function(I, t0)
    a = hilbert_function(I, t0 + 1) - h0
    return a, h0 - a * t0


def projective_degree(I: Ideal) -> int:
    """Length of the projective scheme of a homogeneous ideal; 0 when the
    scheme is not zero-dimensional (a constant Hilbert polynomial is the
    length)."""
    if I.is_unit():
        raise ValueError("the unit ideal defines the empty scheme")
    if I.is_zero():
        return 0
    a, b = hilbert_polynomial(I)
    return b if a == 0 else 0


def _charts_reduced(I: Ideal, degree: int) -> bool:
    """Is the scheme reduced on every standard affine chart (_chart)?  A
    chart is empty when a leading exponent becomes 0, i.e. when a power of
    its variable lies in I.  The chart z = 1 goes first, on I's own basis:
    when its algebra has the full projective degree, no point lies on z = 0
    and that chart decides alone."""
    for v in (2, 0, 1):
        chart = _chart(I, v)
        if not all(any(lead) for lead, _ in chart):
            continue  # no points in this chart
        dim, reduced = _chart_reduced(chart)
        if not reduced:
            return False
        if v == 2 and dim == degree:
            return True
    return True


def _chart(I: Ideal, v: int) -> list:
    """The chart v = 1 of a homogeneous ideal I: its reduced grevlex basis
    with v last (ideals._basis_with_last), at v = 1.  Among forms of one
    degree a lower power of v is a larger monomial, ties going as in grevlex
    on the other variables, so each leading term stays leading, and this is
    a Groebner basis of the chart's ideal, if not always a reduced one (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 8 §4)."""
    basis = _basis_with_last(I, v)
    return [(l[:-1], {e[:-1]: c for e, c in g.items()}) for l, g in basis]


def _chart_reduced(chart):
    """(dim A, is A reduced) for A = k[u,v]/J, J given by a grevlex Groebner
    basis (a chart): A is reduced iff its trace form has full rank.  When
    the prime divides no leading coefficient, that rank is first taken
    modulo TRACE_PRIME, where it can only drop; a form short of full rank
    there is ranked again over Q.  Both ranks are forward only."""
    basis = _standard_monomials([lead for lead, _ in chart])
    n = len(basis)
    if all(g[lead] % TRACE_PRIME for lead, g in chart):
        modular = _trace_matrix(chart, basis, TRACE_PRIME)
        if len(echelon(modular, range(n), TRACE_PRIME, back=False)[1]) == n:
            return n, True
    exact = _trace_matrix(chart, basis)
    return n, len(echelon(exact, range(n), back=False)[1]) == n


def radical_zero_dim(I: Ideal) -> Ideal:
    """Radical of an ideal that is zero-dimensional in affine 3-space, i.e.
    of Hilbert polynomial 0; ValueError for any other.  Such an ideal
    contains a power of m, and being homogeneous it lies in m unless it is
    the unit ideal, so its radical is m = (x, y, z), or the unit ideal."""
    if I.is_zero() or hilbert_polynomial(I) != (0, 0):
        raise ValueError("not zero-dimensional")
    return unit_ideal() if I.is_unit() else maximal_ideal()


def _trace_matrix(gb, basis, prime: int = None) -> list:
    """The matrix Tr(b_i b_j) of the Hermite trace form of A = k[x]/I on its
    standard monomials b_i, I given by a grevlex Groebner basis gb of
    integer polynomials, (leading exponent, polynomial) pairs.  Its rank is
    the number of distinct points of I (characteristic 0), so I is radical
    iff the form has full rank (Cox, Little, O'Shea, Using Algebraic
    Geometry, ch. 2 §§4-5).  Entries are Fractions, or integers modulo
    `prime` when one is given, which may then divide no leading coefficient.

    A monomial m that a leading exponent divides is congruent to that
    element's tail, made monic, negated and shifted by m / lead, whose terms
    are smaller than m in grevlex.  The monomials that the products b_i b_j
    need are collected off a stack, with those tails, and the coordinates
    of each are found once, ascending in grevlex, from smaller ones."""
    norm = (lambda v: v) if prime is None else (lambda v: v % prime)
    reducers = []  # (leading exponent, monic tail negated)
    for lead, g in gb:
        inv = Fraction(-1, g[lead]) if prime is None else -pow(g[lead], -1, prime)
        reducers.append((lead, [(e, norm(c * inv)) for e, c in g.items() if e != lead]))
    index = {b: i for i, b in enumerate(basis)}
    products = [[tuple(map(add, a, b)) for b in basis] for a in basis]
    tails = {}  # monomial -> its shifted monic tail, () for a standard one
    todo = [m for row in products for m in row]
    while todo:
        m = todo.pop()
        if m in tails:
            continue
        tails[m] = ()
        if m not in index:
            lead, tail = next(r for r in reducers if _divides(r[0], m))
            s = tuple(map(sub, m, lead))
            tails[m] = [(tuple(map(add, e, s)), c) for e, c in tail]
            todo += [f for f, _ in tails[m]]
    coords = {}  # monomial -> its normal form, as {basis index: coefficient}
    for m in sorted(tails, key=GREVLEX.key):
        form = {index[m]: 1} if m in index else {}
        for f, c in tails[m]:
            for k, v in coords[f].items():
                form[k] = form.get(k, 0) + c * v
        coords[m] = {k: r for k, v in form.items() if (r := norm(v))}
    # tr[k] = Tr(b_k) is the trace of multiplication by b_k on the basis, and
    # the trace of a monomial is that of its normal form
    tr = [norm(sum(coords[m].get(l, 0) for l, m in enumerate(row))) for row in products]
    trace = {m: norm(sum(c * tr[k] for k, c in f.items())) for m, f in coords.items()}
    return [[trace[m] for m in row] for row in products]


def _standard_monomials(leads) -> list:
    """Monomials of a chart's two variables that no exponent of leads
    divides, ascending in grevlex.  They are finitely many exactly when a
    power of each variable is among leads (1 for the unit ideal), and they
    lie below the least ones."""
    powers = [min((l[v] for l in leads if sum(l) == l[v]), default=-1) for v in range(2)]
    if -1 in powers:
        v = powers.index(-1)
        raise ValueError(f"not zero-dimensional: no leading power of variable {v}")
    box = product(*map(range, powers))
    standard = (e for e in box if not any(_divides(l, e) for l in leads))
    return sorted(standard, key=GREVLEX.key)
