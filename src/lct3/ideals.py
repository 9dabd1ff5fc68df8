"""Homogeneous-ideal calculus: Groebner bases, membership, sum, truncation,
product, power, intersection, quotient, saturation, elimination, equality.

An Ideal has one representation: its generators as integer-coefficient
"primitive" polynomials (dict exponent -> int, content 1, positive leading
coefficient under grevlex) and its cached reduced grevlex basis in the same
form, so that the calculus stays in exact integer arithmetic.  Every
generator is a form: the constructor refuses a Poly that is not
homogeneous, and converts the others where they come in; the monic
Fraction basis of groebner() and the Poly generators are built only when
asked for.  Other orders appear only inside intersection and elimination,
which pass them to the engine directly; intersection lifts to forms in two
more variables (`ideal_intersect`).  One engine, `_graded`, builds every
basis one degree at a time: each degree is one `linalg.echelon`
elimination, whose pivot rows are the new basis elements, already reduced.

Saturation is closed-form and only for what the package needs: a
homogeneous ideal by an ideal of variables, such as the irrelevant ideal
(x, y, z).  One grevlex basis per variable, with that variable last, gives
I : v^infinity by dividing out v; the parts are then intersected.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import reduce as _fold
from itertools import chain
from operator import add, le, sub

from .linalg import echelon, integer_kernel
from .polynomials import (
    GREVLEX,
    MonomialOrder,
    Poly,
    elimination_order,
    monomials_of_degree,
)

IntPoly = dict  # exponent tuple -> int coefficient


# ---------------------------------------------------------------------------
# integer polynomial helpers


def _content(coefficients) -> int:
    """gcd of the integers, stopping as soon as it reaches 1."""
    g = 0
    for c in coefficients:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _normalize(p: IntPoly, lead) -> IntPoly:
    """Divide by the content and make the coefficient of the leading
    exponent `lead` positive."""
    g = _content(p.values())
    if p[lead] < 0:
        g = -g
    if g == 1:
        return p
    return {e: c // g for e, c in p.items()}


def _int_from_poly(p: Poly, keyf) -> IntPoly:
    if p.is_zero():
        return {}
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    out = {e: int(c * den) for e, c in p.terms.items()}
    return _normalize(out, max(out, key=keyf))


def _distinct(forms) -> tuple:
    """The integer polynomials, each distinct one once, first seen first."""
    kept = {}
    for p in forms:
        kept.setdefault(frozenset(p.items()), p)
    return tuple(kept.values())


def _poly_from_int(p: IntPoly, lead, nvars: int) -> Poly:
    """Monic Fraction polynomial from an integer polynomial with leading
    exponent lead."""
    lc = p[lead]
    return Poly({e: Fraction(c, lc) for e, c in p.items()}, nvars)


def _is_homogeneous(p: IntPoly) -> bool:
    return len({sum(e) for e in p}) == 1


def _permuted(p: IntPoly, perm) -> IntPoly:
    """Reindex variables: new exponent j is old exponent perm[j]."""
    return {tuple(e[i] for i in perm): c for e, c in p.items()}


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _standard_count(lts, d: int, nvars: int = 3) -> int:
    """The number of degree-d monomials that no exponent of lts divides."""
    return sum(
        not any(_divides(lt, m) for lt in lts) for m in monomials_of_degree(d, nvars)
    )


def _nf(p: IntPoly, basis, order: MonomialOrder) -> IntPoly:
    """Full normal form of p modulo basis = [(lead_exp, poly), ...].

    The result is only defined up to a positive rational scalar, which is
    all that membership tests and basis reduction need; it is returned
    primitive with positive leading coefficient.  A term gets a heap entry,
    keyed by order.heap_key, when it enters the working polynomial, so each
    key is computed once; the leading term is popped from the heap, and
    entries whose term has cancelled since are skipped.
    """
    heap_key = order.heap_key
    work = dict(p)
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    rem: IntPoly = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        lc = work.pop(lt, 0)
        if not lc:
            continue  # cancelled, or a second entry for the same term
        for blt, b in basis:
            if all(map(le, blt, lt)):  # _divides, inlined in the hot loop
                break
        else:
            rem[lt] = lc
            continue
        bc = b[blt]
        g = math.gcd(lc, bc)
        mp = abs(bc) // g
        mb = (lc // g) * (1 if bc > 0 else -1)
        if mp != 1:
            for e in work:
                work[e] *= mp
            for e in rem:
                rem[e] *= mp
        shift = tuple(map(sub, lt, blt))
        for e, c in b.items():
            if e == blt:
                continue
            f = tuple(map(add, e, shift))
            old = work.get(f)
            if old is None:
                work[f] = -mb * c
                heapq.heappush(heap, (heap_key(f), f))
            elif old == mb * c:
                del work[f]
            else:
                work[f] = old - mb * c
        if mp != 1 and (work or rem):
            g = _content(chain(work.values(), rem.values()))
            if g > 1:
                for e in work:
                    work[e] //= g
                for e in rem:
                    rem[e] //= g
    # terms entered rem in descending order, so its first is the leading one
    return _normalize(rem, next(iter(rem))) if rem else rem


def _spoly(f: IntPoly, ltf, g: IntPoly, ltg) -> IntPoly:
    lcm = tuple(max(a, b) for a, b in zip(ltf, ltg))
    cf, cg = f[ltf], g[ltg]
    h = math.gcd(cf, cg)
    mf, mg = cg // h, cf // h
    out: IntPoly = {}
    sf = tuple(l - a for l, a in zip(lcm, ltf))
    for e, c in f.items():
        out[tuple(a + s for a, s in zip(e, sf))] = mf * c
    sg = tuple(l - a for l, a in zip(lcm, ltg))
    for e, c in g.items():
        k = tuple(a + s for a, s in zip(e, sg))
        v = out.get(k, 0) - mg * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _graded(gens, order: MonomialOrder, floor=None):
    """Reduced Groebner basis of homogeneous generators, one degree at a time
    (Faugere's F4 with the normal strategy, J. Pure Appl. Algebra 139, 1999).

    Step d takes the generators of degree d and the S-polynomials of the
    pairs whose lcm has degree d as dense integer rows over degree-d
    monomials in descending order, adds a shifted basis element for each
    monomial that a leading exponent divides, clears those columns in a
    triangular pass and echelonizes the rest.  The pivot rows are the new
    basis elements of degree d: no other element's leading exponent divides
    any of their terms, and every other element has another degree, so the
    basis comes out reduced.  Pairs are chosen by Gebauer and Moller's
    update (J. Symb. Comp. 6, 1988).  Returns the basis as a list of
    (leading exponent, primitive integer polynomial) pairs, leading
    exponents descending; of order it reads only order.key.

    floor = (s0, N), when given, states that for every s >= s0 the ideal's
    degree-s piece has dimension at most C(s + 2, 2) - N (three variables).
    At such a degree, if the leading exponents found so far leave exactly N
    standard monomials, their shifts already span a subspace of the piece of
    that dimension, so the piece has no other leading monomial: every row of
    the degree reduces to zero, and its generators and pairs are dropped
    unformed (Traverso's Hilbert-driven criterion, "Hilbert functions and
    the Buchberger algorithm", J. Symb. Comp. 22, 1996).  Any other count
    runs the step as without a floor."""
    keyf = order.key
    pending: dict = {}
    for g in gens:
        pending.setdefault(sum(next(iter(g))), []).append(g)
    G: list = []
    lts: list = []
    pairs: list = []  # (lcm, i, j)
    while pending or pairs:
        d = min(chain(pending, (sum(m) for m, _, _ in pairs)))
        rows = pending.pop(d, [])
        due = [(i, j) for m, i, j in pairs if sum(m) == d]
        pairs = [p for p in pairs if sum(p[0]) != d]
        if floor is not None and d >= floor[0] and _standard_count(lts, d) == floor[1]:
            continue
        rows += [_spoly(G[i], lts[i], G[j], lts[j]) for i, j in due]
        for p, lt in _degree_step(rows, G, lts, keyf):
            pairs = _update(pairs, lts, lt)
            G.append(p)
            lts.append(lt)
    return sorted(zip(lts, G), key=lambda t: keyf(t[0]), reverse=True)


def _degree_step(rows, G, lts, keyf):
    """The new basis elements, (poly, leading exponent), spanned with G by
    the rows of one degree.  The shifted basis element that reduces a
    monomial brings its own monomials, which are reduced in turn."""
    monomials = set().union(*rows)
    reducers = {}
    todo = list(monomials)
    while todo:
        m = todo.pop()
        for lt, g in zip(lts, G):
            if _divides(lt, m):
                shift = tuple(map(sub, m, lt))
                reducers[m] = r = {tuple(map(add, e, shift)): c for e, c in g.items()}
                todo += [e for e in r if e not in monomials]
                monomials.update(r)
                break
    columns = sorted(monomials, key=keyf, reverse=True)
    index = {m: k for k, m in enumerate(columns)}

    def dense(p):
        row = [0] * len(columns)
        for e, c in p.items():
            row[index[e]] = c
        return row

    fixed = sorted((index[m], dense(r)) for m, r in reducers.items())
    free = [k for k, m in enumerate(columns) if m not in reducers]
    pivot_rows, pivots = echelon([dense(r) for r in rows], free, reducers=fixed)
    out = []
    for row, k in zip(pivot_rows, pivots):
        p = {columns[j]: v for j, v in enumerate(row) if v}
        out.append((_normalize(p, columns[k]), columns[k]))
    return out


def _update(pairs, lts, lt):
    """Gebauer and Moller's update when an element with leading exponent lt
    joins the basis with leading exponents lts: the pairs still to treat.
    A new pair goes when the lcm of another new pair divides its lcm (of
    equal lcms one stays, a coprime one first), and then every coprime new
    pair goes; an old pair goes when lt divides its lcm and the lcms of lt
    with both its leading exponents differ from it."""
    k = len(lts)
    new = []
    for i, a in enumerate(lts):
        m = tuple(map(max, a, lt))
        new.append((m, i, sum(m) == sum(a) + sum(lt)))
    kept = []
    for n, (m, i, coprime) in enumerate(new):
        if coprime or not any(_divides(q[0], m) for q in chain(new[n + 1 :], kept)):
            kept.append((m, i, coprime))
    out = [
        (m, i, j)
        for m, i, j in pairs
        if not _divides(lt, m)
        or tuple(map(max, lts[i], lt)) == m
        or tuple(map(max, lts[j], lt)) == m
    ]
    out += [(m, i, k) for m, i, coprime in kept if not coprime]
    return out


def _exact_quotient(h: IntPoly, g: IntPoly, lead):
    """h / g when the primitive polynomial g, with leading exponent lead
    under grevlex, divides the integer polynomial h; else None.  By Gauss's
    lemma such a quotient has integer coefficients, so long division stops
    at the first leading term whose exponent or coefficient that of g does
    not divide.  Terms get heap entries as in _nf."""
    heap_key = GREVLEX.heap_key
    work = dict(h)
    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    lc = g[lead]
    quot: IntPoly = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        c = work.pop(lt, 0)
        if not c:
            continue
        shift = tuple(map(sub, lt, lead))
        k, r = divmod(c, lc)
        if r or min(shift) < 0:
            return None
        quot[shift] = k
        for e, d in g.items():
            if e == lead:
                continue
            f = tuple(map(add, e, shift))
            old = work.get(f)
            if old is None:
                work[f] = -k * d
                heapq.heappush(heap, (heap_key(f), f))
            elif old == k * d:
                del work[f]
            else:
                work[f] = old - k * d
    return quot


def _macaulay_rows(basis, t: int, nvars: int):
    """(monos, standard, rows) for the degree-t piece J_t of a homogeneous
    ideal with reduced grevlex basis `basis`: the degree-t monomials,
    descending, the standard ones, and J_t's Macaulay rows, one shift of a
    basis element per initial monomial m, as (index of m, form), in the
    order of monos; rows is None where the monomials that are not standard
    span J_t.  The rows have distinct leading monomials, so they are a basis
    of J_t: its dimension is the number of initial monomials."""
    monos = monomials_of_degree(t, nvars)
    index = {m: k for k, m in enumerate(monos)}
    rows, standard = [], []
    for m in monos:
        found = next((b for b in basis if _divides(b[0], m)), None)
        if found is None:
            standard.append(m)
            continue
        shift = tuple(map(sub, m, found[0]))
        rows.append((index[m], {tuple(map(add, e, shift)): c for e, c in found[1].items()}))
    if not standard or all(len(r) == 1 for _, r in rows):
        return monos, standard, None
    return monos, standard, rows


def _eliminated(monos, rows):
    """The reduced echelon basis (rows, pivots) of Macaulay rows
    (_macaulay_rows) over the monomials monos.  Their leading monomials
    differ, so each row needs only the rows below it, already reduced, as
    echelon's fixed pivots."""
    index = {m: k for k, m in enumerate(monos)}
    reducers = []
    for k, r in reversed(rows):
        row = [0] * len(monos)
        for e, c in r.items():
            row[index[e]] = c
        reducers.append((k, echelon([row], (k,), reducers=reducers)[0][0]))
    pivots, reduced = zip(*reversed(reducers))
    return reduced, pivots


def _pairs_to_zero(p: IntPoly, touched) -> bool:
    """Does the form p pair to zero with every vector of a dual basis,
    given transposed as in _dual_basis?  A monomial does iff no vector
    touches it."""
    if len(p) == 1:
        return next(iter(p)) not in touched
    pairings: dict = {}
    for e, c in p.items():
        for i, v in touched.get(e, ()):
            pairings[i] = pairings.get(i, 0) + c * v
    return not any(pairings.values())


def _dual_basis(basis, t: int, nvars: int, store: dict) -> dict:
    """The orthogonal complement of J_t (_macaulay_rows) as primitive
    integer vectors, one per standard monomial (linalg.integer_kernel): a
    form of degree t lies in J iff it pairs to 0 with each.  Returned
    transposed: each monomial that some vector touches, mapped to its
    (vector index, entry) pairs.

    store maps the standard monomials of each piece eliminated so far, which
    fix its degree, to their dual bases, and takes this one if it is
    eliminated.  A stored one is reused when J_t's rows all pair to zero
    with it, which proves the two pieces equal: the rows span J_t, so J_t
    lies in the stored piece, and the same standard monomials give both the
    same dimension.  The proof reads only J's own rows."""
    monos, standard, rows = _macaulay_rows(basis, t, nvars)
    if rows is None:
        return {m: ((i, 1),) for i, m in enumerate(standard)}
    known = store.setdefault(tuple(standard), [])
    for touched in known:
        if all(_pairs_to_zero(r, touched) for _, r in rows):
            return touched
    touched: dict = {}
    for i, (_, vec) in enumerate(integer_kernel(*_eliminated(monos, rows), len(monos))):
        for j, v in vec.items():
            touched.setdefault(monos[j], []).append((i, v))
    known.append(touched)
    return touched


def _reduced_basis(gens, order: MonomialOrder, floor=None) -> tuple:
    """The reduced Groebner basis of integer forms, as (leading exponent,
    primitive polynomial) pairs, leading exponents descending: the minimal
    exponents of monomial generators, else the basis from _graded, which
    takes the floor."""
    if gens and all(len(g) == 1 for g in gens):
        exps = {next(iter(g)) for g in gens}
        minimal = [e for e in exps if not any(m != e and _divides(m, e) for m in exps)]
        minimal.sort(key=order.key, reverse=True)
        return tuple((e, {e: 1}) for e in minimal)
    return tuple(_graded(gens, order, floor))


# ---------------------------------------------------------------------------
# public Ideal type


class Ideal:
    """An ideal given by homogeneous generators, with a cached reduced
    Groebner basis.

    The generators are kept as distinct primitive integer forms
    (content 1, positive leading coefficient under grevlex), and the reduced
    grevlex basis as (leading exponent, primitive polynomial) pairs; an
    ideal made from its reduced basis has that basis as its generators.  The
    monic Fraction basis of groebner() is built on first request and cached.
    An ideal may carry a floor for its basis computation (see _graded and
    _bounded).

    The reduced basis is unique, so two ideals are equal iff their reduced
    bases coincide.
    """

    __slots__ = ("nvars", "_ints", "_basis", "_floor", "_gb")

    def __init__(self, generators, nvars=None):
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("generators must be Poly")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            if not g.is_zero():
                gens.append(g)
        if nvars is None:
            if not gens:
                raise ValueError("nvars required for the zero ideal")
            nvars = gens[0].nvars
        if any(g.nvars != nvars for g in gens):
            raise ValueError("generators live in different rings")
        self._fill(nvars, _distinct(_int_from_poly(g, GREVLEX.key) for g in gens))

    def _fill(self, nvars, ints, basis=None, floor=None):
        for slot, value in zip(self.__slots__, (nvars, ints, basis, floor, None)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def _of(cls, forms, nvars):
        """The ideal generated by nonzero primitive integer polynomials with
        positive leading coefficients, each distinct one once."""
        ideal = object.__new__(cls)
        ideal._fill(nvars, _distinct(forms))
        return ideal

    @classmethod
    def _from_basis(cls, basis, nvars):
        """The ideal generated by its reduced basis, given as (leading
        exponent, primitive polynomial) pairs, leading exponents
        descending."""
        basis = tuple(basis)
        ideal = object.__new__(cls)
        ideal._fill(nvars, tuple(p for _, p in basis), basis)
        return ideal

    def _bounded(self, floor):
        """The same ideal, whose reduced basis _graded computes with floor =
        (s0, N): a promise that for every s >= s0 its degree-s piece has
        dimension at most C(s + 2, 2) - N."""
        ideal = object.__new__(Ideal)
        ideal._fill(self.nvars, self._ints, self._basis, floor)
        return ideal

    # -- generators -----------------------------------------------------------

    @property
    def generators(self):
        """The generators as integral, primitive Polys with positive
        leading coefficients."""
        return tuple(Poly(p, self.nvars) for p in self._ints)

    # -- Groebner machinery --------------------------------------------------

    def _int_basis(self):
        """The reduced basis as (leading exponent, primitive polynomial)
        pairs, leading exponents descending (cached)."""
        if self._basis is None:
            basis = _reduced_basis(self._ints, GREVLEX, self._floor)
            object.__setattr__(self, "_basis", basis)
        return self._basis

    def groebner(self):
        """The reduced, monic, auto-reduced basis (deterministic, cached)."""
        if self._gb is None:
            gb = tuple(_poly_from_int(p, lead, self.nvars) for lead, p in self._int_basis())
            object.__setattr__(self, "_gb", gb)
        return self._gb

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._ints

    def is_unit(self) -> bool:
        basis = self._int_basis()
        return len(basis) == 1 and not any(basis[0][0])

    def contains(self, p: Poly) -> bool:
        if p.nvars != self.nvars:
            raise ValueError("polynomial lives in a different ring")
        return self._holds(_int_from_poly(p, GREVLEX.key))

    def _holds(self, p: IntPoly) -> bool:
        """Membership of an integer polynomial: its normal form is zero."""
        return not p or self.is_unit() or not _nf(p, self._int_basis(), GREVLEX)

    def _holds_each(self, forms, store: dict):
        """Membership of each integer form, yielded in the order given; a
        polynomial that is not homogeneous is refused.  The forms of one
        degree share one _dual_basis, built when the first of them comes, so
        a caller that stops early builds no more.  This pays for many forms
        of low degree; a single form, or a few of high degree, is cheaper as
        one normal form (_holds).  The dual bases eliminated go to store
        (_dual_basis); a caller that tests several ideals passes one store
        to all of them, so that an equal piece is eliminated once."""
        duals: dict = {}
        for p in forms:
            if not p:
                yield True
                continue
            if len(p) > 1 and not _is_homogeneous(p):
                raise ValueError("batched membership needs homogeneous forms")
            t = sum(next(iter(p)))
            touched = duals.get(t)
            if touched is None:
                touched = duals[t] = _dual_basis(self._int_basis(), t, self.nvars, store)
            yield _pairs_to_zero(p, touched)

    def contains_ideal(self, other: "Ideal") -> bool:
        """Any generating set of other decides, so this starts no Groebner
        computation on it: its reduced basis if computed, else its
        generators."""
        if other.nvars != self.nvars:
            raise ValueError("ideals live in different rings")
        if other is self:
            return True
        forms = other._ints if other._basis is None else (p for _, p in other._basis)
        return all(map(self._holds, forms))

    def leading_exponents(self):
        return tuple(lead for lead, _ in self._int_basis())

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.groebner()) or "0"
        return f"Ideal({gens})"


# ---------------------------------------------------------------------------
# constructors


def zero_ideal(nvars: int = 3) -> Ideal:
    return Ideal([], nvars=nvars)


def unit_ideal(nvars: int = 3) -> Ideal:
    one = (0,) * nvars
    return Ideal._from_basis([(one, {one: 1})], nvars)


def maximal_ideal() -> Ideal:
    """The irrelevant maximal ideal (x, y, z) of the origin."""
    return Ideal([Poly.variable(i, 3) for i in range(3)], nvars=3)


# ---------------------------------------------------------------------------
# ideal calculus


def ideal_sum(*ideals: Ideal) -> Ideal:
    if not ideals:
        raise ValueError("empty sum")
    nvars = ideals[0].nvars
    if any(I.nvars != nvars for I in ideals):
        raise ValueError("ideals live in different rings")
    return Ideal._of([p for I in ideals for p in I._ints], nvars)


def _int_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Products of the generators, multiplied as primitive integer forms.
    By Gauss's lemma each product is primitive with a positive leading
    coefficient, so f*g and g*f give the same generator."""
    if I.nvars != J.nvars:
        raise ValueError("ideals live in different rings")
    return Ideal._of([_int_mul(f, g) for f in I._ints for g in J._ints], I.nvars)


def ideal_power(I: Ideal, k: int) -> Ideal:
    if k < 0:
        raise ValueError("negative ideal power")
    if k == 0:
        return unit_ideal(I.nvars)
    out = I
    for _ in range(k - 1):
        out = ideal_product(out, I)
    return out


def truncation(J: Ideal, k: int) -> Ideal:
    """J_{>=k} = m^k ∩ J for a homogeneous ideal J (m^(k - deg F) * F
    for J = (F)), as its reduced basis: J's basis elements of degree > k,
    then the reduced echelon basis of J_k.  A degree-k initial monomial lies
    under no minimal generator of higher degree, and vice versa."""
    basis = J._int_basis()
    k = max(k, 0)
    monos, standard, rows = _macaulay_rows(basis, k, J.nvars)
    if rows is None:
        standard = set(standard)
        piece = [(m, {m: 1}) for m in monos if m not in standard]
    else:
        piece = [
            (monos[p], _normalize({monos[j]: v for j, v in enumerate(r) if v}, monos[p]))
            for r, p in zip(*_eliminated(monos, rows))
        ]
    return Ideal._from_basis([b for b in basis if sum(b[0]) > k] + piece, J.nvars)


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by one elimination on forms in (t, x..., h): t*f for f in I's
    basis, h*g - t*g for g in J's.  Their ideal H is t*I + (1-t)*J at h = 1
    and lies in (t) at h = 0, so H ∩ k[x..., h] = h*(I ∩ J)*k[h], as
    h*q = t*q + (h - t)*q (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, ch. 4 §3).  Its reduced basis under elimination_order(1) is
    h times the reduced grevlex basis of I ∩ J, already in grevlex order."""
    if I.nvars != J.nvars:
        raise ValueError("ideals live in different rings")
    n = I.nvars
    if I.is_zero() or J.is_zero():
        return zero_ideal(n)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    if ideal_equal(I, J):
        return I
    lifted = [{(1,) + e + (0,): c for e, c in f.items()} for _, f in I._int_basis()]
    for _, g in J._int_basis():
        h = {(1,) + e + (0,): -c for e, c in g.items()}
        h.update(((0,) + e + (1,), c) for e, c in g.items())
        lifted.append(h)
    basis = _graded(lifted, elimination_order(1))
    kept = [
        (lead[1:-1], {e[1:-1]: c for e, c in p.items()})
        for lead, p in basis
        if lead[0] == 0
    ]
    return Ideal._from_basis(kept, n)


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal (I : J), computed generator by generator."""
    if J.is_zero():
        return unit_ideal(I.nvars)
    if I.is_zero() or J.is_unit():
        return I
    n = I.nvars
    parts = []
    for lead, g in J._int_basis():
        K = ideal_intersect(I, Ideal._of([g], n))
        # K lies in (g), so g divides each element of its basis exactly
        quot = [_exact_quotient(h, g, lead) for _, h in K._int_basis()]
        parts.append(Ideal._of(quot, n))
    return _fold(ideal_intersect, parts)


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """The saturation (I : J^infinity) of a homogeneous ideal I by an ideal J
    generated by variables, e.g. the irrelevant ideal m = (x, y, z).

    I : J^infinity is the intersection of the I : v^infinity over the
    variables v of J.  Each of these is read off one grevlex basis of I with
    v permuted to the last place: dividing every basis element by its largest
    power of v gives a basis of I : v^infinity (Bayer and Stillman, "A
    criterion for detecting m-regularity", Invent. Math. 1987), which needs
    I homogeneous, as every Ideal is.
    """
    n = I.nvars
    if J.nvars != n:
        raise ValueError("ideals live in different rings")
    variables = []
    for lead, g in J._int_basis():
        if len(g) != 1 or sum(lead) != 1:
            raise ValueError("saturate needs an ideal generated by variables")
        variables.append(lead.index(1))
    if not variables:
        raise ValueError("saturate needs an ideal generated by variables")
    keyf = GREVLEX.key
    parts = []
    for v in variables:
        perm = tuple(i for i in range(n) if i != v) + (v,)
        inverse = tuple(perm.index(i) for i in range(n))
        # the generators are the basis elements divided out, oriented anew
        # because the moved order may have led with another term
        quotient = []
        for _, g in _basis_with_last(I, v):
            q = _permuted(_divide_out_last(g), inverse)
            if q[max(q, key=keyf)] < 0:
                q = {e: -c for e, c in q.items()}
            quotient.append(q)
        parts.append(Ideal._of(quotient, n))
    return _fold(ideal_intersect, parts)


def _basis_with_last(I: Ideal, v: int) -> tuple:
    """The reduced grevlex basis of I with variable v moved to the last
    place, the others keeping their order, as (leading exponent, primitive
    polynomial) pairs in the moved variables: I's own cached basis when v is
    already last, else one computed from I's generators."""
    if v == I.nvars - 1:
        return I._int_basis()
    perm = tuple(i for i in range(I.nvars) if i != v) + (v,)
    return _reduced_basis([_permuted(g, perm) for g in I._ints], GREVLEX)


def _divide_out_last(p: IntPoly) -> IntPoly:
    """p divided by the largest power of its last variable that divides it."""
    k = min(e[-1] for e in p)
    return {e[:-1] + (e[-1] - k,): c for e, c in p.items()}


def eliminate(I: Ideal, var: int) -> Ideal:
    """The elimination ideal I ∩ k[other variables], inside the same ring."""
    n = I.nvars
    if not 0 <= var < n:
        raise ValueError("variable index out of range")
    if I.is_zero():
        return I
    perm = (var,) + tuple(i for i in range(n) if i != var)
    inverse = tuple(perm.index(i) for i in range(n))
    basis = _reduced_basis([_permuted(g, perm) for g in I._ints], elimination_order(1))
    kept = [
        (tuple(lead[i] for i in inverse), _permuted(p, inverse))
        for lead, p in basis
        if lead[0] == 0
    ]
    return Ideal._from_basis(kept, n)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality via identical reduced Groebner bases; equal generators
    decide without a basis."""
    if I.nvars != J.nvars:
        return False
    return I._ints == J._ints or I._int_basis() == J._int_basis()
