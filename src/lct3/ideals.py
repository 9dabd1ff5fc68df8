"""Homogeneous-ideal calculus: Groebner bases, membership, sum, product,
power, intersection, quotient, saturation, elimination, equality.

Groebner bases are computed on integer-coefficient "primitive" polynomials
(dict exponent -> int, content 1, positive leading coefficient) so that
reductions stay in exact integer arithmetic; results are converted back to
monic Fraction polynomials.  Which engine runs depends only on the
generators.  When all are homogeneous, `_graded` builds the basis one degree
at a time: each degree is one `linalg.echelon` elimination, whose pivot rows
are the new basis elements, already reduced.  Otherwise `_buchberger` takes
pairs by ascending lcm degree with the product criterion and the chain
criterion (justified only by pairs treated strictly earlier, so discards are
well-founded), reduces by normal forms and auto-reduces at the end.

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

from .linalg import echelon
from .polynomials import (
    GREVLEX,
    MonomialOrder,
    Poly,
    elimination_order,
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


def _poly_from_int(p: IntPoly, nvars: int, keyf) -> Poly:
    """Monic Fraction polynomial from a primitive integer polynomial."""
    lc = p[max(p, key=keyf)]
    return Poly({e: Fraction(c, lc) for e, c in p.items()}, nvars)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


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


def _graded(gens, order: MonomialOrder):
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
    update (J. Symb. Comp. 6, 1988).  Returns the basis as _buchberger
    does."""
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
        rows += [_spoly(G[i], lts[i], G[j], lts[j]) for m, i, j in pairs if sum(m) == d]
        pairs = [p for p in pairs if sum(p[0]) != d]
        for p, lt in _degree_step(rows, G, lts, keyf):
            pairs = _update(pairs, lts, lt)
            G.append(p)
            lts.append(lt)
    return [p for _, p in sorted(zip(lts, G), key=lambda t: keyf(t[0]), reverse=True)]


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


def _buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis (list of primitive IntPoly, descending leads);
    the engine for generators that are not all homogeneous."""
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


def _autoreduce(G, order: MonomialOrder):
    keyf = order.key
    order_idx = sorted(range(len(G)), key=lambda i: keyf(max(G[i], key=keyf)))
    kept: list = []
    kept_lts: list = []
    for i in order_idx:
        lt = max(G[i], key=keyf)
        if any(_divides(l, lt) for l in kept_lts):
            continue
        kept.append(G[i])
        kept_lts.append(lt)
    # a tail term lies below its own lead, so only smaller leads divide it
    for idx in range(1, len(kept)):
        kept[idx] = _nf(kept[idx], list(zip(kept_lts[:idx], kept[:idx])), order)
    pairs = sorted(zip(kept_lts, kept), key=lambda t: keyf(t[0]), reverse=True)
    return [p for _, p in pairs]


# ---------------------------------------------------------------------------
# public Ideal type


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis.

    The reduced basis is unique for (ideal, order), so two ideals under the
    same order are equal iff their reduced bases coincide.
    """

    __slots__ = ("generators", "order", "nvars", "_gb", "_gbint")

    def __init__(self, generators, nvars=None, order: MonomialOrder = GREVLEX):
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("generators must be Poly")
            if g.is_zero():
                continue
            if g not in gens:
                gens.append(g)
        if nvars is None:
            if not gens:
                raise ValueError("nvars required for the zero ideal")
            nvars = gens[0].nvars
        if any(g.nvars != nvars for g in gens):
            raise ValueError("generators live in different rings")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_gb", None)
        object.__setattr__(self, "_gbint", None)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def _seeded(cls, gb_polys, nvars, order=GREVLEX):
        """Construct with an already-reduced basis (monic, sorted descending)."""
        ideal = cls(gb_polys, nvars=nvars, order=order)
        object.__setattr__(ideal, "_gb", tuple(gb_polys))
        return ideal

    # -- Groebner machinery --------------------------------------------------

    def groebner(self):
        """The reduced, monic, auto-reduced basis (deterministic, cached)."""
        if self._gb is None:
            keyf = self.order.key
            if self.generators and all(len(g.terms) == 1 for g in self.generators):
                gb = self._monomial_basis(keyf)
            else:
                ints = [_int_from_poly(g, keyf) for g in self.generators]
                homogeneous = all(g.is_homogeneous() for g in self.generators)
                engine = _graded if homogeneous else _buchberger
                gb = tuple(
                    _poly_from_int(p, self.nvars, keyf)
                    for p in engine(ints, self.order)
                )
            object.__setattr__(self, "_gb", gb)
        return self._gb

    def _monomial_basis(self, keyf):
        exps = sorted({g.leading_monomial(self.order) for g in self.generators})
        minimal = [
            e for e in exps if not any(m != e and _divides(m, e) for m in exps)
        ]
        minimal.sort(key=keyf, reverse=True)
        return tuple(Poly.monomial(e, 1) for e in minimal)

    def _int_basis(self):
        if self._gbint is None:
            keyf = self.order.key
            basis = []
            for g in self.groebner():
                ip = _int_from_poly(g, keyf)
                basis.append((max(ip, key=keyf), ip))
            object.__setattr__(self, "_gbint", basis)
        return self._gbint

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.groebner()

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def contains(self, p: Poly) -> bool:
        if p.nvars != self.nvars:
            raise ValueError("polynomial lives in a different ring")
        if p.is_zero():
            return True
        if self.is_unit():
            return True
        keyf = self.order.key
        return not _nf(_int_from_poly(p, keyf), self._int_basis(), self.order)

    def contains_ideal(self, other: "Ideal") -> bool:
        """Any generating set of other decides, so this starts no Groebner
        computation on it: its reduced basis if cached, else its generators."""
        gens = other.generators if other._gb is None else other._gb
        return all(self.contains(g) for g in gens)

    def leading_exponents(self):
        return tuple(g.leading_monomial(self.order) for g in self.groebner())

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.groebner()) or "0"
        return f"Ideal({gens})"


# ---------------------------------------------------------------------------
# constructors


def zero_ideal(nvars: int = 3) -> Ideal:
    return Ideal([], nvars=nvars)


def unit_ideal(nvars: int = 3) -> Ideal:
    return Ideal([Poly.constant(1, nvars)], nvars=nvars)


def maximal_ideal() -> Ideal:
    """The irrelevant maximal ideal (x, y, z) of the origin."""
    return Ideal([Poly.variable(i, 3) for i in range(3)], nvars=3)


# ---------------------------------------------------------------------------
# ideal calculus


def ideal_sum(*ideals: Ideal) -> Ideal:
    if not ideals:
        raise ValueError("empty sum")
    nvars, order = ideals[0].nvars, ideals[0].order
    gens = [g for I in ideals for g in I.generators]
    return Ideal(gens, nvars=nvars, order=order)


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
    keyf = I.order.key
    fs = [_int_from_poly(f, keyf) for f in I.generators]
    gs = [_int_from_poly(g, keyf) for g in J.generators]
    gens = [Poly(_int_mul(f, g), I.nvars) for f in fs for g in gs]
    return Ideal(gens, nvars=I.nvars, order=I.order)


def ideal_power(I: Ideal, k: int) -> Ideal:
    if k < 0:
        raise ValueError("negative ideal power")
    if k == 0:
        return unit_ideal(I.nvars)
    out = I
    for _ in range(k - 1):
        out = ideal_product(out, I)
    return out


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """Intersection via a single auxiliary variable: eliminate t from
    t*I + (1-t)*J."""
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
    t = Poly.variable(0, n + 1)
    one = Poly.constant(1, n + 1)
    gens = [t * f.insert_var(0) for f in I.groebner()]
    gens += [(one - t) * g.insert_var(0) for g in J.groebner()]
    lifted = Ideal(gens, nvars=n + 1, order=elimination_order(1))
    kept = [
        g.drop_var(0)
        for g in lifted.groebner()
        if all(e[0] == 0 for e in g.terms)
    ]
    # the t-free part of the reduced elimination basis is the reduced
    # grevlex basis of the intersection, so seed the cache
    return Ideal._seeded(kept, nvars=n, order=GREVLEX)


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal (I : J), computed generator by generator."""
    if J.is_zero():
        return unit_ideal(I.nvars)
    if I.is_zero() or J.is_unit():
        return I
    parts = []
    for g in J.groebner():
        K = ideal_intersect(I, Ideal([g], nvars=I.nvars, order=I.order))
        # K lies in (g), so g divides each of its elements exactly
        quot = [h.exact_div(g) for h in K.groebner()]
        parts.append(Ideal(quot, nvars=I.nvars, order=I.order))
    return _fold(ideal_intersect, parts)


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """The saturation (I : J^infinity) of a homogeneous ideal I by an ideal J
    generated by variables, e.g. the irrelevant ideal m = (x, y, z).

    I : J^infinity is the intersection of the I : v^infinity over the
    variables v of J.  Each of these is read off one grevlex basis of I with
    v permuted to the last place: dividing every basis element by its largest
    power of v gives a basis of I : v^infinity (Bayer and Stillman, "A
    criterion for detecting m-regularity", Invent. Math. 1987).  That needs
    I homogeneous, so anything else is refused.
    """
    n = I.nvars
    if J.nvars != n:
        raise ValueError("ideals live in different rings")
    variables = []
    for g in J.groebner():
        e = next(iter(g.terms))
        if len(g.terms) != 1 or sum(e) != 1:
            raise ValueError("saturate needs an ideal generated by variables")
        variables.append(e.index(1))
    if not variables:
        raise ValueError("saturate needs an ideal generated by variables")
    if not all(g.is_homogeneous() for g in I.generators):
        raise ValueError("saturate needs a homogeneous ideal")
    parts = []
    for v in variables:
        perm = tuple(i for i in range(n) if i != v) + (v,)
        inverse = tuple(perm.index(i) for i in range(n))
        if v == n - 1 and I.order == GREVLEX:
            moved = I  # its own grevlex basis, computed at most once
        else:
            moved = Ideal([g.permute(perm) for g in I.generators], nvars=n)
        quotient = [_divide_out_last(g).permute(inverse) for g in moved.groebner()]
        parts.append(Ideal(quotient, nvars=n))
    return _fold(ideal_intersect, parts)


def _divide_out_last(p: Poly) -> Poly:
    """p divided by the largest power of its last variable that divides it."""
    k = min(e[-1] for e in p.terms)
    return Poly({e[:-1] + (e[-1] - k,): c for e, c in p.terms.items()}, p.nvars)


def eliminate(I: Ideal, var: int) -> Ideal:
    """The elimination ideal I ∩ k[other variables], inside the same ring."""
    n = I.nvars
    if not 0 <= var < n:
        raise ValueError("variable index out of range")
    if I.is_zero():
        return I
    perm = (var,) + tuple(i for i in range(n) if i != var)
    inverse = tuple(perm.index(i) for i in range(n))
    moved = Ideal(
        [g.permute(perm) for g in I.generators],
        nvars=n,
        order=elimination_order(1),
    )
    kept = [
        g.permute(inverse)
        for g in moved.groebner()
        if all(e[0] == 0 for e in g.terms)
    ]
    return Ideal._seeded(kept, nvars=n, order=GREVLEX)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality via identical reduced Groebner bases (same order required)."""
    if I.order != J.order:
        raise ValueError("ideal equality requires a common monomial order")
    if I.nvars != J.nvars:
        return False
    return I.groebner() == J.groebner()
