"""Multiplier ideals of line arrangements, assembled in closed form from the
classification: powers of the maximal ideal, curve-form corrections, and the
Skoda recursion above exponent 3.  Also the log canonical threshold, the
jumping-number scan, and an independent valuation-based membership test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .envelopes import Classification
from .ideals import (
    Ideal,
    _exact_quotient,
    _int_from_poly,
    _int_mul,
    _is_homogeneous,
    ideal_equal,
    ideal_product,
    ideal_sum,
    truncation,
    unit_ideal,
)
from .points import PointSet, fat_point_floor, ideal_of_points, integral_coords
from .polynomials import GREVLEX, Poly

LAMBDA_CAP = Fraction(10)


def as_lambda(value) -> Fraction:
    """Validate an exponent: an exact non-negative rational (never a float)."""
    if isinstance(value, float):
        raise TypeError("multiplier-ideal exponents must be exact rationals")
    lam = Fraction(value)
    if lam < 0:
        raise ValueError("multiplier-ideal exponents must be non-negative")
    return lam


@dataclass(frozen=True)
class MultiplierIdealResult:
    lam: Fraction
    ideal: Ideal
    branch: str  # which formula clause produced the ideal


@dataclass(frozen=True)
class JumpTable:
    jumps: tuple  # of (Fraction, Ideal), strictly shrinking
    lct: Fraction  # first jump, or None when none occurred below the cut-off


def power_of_m(k: int) -> Ideal:
    """m^k, the truncation of the unit ideal: the unit ideal for k <= 0 (the
    reading under which the closed formulas return (1) below the log
    canonical threshold)."""
    return truncation(unit_ideal(), k)


class UnsupportedArrangement(ValueError):
    """The arrangement falls outside cases A, B and C; `reason` says why."""

    def __init__(self, reason: str):
        super().__init__(f"unsupported arrangement: {reason}")
        self.reason = reason


def _require_supported(c: Classification):
    if not c.is_supported():
        raise UnsupportedArrangement(c.reason)


def lct(c: Classification) -> Fraction:
    """Closed-form log canonical threshold."""
    _require_supported(c)
    if c.kind in ("A", "C"):
        return min(Fraction(3, c.d), Fraction(2))
    return min(Fraction(3, c.d), Fraction(3 + c.e - c.d, c.e), Fraction(2))


def multiplier_ideal(c: Classification, Z: PointSet, lam) -> MultiplierIdealResult:
    """Assemble the multiplier ideal at exponent lam.

    The closed formulas cover lam < 3; larger exponents use the Skoda
    recursion J(lam) = I * J(lam - 1), capped at lam = 10.
    """
    _require_supported(c)
    return _lookup(c, Z, _capped(lam), {})


def _capped(lam) -> Fraction:
    """as_lambda, and at most LAMBDA_CAP."""
    lam = as_lambda(lam)
    if lam > LAMBDA_CAP:
        raise ValueError(f"exponent {lam} exceeds the supported cap {LAMBDA_CAP}")
    return lam


def _lookup(c: Classification, Z: PointSet, lam: Fraction, memo: dict):
    """J(lam) from memo, assembled on a miss.  The memo belongs to a single
    multiplier_ideal, jumping_numbers or cross_check call; besides the
    exponents, it maps each ideal a Skoda step started from to the product,
    so that one ideal object is multiplied once, and the terms of each
    closed-form clause (_clause) to its ideal."""
    result = memo.get(lam)
    if result is None:
        result = memo[lam] = _assemble(c, Z, lam, memo)
    return result


def _assemble(c: Classification, Z: PointSet, lam: Fraction, memo: dict):
    """J(lam) by one Skoda step from memo at lam >= 3, else in closed form.
    A Skoda product carries the floor of points.fat_point_floor, so that its
    basis skips each degree from s0 on in which the leading monomials found
    so far already fill the piece of I_Z^(floor(lam) - 1)."""
    if lam >= 3:
        inner = _lookup(c, Z, lam - 1, memo).ideal
        floor = fat_point_floor(Z, math.floor(lam) - 1)
        ideal = _shared(
            memo, inner, lambda: ideal_product(ideal_of_points(Z), inner)._bounded(floor)
        )
        return MultiplierIdealResult(lam, ideal, "skoda-recursion")
    branch, terms = _clause(c, lam)
    ideal = _shared(memo, terms, lambda: _closed_form(c, Z, terms))
    return MultiplierIdealResult(lam, ideal, branch)


def _clause(c: Classification, lam: Fraction):
    """The closed form below 3 as (branch, terms): J(lam) is the sum over
    the terms (K, k) of m^k * K for K the unit ideal "1", the curve form "F"
    or its square "F2", and of m^k ∩ K for K = I_Z ("Z") or I_{Z_d} ("Zd"),
    each exponent clamped at 0.

    The [2,3) clauses are the paper's sums met with I_Z, without an
    intersection: m^a ∩ I_Z is the truncation (I_Z)_{>=a}; in case B the
    curve form F lies in I_Z, so by the modular law the curve terms pass
    through the meet; and in case C, (m^a ∩ I_W + m^b) ∩ I_Z is
    (I_W ∩ I_Z)_t = (I_{Z_d})_t in each degree a <= t < b and (I_Z)_t from
    b on, since Z_d is reduced and the disjoint union of Z and W."""
    d, e = c.d, c.e

    def m(q, shift):  # the exponent floor(lam * q) - shift, clamped at 0
        return max(0, math.floor(lam * q) - shift)

    if c.kind == "A":
        if lam < 2:
            return "A[0,2)", (("1", m(d, 2)),)
        return "A[2,3)", (("Z", m(d, 2)),)
    if c.kind == "B":
        if lam < 1:
            return "B[0,1)", (("1", m(d, 2)),)
        if lam < 2:
            return "B[1,2)", (("1", m(e, 2 + e - d)), ("F", m(d, 2 + d)))
        return "B[2,3)", (
            ("Z", m(e, 2 + e - d)),
            ("F", m(e, 2 + 2 * e - d)),
            ("F2", m(d, 2 + 2 * d)),
        )
    if lam < 2:
        return "C[0,2)", (("1", m(d, 2)),)
    return "C[2,3)", (("Zd", m(d, 2)), ("Z", m(e, 2 * (1 + e - d))))


def _closed_form(c: Classification, Z: PointSet, terms) -> Ideal:
    """The sum of a clause's terms, each one truncation: m^k * K is
    K_{>=k + deg K} for a principal K, and m^k ∩ K is K_{>=k}.  A sum is
    kept as its reduced basis, so that Skoda products multiply basis
    elements."""
    parts = []
    for K, k in terms:
        if K == "1":
            parts.append(truncation(unit_ideal(), k))
        elif K in ("F", "F2"):
            # by Gauss's lemma the square is primitive, with positive lead
            G = _int_from_poly(c.curve_form)
            if K == "F2":
                G = _int_mul(G, G)
            principal = Ideal._from_basis([(max(G, key=GREVLEX.key), G)])
            parts.append(truncation(principal, k + sum(next(iter(G)))))
        else:
            parts.append(truncation(ideal_of_points(Z) if K == "Z" else c.zd_ideal, k))
    if len(parts) == 1:
        return parts[0]
    return Ideal._from_basis(ideal_sum(*parts)._int_basis())


def _shared(memo: dict, key, build) -> Ideal:
    """memo[key], built on a miss: exponents whose clause terms agree share
    one ideal object and one basis, and each object is multiplied once."""
    ideal = memo.get(key)
    if ideal is None:
        ideal = memo[key] = build()
    return ideal


def jump_candidates(c: Classification, lam_max) -> list:
    """Exponents where any floor term (or the Skoda shift of one) can move:
    multiples of 1/d and 1/e plus the integers, within (0, lam_max]."""
    _require_supported(c)
    lam_max = as_lambda(lam_max)
    denominators = {c.d, 1}
    if c.e is not None:
        denominators.add(c.e)
    out = set()
    for q in denominators:
        k = 1
        while Fraction(k, q) <= lam_max:
            out.add(Fraction(k, q))
            k += 1
    return sorted(out)


def jumping_numbers(c: Classification, Z: PointSet, lam_max) -> JumpTable:
    """Scan the candidate exponents, which hold every breakpoint of every
    floor term and of its Skoda shift, so J is constant on [previous
    candidate, candidate): each candidate is compared once with the previous
    one, from J(0), and is a jump where they differ.  One memo serves the
    scan, so each exponent is assembled once; where J does not jump, the
    memo keeps the previous ideal object, basis and Skoda products included.

    A jump is a strict shrink, as J(lam) ⊆ J(mu) for mu < lam, exponents
    clamped at 0.  Within a clause below 3, every exponent max(0,
    floor(lam q) - s) is non-decreasing in lam, and K_{>=k} shrinks as k
    grows.  At a boundary, J lies in the clause below at its top: m^{d-2} +
    (F) ⊆ m^{d-3} (B at 1); (I_Z)_{>=e+d-2} + m^{d-2} F + (F^2) ⊆
    m^{e+d-3} + m^{d-3} F (B at 2); (I_Z)_{>=2d-2} and (I_{Z_d})_{>=2d-2}
    lie in m^{2d-3} (A and C at 2); and I_Z J(2) ⊆ J(3 - eps), since I_Z
    starts in degree d and, by the envelope chain, is (F) + (I_Z)_{>=e} in
    case B and (I_{Z_d})_{<e} + (I_Z)_{>=e} in case C.  Above 3, J(lam) =
    I_Z J(lam - 1) inherits the nesting."""
    lam_max = _capped(lam_max)
    _require_supported(c)
    memo: dict = {}
    jumps = []
    before = _lookup(c, Z, Fraction(0), memo).ideal
    for cand in jump_candidates(c, lam_max):
        result = _lookup(c, Z, cand, memo)
        if ideal_equal(result.ideal, before):
            memo[cand] = MultiplierIdealResult(cand, before, result.branch)
        else:
            before = result.ideal
            jumps.append((cand, before))
    return JumpTable(tuple(jumps), jumps[0][0] if jumps else None)


def membership_by_valuation(
    c: Classification, Z: PointSet, G: Poly, lam
) -> bool:
    """Decide membership of a homogeneous form in the multiplier ideal from
    the orders of vanishing along the exceptional divisors, independently of
    the assembled generators.

    Case A: deg G must reach floor(lam*d) - 2.  Case B: write G = H * F^a
    with the curve form F dividing G exactly a times; then
    deg H + (d+j)*a must reach floor(lam*(d+j)) - (2+j) for 0 <= j <= e-d.
    Both cases additionally require order floor(lam) - 1 along each line,
    which below 3 means, from lam = 2 on, that G vanishes on Z.
    """
    G = _int_from_poly(G)
    return _valuation_memberships(c, Z, [(G, _curve_order(c, G))], [lam])[0][0]


def _curve_order(c: Classification, G) -> int:
    """How often the curve form F divides the integer form G in Case B, by
    exact integer division; 0 in the other cases and for G = 0."""
    a = 0
    if c.kind == "B" and G:
        F = _int_from_poly(c.curve_form)
        lead = max(F, key=GREVLEX.key)
        while (G := _exact_quotient(G, F, lead)) is not None:
            a += 1
    return a


def _valuation_memberships(c: Classification, Z: PointSet, forms, lams) -> list:
    """membership_by_valuation at each exponent of lams, for each form of
    forms given as a pair (G, a): G a primitive integer polynomial
    (ideals._int_from_poly) and a the number of times the curve form divides
    it in Case B (0 in Case A), which the caller knows from how it built G
    or finds by division (_curve_order).  The floor bounds of each exponent
    are computed once per call, and, once some exponent from 2 on passes its
    degree test, whether the form vanishes at the points, scaled to integers
    as in points.evaluation_matrix, once per form.  No Groebner basis is
    used."""
    lams = [as_lambda(lam) for lam in lams]
    if any(lam >= 3 for lam in lams):
        raise ValueError("valuation test only covers exponents below 3")
    if not all(G and _is_homogeneous(G) for G, _ in forms):
        raise ValueError("expected a nonzero homogeneous form")
    _require_supported(c)
    if c.kind == "C":
        raise ValueError("no valuation oracle for Case C")
    # Case A is the single test j = 0 with a = 0
    d = c.d
    e = c.e if c.kind == "B" else d
    # per exponent: whether it needs G on Z (order floor(lam) - 1 = 1, the
    # only positive one below 3), and the (d + j, bound) of each floor term
    tests = [
        (
            lam >= 2,
            [(d + j, math.floor(lam * (d + j)) - (2 + j)) for j in range(e - d + 1)],
        )
        for lam in lams
    ]
    points = [integral_coords(p) for p in Z]
    out = []
    for G, a in forms:
        degH = sum(next(iter(G))) - a * d  # deg H for G = H * F^a
        on_Z = None
        answers = []
        for needs_Z, floors in tests:
            ok = all(degH + step * a >= bound for step, bound in floors)
            if ok and needs_Z:
                if on_Z is None:
                    on_Z = _vanishes_at(G, points)
                ok = on_Z
            answers.append(ok)
        out.append(answers)
    return out


def _vanishes_at(G, points) -> bool:
    """Does the integer form G vanish at each of the integer points?"""
    return not any(
        sum(v * x ** i * y ** j * z ** k for (i, j, k), v in G.items())
        for x, y, z in points
    )
