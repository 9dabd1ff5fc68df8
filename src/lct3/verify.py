"""Batch cross-verification: cross_check collects the monomial (Newton
polyhedron) oracle, the valuation membership oracle, and structural
monotonicity / containment checks into one report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import tee
from operator import add

from .envelopes import classify
from .ideals import (
    _int_from_poly,
    _int_mul,
    _poly_from_int,
    ideal_equal,
    ideal_product,
)
from .multiplier import _capped, _lookup, _valuation_memberships, as_lambda
from .newton import monomial_mi
from .points import PointSet, hilbert_pieces, ideal_of_points
from .polynomials import GREVLEX, monomials_of_degree

ORACLE_DEGREE_BOUND = 8
ORACLE_POWER_BOUND = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class CrossCheckReport:
    entries: tuple  # of CheckResult
    ok: bool


def _oracle_inputs(c, Z):
    """Homogeneous test forms as pairs (G, a): G a primitive integer
    polynomial and a the number of times the curve form F divides it (0 in
    case A).  They are all monomials up to the degree bound, times powers F^a
    in case B, each product m * F^a a monomial shift of the integer F^a.
    F divides m * F^a exactly a + ord_F(m) times, and the divisors of a
    monomial are monomials: ord_F(m) is 0 unless F is a monomial x^f, and
    then the least floor(m_i / f_i) over f_i > 0.  So no form is divided.
    In case A, also each form F of the piece (I_Z)_d that is not a monomial,
    and its shifts by x^k, y^k and z^k up to the degree bound: on a set with
    no point on a coordinate line no monomial vanishes on Z, and these forms
    test the degree bound of J where it meets I_Z."""
    powers = [{(0, 0, 0): 1}]
    f = None  # the exponent of F where F is a monomial
    if c.kind == "B":
        F = _int_from_poly(c.curve_form, GREVLEX.key)
        while len(powers) <= min(ORACLE_POWER_BOUND, ORACLE_DEGREE_BOUND // c.d):
            powers.append(_int_mul(powers[-1], F))
        if len(F) == 1:
            (f,) = F
    forms = [
        (
            {tuple(map(add, e, m)): v for e, v in Fa.items()},
            a + (min(k // j for k, j in zip(m, f) if j) if f else 0),
        )
        for a, Fa in enumerate(powers)
        for t in range(ORACLE_DEGREE_BOUND - a * c.d + 1)
        for m in monomials_of_degree(t)
    ]
    if c.kind == "A":
        for _, F in hilbert_pieces(Z)[c.d].forms:
            if len(F) == 1:
                continue
            forms.append((F, 0))
            for k in range(1, ORACLE_DEGREE_BOUND - c.d + 1):
                for shift in ((k, 0, 0), (0, k, 0), (0, 0, k)):
                    forms.append(({tuple(map(add, e, shift)): v for e, v in F.items()}, 0))
    return forms


def cross_check(Z: PointSet, lam_grid) -> CrossCheckReport:
    """Run every oracle that applies to the arrangement over the exponent
    grid; failures are report entries, never exceptions."""
    grid = sorted(as_lambda(l) for l in lam_grid)
    c = classify(Z)
    if not c.is_supported():
        entry = CheckResult("classification", False, f"unsupported: {c.reason}")
        return CrossCheckReport((entry,), False)

    entries = []
    IZ = ideal_of_points(Z)
    memo: dict = {}  # one memo for the grid, so each exponent is assembled once
    assembled = {lam: _lookup(c, Z, _capped(lam), memo).ideal for lam in grid}

    gens = IZ.groebner()
    if all(len(g.terms) == 1 for g in gens):
        bad = [
            str(lam)
            for lam in grid
            if not ideal_equal(assembled[lam], monomial_mi(gens, lam))
        ]
        entries.append(
            CheckResult(
                "monomial-oracle",
                not bad,
                "agrees on the whole grid" if not bad else f"disagrees at {bad}",
            )
        )

    if c.kind in ("A", "B"):
        pairs = _oracle_inputs(c, Z)
        forms = [G for G, _ in pairs]
        lams = [lam for lam in grid if lam < 3]
        # each form evaluated at the points at most once
        oracle = _valuation_memberships(c, Z, pairs, lams) if lams else []
        witness = None
        store: dict = {}  # the grid's exponents often share a piece
        decided: dict = {}  # id(J) -> J's answers; the memo shares some J
        for i, lam in enumerate(lams):
            # the forms are many and of degree <= 8, so J decides them from
            # one dual basis per degree, from its own Groebner basis.  A J
            # tested at an earlier exponent replays its answers from a tee,
            # which holds them all: only a witness stops a pass early, and
            # a witness ends the loop.
            J = assembled[lam]
            pending = decided.get(id(J)) or J._holds_each(forms, store)
            members, decided[id(J)] = tee(pending)
            for G, answers, member in zip(forms, oracle, members):
                if answers[i] != member:
                    # the monic form, m * F^a with the monic curve form
                    named = _poly_from_int(G, max(G, key=GREVLEX.key), 3)
                    witness = f"lambda={lam}, form={named}"
                    break
            if witness:
                break
        entries.append(
            CheckResult(
                "valuation-oracle",
                witness is None,
                witness or "agrees on all test forms",
            )
        )

    # Containments test few generators, of degree up to 12 at the top of the
    # grid, one normal form each (Ideal._holds): dual bases of such degrees
    # cost more than the normal forms they would replace.
    bad = []
    for small, large in zip(grid, grid[1:]):
        if not assembled[small].contains_ideal(assembled[large]):
            bad.append(f"{small} -> {large}")
    entries.append(
        CheckResult(
            "monotonicity",
            not bad,
            "ideals shrink along the grid" if not bad else f"violated at {bad}",
        )
    )

    bad = []
    power, k = IZ, 1  # I_Z^k, each power built once along the ascending grid
    for lam in grid:
        if lam == 0:
            continue
        while k < math.ceil(lam):
            power, k = ideal_product(power, IZ), k + 1
        if not assembled[lam].contains_ideal(power):
            bad.append(str(lam))
    entries.append(
        CheckResult(
            "power-containment",
            not bad,
            "I^ceil(lambda) inside J everywhere" if not bad else f"fails at {bad}",
        )
    )

    return CrossCheckReport(tuple(entries), all(e.passed for e in entries))
