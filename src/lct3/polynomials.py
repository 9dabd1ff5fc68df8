"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients.  The default ring has the three variables x, y, z; ideal
intersection lifts to forms in two more, t placed *first* in the term
order, so that block orders eliminate it, and h last (see `ideals`).

All arithmetic is exact; floats are rejected on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Exponent = tuple  # tuple[int, ...], one entry per variable

#: display names per ring width; index 0/1 unused in practice
_NAMES = {
    1: ("x",),
    2: ("x", "y"),
    3: ("x", "y", "z"),
    4: ("t", "x", "y", "z"),
}


def var_names(nvars: int) -> tuple:
    return _NAMES.get(nvars) or tuple(f"x{i}" for i in range(nvars))


def grevlex_key(e: Exponent):
    """Sort key realizing graded reverse-lexicographic order (larger key = larger monomial)."""
    return (sum(e), tuple(-v for v in reversed(e)))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: 'grevlex', 'lex', or 'elim' (block order eliminating
    the first `block` variables, grevlex inside each block)."""

    tag: str
    block: int = 0

    def key(self, e: Exponent):
        if self.tag == "grevlex":
            return grevlex_key(e)
        if self.tag == "lex":
            return e
        if self.tag == "elim":
            return (grevlex_key(e[: self.block]), grevlex_key(e[self.block :]))
        raise ValueError(f"unknown monomial order tag {self.tag!r}")

    def heap_key(self, e: Exponent):
        """The order key with every integer negated, so that a min-heap on it
        pops the largest monomial first.  Exact for any exponent size."""
        if self.tag == "grevlex":
            return (-sum(e), e[::-1])
        if self.tag == "lex":
            return tuple(-v for v in e)
        if self.tag == "elim":
            head, tail = e[: self.block], e[self.block :]
            return ((-sum(head), head[::-1]), (-sum(tail), tail[::-1]))
        raise ValueError(f"unknown monomial order tag {self.tag!r}")


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(block: int) -> MonomialOrder:
    if block < 1:
        raise ValueError("elimination block must contain at least one variable")
    return MonomialOrder("elim", block)


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return c if type(c) is Fraction else Fraction(c)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms", "nvars", "_hash")

    def __init__(self, terms: Mapping[Exponent, object], nvars: int):
        clean = {}
        for e, c in terms.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            e = tuple(e)
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent {e} for {nvars}-variable ring")
            clean[e] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int = 3) -> "Poly":
        return cls({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int = 3) -> "Poly":
        return cls({(0,) * nvars: c}, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int = 3) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): 1}, nvars)

    @classmethod
    def monomial(cls, e: Exponent, c=1) -> "Poly":
        return cls({tuple(e): c}, len(e))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Poly":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return Poly({e: c / lc for e, c in self.terms.items()}, self.nvars)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(out, self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()}, self.nvars)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_ring(other)
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return Poly(out, self.nvars)
        c = _as_fraction(other)
        return Poly({e: k * c for e, k in self.terms.items()}, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def _check_ring(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus / evaluation ---------------------------------------------

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return Poly(out, self.nvars)

    def evaluate(self, point: Iterable) -> Fraction:
        vals = [_as_fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                term *= v**k
            total += term
        return total

    # -- divisibility ------------------------------------------------------

    def exact_div(self, q: "Poly"):
        """Return self / q when q divides self exactly, else None, by long
        division on a working dict."""
        self._check_ring(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        qlt = q.leading_monomial()
        qlc = q.terms[qlt]
        work = dict(self.terms)
        quot: dict = {}
        while work:
            lt = max(work, key=grevlex_key)
            e = tuple(a - b for a, b in zip(lt, qlt))
            if min(e) < 0:
                return None
            c = quot[e] = work[lt] / qlc
            for f, d in q.terms.items():
                m = tuple(a + b for a, b in zip(e, f))
                v = work.get(m, 0) - c * d
                if v:
                    work[m] = v
                else:
                    del work[m]
        return Poly(quot, self.nvars)

    # -- ring changes ------------------------------------------------------

    def insert_var(self, i: int) -> "Poly":
        """Embed into the ring with one extra variable at position i."""
        out = {e[:i] + (0,) + e[i:]: c for e, c in self.terms.items()}
        return Poly(out, self.nvars + 1)

    def drop_var(self, i: int) -> "Poly":
        """Remove variable i; every term must have exponent 0 there."""
        out = {}
        for e, c in self.terms.items():
            if e[i] != 0:
                raise ValueError("polynomial involves the dropped variable")
            out[e[:i] + e[i + 1 :]] = c
        return Poly(out, self.nvars - 1)

    def set_var_one(self, i: int) -> "Poly":
        """Dehomogenize: substitute 1 for variable i and drop it from the ring."""
        out: dict = {}
        for e, c in self.terms.items():
            d = e[:i] + e[i + 1 :]
            s = out.get(d, 0) + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return Poly(out, self.nvars - 1)

    def permute(self, perm: tuple) -> "Poly":
        """Reindex variables: new exponent j is old exponent perm[j]."""
        out = {tuple(e[p] for p in perm): c for e, c in self.terms.items()}
        return Poly(out, self.nvars)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)!r})"

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)


# convenient handles on the default ring
X = Poly.variable(0, 3)
Y = Poly.variable(1, 3)
Z = Poly.variable(2, 3)


def variables(nvars: int) -> tuple:
    return tuple(Poly.variable(i, nvars) for i in range(nvars))


def monomials_of_degree(d: int, nvars: int = 3) -> list:
    """All exponent tuples of total degree d, in descending grevlex order."""
    if d < 0:
        raise ValueError("degree must be non-negative")

    def gen(rest: int, width: int) -> Iterator[tuple]:
        if width == 1:
            yield (rest,)
            return
        for k in range(rest, -1, -1):
            for tail in gen(rest - k, width - 1):
                yield (k,) + tail

    exps = list(gen(d, nvars))
    exps.sort(key=grevlex_key, reverse=True)
    return exps


def _mono_str(e: Exponent, names: tuple) -> str:
    parts = []
    for n, k in zip(names, e):
        if k == 1:
            parts.append(n)
        elif k > 1:
            parts.append(f"{n}^{k}")
    return "*".join(parts)


def poly_str(p: Poly, names: tuple = None) -> str:
    """Canonical rendering: grevlex-descending terms, coefficients as p/q."""
    if p.is_zero():
        return "0"
    names = names or var_names(p.nvars)
    out = []
    for e, c in p.sorted_terms():
        mono = _mono_str(e, names)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def poly_from_string(s: str, nvars: int = 3, names: tuple = None) -> Poly:
    """Parse the syntax produced by poly_str (sums of coeff*monomial terms)."""
    names = names or var_names(nvars)
    index = {n: i for i, n in enumerate(names)}
    text = s.replace("-", "+-").replace(" ", "")
    terms: dict = {}
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = 1
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:]
        coeff = Fraction(sign)
        exp = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {s!r}")
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                name, _, power = factor.partition("^")
                k = int(power)
            else:
                name, k = factor, 1
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {s!r}")
            exp[index[name]] += k
        e = tuple(exp)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return Poly(terms, nvars)
