"""Exact linear algebra over the rationals (dense, desk scale).

Every rank, reduced row echelon form and kernel in lct3, and each degree of
a homogeneous Groebner basis, comes from one Gauss-Jordan elimination,
`echelon`: fraction-free over the integers (Bareiss, Math. Comp. 1968), or
modulo a prime with pivots scaled to 1.  Pivots taken left to right give the
reduced row echelon form; right to left, the reduced kernel basis.  A
question that reads only a rank asks `rank`, which eliminates forward only
(no back-substitution into the pivot rows) and modulo TRACE_PRIME first,
over the integers only when the modular rank falls short of a bound the
caller knows."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# A Mersenne prime, the one modulus of lct3.  A minor that is nonzero
# modulo it is nonzero, so a rank modulo it is a lower bound on the rank
# over Q, and full rank modulo it certifies full rank over Q.
TRACE_PRIME = 2**61 - 1


def _primitive(row, prime):
    """The row divided by its content or, given a prime, reduced modulo it."""
    if prime is not None:
        return [v % prime for v in row]
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _monic(row, c, prime):
    """The row modulo the prime, scaled to 1 in column c."""
    inverse = pow(row[c], -1, prime)
    return [v * inverse % prime for v in row]


def _clear(row, pivot, c, prime):
    """Modulo a prime, row - row[c]*pivot, the pivot being monic.  Over the
    integers, a*row - b*pivot with the least a > 0 that makes it zero in
    column c, divided by its content when a > 1; with a = 1 no entry grows
    by a factor, so the gcd is not worth its cost."""
    if prime is not None:
        b = row[c]
        return [(x - b * y) % prime for x, y in zip(row, pivot)]
    g = gcd(row[c], pivot[c])
    a, b = pivot[c] // g, row[c] // g
    if a == 1:
        return [x - b * y for x, y in zip(row, pivot)]
    return _primitive([a * x - b * y for x, y in zip(row, pivot)], None)


def echelon(rows, columns, prime=None, reducers=(), back=True):
    """Gauss-Jordan elimination, without division over the integers or,
    given a prime, modulo it.  Each rational row is first scaled by its
    common denominator; pivots are tried in the order of `columns`, the
    pivot row being the one with the smallest entry there.  Over the
    integers that row multiplies the other rows least, and a row multiplied
    to clear a column is then divided by its content.  Modulo the prime
    every row is reduced, each pivot row is scaled by the inverse of its
    pivot, and a clear subtracts a multiple of it, with no content to take:
    the rank of the integer rows modulo the prime, a lower bound on their
    rank over Q.

    `reducers` are fixed pivots, (column, integer row) pairs, each row zero
    in the columns of the reducers before it.  A triangular pass first
    clears every row in those columns, in the order given; the reducers
    themselves are neither changed nor returned, and rows that become zero
    are dropped.

    With back=False the pass is forward only: a pivot clears its column in
    the rows still to be reduced, not in the pivot rows taken before it.
    The rows left to reduce, and so the pivots, are the same as with the
    back-substitution; each pivot row is then zero only in the pivot
    columns taken before its own.

    Returns (pivot_rows, pivots): the integer rows in the order their pivot
    columns were taken, each zero in every other pivot column (and, modulo
    the prime, 1 in its own)."""
    if prime is not None:
        reducers = [(c, _monic(fixed, c, prime)) for c, fixed in reducers]
    work = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        integral = [v.numerator * (scale // v.denominator) for v in row]
        row = _primitive(integral, prime)
        for c, fixed in reducers:
            if row[c]:
                row = _clear(row, fixed, c, prime)
        if any(row):
            work.append(row)
    done, pivots = [], []
    for c in columns:
        nonzero = (i for i, r in enumerate(work) if r[c])
        i = min(nonzero, key=lambda i: abs(work[i][c]), default=None)
        if i is None:
            continue
        pivot = work.pop(i)
        if prime is not None:
            pivot = _monic(pivot, c, prime)
        for part in (done, work) if back else (work,):
            for k, r in enumerate(part):
                if r[c]:
                    part[k] = _clear(r, pivot, c, prime)
        done.append(pivot)
        pivots.append(c)
    return done, tuple(pivots)


def rank(rows, ncols, bound=None) -> int:
    """The rank over Q of rational rows of length ncols, by forward-only
    elimination.  The rank modulo TRACE_PRIME comes first.  It is a lower
    bound, so it is the rank when it reaches the least of `bound` (an upper
    bound the caller knows, if any), the number of rows and ncols.
    Otherwise the rows are ranked again over the integers."""
    bound = min(len(rows), ncols, ncols if bound is None else bound)
    modular = len(echelon(rows, range(ncols), TRACE_PRIME, back=False)[1])
    if modular == bound:
        return modular
    return len(echelon(rows, range(ncols), back=False)[1])


def integer_kernel(reduced, pivots, ncols) -> list:
    """The kernel of an echelon result, each pivot row zero in every other
    pivot column, as primitive integer vectors: one (f, {column: entry})
    per free column f, ascending, the entries ascending by column.  The
    vector of f is zero in every other free column: the lcm of the pivots
    r[p] at f, and -r[f] * lcm / r[p] at the pivot p of each row r."""
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        hits = [(r, p) for r, p in zip(reduced, pivots) if r[f]]
        scale = lcm(*(abs(r[p]) for r, p in hits))
        vec = {f: scale, **{p: -r[f] * (scale // r[p]) for r, p in hits}}
        g = gcd(*vec.values())
        vectors.append((f, {j: vec[j] // g for j in sorted(vec)}))
    return vectors


class RatMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(v) for v in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    def rref(self):
        """Reduced row echelon form (leftmost pivots, pivot entries 1).

        Returns (matrix, pivot_columns).
        """
        reduced, pivots = echelon(self.entries, range(self.cols))
        m = [[Fraction(v, r[p]) for v in r] for r, p in zip(reduced, pivots)]
        m += [[0] * self.cols] * (self.rows - len(m))
        return RatMatrix(m), pivots

    def rank(self) -> int:
        return rank(self.entries, self.cols)

    def kernel_basis(self):
        """Basis of the right kernel, itself in reduced echelon form: the
        integer_kernel vectors, each scaled to 1 at its free column.  With
        pivots taken right to left, each pivot row is zero right of its
        pivot, so the vector of a free column f is zero left of f and in
        every other free column."""
        reduced, pivots = echelon(self.entries, range(self.cols - 1, -1, -1))
        return [
            tuple(Fraction(vec.get(j, 0), vec[f]) for j in range(self.cols))
            for f, vec in integer_kernel(reduced, pivots, self.cols)
        ]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"
