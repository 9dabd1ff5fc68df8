"""Exact linear algebra over the rationals (dense, desk scale)."""

from __future__ import annotations

from fractions import Fraction


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
        m = [list(r) for r in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = 1 / m[r][c]
            m[r] = [v * inv for v in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return RatMatrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel, itself in reduced echelon form."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        vecs = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -red.entries[r][f]
            vecs.append(v)
        if not vecs:
            return []
        echelon, _ = RatMatrix(vecs).rref()
        return [tuple(row) for row in echelon.entries]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"
