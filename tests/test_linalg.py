import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lct3 import RatMatrix, linalg
from lct3.linalg import TRACE_PRIME, echelon, rank


def test_identity_has_trivial_kernel():
    M = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert M.kernel_basis() == []
    assert M.rank() == 3


def test_zero_row_full_kernel():
    M = RatMatrix([[0, 0, 0]])
    basis = M.kernel_basis()
    assert len(basis) == 3
    # reduced echelon: the standard basis
    assert basis == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_coordinate_point_evaluation_kernel():
    # rows: the 3 coordinate points evaluated on the 6 degree-2 monomials
    # x^2, xy, y^2, xz, yz, z^2 (row-reduce by hand: free columns are
    # xy, xz, yz)
    M = RatMatrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )
    basis = M.kernel_basis()
    assert len(basis) == 3
    expected = {
        (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
    }
    assert set(basis) == expected


def test_kernel_vectors_against_matrix():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        M = RatMatrix(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        kernel = M.kernel_basis()
        red, _ = M.rref()
        for v in kernel:
            # v is annihilated by M and by its row echelon form alike
            for matrix in (M, red):
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix.entries)
        assert M.rank() + len(kernel) == cols


def test_rref_pivots_are_one():
    M = RatMatrix([[2, 4, 6], [1, 3, 5]])
    red, pivots = M.rref()
    for r, c in enumerate(pivots):
        assert red.entries[r][c] == 1


# References: the Fraction Gauss-Jordan elimination, the kernel read off it
# and echelonized by a second pass, and the rank over F_p that the
# fraction-free kernel replaced.


def reference_rref(rows, cols):
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m], tuple(pivots)


def reference_kernel(rows, cols):
    red, pivots = reference_rref(rows, cols)
    vecs = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        vecs.append(v)
    return reference_rref(vecs, cols)[0] if vecs else []


def reference_rank_mod(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def rational_matrices(draw):
    """Small rational matrices, often with zero rows, zero columns and
    repeated or combined rows (rank-deficient shapes)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    )
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=rows))
    for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        m = [r[:c] + [Fraction(0)] + r[c + 1 :] for r in m]
    if len(m) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m.append([a * x + b * y for x, y in zip(m[0], m[1])])
    return m


@settings(max_examples=200, deadline=None)
@given(m=rational_matrices())
def test_kernel_agrees_with_fraction_gauss_jordan(m):
    cols = len(m[0]) if m else 1
    M = RatMatrix(m)
    if not m:
        assert (M.rref(), M.rank(), M.kernel_basis()) == ((RatMatrix([]), ()), 0, [])
        return
    red, pivots = M.rref()
    ref_red, ref_pivots = reference_rref(m, cols)
    assert (red.entries, pivots) == (tuple(ref_red), ref_pivots)
    assert M.rank() == len(ref_pivots)
    kernel = M.kernel_basis()
    assert kernel == reference_kernel(m, cols)
    if kernel:
        assert RatMatrix(kernel).rref()[0].entries == tuple(kernel)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, TRACE_PRIME]),
    m=st.lists(st.lists(st.integers(0, 6), min_size=4, max_size=4), max_size=5),
)
def test_modular_rank_agrees_with_reference(p, m):
    m = [[v % p for v in row] for row in m]
    assert len(echelon(m, range(4), p)[1]) == reference_rank_mod(m, p)


@pytest.mark.parametrize("p", [7, TRACE_PRIME])
def test_modular_rank_below_integer_rank(p):
    # both determinants are p: rank 2 over Z, 1 mod p.  In the second matrix
    # the combined row is (0, -p) before reduction, so dividing out its
    # content first would leave a nonzero row.
    for m in ([[1, 2], [2, 4 + p]], [[1, (p + 1) // 2], [2, 1]]):
        assert len(echelon(m, range(2))[1]) == 2
        assert len(echelon(m, range(2), p)[1]) == reference_rank_mod(
            [[v % p for v in row] for row in m], p
        ) == 1


def moved_by_the_prime(m, data):
    """(moved, kept): m with some rows multiplied by TRACE_PRIME, which
    vanish modulo it, and the others shifted entrywise by a multiple of it,
    unchanged modulo it; and m without the multiplied rows."""
    p = TRACE_PRIME
    vanish = data.draw(st.sets(st.integers(0, len(m) - 1))) if m else set()
    shift = data.draw(st.integers(-2, 2))
    moved = [
        [p * v for v in row] if i in vanish else [v + shift * p for v in row]
        for i, row in enumerate(m)
    ]
    return moved, [row for i, row in enumerate(m) if i not in vanish]


@settings(max_examples=200, deadline=None)
@given(
    m=st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), max_size=7),
    data=st.data(),
)
def test_modular_rank_is_the_integer_rank(m, data):
    # Entries this small keep every minor far below the prime, so the rank
    # modulo it is the integer rank.  Rows multiplied by the prime vanish
    # modulo it and drop out; the others are moved by multiples of it.
    moved, kept = moved_by_the_prime(m, data)
    modular = echelon(moved, range(5), TRACE_PRIME)[1]
    assert len(modular) == len(echelon(kept, range(5))[1])


@settings(max_examples=200, deadline=None)
@given(
    m=rational_matrices(),
    reverse=st.booleans(),
    p=st.sampled_from([None, 7, TRACE_PRIME]),
)
def test_forward_pass_takes_the_pivots_of_the_full_pass(m, reverse, p):
    # without back-substitution each pivot row is still zero in the pivot
    # columns taken before its own
    cols = len(m[0]) if m else 1
    order = range(cols - 1, -1, -1) if reverse else range(cols)
    if p is not None:
        m = [[v.numerator * pow(v.denominator, -1, p) % p for v in r] for r in m]
    rows, pivots = echelon(m, order, p, back=False)
    assert pivots == echelon(m, order, p)[1]
    for k, (row, c) in enumerate(zip(rows, pivots)):
        assert row[c] and not any(row[q] for q in pivots[:k])


@settings(max_examples=300, deadline=None)
@given(
    m=st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), max_size=6),
    moved=st.booleans(),
    data=st.data(),
)
def test_rank_is_the_rank_of_the_full_pass(m, moved, data):
    if moved:
        # the rank modulo the prime can then fall short of the rank over Q
        m = moved_by_the_prime(m, data)[0]
    exact = len(echelon(m, range(4))[1])
    assert rank(m, 4) == exact
    # any upper bound the caller knows gives the same rank
    bound = data.draw(st.integers(exact, max(len(m), 4) + 1))
    assert rank(m, 4, bound) == exact


def eliminations_taken(monkeypatch, modules=(linalg,)):
    """(prime, back) of each echelon pass that code in these modules runs
    from now on, the prime None over the integers; linalg's own are those
    of rank and RatMatrix."""
    passes = []
    full = linalg.echelon

    def counted(rows, columns, prime=None, reducers=(), back=True):
        passes.append((prime, back))
        return full(rows, columns, prime, reducers, back)

    for module in modules:
        monkeypatch.setattr(module, "echelon", counted)
    return passes


def test_rank_falls_back_to_the_integers_below_its_bound(monkeypatch):
    passes = eliminations_taken(monkeypatch)
    p = TRACE_PRIME
    # full modulo the prime: one forward pass decides
    assert rank([[1, 2], [3, 4]], 2) == 2 and passes == [(p, False)]
    # the row (p, p) vanishes modulo the prime: ranked again over Z
    passes.clear()
    assert rank([[1, 2], [p, p]], 2) == 2
    assert passes == [(p, False), (None, False)]
    # a bound below the row and column counts is reached modulo the prime
    passes.clear()
    assert rank([[1, 2], [2, 4], [3, 6]], 2, bound=1) == 1 and len(passes) == 1
    # so is a row count below the bound
    passes.clear()
    assert rank([[1, 2]], 2, bound=2) == 1 and len(passes) == 1


@settings(max_examples=300, deadline=None)
@given(
    m=st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), max_size=6),
    moved=st.booleans(),
    data=st.data(),
)
def test_rank_ranks_again_only_below_every_bound_it_knows(m, moved, data):
    # the rank is at most the bound, the row count and the column count, so
    # a modular rank that reaches the least of them is the rank; only a
    # shorter one is ranked again over Z
    if moved:
        m = moved_by_the_prime(m, data)[0]
    exact = len(echelon(m, range(4))[1])
    bound = data.draw(st.integers(exact, 7))
    with pytest.MonkeyPatch.context() as patch:
        passes = eliminations_taken(patch)
        assert rank(m, 4, bound) == exact
    modular = len(echelon(m, range(4), TRACE_PRIME)[1])
    again = [(None, False)] if modular < min(bound, len(m), 4) else []
    assert passes == [(TRACE_PRIME, False)] + again
