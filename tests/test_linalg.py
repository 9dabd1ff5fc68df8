import random
from fractions import Fraction

from lct3 import RatMatrix


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
