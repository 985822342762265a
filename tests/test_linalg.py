from fractions import Fraction

from invforge.linalg import nullspace_sparse, rank_sparse, solve_affine_sparse

from properties import check_linalg_against_naive, sparse_rows


def nullspace(rows):
    return nullspace_sparse(len(rows[0]), sparse_rows(rows))


def rank(rows):
    return rank_sparse(len(rows[0]), sparse_rows(rows))


def solve_affine(rows, b):
    return solve_affine_sparse(len(rows[0]), sparse_rows(rows, b))


def test_nullspace_single_relation():
    assert nullspace([[3, -12]]) == [[Fraction(4), Fraction(1)]]


def test_nullspace_identity_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_dependent_rows():
    assert nullspace([[1, 1], [2, 2]]) == [[Fraction(-1), Fraction(1)]]


def test_solve_affine_examples():
    assert solve_affine([[1]], [5]) == [Fraction(5)]
    assert solve_affine([[1], [1]], [1, 2]) is None
    assert solve_affine([[2, 0], [0, 4]], [6, 8]) == [Fraction(3), Fraction(2)]


def test_solve_affine_free_vars_zero():
    sol = solve_affine([[1, 1]], [7])
    assert sol == [Fraction(7), Fraction(0)]


def test_rank_examples():
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_plus_nullity():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank(m) + len(nullspace(m)) == 3


def test_fractional_entries():
    # second row is 3x the first, so the matrix is singular
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rank(m) == 1
    assert nullspace(m) == [[Fraction(-2, 3), Fraction(1)]]
    assert solve_affine(m, [1, 3]) == [Fraction(2), Fraction(0)]


def test_deterministic_bits():
    data = [[3, -1, 2], [6, -2, 4], [0, 5, 5]]
    # the RREF is unique, so the row order does not matter
    assert nullspace(data) == nullspace(data[::-1])
    assert rank(data) == rank(data[::-1])


def test_against_naive_oracle():
    check_linalg_against_naive()
