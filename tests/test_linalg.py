import random
from fractions import Fraction

import pytest

from invforge.linalg import (
    PRIME,
    Eliminator,
    ModularEliminator,
    nullspace_sparse,
    rank_sparse,
    solve_affine_sparse,
)

from properties import check_linalg_against_naive, linalg_naive_cases, sparse_rows


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


def modular(rows):
    elim = ModularEliminator(len(rows[0]))
    for row in sparse_rows(rows):
        elim.add_row(row)
    return elim


def test_modular_nullspace_matches_exact():
    read = 0
    for data, cols, _ in linalg_naive_cases():
        got = modular(data)
        exact = Eliminator(cols).add_rows(sparse_rows(data))
        assert got.rank == exact.rank
        basis = got.nullspace()
        if basis is not None:
            read += 1
            assert basis == exact.nullspace()
    assert read == 120


def test_modular_nullspace_near_the_bound():
    # rank-3 rows with b-bit entries: nullspace entries are ratios of 3x3
    # minors, about 3b bits, against a reconstruction bound of 63 bits
    rng = random.Random(5)
    outcomes = set()
    for bits in (16, 24):
        for _ in range(10):
            base = [[rng.randrange(-2**bits, 2**bits) for _ in range(6)]
                    for _ in range(3)]
            mix = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(5)]
            data = [[sum(m * r[j] for m, r in zip(mx, base)) for j in range(6)]
                    for mx in mix]
            got = modular(data).nullspace()
            outcomes.add(got is None)
            if got is not None:
                assert got == nullspace(data)
    assert outcomes == {True, False}


def test_modular_kills_is_exact():
    elim = modular([[1, 2, 3], [4, 5, 6]])
    assert elim.kills({0: 1, 1: -2, 2: 1})
    assert elim.kills({0: Fraction(1, 3), 1: Fraction(-2, 3), 2: Fraction(1, 3)})
    assert not elim.kills({0: 1, 1: -2, 2: 1 + PRIME})
    assert elim.kills({})


@pytest.mark.parametrize("rows", [
    # modulo PRIME the pivot moves to column 1, so kills rejects (1, 0)
    [[PRIME, 1]],
    # 2^200 lies past the reconstruction bound
    [[1, -2**200]],
    # no residue exists for a denominator divisible by PRIME
    [[Fraction(1, PRIME), 1]],
], ids=["pivot-moves", "past-bound", "denominator-p"])
def test_modular_nullspace_refuses(rows):
    assert modular(rows).nullspace() is None
    assert modular(rows).rank <= rank(rows)
