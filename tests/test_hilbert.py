import pytest

from invforge.exponents import powers
from invforge.hilbert import candidate_count, invariant_dimension
from invforge.invariants import invariant_basis


@pytest.mark.parametrize("n,top", [(2, 8), (3, 8), (4, 8), (5, 12), (6, 8), (8, 5)])
def test_dimension_matches_invariant_basis(n, top):
    for d in range(1, top + 1):
        assert invariant_dimension(n, d) == len(invariant_basis(n, d))


def test_known_dimensions():
    # one invariant per even degree for the quadratic; the quintic's first
    # relation sits in degree 36, where the count is one short of the
    # 13 generator monomials
    assert [invariant_dimension(2, d) for d in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    assert invariant_dimension(5, 36) == 12
    assert invariant_dimension(6, 30) == 47
    assert invariant_dimension(8, 20) == 102
    assert invariant_dimension(3, 5) == 0


@pytest.mark.parametrize("n,top", [(2, 16), (3, 16), (4, 14), (5, 14), (6, 12), (7, 10), (8, 10)])
def test_candidate_count_matches_enumeration(n, top):
    for d in range(1, top + 1):
        assert candidate_count(n, d) == len(powers(n, d))
    assert candidate_count(n, 0) == candidate_count(1, 4) == 0
