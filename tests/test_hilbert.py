from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from invforge import hilbert
from invforge.exponents import powers, powers2
from invforge.hilbert import (
    _box_partitions,
    box_partition_count,
    candidate_count,
    generator_monomial_count,
    invariant_dimension,
    relation_numerator,
)
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(-2, 60))
def test_generator_monomial_count_matches_enumeration(degrees, d):
    assert generator_monomial_count(degrees, d) == len(powers2(degrees, d))


def test_counts_refuse_a_degree_above_the_limit():
    # every request checks MAX_DEGREE before it counts, so no count builds
    # a table past it: the coin-change table stops at MAX_DEGREE + 1 entries
    top = hilbert.MAX_DEGREE
    assert generator_monomial_count((4,), top) == 0
    assert generator_monomial_count((1,), top) == 1
    # the cubic has d // 4 + 1 candidates, so the cap is the first degree
    # past MAX_CANDIDATES of them
    assert candidate_count(3, top - 1) == hilbert.MAX_CANDIDATES
    for count, args in ((generator_monomial_count, (range(2, 11), top + 1)),
                        (generator_monomial_count, ((4,), 10**12)),
                        (candidate_count, (3, top + 1)),
                        (candidate_count, (2, 10**20))):
        with pytest.raises(ValueError, match="above the limit of 7999"):
            count(*args)


@pytest.mark.parametrize("n,top", [(3, 16), (4, 14), (5, 14), (6, 12), (7, 10), (8, 10)])
def test_candidate_pair_bound_is_a_lower_bound(n, top, monkeypatch):
    # C(d // 2 + t, t), t = (n - 2) // 2, never exceeds the count; with the
    # bound tried on every request, a count above the limit reads as some
    # number above it, and any other count is exact
    t = (n - 2) // 2
    monkeypatch.setattr(hilbert, "EXACT_WORK", 0)
    monkeypatch.setattr(hilbert, "MAX_CANDIDATES", 20)
    for d in range(1 + n % 2, top + 1, 1 + n % 2):  # nd even
        exact = len(powers(n, d))
        assert comb(d // 2 + t, t) <= exact
        count = candidate_count(n, d)
        assert count == exact if exact <= 20 else count > 20


@pytest.mark.parametrize("exact_work", [0, hilbert.EXACT_WORK])
@pytest.mark.parametrize("d,n", [(1, 5), (4, 4), (7, 3), (6, 9), (12, 7), (2, 30)])
def test_box_partition_count_is_exact_up_to_the_limit(d, n, exact_work, monkeypatch):
    monkeypatch.setattr(hilbert, "EXACT_WORK", exact_work)
    table = _box_partitions(d, n, n * d)
    for w in range(-1, n * d + 2):
        want = table[w] if 0 <= w <= n * d else 0
        for limit in (0, 1, 5, 50, 10**6):
            got = box_partition_count(d, n, w, limit)
            assert got == want if want <= limit else got > limit


def test_hilbert_numerators_of_the_bundled_degrees():
    def terms(n, degrees, top):
        return {d: c for d, c in enumerate(relation_numerator(n, degrees, top)) if c}

    assert terms(5, (4, 8, 12, 18), 80) == {0: 1, 36: -1}
    assert terms(6, (2, 4, 6, 10, 15), 60) == {0: 1, 30: -1}
    assert terms(8, range(2, 11), 40) == {0: 1, **{d: -1 for d in range(16, 21)},
                                          **{d: 1 for d in range(25, 30)}}
