import itertools

import pytest
from hypothesis import given, settings, strategies as st

from invforge.exponents import _compositions, _gen_powers, _u_powers, grad, powers, powers2
from invforge.rings import gen_ring, monomial_key, u_ring, x_ring


def brute_powers(n, d):
    if (n * d) % 2:
        return set()
    w = n * d // 2
    out = set()
    for alphas in itertools.product(*[range(d + 1)] * (n - 1)):
        total = sum(alphas)
        if total <= d and sum((i + 2) * a for i, a in enumerate(alphas)) == w:
            out.add((d - total,) + alphas)
    return out


def brute_powers2(degs, d):
    ranges = [range(d // g + 1) for g in degs]
    return {a for a in itertools.product(*ranges)
            if sum(x * g for x, g in zip(a, degs)) == d}


def brute_grad(profile, target):
    td, tw = target
    ranges = [range(td // dg + 1) for dg, _ in profile]
    return {a for a in itertools.product(*ranges)
            if sum(x * dg for x, (dg, _) in zip(a, profile)) == td
            and sum(x * w for x, (_, w) in zip(a, profile)) == tw}


def test_powers_examples():
    assert powers(3, 4) == [(1, 3, 0), (2, 0, 2)]
    assert powers(5, 3) == []
    assert powers(2, 2) == [(1, 1)]


def test_powers_share_their_tuples():
    first, again = powers(8, 6), powers(8, 6)
    assert first is not again
    assert all(a is b for a, b in zip(first, again, strict=True))
    first.reverse()
    assert powers(8, 6) == again
    assert _u_powers.cache_info().maxsize is not None


def test_powers2_examples():
    assert set(powers2([4, 8, 12, 18], 8)) == {(2, 0, 0, 0), (0, 1, 0, 0)}
    assert powers2([4, 8, 12, 18], 5) == []
    assert set(powers2([2, 3], 6)) == {(3, 0), (0, 2)}


def test_powers2_share_their_tuples():
    # relations of one generator set and degree share their exponent keys
    first, again = powers2([2, 3, 4, 5, 6, 7, 8, 9, 10], 16), powers2(range(2, 11), 16)
    assert first is not again and len(first) == 48
    assert all(a is b for a, b in zip(first, again, strict=True))
    first.reverse()
    assert powers2((2, 3, 4, 5, 6, 7, 8, 9, 10), 16) == again
    assert _gen_powers.cache_info().maxsize is not None


def test_grad_examples():
    assert set(grad([(4, 10), (8, 20)], (8, 20))) == {(2, 0), (0, 1)}
    assert grad([(4, 10), (8, 20)], (0, 0)) == [(0, 0)]
    assert grad([(4, 10)], (6, 15)) == []


def canonical(ctx, exps):
    return sorted(exps, key=lambda e: monomial_key(ctx, e))


def test_entries_sorted_and_distinct():
    for n, d in [(3, 4), (4, 6), (5, 8), (6, 10)]:
        got = powers(n, d)
        assert len(set(got)) == len(got)
        assert got == canonical(u_ring(n), got)
    got = powers2([2, 3, 4], 12)
    assert len(set(got)) == len(got)
    assert got == canonical(gen_ring([("a", 2, 1), ("b", 3, 1), ("c", 4, 1)]), got)
    profile = [(2, 5), (3, 1), (1, 0), (4, 10)]
    got = grad(profile, (12, 20))
    assert len(set(got)) == len(got) > 1
    assert got == canonical(gen_ring((f"g{j}", d, w) for j, (d, w) in enumerate(profile)),
                            got)


def test_validation_errors():
    with pytest.raises(ValueError):
        powers(1, 4)
    with pytest.raises(ValueError):
        powers2([], 3)
    with pytest.raises(ValueError):
        powers2([0], 3)
    with pytest.raises(ValueError):
        grad([], (2, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 12))
def test_powers_matches_brute_force(n, d):
    got = powers(n, d)
    assert set(got) == brute_powers(n, d)
    for a in got:
        assert sum(a) == d
        assert sum((i + 1) * x for i, x in enumerate(a[1:], start=1)) == n * d // 2
    if (n * d) % 2:
        assert got == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(0, 12))
def test_powers2_matches_brute_force(degs, d):
    got = powers2(degs, d)
    assert set(got) == brute_powers2(degs, d)
    assert len(set(got)) == len(got)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 10)),
                min_size=1, max_size=5),
       st.integers(0, 12), st.integers(0, 20))
def test_grad_matches_brute_force(profile, td, tw):
    got = grad(profile, (td, tw))
    assert set(got) == brute_grad(profile, (td, tw))


@pytest.mark.parametrize("ring", [x_ring, u_ring], ids=["x", "u"])
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 30))
def test_ring_search_matches_brute_force(ring, n, d, w):
    # degree d and weight w over the ring's slots; slot 0 has weight 0
    ctx = ring(n)
    weights = ctx.slot_weights[1:]
    brute = {(d - sum(a),) + a
             for a in itertools.product(range(d + 1), repeat=len(weights))
             if sum(a) <= d and sum(x * k for x, k in zip(a, weights)) == w}
    got = _compositions(ctx.slot_degrees, ctx.slot_weights, d, w)
    assert set(got) == brute
    assert got == canonical(ctx, got)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8))
def test_grad_weight_row_redundant_for_invariants(n, d):
    # generator profiles with w = n*deg/2 make the weight row redundant
    degs = [k for k in range(1, d + 1) if (n * k) % 2 == 0][:4] or [2]
    profile = [(k, n * k // 2) for k in degs]
    if (n * d) % 2:
        return
    assert grad(profile, (d, n * d // 2)) == powers2(degs, d)
