import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invforge.linalg import (
    PRIME,
    WORD_PRIME,
    Eliminator,
    PackedEliminator,
    certified_nullspace,
    nullspace_sparse,
    rank_sparse,
    solve_affine_sparse,
)
from invforge.syzygies import MAX_CANDIDATES

from properties import (
    check_linalg_against_naive,
    check_pivot_layout,
    linalg_naive_cases,
    naive_nullspace,
    naive_rref,
    naive_solve_affine,
    sparse_rows,
)


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
    assert nullspace(data) == naive_nullspace(data[::-1], 3)
    assert rank(data) == rank(data[::-1])


def test_against_naive_oracle():
    check_linalg_against_naive()


def modular(rows, modulus=PRIME):
    return PackedEliminator(len(rows[0]), modulus).add_rows(sparse_rows(rows))


def test_modular_nullspace_matches_exact():
    read = 0
    for data, cols, _ in linalg_naive_cases():
        got = modular(data)
        assert got.rank == len(naive_rref(data, cols)[1])
        basis = got.nullspace()
        if basis is not None:
            read += 1
            assert basis == naive_nullspace(data, cols)
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
                assert got == naive_nullspace(data, 6)
    assert outcomes == {True, False}


def test_modular_kills_is_exact():
    elim = modular([[1, 2, 3], [4, 5, 6]])
    assert elim.kills({0: 1, 1: -2, 2: 1})
    assert elim.kills({0: Fraction(1, 3), 1: Fraction(-2, 3), 2: Fraction(1, 3)})
    assert not elim.kills({0: 1, 1: -2, 2: 1 + PRIME})
    assert elim.kills({})


def test_word_prime_is_the_largest_prime_below_2_30():
    def prime(m):
        return all(m % q for q in range(2, math.isqrt(m) + 1))
    assert prime(WORD_PRIME)
    assert not any(prime(m) for m in range(WORD_PRIME + 1, 2**30))


def test_reconstruction_bound_follows_the_modulus():
    # 10^5 lies past sqrt(WORD_PRIME / 2), far within sqrt(PRIME / 2)
    rows = [{0: 1, 1: -10**5}]
    want = [[Fraction(10**5), Fraction(1)]]
    assert PackedEliminator(2).add_rows(rows).nullspace() == want
    word = PackedEliminator(2, WORD_PRIME).add_rows(rows)
    assert word.rank == 1 and word.nullspace() is None
    assert certified_nullspace(word) == want


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


entries = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=4),
                    st.integers(-2**70, 2**70),
                    st.builds(lambda v, sign: sign * v, st.integers(2**70, 2**90),
                              st.sampled_from([1, -1])))


@st.composite
def sparse_systems(draw):
    """Rows mixed from a few base rows (so often rank-deficient), some of
    them repeated, plus b.

    b is A x for a drawn x (consistent) or drawn freely (often not).
    """
    cols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=3))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                   max_size=len(base)), min_size=1, max_size=6))
    data = [[sum(m * r[j] for m, r in zip(mix, base)) for j in range(cols)]
            for mix in mixes]
    data += [data[i] for i in draw(st.lists(st.integers(0, len(data) - 1), max_size=2))]
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=cols, max_size=cols))
        b = [sum(a * v for a, v in zip(row, x)) for row in data]
    else:
        b = draw(st.lists(entries, min_size=len(data), max_size=len(data)))
    return data, cols, b


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
@example(([[2, -4, 6], [2, -4, 6], [-1, 2, -3]], 3, [2, 2, -1]))
@example(([[Fraction(1, 3), 2**80], [1, 3 * 2**80]], 2, [1, 0]))
def test_exact_kernel_matches_naive_oracle(system):
    data, cols, b = system
    elim = Eliminator(cols)
    for i, row in enumerate(sparse_rows(data)):
        elim.add_row(row)
        check_pivot_layout(elim)
        assert elim.rank == len(naive_rref(data[:i + 1], cols)[1])
    m, pivots = naive_rref(data, cols)
    assert sorted(elim.pivots) == pivots
    for r, c in enumerate(pivots):
        row = elim.pivots[c]
        assert [Fraction(row.get(j, 0), row[c]) for j in range(cols)] == m[r]
    assert elim.nullspace() == naive_nullspace(data, cols)
    assert nullspace_sparse(cols, sparse_rows(data)) == naive_nullspace(data, cols)
    assert solve_affine_sparse(cols, sparse_rows(data, b)) == naive_solve_affine(data, b, cols)


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_modular_route_matches_exact_route(system):
    # Fraction and long entries: the checked modular basis, where there is
    # one, and the certified route always give the exact kernel's answer
    data, cols, b = system
    for ncols, rows in ((cols, sparse_rows(data)), (cols + 1, sparse_rows(data, b))):
        elim = PackedEliminator(ncols).add_rows(rows)
        exact = nullspace_sparse(ncols, rows)
        assert elim.rank == ncols - len(exact)
        assert elim.nullspace() in (None, exact)
        assert certified_nullspace(elim) == exact


@pytest.mark.parametrize("data,b,null,sol", [
    # modulo PRIME the pivot moves to column 1, so kills rejects (1, 0)
    ([[PRIME, 1]], [1],
     [[Fraction(-1, PRIME), Fraction(1)]], [Fraction(1, PRIME), Fraction(0)]),
    # 2^200 lies past the reconstruction bound
    ([[2**200, -1]], [1],
     [[Fraction(1, 2**200), Fraction(1)]], [Fraction(1, 2**200), Fraction(0)]),
    # no residue exists for a denominator divisible by PRIME
    ([[Fraction(1, PRIME), 1]], [1],
     [[Fraction(-PRIME), Fraction(1)]], [Fraction(PRIME), Fraction(0)]),
    # consistent modulo PRIME only: kills refuses (-1, 0, 1), and the
    # exact kernel finds b a pivot
    ([[1, 0], [1, 0]], [1, 1 + PRIME], [[Fraction(0), Fraction(1)]], None),
], ids=["pivot-moves", "past-bound", "denominator-p", "consistent-mod-p"])
def test_fallback_returns_the_exact_answer(data, b, null, sol):
    cols = len(data[0])
    rows, aug = sparse_rows(data), sparse_rows(data, b)
    elim = PackedEliminator(cols + 1).add_rows(aug)
    assert elim.nullspace() is None
    assert certified_nullspace(elim) == nullspace_sparse(cols + 1, aug)
    assert certified_nullspace(PackedEliminator(cols).add_rows(rows)) == null
    assert nullspace_sparse(cols, rows) == null
    assert solve_affine_sparse(cols, aug) == sol


def test_kills_walks_sparse_rows_against_a_dense_vector():
    # rows x_j - x_(j+1): a vector entry on a column the row lacks reads 0
    elim = PackedEliminator(6).add_rows({j: 1, j + 1: -1} for j in range(5))
    assert elim.kills({j: 1 for j in range(6)})
    assert elim.kills({j: Fraction(1, 3) for j in range(6)})
    # only the last row, x4 - x5, sees the change
    assert not elim.kills({**{j: 1 for j in range(5)}, 5: 2})
    # only the first row sees x0; the others miss it in the vector
    assert not elim.kills({j: 1 for j in range(1, 6)})


def test_kills_walks_a_sparse_vector_against_tall_dense_rows():
    rng = random.Random(3)
    rows = []
    for _ in range(40):
        a = rng.randrange(1, 50)
        rows.append({0: a, 1: a, **{j: rng.randrange(1, 50) for j in range(2, 8)}})
    elim = PackedEliminator(8).add_rows(rows)
    vec = {0: 1, 1: -1}
    assert all(len(row) > len(vec) for row in elim.rows)
    assert elim.kills(vec)
    assert elim.kills({0: Fraction(-2, 7), 1: Fraction(2, 7)})
    # one row in the middle breaks the balance of columns 0 and 1
    elim.rows[17] = {**elim.rows[17], 1: elim.rows[17][1] + 1}
    assert not elim.kills(vec)
    # a column in no row is read as 0
    assert PackedEliminator(9).add_rows(rows).kills({8: 1, 0: 1, 1: -1})


# -- the packed modular store against the exact kernel ------------------------

dense_entries = st.one_of(st.integers(-3, 3), st.integers(-2**120, 2**120))


@st.composite
def dense_systems(draw):
    """Dense rows mixed from a few base rows (so often rank-deficient), and
    a modulus."""
    cols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(dense_entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                   max_size=len(base)), min_size=1, max_size=8))
    data = [[sum(m * r[j] for m, r in zip(mix, base)) for j in range(cols)]
            for mix in mixes]
    return cols, data, draw(st.sampled_from([PRIME, WORD_PRIME]))


def both_kernels(cols, rows, modulus):
    """The packed store and the exact kernel fed the same rows; the modular
    rank never exceeds the rational one, and modulo PRIME it equals it: no
    minor of these entries is a multiple of a 127-bit prime."""
    exact, packed = Eliminator(cols), PackedEliminator(cols, modulus)
    for row in rows:
        exact.add_row(row)
        packed.add_row(row)
        assert packed.rank <= exact.rank
        if modulus == PRIME:
            assert packed.rank == exact.rank
    return exact, packed


@settings(max_examples=300, deadline=None)
@given(dense_systems())
# a checked basis, and a refusal: -2^120 lies past WORD_PRIME's bound
@example((4, [[1, 2, -3, 4], [2, 4, -6, 8], [0, 1, 1, 0]], PRIME))
@example((2, [[1, -2**120], [-3, 3 * 2**120]], WORD_PRIME))
def test_packed_store_matches_exact_kernel(system):
    cols, data, modulus = system
    exact, packed = both_kernels(cols, sparse_rows(data), modulus)
    # entries of at most 2^8 over rank <= 4 give minors, hence null vector
    # entries, far within PRIME's reconstruction bound of 63 bits
    if modulus == PRIME and all(abs(v) <= 2**8 for row in data for v in row):
        assert packed.nullspace() == exact.nullspace()
    else:
        assert packed.nullspace() in (None, exact.nullspace())
    assert certified_nullspace(packed) == exact.nullspace()


@pytest.mark.parametrize("modulus", [PRIME, WORD_PRIME], ids=["PRIME", "WORD_PRIME"])
@pytest.mark.parametrize("last,rank", [(-498, MAX_CANDIDATES), (-499, MAX_CANDIDATES - 1)])
def test_packed_store_worst_carry(modulus, last, rank):
    # rows e_k - (e_(k+1) + ... + e_(n-1)), fed last first, are the packed
    # pivot rows 1, p-1, ..., p-1; the final row reads f = 1 at every
    # pivot, so each of its n - 1 reductions adds (p-1)^2 to every later
    # slot, and its last slot ends at last + 499 modulo p
    n = MAX_CANDIDATES
    rows = [{k: 1, **{j: -1 for j in range(k + 1, n)}} for k in reversed(range(n - 1))]
    rows.append({**{c: 1 - c for c in range(n - 1) if c != 1}, n - 1: last})
    exact, packed = both_kernels(n, rows, modulus)
    assert packed.rank == exact.rank == rank
    assert all(packed._unpack(row, n - c) == [1] + [modulus - 1] * (n - 1 - c)
               for c, row in packed.echelon)
    # at rank n - 1 the null vector has entries of 499 bits, past either bound
    assert packed.nullspace() == ([] if rank == n else None)
    assert certified_nullspace(packed) == exact.nullspace()


def test_packed_store_falls_back_on_unreduced_rows():
    elim = PackedEliminator(2).add_rows(sparse_rows([[Fraction(3, PRIME), 1]]))
    assert not elim.reduced
    assert elim.nullspace() is None
    assert certified_nullspace(elim) == [[Fraction(-PRIME, 3), Fraction(1)]]


# -- dense rows, the packed certificate and integer null vectors --------------

def _feeds(cols, data, modulus=PRIME):
    """The packed store fed the dense lists and fed their sparse dicts."""
    dense = PackedEliminator(cols, modulus)
    for row in data:
        dense.add_row(list(row))
    return dense, PackedEliminator(cols, modulus).add_rows(sparse_rows(data))


def _same_feeds(cols, data, modulus=PRIME):
    dense, sparse = _feeds(cols, data, modulus)
    assert dense.rank == sparse.rank
    assert dense.reduced == sparse.reduced
    assert dense.echelon == sparse.echelon
    assert dense.nullspace() == sparse.nullspace()
    exact = nullspace_sparse(cols, sparse_rows(data))
    assert certified_nullspace(dense) == certified_nullspace(sparse) == exact
    vectors = [{j: v for j, v in enumerate(vec) if v} for vec in exact]
    assert dense.kills(*vectors) and sparse.kills(*vectors)
    for vec in vectors:
        assert dense.kills(vec) and sparse.kills(vec)
    # a vector off the nullspace fails on both, alone or among null vectors
    for j in range(cols):
        e = {j: Fraction(1, 3)}
        hit = any(row[j] for row in data)
        assert dense.kills(e) == sparse.kills(e) == (not hit)
        assert dense.kills(*vectors, e) == sparse.kills(*vectors, e) == (not hit)


def test_dense_and_sparse_feeds_agree_on_the_naive_cases():
    for data, cols, _ in linalg_naive_cases():
        _same_feeds(cols, data)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_dense_and_sparse_feeds_agree(system):
    data, cols, _ = system
    for modulus in (PRIME, WORD_PRIME):
        _same_feeds(cols, data, modulus)


@settings(max_examples=200, deadline=None)
@given(dense_systems())
def test_dense_and_sparse_feeds_agree_on_dense_systems(system):
    cols, data, modulus = system
    _same_feeds(cols, data, modulus)


def test_packed_certificate_finds_the_one_failing_row():
    # three null vectors with negative entries; a fourth that misses on one
    # row only, by 1 against entries of 2^100, must fail in any company
    rng = random.Random(7)
    base = [[rng.randrange(-2**100, 2**100) for _ in range(6)] for _ in range(3)]
    exact = nullspace_sparse(6, sparse_rows(base))
    assert len(exact) == 3
    assert any(v < 0 for vec in exact for v in vec)
    vectors = [{j: v for j, v in enumerate(vec) if v} for vec in exact]
    elim = PackedEliminator(6)
    for row in base:
        elim.add_row(list(row))
    assert elim.kills(*vectors)
    bad = [row[:] for row in base]
    bad[1][5] += 1
    # only the vector of free column 5 has an entry there: it alone fails,
    # and on row 1 alone
    broken = PackedEliminator(6)
    for row in bad:
        broken.add_row(row)
    assert [broken.kills(vec) for vec in vectors] == [True, True, False]
    assert not broken.kills(*vectors)
    assert not broken.kills(*reversed(vectors))
    # the one null vector of the first two rows, with a negative entry,
    # against those rows and one row it misses
    two = nullspace_sparse(6, sparse_rows(base[:2]))
    vec = {j: v for j, v in enumerate(two[-1]) if v}
    assert any(v < 0 for v in vec.values())
    rows = PackedEliminator(6)
    for row in base[:2]:
        rows.add_row(list(row))
    assert rows.kills(vec)
    rows.add_row(list(base[2]))
    assert not rows.kills(vec)
    assert not rows.kills({j: 1 for j in range(6)}, vec)
    # dot products of 1 and -1 with one row cancel only in one shared slot,
    # and 4 and -1 in slots of 2 bits: the slots follow the row's l1 norm
    assert not PackedEliminator(2).add_rows([[1, 1]]).kills({0: 1}, {1: -1})
    assert not PackedEliminator(2).add_rows([[4, 1]]).kills({0: 1}, {1: -1})


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
@example(([[2, -4, 6], [2, -4, 6], [-1, 2, -3]], 3, [0, 0, 0]))
@example(([[Fraction(1, 3), 2**80, 0], [0, 6, -4]], 3, [0, 0]))
def test_integer_nullspace_is_the_primitive_canonical_basis(system):
    # each canonical vector times the least common denominator of its
    # entries: integers of content 1, positive on the free column, which is
    # the vector's last nonzero column
    data, cols, _ = system
    elim = Eliminator(cols).add_rows(sparse_rows(data))
    canonical = elim.nullspace()
    got = elim.integer_nullspace()
    assert len(got) == len(canonical)
    for vec, want in zip(got, canonical):
        assert list(vec) == sorted(vec)
        assert all(type(v) is int and v for v in vec.values())
        den = math.lcm(*(v.denominator for v in want))
        assert vec == {j: int(v * den) for j, v in enumerate(want) if v}
        assert math.gcd(*vec.values()) == 1
        f = max(vec)
        assert want[f] == 1 and vec[f] > 0
