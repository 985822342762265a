import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from invforge import linalg
from invforge.linalg import (
    WORD_PRIME,
    Eliminator,
    PackedEliminator,
    nullspace_sparse,
    rank_sparse,
    solve_affine_sparse,
)
from invforge.hilbert import MAX_RELATION_CANDIDATES

from properties import (
    check_linalg_against_naive,
    check_pivot_layout,
    linalg_naive_cases,
    linalg_tall_cases,
    naive_nullspace,
    naive_rref,
    naive_solve_affine,
    read_nullspace,
    sparse_rows,
)


def nullspace(rows):
    return nullspace_sparse(len(rows[0]), sparse_rows(rows))


def rank(rows):
    return rank_sparse(len(rows[0]), sparse_rows(rows))


def solve_affine(rows, b):
    return solve_affine_sparse(len(rows[0]), sparse_rows(rows, b))


def fractions(ncols, vectors):
    """Primitive integer null vectors as the canonical Fraction vectors:
    each divided by its entry on its free column, its last."""
    return [[Fraction(vec.get(j, 0), vec[max(vec)]) for j in range(ncols)]
            for vec in vectors]


def integer_nullspace(ncols, rows):
    return Eliminator(ncols).add_rows(rows).integer_nullspace()


@pytest.fixture
def steps(monkeypatch):
    """The lifting steps each PackedEliminator.nullspace call took."""
    counts = []
    lift = PackedEliminator._lift

    def spy(self, free):
        counts.append(0)
        for step in lift(self, free):
            counts[-1] += 1
            yield step

    monkeypatch.setattr(PackedEliminator, "_lift", spy)
    return counts


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


def test_tall_systems_match_naive_oracle():
    # a system of full column rank is eliminated only until its columns are
    # all pivots; the rows after that are checked against the unique
    # solution, and every answer is still the naive RREF's
    kinds = {}
    for kind, data, cols, b in linalg_tall_cases():
        with mock.patch.object(Eliminator, "add_row", autospec=True,
                               side_effect=Eliminator.add_row) as fed:
            sol = solve_affine_sparse(cols, sparse_rows(data, b))
        want = naive_solve_affine(data, b, cols)
        assert sol == want, (kind, data, b)
        kinds.setdefault(kind, set()).add(want is None)
        if kind == "rank-deficient":
            assert len(naive_rref(data, cols)[1]) < cols
        else:
            assert fed.call_count == cols < len(data)
    assert kinds == {"consistent": {False}, "fraction-rhs": {False},
                     "late-inconsistent": {True}, "rhs-only": {True},
                     "rank-deficient": {False, True}, "no-columns": {False, True}}


def modular(rows):
    return PackedEliminator(len(rows[0])).add_rows(rows)


def test_modular_nullspace_matches_exact():
    # every one of the 120 bases is lifted, with no exact fallback
    for data, cols, _ in linalg_naive_cases():
        got = modular(data)
        assert got.rank == len(naive_rref(data, cols)[1])
        basis, exact = read_nullspace(got)
        assert not exact
        assert fractions(cols, basis) == naive_nullspace(data, cols)


def test_modular_nullspace_near_the_bound(steps):
    # rank-3 rows with b-bit entries: nullspace entries are ratios of 3x3
    # minors, about 3b bits, so longer entries take more lifting steps, and
    # every one is recovered
    rng = random.Random(5)
    for bits in (16, 24, 60):
        for _ in range(10):
            base = [[rng.randrange(-2**bits, 2**bits) for _ in range(6)]
                    for _ in range(3)]
            mix = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(5)]
            data = [[sum(m * r[j] for m, r in zip(mx, base)) for j in range(6)]
                    for mx in mix]
            got, exact = read_nullspace(modular(data))
            assert not exact
            assert fractions(6, got) == naive_nullspace(data, 6)
    assert len(steps) == 30
    assert max(steps[:10]) < min(steps[20:])


def test_modular_kills_is_exact():
    elim = modular([[1, 2, 3], [4, 5, 6]])
    assert elim.kills({0: 1, 1: -2, 2: 1})
    assert elim.kills({0: Fraction(1, 3), 1: Fraction(-2, 3), 2: Fraction(1, 3)})
    assert not elim.kills({0: 1, 1: -2, 2: 1 + WORD_PRIME})
    assert elim.kills({})


def test_word_prime_is_the_largest_prime_below_2_30():
    def prime(m):
        return all(m % q for q in range(2, math.isqrt(m) + 1))
    assert prime(WORD_PRIME)
    assert not any(prime(m) for m in range(WORD_PRIME + 1, 2**30))


def test_reconstruction_bound_follows_the_modulus(steps):
    # the bound follows p^s: 10^5 lies past sqrt(WORD_PRIME / 2), within
    # sqrt(WORD_PRIME^2 / 2), and 10^12 within sqrt(WORD_PRIME^3 / 2)
    for entry, count in ((10**3, 1), (10**5, 2), (10**12, 3)):
        steps.clear()
        assert read_nullspace(modular([[1, -entry]])) == ([{0: entry, 1: 1}], False)
        assert steps == [count]
    # one step recovers some other short rational, which kills refuses
    assert linalg._rational(10**5 % WORD_PRIME, WORD_PRIME) not in (None, 10**5)
    assert linalg._rational(10**5, WORD_PRIME**2) == 10**5


@pytest.mark.parametrize("rows", [
    # modulo p the pivot moves to column 1: the lifted vector (1, -p) ends
    # past its free column
    [[WORD_PRIME, 1]],
    # rank 2, but 1 modulo p: (-1, 1) fails the second row at every step
    # up to the step cap
    [[1, 1], [1, 1 + WORD_PRIME]],
], ids=["pivot-moves", "past-bound"])
def test_modular_nullspace_refuses(rows):
    # lifting refuses, and the exact kernel answers from the same rows
    want = integer_nullspace(len(rows[0]), sparse_rows(rows))
    assert read_nullspace(modular(rows)) == (want, True)
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
    assert fractions(cols, elim.integer_nullspace()) == naive_nullspace(data, cols)
    assert nullspace_sparse(cols, sparse_rows(data)) == naive_nullspace(data, cols)
    assert solve_affine_sparse(cols, sparse_rows(data, b)) == naive_solve_affine(data, b, cols)


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_modular_route_matches_exact_route(system):
    # Fraction and long entries: the lifted basis, or else the exact
    # fallback, is always the exact kernel's answer
    data, cols, b = system
    for dense in (data, [row + [v] for row, v in zip(data, b)]):
        ncols, rows = len(dense[0]), sparse_rows(dense)
        elim = PackedEliminator(ncols).add_rows(dense)
        exact = integer_nullspace(ncols, rows)
        assert elim.rank == ncols - len(exact)
        assert elim.nullspace() == exact
        assert fractions(ncols, exact) == nullspace_sparse(ncols, rows)


@st.composite
def tall_systems(draw):
    """Up to 4 rows per column of drawn entries (so often of full column
    rank long before the last row), and b = A x for a drawn x, off by a
    drawn amount on one drawn row when the flag is set."""
    cols = draw(st.integers(1, 5))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=cols, max_size=4 * cols))
    x = draw(st.lists(entries, min_size=cols, max_size=cols))
    b = [sum(a * v for a, v in zip(row, x)) for row in data]
    if draw(st.booleans()):
        b[draw(st.integers(0, len(data) - 1))] += draw(
            st.sampled_from([1, -2**70, Fraction(1, 3)]))
    return data, cols, b


@settings(max_examples=200, deadline=None)
@given(tall_systems())
def test_tall_drawn_systems_match_naive_oracle(system):
    data, cols, b = system
    assert solve_affine_sparse(cols, sparse_rows(data, b)) == naive_solve_affine(data, b, cols)


P = WORD_PRIME


@pytest.mark.parametrize("data,b,null,sol", [
    # modulo p the pivot moves to column 1, past the lifted vector's free
    # column
    ([[P, 1]], [1], [{0: -1, 1: P}], [Fraction(1, P), Fraction(0)]),
    # rank 2, but 1 modulo p, for [A | b] too: lifting reaches the step
    # cap, and the exact kernel finds the solution
    ([[1, 1], [1, 1 + P]], [1, 1], [], [Fraction(1), Fraction(0)]),
    # consistent modulo p only: (-1, 0, 1) fails the second row at every
    # step, and the exact kernel finds b a pivot
    ([[1, 0], [1, 0]], [1, 1 + P], [{1: 1}], None),
], ids=["pivot-moves", "past-bound", "consistent-mod-p"])
def test_fallback_returns_the_exact_answer(data, b, null, sol):
    cols = len(data[0])
    rows, aug = sparse_rows(data), sparse_rows(data, b)
    elim = modular([row + [v] for row, v in zip(data, b)])
    assert read_nullspace(elim) == (integer_nullspace(cols + 1, aug), True)
    assert modular(data).nullspace() == null
    assert nullspace_sparse(cols, rows) == fractions(cols, null)
    assert solve_affine_sparse(cols, aug) == sol


def test_kills_walks_sparse_rows_against_a_dense_vector():
    # rows x_j - x_(j+1): a vector entry on a column where the row is 0
    # reads 0
    elim = modular([[(k == j) - (k == j + 1) for k in range(6)] for j in range(5)])
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
        rows.append([a, a] + [rng.randrange(1, 50) for _ in range(2, 8)])
    elim = modular(rows)
    vec = {0: 1, 1: -1}
    assert all(len(row) > len(vec) for row in elim.rows)
    assert elim.kills(vec)
    assert elim.kills({0: Fraction(-2, 7), 1: Fraction(2, 7)})
    # one row in the middle breaks the balance of columns 0 and 1
    elim.rows[17] = elim.rows[17][:1] + [elim.rows[17][1] + 1] + elim.rows[17][2:]
    assert not elim.kills(vec)
    # a column that is 0 in every row is read as 0
    assert modular([row + [0] for row in rows]).kills({8: 1, 0: 1, 1: -1})


# -- the packed modular store against the exact kernel ------------------------

dense_entries = st.one_of(st.integers(-3, 3), st.integers(-2**120, 2**120))


@st.composite
def dense_systems(draw):
    """Dense rows mixed from a few base rows (so often rank-deficient)."""
    cols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(dense_entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                   max_size=len(base)), min_size=1, max_size=8))
    data = [[sum(m * r[j] for m, r in zip(mix, base)) for j in range(cols)]
            for mix in mixes]
    return cols, data


def both_kernels(cols, data):
    """The packed store fed the dense rows and the exact kernel their sparse
    dicts; the modular rank never exceeds the rational one."""
    exact, packed = Eliminator(cols), PackedEliminator(cols)
    for row, sparse in zip(data, sparse_rows(data)):
        exact.add_row(sparse)
        packed.add_row(row)
        assert packed.rank <= exact.rank
    return exact, packed


@settings(max_examples=300, deadline=None)
@given(dense_systems())
# a lifted basis, and a system with 120-bit entries
@example((4, [[1, 2, -3, 4], [2, 4, -6, 8], [0, 1, 1, 0]]))
@example((2, [[1, -2**120], [-3, 3 * 2**120]]))
def test_packed_store_matches_exact_kernel(system):
    cols, data = system
    exact, packed = both_kernels(cols, data)
    # entries of at most 2^5 over rank <= 4 give minors below 2^25 < p, so
    # the pivots modulo p are the rational ones and lifting recovers the
    # basis
    want = exact.integer_nullspace()
    if all(abs(v) <= 2**5 for row in data for v in row):
        assert read_nullspace(packed) == (want, False)
    else:
        assert packed.nullspace() == want


@pytest.mark.parametrize("last,rank", [(-498, MAX_RELATION_CANDIDATES),
                                       (-499, MAX_RELATION_CANDIDATES - 1)])
def test_packed_store_worst_carry(last, rank):
    # rows e_k - (e_(k+1) + ... + e_(n-1)), fed last first, are the packed
    # pivot rows 1, p-1, ..., p-1; the final row reads f = 1 at every
    # pivot, so each of its n - 1 reductions adds (p-1)^2 to every later
    # slot, and its last slot ends at last + 499 modulo p
    n = MAX_RELATION_CANDIDATES
    rows = [[0] * k + [1] + [-1] * (n - 1 - k) for k in reversed(range(n - 1))]
    rows.append([0 if c == 1 else 1 - c for c in range(n - 1)] + [last])
    exact, packed = both_kernels(n, rows)
    assert packed.rank == exact.rank == rank
    assert all(linalg._unpack(row, n - c, packed.slot) == [1] + [WORD_PRIME - 1] * (n - 1 - c)
               for c, row in packed.echelon)
    # at rank n - 1 the null vector has entries of 499 bits, lifted in full
    assert read_nullspace(packed) == (exact.integer_nullspace(), False)


@pytest.mark.parametrize("data,rows,null", [
    ([[Fraction(3, P), 1]], [[3, P]], [{0: -P, 1: 3}]),
    ([[Fraction(1, P), 1]], [[1, P]], [{0: -P, 1: 1}]),
    # [A | b] of the system A = (1/p, 1), b = 1
    ([[Fraction(1, P), 1, 1]], [[1, P, P]], [{0: -P, 1: 1}, {0: -P, 2: 1}]),
], ids=["3-over-p", "1-over-p", "1-over-p-with-b"])
def test_packed_store_lifts_rows_with_denominator_p(data, rows, null):
    # a row scaled by the lcm of its denominators has a residue modulo p
    # even when p divides that lcm: the integer row is kept and lifted
    elim = modular(data)
    assert elim.rows == rows
    assert read_nullspace(elim) == (null, False)
    assert integer_nullspace(len(rows[0]), sparse_rows(data)) == null


# -- dense rows, the packed certificate and integer null vectors --------------

def _feeds(cols, data):
    """The packed store fed the rows with every entry a Fraction, and fed
    them scaled to integers by the lcm of each row's denominators."""
    frac = PackedEliminator(cols)
    for row in data:
        frac.add_row([Fraction(v) for v in row])
    scaled = PackedEliminator(cols)
    for row in data:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        scaled.add_row([int(v * den) for v in row])
    return frac, scaled


def _same_feeds(cols, data):
    frac, scaled = _feeds(cols, data)
    assert frac.rows == scaled.rows
    assert all(type(v) is int for row in frac.rows for v in row)
    assert frac.rank == scaled.rank
    assert frac.echelon == scaled.echelon
    exact = integer_nullspace(cols, sparse_rows(data))
    # the same basis, by the same route
    got = read_nullspace(frac)
    assert got == read_nullspace(scaled) and got[0] == exact
    assert frac.kills(*exact) and scaled.kills(*exact)
    for vec in exact:
        assert frac.kills(vec) and scaled.kills(vec)
    # a vector off the nullspace fails on both, alone or among null vectors
    for j in range(cols):
        e = {j: Fraction(1, 3)}
        hit = any(row[j] for row in data)
        assert frac.kills(e) == scaled.kills(e) == (not hit)
        assert frac.kills(*exact, e) == scaled.kills(*exact, e) == (not hit)


def test_fraction_and_scaled_feeds_agree_on_the_naive_cases():
    for data, cols, _ in linalg_naive_cases():
        _same_feeds(cols, data)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_fraction_and_scaled_feeds_agree(system):
    data, cols, _ = system
    _same_feeds(cols, data)


@settings(max_examples=200, deadline=None)
@given(dense_systems())
def test_fraction_and_scaled_feeds_agree_on_dense_systems(system):
    cols, data = system
    _same_feeds(cols, data)


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
    canonical = nullspace_sparse(cols, sparse_rows(data))
    got = integer_nullspace(cols, sparse_rows(data))
    assert len(got) == len(canonical)
    for vec, want in zip(got, canonical):
        assert list(vec) == sorted(vec)
        assert all(type(v) is int and v for v in vec.values())
        den = math.lcm(*(v.denominator for v in want))
        assert vec == {j: int(v * den) for j, v in enumerate(want) if v}
        assert math.gcd(*vec.values()) == 1
        f = max(vec)
        assert want[f] == 1 and vec[f] > 0


# -- the lifted route against the exact kernel --------------------------------

lifted_entries = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-2**64, 2**64),
    st.fractions(-6, 6, max_denominator=5),
    # a denominator divisible by WORD_PRIME: the row scaled to integers
    # holds multiples of p
    st.builds(lambda a, b: Fraction(a, b * WORD_PRIME),
              st.integers(-9, 9).filter(bool), st.integers(1, 3)))


@st.composite
def lifted_systems(draw):
    """Rows mixed from a few base rows: several free columns, and idle rows
    fed after the rank is reached; Fraction entries among them."""
    cols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(lifted_entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                   max_size=len(base)), min_size=1, max_size=9))
    return cols, [[sum(m * r[j] for m, r in zip(mix, base)) for j in range(cols)]
                  for mix in mixes]


@settings(max_examples=300, deadline=None)
@given(lifted_systems())
@example((5, [[1, 2, 0, 3, 4], [2, 4, 0, 6, 8], [0, 0, 1, 5, Fraction(1, 3)]]))
@example((2, [[Fraction(1, WORD_PRIME), 1], [1, WORD_PRIME]]))
@example((2, [[3**50, 1], [3**50, 1 + WORD_PRIME]]))
def test_lifted_route_matches_the_exact_kernel(system):
    cols, data = system
    elim = PackedEliminator(cols)
    for row in data:
        elim.add_row(list(row))
    exact = integer_nullspace(cols, sparse_rows(data))
    assert elim.nullspace() == exact
    assert fractions(cols, exact) == nullspace_sparse(cols, sparse_rows(data))


def test_lifted_route_reads_several_free_columns_at_once(steps):
    # rank 3 over 8 columns with 40-bit entries: five free columns, every
    # vector from the same steps, the idle rows checked by kills
    rng = random.Random(11)
    base = [[rng.randrange(-2**40, 2**40) for _ in range(8)] for _ in range(3)]
    data = base + [[a + 2 * b - c for a, b, c in zip(*base)], base[0][:]]
    elim = PackedEliminator(8)
    for row in data:
        elim.add_row(row)
    assert len(elim.rows) == 5 and elim.rank == 3
    assert read_nullspace(elim) == (integer_nullspace(8, sparse_rows(data)), False)
    assert len(steps) == 1 and 1 < steps[0] < 10


def test_lifting_stops_at_the_step_cap(steps):
    # rank 2, but 1 modulo p: the lifted vector (-1, 3^50) is the rational
    # solution of the first row, never a null vector of the second, so
    # lifting runs to the cap, once, and the exact kernel answers.  The cap is
    # the first step with p^s > 2 H^2, H the Hadamard bound sqrt(2) * 3^50
    # of the one row that raised the rank, rounded up to whole bits.
    rows = [[3**50, 1], [3**50, 1 + WORD_PRIME]]
    elim = modular(rows)
    assert elim.rank == 1 and rank(rows) == 2
    assert read_nullspace(elim) == ([], True)
    assert integer_nullspace(2, sparse_rows(rows)) == []
    cap = steps[0]
    assert steps == [cap]
    assert WORD_PRIME**cap > 2 * 2 * 3**100 > WORD_PRIME**(cap - 2)
