import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from invforge import cli, hilbert, invariants
from invforge.derivations import (
    ResidualDenominatorError,
    apply_derivation,
    expand_u_to_x,
    reduced_operator,
)
from invforge.exponents import _compositions, grad, powers
from invforge.fixtures import fixture_root, load_generator_dir
from invforge.hilbert import MAX_CANDIDATES, candidate_count
from invforge.invariants import (
    _GENERATOR_TABLE,
    DegreeMismatchError,
    Generator,
    GeneratorSet,
    NonInvariantError,
    UnsupportedFormDegreeError,
    expand_candidate,
    invariant_basis,
    is_member,
    known_degree_table,
    mingenset,
    monomial_rows,
    verify_invariant_u,
    verify_invariant_x,
)
from invforge.linalg import Eliminator, PackedEliminator, nullspace_sparse, solve_affine_sparse
from invforge.rings import (
    ContextMismatchError,
    Polynomial,
    monomial_key,
    u_ring,
    weight_u,
    x_ring,
)
from invforge.syzygies import expand_in_generators
from invforge.textio import parse_poly

from properties import (
    apply_derivation_termwise,
    invariant_basis_direct,
    naive_nullspace,
    naive_solve_affine,
    normalize,
    normalize_reference,
    read_nullspace,
    span_equal,
)

U3, U4, U5 = u_ring(3), u_ring(4), u_ring(5)


def p(text, ctx):
    return parse_poly(text, ctx)


def test_basis_cubic_quartic():
    basis = invariant_basis(3, 4)
    assert len(basis) == 1
    assert basis[0] == p("4*x0*u2^3 + x0^2*u3^2", U3)


def test_basis_odd_product_empty():
    assert len(invariant_basis(5, 3)) == 0


def test_basis_quartic_degree_two():
    basis = invariant_basis(4, 2)
    assert len(basis) == 1
    assert basis[0] == p("x0*u4 + 3*u2^2", U4)


def test_basis_elements_verified():
    for n, d in [(2, 2), (3, 4), (4, 3), (5, 4), (5, 8)]:
        for el in invariant_basis(n, d):
            assert verify_invariant_u(n, el)
            assert verify_invariant_x(n, expand_u_to_x(el, n))


def test_direct_oracle_examples():
    basis = invariant_basis_direct(2, 2)
    assert len(basis) == 1
    assert basis[0] == p("x0*x2 - x1^2", x_ring(2))
    assert len(invariant_basis_direct(3, 2)) == 0
    basis = invariant_basis_direct(4, 3)
    assert len(basis) == 1
    f3 = p("u2^3 - x0*u2*u4 + x0*u3^2", U4)
    assert basis[0] == normalize(expand_u_to_x(f3, 4))


def test_membership_trivial_and_negative():
    gens5 = mingenset(5, 4, [4, 8, 12, 18])
    prefix = GeneratorSet(5, gens5.generators[:1])
    f4 = prefix[0].u_poly
    rep = is_member(prefix, f4 * f4)
    assert rep is not None
    assert expand_in_generators(prefix, rep) == f4 * f4
    f8 = gens5.generators[1].u_poly
    assert is_member(prefix, f8) is None


def test_membership_representation_example():
    gens = mingenset(4, 2, [2, 3])
    el = invariant_basis(4, 4)[0]
    rep = is_member(gens, el)
    assert rep is not None
    gctx = gens.gen_context()
    assert rep == p("f2^2", gctx)
    assert expand_in_generators(gens, rep) == el


def test_membership_rejects_bad_input():
    gens = mingenset(4, 2, [2, 3])
    with pytest.raises(ValueError):
        is_member(gens, Polynomial.zero(U4))
    with pytest.raises(ValueError):
        is_member(gens, p("u2 + u2^2", U4))


def test_membership_target_outside_the_sets_ring_raises():
    # as expand_in_generators does: a u5 or x4 target on the bundled n = 4
    # set is an error, not "not a member"
    gens = load_generator_dir(4, fixture_root() / "n4")
    u5_invariant = parse_poly((fixture_root() / "n5" / "f4.poly").read_text(), U5)
    with pytest.raises(ContextMismatchError):
        is_member(gens, u5_invariant)
    with pytest.raises(ContextMismatchError):
        is_member(gens, p("x0*x4 - 4*x1*x3 + 3*x2^2", x_ring(4)))
    assert is_member(gens, gens[0].u_poly) is not None


def test_mingenset_small_cases():
    g2 = mingenset(2, 1, [2])
    assert [(g.name, g.degree, g.weight) for g in g2] == [("f2", 2, 2)]
    assert g2[0].u_poly == p("x0*u2", u_ring(2))
    assert g2[0].x_poly == p("x0*x2 - x1^2", x_ring(2))

    g4 = mingenset(4, 2, [2, 3])
    assert g4.degrees() == (2, 3)
    assert g4[0].u_poly == p("x0*u4 + 3*u2^2", U4)
    assert g4[1].u_poly == normalize(p("u2^3 - x0*u2*u4 + x0*u3^2", U4))


def test_mingenset_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        mingenset(3, 1, [2])          # no quadratic invariant of the cubic
    with pytest.raises(DegreeMismatchError):
        mingenset(2, 2, [2, 2])       # only one quadratic generator exists
    with pytest.raises(DegreeMismatchError):
        mingenset(2, 1, [2, 4])       # count disagrees with the list


def test_mingenset_non_invariant_is_named_error(monkeypatch):
    monkeypatch.setattr(invariants, "verify_invariant_x", lambda n, f: False)
    with pytest.raises(NonInvariantError):
        mingenset(2, 1, [2])
    assert cli.main(["mingenset", "--n", "2"], out=io.StringIO()) == 3


def test_mingenset_minimality():
    gens = mingenset(4, 2, [2, 3])
    for i in range(len(gens)):
        others = GeneratorSet(4, tuple(g for j, g in enumerate(gens) if j != i))
        if len(others):
            assert is_member(others, gens[i].u_poly) is None


def test_mingenset_minimality_quintic(store):
    gens = store.get("mingenset5", lambda: mingenset(5, 4, [4, 8, 12, 18]))
    for i in range(len(gens)):
        others = GeneratorSet(5, tuple(g for j, g in enumerate(gens) if j != i))
        assert is_member(others, gens[i].u_poly) is None


def test_known_degree_table():
    assert known_degree_table(5) == (4, (4, 8, 12, 18))
    assert known_degree_table(8) == (9, (2, 3, 4, 5, 6, 7, 8, 9, 10))
    assert known_degree_table(2) == (1, (2,))
    with pytest.raises(UnsupportedFormDegreeError):
        known_degree_table(7)


def test_verify_invariant_examples():
    assert verify_invariant_x(2, p("x0*x2 - x1^2", x_ring(2)))
    assert not verify_invariant_x(3, p("x1", x_ring(3)))
    assert verify_invariant_x(4, p("5", x_ring(4)))
    assert verify_invariant_u(3, p("4*x0*u2^3 + x0^2*u3^2", U3))
    assert not verify_invariant_u(3, p("x0*u2^3", U3))
    assert not verify_invariant_u(4, p("x0^3", U4))


def test_determinism():
    a = mingenset(4, 2, [2, 3])
    b = mingenset(4, 2, [2, 3])
    assert a == b
    assert invariant_basis(5, 8) == invariant_basis(5, 8)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_equivalence_small(n):
    for d in range(1, 24 // n + 1):
        via_reduction = invariant_basis(n, d)
        direct = invariant_basis_direct(n, d)
        assert len(via_reduction) == len(direct)
        converted = [normalize(expand_u_to_x(f, n)) for f in via_reduction]
        assert span_equal(converted, list(direct), n)


def test_fixture_cross_membership_small():
    # bundled reference generators and computed generators span the same subring
    from invforge.fixtures import fixture_generator_set
    for n, counts in ((3, 1), (4, 2)):
        table = known_degree_table(n)
        computed = mingenset(n, *table)
        reference = fixture_generator_set(n)
        assert len(reference) == counts
        for g in reference:
            assert is_member(computed, g.u_poly) is not None
        for g in computed:
            assert is_member(reference, g.u_poly) is not None


def test_fixture_cross_membership_sextic(gens6):
    from invforge.fixtures import fixture_generator_set
    reference = fixture_generator_set(6)
    for g in reference:
        assert is_member(gens6, g.u_poly) is not None
    for g in gens6:
        assert is_member(reference, g.u_poly) is not None


def test_context_construction_rejects_small_n():
    with pytest.raises(ValueError):
        u_ring(1)
    with pytest.raises(ValueError):
        x_ring(0)


def test_monomial_rows_descending():
    # one column whose coefficient names its monomial, so every row says
    # which monomial it belongs to.  Rows come by x0 exponent first,
    # descending, ties in descending canonical order
    monos = [e for d in (3, 4, 5, 6) for e in _compositions(U5.slot_degrees, U5.slot_weights, d)]
    random.Random(5).shuffle(monos)
    col = Polynomial(U5, {e: k + 1 for k, e in enumerate(monos)})
    rows = monomial_rows(U5, [col, col.scale(2)])
    assert len(rows) == len(monos)
    order = [monos[row[0] - 1] for row in rows]
    assert order == sorted(monos, key=lambda e: (e[0], monomial_key(U5, e)),
                           reverse=True)
    assert all(row[1] == 2 * row[0] for row in rows)
    # the order is not the canonical one: x0^3 comes before u5^4
    col = Polynomial(U5, {(3, 0, 0, 0, 0): 1, (0, 0, 0, 0, 4): 2})
    assert monomial_rows(U5, [col]) == [{0: 1}, {0: 2}]


def test_basis_rows_match_the_termwise_assembly():
    # invariant_basis files packed keys; the reference files every
    # candidate's termwise image through monomial_rows
    cases = [(n, d) for n in range(2, 9) for d in range(1, 7)]
    cases += [(5, 12), (6, 10), (8, 8), (2, 600)]
    for n, d in cases:
        ctx, op = u_ring(n), reduced_operator(n)
        candidates = powers(n, d)
        reference = monomial_rows(ctx, (
            apply_derivation_termwise(op, Polynomial.monomial(ctx, e))
            for e in candidates))
        assert invariants._basis_rows(n, d, candidates) == reference, (n, d)


def _basis_system(n, d):
    ctx, op = u_ring(n), reduced_operator(n)
    candidates = powers(n, d)
    return len(candidates), monomial_rows(
        ctx, (apply_derivation(op, Polynomial.monomial(ctx, e)) for e in candidates))


def test_normalize_nullspace_vectors():
    # the combinations nullspace_polynomials normalizes: Fraction
    # coefficients, here with denominator 1, and rescaled by -2/3 so that
    # some have denominator 3
    ncols, rows = _basis_system(5, 12)
    candidates = powers(5, 12)
    raw = [Polynomial(U5, {candidates[j]: v for j, v in enumerate(vec) if v})
           for vec in nullspace_sparse(ncols, rows)]
    assert all(type(c) is Fraction for f in raw for c in f.terms.values())
    for f in raw + [f.scale(Fraction(-2, 3)) for f in raw]:
        got = normalize(f)
        assert got == normalize_reference(f)
        assert all(type(c) is int for c in got.terms.values())
    assert [normalize(f) for f in raw] == list(invariant_basis(5, 12))


@pytest.mark.parametrize("n,degrees", [
    (2, (2, 4, 40)), (3, (4, 8, 12)), (4, (2, 3, 6, 12)), (5, (4, 8, 12, 18, 24)),
    (6, (2, 6, 10, 15)), (8, (2, 5, 8, 10))])
def test_integer_null_vectors_are_the_normalized_invariants(n, degrees):
    # read off the integer pivot rows, each invariant is term for term, in
    # the same order and with int coefficients, what normalizing the
    # canonical Fraction vector gives
    ctx = u_ring(n)
    for d in degrees:
        candidates = powers(n, d)
        ncols, rows = len(candidates), invariants._basis_rows(n, d, candidates)
        want = [normalize(Polynomial(ctx, {candidates[j]: v for j, v in enumerate(vec) if v}))
                for vec in nullspace_sparse(ncols, rows)]
        got = list(invariant_basis(n, d))
        assert [list(f.terms.items()) for f in got] == [list(f.terms.items()) for f in want]
        assert all(type(c) is int for f in got for c in f.terms.values())
        assert all(normalize(f).terms == f.terms for f in got)


def _member_system(gens, f):
    target = (sum(next(iter(f.terms))), weight_u(f))
    candidates = grad(gens.profile(), target)
    powers = {}
    columns = [expand_candidate(gens, e, powers) for e in candidates] + [f]
    return len(candidates), monomial_rows(u_ring(gens.n), columns)


def test_membership_checks_the_rows_after_full_rank():
    # the product columns reach full rank before the last row, the row of
    # the least degree-d monomial; only the exact check of the rows left
    # after full rank sees a change there
    n, d = 6, 12
    gens = load_generator_dir(n, fixture_root() / f"n{n}")
    f = invariant_basis(n, d)[-1]
    ctx = u_ring(n)
    last = min(powers(n, d), key=lambda e: (e[0], monomial_key(ctx, e)))
    assert last in f.terms
    ncols, rows = _member_system(gens, f)
    elim = Eliminator(ncols + 1).add_rows(rows[:-1])
    assert elim.rank == ncols and ncols not in elim.pivots
    assert is_member(gens, f) is not None
    assert is_member(gens, f + Polynomial.monomial(ctx, last).scale(Fraction(1, 5))) is None


def test_membership_eliminates_a_fraction_of_its_rows(monkeypatch):
    # every membership system of the octavic walk reaches full column rank
    # early, so most of its rows take a dot product, not an elimination
    fed, built, eliminated = [0], [], []
    add_row, solve = Eliminator.add_row, invariants.solve_affine_sparse

    def counting(self, row):
        fed[0] += 1
        add_row(self, row)

    def spy(ncols, rows):
        start = fed[0]
        sol = solve(ncols, rows)
        built.append(len(rows))
        eliminated.append(fed[0] - start)
        return sol

    monkeypatch.setattr(Eliminator, "add_row", counting)
    monkeypatch.setattr(invariants, "solve_affine_sparse", spy)
    mingenset(8, *known_degree_table(8))
    assert built and 3 * sum(eliminated) < sum(built)


def test_row_order_does_not_change_solutions():
    # monomial_rows gives the fast order; the reduced echelon form is unique,
    # so the exact kernel on its rows agrees with a route on the reversed
    # rows that shares none of its code: the textbook oracle up to
    # NAIVE_DEGREE[n], and the packed modular store, whose certificate must
    # hold, above it
    for n, degrees in ((5, range(2, 25, 2)), (6, range(2, 16))):
        gens = load_generator_dir(n, fixture_root() / f"n{n}")
        for d in degrees:
            naive = d <= NAIVE_DEGREE[n]
            ncols, rows = _basis_system(n, d)
            if naive:
                want = naive_nullspace(_dense(ncols, rows[::-1]), ncols)
            else:
                want = _packed_nullspace(ncols, rows[::-1])
            assert nullspace_sparse(ncols, rows) == want
            if d < min(gens.degrees()):
                continue
            # basis elements are members; a lone candidate monomial is not
            targets = list(invariant_basis(n, d)) + [
                Polynomial.monomial(u_ring(n), powers(n, d)[0])]
            for f in targets:
                ncols, rows = _member_system(gens, f)
                if naive:
                    dense = _dense(ncols + 1, rows[::-1])
                    want = naive_solve_affine([r[:-1] for r in dense],
                                              [r[-1] for r in dense], ncols)
                else:
                    want = _packed_solve_affine(ncols, rows[::-1])
                assert solve_affine_sparse(ncols, rows) == want
            assert solve_affine_sparse(ncols, rows) is None


# the naive oracle's reach: systems of at most 40 candidate columns
NAIVE_DEGREE = {5: 10, 6: 7}


def _packed_nullspace(ncols, rows):
    """The lifted route's basis, each vector divided by its entry on its
    free column, its last."""
    basis, exact = read_nullspace(PackedEliminator(ncols).add_rows(_dense(ncols, rows)))
    assert not exact
    return [[Fraction(vec.get(j, 0), vec[max(vec)]) for j in range(ncols)]
            for vec in basis]


def _packed_solve_affine(ncols, rows):
    """The solution of A x = b with free variables 0, read off the canonical
    null vector of [A | b] for b's column when that column is free: the
    vector is 1 there, 0 on every other free column and -x on the pivots."""
    basis = _packed_nullspace(ncols + 1, rows)
    if not basis or not basis[-1][ncols]:
        return None
    return [-v for v in basis[-1][:ncols]]


def _dense(ncols, rows):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def test_candidate_limit_covers_every_case_in_use():
    # mingenset asks for bases and membership at every degree up to the
    # largest table degree (the scripts and the generators benchmark); the
    # oracle tests go up to d = 24 // n, the Hilbert test to (5, 12) and the
    # query benchmark to (8, 6)
    cases = {(n, d) for n, (_, degs) in _GENERATOR_TABLE.items()
             for d in range(1, max(degs) + 1)}
    cases |= {(n, d) for n in range(2, 9) for d in range(1, 24 // n + 1)}
    # membership targets of the CLI tests and of the query benchmark
    cases |= {(5, 8), (5, 18), (8, 8), (4, 6), (4, 12), (5, 12), (6, 6),
              (6, 8), (8, 4), (8, 6)}
    largest = max(cases, key=lambda c: candidate_count(*c))
    assert largest == (8, 10) and candidate_count(8, 10) == 641
    assert candidate_count(8, 10) <= MAX_CANDIDATES < candidate_count(12, 40)


def test_oversized_request_is_refused_before_enumeration(monkeypatch):
    def enumerate_nothing(n, d):
        raise AssertionError("enumerated an oversized request")
    monkeypatch.setattr(invariants, "powers", enumerate_nothing)
    with pytest.raises(ValueError, match=r"degree 40 for n=12 need 384781134 "):
        invariant_basis(12, 40)


def test_oversized_membership_is_refused_before_enumeration(monkeypatch):
    def enumerate_nothing(profile, target):
        raise AssertionError("enumerated an oversized request")
    monkeypatch.setattr(invariants, "grad", enumerate_nothing)
    gens = load_generator_dir(8, fixture_root() / "n8")
    with pytest.raises(ValueError, match=r"degree 60 for n=8 need 5785827 "):
        is_member(gens, p("x0^30*u8^30", u_ring(8)))


def test_oversized_form_degree_is_refused_before_counting(monkeypatch):
    def count_nothing(n, d):
        raise AssertionError("counted candidates of an oversized form degree")
    monkeypatch.setattr(hilbert, "candidate_count", count_nothing)
    with pytest.raises(ValueError, match="form degree 990 is above the limit of 64"):
        invariant_basis(990, 2)


def test_generator_names_are_distinct_identifiers_in_order():
    names = [invariants._generator_name(14, k) for k in range(80)]
    assert names[:10] == ["f14"] + [f"f14{c}" for c in "bcdefghij"]
    assert names[25:27] == ["f14z", "f14zb"]
    assert names == sorted(set(names))
    assert all(name.isidentifier() and not name.endswith("_x") for name in names)


# the cubic's discriminant plus the discriminant divided by x0: the reduced
# operator kills both summands, which have one weight but two degrees
DISC = "x0^2*u3^2 + 4*x0*u2^3"
DISC_PLUS_DISC_OVER_X0 = DISC + " + x0*u3^2 + 4*u2^3"


def test_generator_reads_its_degree_and_weight():
    disc = p(DISC, U3)
    g = Generator("f4", disc, expand_u_to_x(disc, 3))
    assert (g.degree, g.weight) == (4, 6)
    g = Generator("f2", p("x0*u2", u_ring(2)))
    assert (g.degree, g.weight, g.x_poly) == (2, 2, None)


@pytest.mark.parametrize("text", [
    "0",                     # zero
    "5",                     # constant
    DISC_PLUS_DISC_OVER_X0,  # not homogeneous
    "u2",                    # degree 1, weight 2: not balanced
    "x0*u2^3",               # balanced, not killed
])
def test_generator_refuses_a_u_form_that_is_no_invariant(text):
    with pytest.raises(NonInvariantError):
        Generator("g4", p(text, U3))


def test_generator_refuses_an_x_form_that_is_no_invariant():
    disc = p(DISC, U3)
    x_form = expand_u_to_x(disc, 3)
    with pytest.raises(NonInvariantError):
        Generator("g4", x_form)  # an x-form is no u-form
    for bad in (x_form + p("x0^4", x_ring(3)), Polynomial.zero(x_ring(3)), disc):
        with pytest.raises(NonInvariantError):
            Generator("g4", disc, bad)


def test_a_set_refuses_a_generator_of_another_form_degree():
    with pytest.raises(ContextMismatchError):
        GeneratorSet(4, (Generator("f4", p(DISC, U3)),))


def test_mingenset_verifies_each_new_generator_once(monkeypatch):
    calls = {"u": [], "x": []}
    for coords, seen in calls.items():
        name = f"verify_invariant_{coords}"
        verify = getattr(invariants, name)
        monkeypatch.setattr(invariants, name,
                            lambda n, f, verify=verify, seen=seen: seen.append(f) or verify(n, f))
    gens = mingenset(5, 3, [4, 8, 12])
    assert calls == {"u": [g.u_poly for g in gens], "x": [g.x_poly for g in gens]}


_SMALL_BASES = {(n, d): invariant_basis(n, d)
                for n in (2, 3, 4, 5, 6, 8) for d in range(1, 5)}


@st.composite
def basis_combinations(draw):
    """(n, f): f a combination of degree-d basis invariants, plus, maybe, a
    basis element divided by x0 or a u-monomial of degree d."""
    n, d = draw(st.sampled_from(sorted(k for k, basis in _SMALL_BASES.items() if basis)))
    basis = _SMALL_BASES[n, d]
    coefficients = st.integers(-3, 3)
    f = Polynomial.zero(u_ring(n))
    for el in basis:
        f = f + el.scale(draw(coefficients))
    extra = draw(st.sampled_from(["none", "over_x0", "monomial"]))
    if extra == "over_x0":
        el = draw(st.sampled_from(basis))
        if all(e[0] for e in el.terms):
            f = f + Polynomial(el.context, {(e[0] - 1,) + e[1:]: c
                                            for e, c in el.terms.items()})
    elif extra == "monomial":
        e = draw(st.sampled_from(powers(n, d)))
        f = f + Polynomial.monomial(u_ring(n), e).scale(draw(coefficients))
    return n, f


@settings(max_examples=120, deadline=None)
@given(basis_combinations())
@example((3, p(DISC_PLUS_DISC_OVER_X0, U3)))
def test_u_verifier_agrees_with_the_x_route(case):
    # a u-form is an invariant exactly when it is homogeneous and its
    # x-form is a polynomial that both derivations kill
    n, f = case
    assume(not f.is_zero())
    try:
        x_form = expand_u_to_x(f, n)
    except ResidualDenominatorError:
        x_form = None
    homogeneous = len({sum(e) for e in f.terms}) == 1
    assert verify_invariant_u(n, f) == (
        homogeneous and x_form is not None and verify_invariant_x(n, x_form))
