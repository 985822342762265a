from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invforge import hilbert, invariants, linalg, syzygies
from invforge.exponents import powers2
from invforge.hilbert import generator_monomial_count, invariant_dimension
from invforge.fixtures import fixture_generator_set, fixture_root, load_generator_dir
from invforge.invariants import Generator, GeneratorSet, mingenset
from invforge.invariants import DimensionMismatchError
from invforge.rings import Polynomial, gen_ring, u_ring
from invforge.syzygies import (
    check_syzygy,
    expand_in_generators,
    minimal_syzygies,
    syzygy_basis,
)
from invforge.textio import format_poly, parse_poly

from properties import (
    certified_rows_termwise,
    evaluate_termwise,
    line_slot_termwise,
    minimal_syzygies_reference,
    monomial_value_termwise,
    normalize,
    read_nullspace,
    syzygy_basis_by_expansion,
)

REFERENCE_RELATION_5 = (
    "1296*f18^2 + 48*f12^3 - f4^5*f8^2 + 6*f4^3*f8^3 - 9*f4*f8^4"
    " + 2*f4^4*f8*f12 + 18*f4^2*f8^2*f12 - 72*f8^3*f12 - f4^3*f12^2"
    " - 72*f4*f8*f12^2"
)


@pytest.fixture(scope="module")
def ref5():
    return fixture_generator_set(5)


@pytest.fixture
def expansions(monkeypatch):
    """Count the calls that take the expansion route."""
    calls = []
    expand = syzygies._expansion_rows

    def spy(gens, candidates):
        calls.append(len(candidates))
        return expand(gens, candidates)

    monkeypatch.setattr(syzygies, "_expansion_rows", spy)
    return calls


@pytest.fixture
def verifications(monkeypatch):
    """Record the polynomials passed to verify_invariant_u, from any module."""
    calls = []
    verify = invariants.verify_invariant_u

    def spy(n, f):
        calls.append(f)
        return verify(n, f)

    for module in (invariants, syzygies):
        if getattr(module, "verify_invariant_u", None) is verify:
            monkeypatch.setattr(module, "verify_invariant_u", spy)
    return calls


def test_expand_single_symbol():
    gens = mingenset(4, 2, [2, 3])
    gctx = gens.gen_context()
    f2 = parse_poly("f2", gctx)
    assert expand_in_generators(gens, f2) == gens[0].u_poly
    assert expand_in_generators(gens, Polynomial.zero(gctx)).is_zero()
    ring_identity = parse_poly("f2^2", gctx) - f2 * f2
    assert expand_in_generators(gens, ring_identity).is_zero()


def test_single_generator_has_no_relations():
    gens = mingenset(2, 1, [2])
    for d in range(2, 21, 2):
        assert syzygy_basis(gens, d) == []


def test_empty_candidate_set():
    gens = mingenset(2, 1, [2])
    assert syzygy_basis(gens, 3) == []


def test_quintic_relation_on_reference_generators(ref5):
    basis = syzygy_basis(ref5, 36)
    assert len(basis) == 1
    rel = parse_poly(REFERENCE_RELATION_5, ref5.gen_context())
    assert check_syzygy(ref5, rel)
    assert basis[0].relation == normalize(rel)
    assert basis[0].degree == 36


def test_perturbed_relation_fails(ref5):
    bad = REFERENCE_RELATION_5.replace("1296*", "1297*")
    rel = parse_poly(bad, ref5.gen_context())
    assert not check_syzygy(ref5, rel)


def bundled(n):
    folder = fixture_root() / f"n{n}"
    gens = load_generator_dir(n, folder)
    body = (folder / "syzygy-1.gen").read_text().strip()
    return gens, parse_poly(body, gens.gen_context())


def test_one_line_plan_per_generator_set(monkeypatch):
    # every syzygy call on one set reads the evaluation it built first
    built = []
    line_plan = syzygies._LinePlan

    def spy(polys, slots, slot):
        built.append(len(polys))
        return line_plan(polys, slots, slot)

    monkeypatch.setattr(syzygies, "_LinePlan", spy)
    gens, rel = bundled(6)
    assert minimal_syzygies(gens, [30])
    assert syzygy_basis(gens, 32)
    assert check_syzygy(gens, rel)
    assert minimal_syzygies(gens, [15, 30])
    assert built == [len(gens)]
    assert check_syzygy(bundled(6)[0], rel)
    assert built == [len(gens)] * 2


def test_warm_set_answers_as_a_cold_one():
    # a fresh set draws the lines that an earlier call drew on a warm one,
    # and the relations read from them print the same
    warm, _ = bundled(8)
    minimal_syzygies(warm, [24])
    lines = list(warm.evaluation.lines)
    cold, _ = bundled(8)
    want = [format_poly(s.relation) for s in minimal_syzygies(cold, range(1, 25))]
    assert cold.evaluation.lines == lines
    assert [format_poly(s.relation) for s in minimal_syzygies(warm, range(1, 25))] == want
    assert len(want) == 5


def test_new_sets_start_cold():
    gens, _ = bundled(5)
    syzygy_basis(gens, 36)
    assert "evaluation" in vars(gens)
    assert "evaluation" not in vars(bundled(5)[0])
    grown = gens.with_generator(gens[0])
    assert "evaluation" not in vars(grown) and "verified" not in vars(grown)


def test_warm_set_compares_hashes_and_prints_as_a_cold_one():
    warm, cold = bundled(5)[0], bundled(5)[0]
    text = repr(cold)
    syzygy_basis(warm, 36)
    assert "evaluation" in vars(warm)
    assert warm == cold and repr(warm) == text
    # generators hold polynomials, so neither set hashes
    for gens in (warm, cold):
        with pytest.raises(TypeError, match="unhashable"):
            hash(gens)


def test_one_generator_context_per_set():
    gens, rel = bundled(5)
    ctx = gens.gen_context()
    assert gens.gen_context() is ctx
    assert ctx == gen_ring((g.name, g.degree, g.weight) for g in gens)
    assert rel.context is ctx
    assert all(s.relation.context is ctx for s in minimal_syzygies(gens, [36, 40]))
    assert bundled(5)[0].gen_context() is not ctx


@pytest.mark.parametrize("n", [6, 8])
def test_perturbed_bundled_relation_fails(n, expansions):
    gens, rel = bundled(n)
    e, c = next(iter(rel.terms.items()))
    bad = Polynomial(rel.context, {**rel.terms, e: c + 1})
    assert check_syzygy(gens, rel)
    assert not check_syzygy(gens, bad)
    assert not expansions


# degrees whose minimality filter has products of lower relations to drop
FILTER_DEGREES = {5: [36, 40], 6: [30, 32, 34], 8: [16]}


@pytest.mark.parametrize("n,d", [(6, 30), (8, 16), (5, 36)])
def test_exact_rows_fallback(n, d, expansions, monkeypatch):
    # the evaluation bases answer the same from the kept rows eliminated
    # exactly, when lifting yields no step at all
    gens, _ = bundled(n)
    want = syzygy_basis(gens, d), minimal_syzygies(gens, FILTER_DEGREES[n])
    refused = []

    def refuse(self, free):
        refused.append(self.ncols)
        return iter(())

    monkeypatch.setattr(linalg.PackedEliminator, "_lift", refuse)
    assert (syzygy_basis(gens, d), minimal_syzygies(gens, FILTER_DEGREES[n])) == want
    assert not expansions
    # every certified basis, one per degree, went through the patched
    # lifting; the minimality filter has none
    assert len(refused) == 1 + len(FILTER_DEGREES[n])


def test_certified_bases_build_no_exact_eliminator(ref5, monkeypatch):
    # an evaluation system builds an exact Eliminator only when its
    # certificate fails; the minimality filter builds, per degree with a
    # basis of k relations, one k-column system per generator and one
    # pivot system over the consequence vectors and the k unit vectors
    built = []
    init = linalg.Eliminator.__init__

    def spy(self, ncols):
        built.append(ncols)
        init(self, ncols)

    monkeypatch.setattr(linalg.Eliminator, "__init__", spy)
    assert [s.degree for s in minimal_syzygies(ref5, [36, 40])] == [36]
    # d = 36: no consequence; d = 40: one, f4 times the degree-36 relation
    assert built == [1] * 4 + [1] + [1] * 4 + [2]
    # with lifting refused, each basis is one more exact system over its
    # candidates, built before its filter
    built.clear()
    monkeypatch.setattr(linalg.PackedEliminator, "_lift", lambda self, free: iter(()))
    assert [s.degree for s in minimal_syzygies(ref5, [36, 40])] == [36]
    count = [len(powers2(ref5.degrees(), d)) for d in (36, 40)]
    assert built == [count[0]] + [1] * 5 + [count[1]] + [1] * 4 + [2]


def test_minimal_syzygies_quintic(ref5):
    got = minimal_syzygies(ref5, [36])
    assert len(got) == 1
    assert check_syzygy(ref5, got[0].relation)


def test_zero_relation_checks():
    gens = mingenset(4, 2, [2, 3])
    assert check_syzygy(gens, Polynomial.zero(gens.gen_context()))


def test_every_returned_relation_expands_to_zero(ref5):
    for d in (24, 28, 36):
        for syz in syzygy_basis(ref5, d):
            assert expand_in_generators(ref5, syz.relation).is_zero()


def test_candidate_expansions_are_graded(ref5):
    # every candidate product is homogeneous of the relation degree with
    # the balanced weight
    from invforge.exponents import powers2
    from invforge.invariants import expand_candidate
    from invforge.rings import weight_u
    powers = {}
    for exps in powers2(ref5.degrees(), 36):
        exp = expand_candidate(ref5, exps, powers)
        assert {sum(e) for e in exp.terms} == {36}
        assert weight_u(exp) == 5 * 36 // 2


def test_minimality_filter_removes_consequences(ref5):
    # degree 40 contains f4 * (the degree-36 relation); nothing new is minimal
    first = minimal_syzygies(ref5, [36, 40])
    assert [s.degree for s in first] == [36]
    basis40 = syzygy_basis(ref5, 40)
    assert len(basis40) == 1
    # quotient correctness: that basis element is a generator-monomial multiple
    gctx = ref5.gen_context()
    f4 = parse_poly("f4", gctx)
    assert basis40[0].relation == normalize(f4 * first[0].relation)


@pytest.mark.parametrize("n,degrees", [
    (5, (24, 28, 36, 40)),
    (6, (30,)),
    pytest.param(8, (16,), marks=pytest.mark.slow),
])
def test_evaluation_matches_expansion(n, degrees, expansions):
    gens = load_generator_dir(n, fixture_root() / f"n{n}")
    for d in degrees:
        got = syzygy_basis(gens, d)
        assert not expansions
        assert got == syzygy_basis_by_expansion(gens, d)
        expansions.clear()


def test_no_fallback_without_f18(ref5, expansions):
    # f18^2 lies in k[f4, f8, f12] by the degree-36 relation itself, so the
    # smaller set still spans the degree-36 invariants and is certified
    gens = GeneratorSet(5, tuple(g for g in ref5 if g.name != "f18"))
    assert syzygy_basis(gens, 36) == []
    assert not expansions
    assert syzygy_basis_by_expansion(gens, 36) == []


@pytest.mark.parametrize("d", [16, 36])
def test_fallback_when_generators_do_not_span(ref5, expansions, d):
    # with f8 replaced by f4^2 the evaluation rank stalls below the count
    f4 = ref5[0]
    g8 = Generator("g8", 8, 20, f4.u_poly * f4.u_poly, None)
    gens = GeneratorSet(5, tuple(g8 if g.name == "f8" else g for g in ref5))
    got = syzygy_basis(gens, d)
    assert expansions
    assert got == syzygy_basis_by_expansion(gens, d)
    assert len(got) > 1
    for syz in got:
        assert expand_in_generators(gens, syz.relation).is_zero()


def test_fallback_with_too_few_candidates(ref5, expansions):
    # without f8 there are 2 generator monomials of degree 16 and 4 invariants
    gens = GeneratorSet(5, tuple(g for g in ref5 if g.name != "f8"))
    assert syzygy_basis(gens, 16) == syzygy_basis_by_expansion(gens, 16) == []
    assert expansions


def test_fallback_when_a_generator_is_not_invariant(expansions):
    # g2 and h4 are no invariants, so the Cayley-Sylvester count (1 in degree
    # 4) bounds nothing: evaluation alone would stop at rank 1 and report
    # three relations where the only one is f2*g2 = h4
    ctx = u_ring(2)
    gens = GeneratorSet(2, tuple(
        Generator(name, deg, deg, Polynomial.monomial(ctx, e), None)
        for name, deg, e in (("f2", 2, (1, 1)), ("g2", 2, (2, 0)),
                             ("h4", 4, (3, 1)))))
    got = syzygy_basis(gens, 4)
    assert expansions
    want = normalize(parse_poly("f2*g2 - h4", gens.gen_context()))
    assert got == syzygy_basis_by_expansion(gens, 4) == [syzygies.Syzygy(want, 4)]
    assert check_syzygy(gens, want)
    assert not check_syzygy(gens, parse_poly("f2^2 - h4", gens.gen_context()))
    # Rel_6 = {f2*r, g2*r}, r = f2*g2 - h4: the null space for f2 has
    # dimension 1 while count(4) - dim I_4 = 3.  No generator count bounds
    # a set that is not verified, so the filter must not raise on it.
    assert not gens.verified
    assert minimal_syzygies(gens, [4, 6]) == [syzygies.Syzygy(want, 4)]


def test_mixed_degree_relation_checks_every_component(ref5):
    gctx = ref5.gen_context()
    rel = parse_poly(REFERENCE_RELATION_5, gctx)
    f4 = parse_poly("f4", gctx)
    assert check_syzygy(ref5, rel + f4 * rel)
    assert not check_syzygy(ref5, rel + f4)
    assert not check_syzygy(ref5, rel + f4 * f4 * f4)


def test_loaded_set_is_not_verified_again(verifications):
    gens, rel = bundled(6)
    verifications.clear()
    assert len(minimal_syzygies(gens, [30])) == 1
    assert check_syzygy(gens, rel)
    assert verifications == []


def test_hand_built_set_is_verified_once(ref5, verifications):
    gens = GeneratorSet(5, ref5.generators)
    rel = parse_poly(REFERENCE_RELATION_5, gens.gen_context())
    assert syzygy_basis(gens, 24) == []
    assert len(syzygy_basis(gens, 36)) == 1
    assert check_syzygy(gens, rel)
    assert verifications == [g.u_poly for g in gens]


@st.composite
def u_polynomial_sets(draw):
    """(slot count, polynomials over u_ring(n), point) for n = 2..6 and 8."""
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 8]))
    slots = u_ring(n).slot_count
    exponents = st.tuples(*[st.integers(0, 4)] * slots)
    coefficients = st.integers(-9, 9).filter(bool) | st.fractions(
        min_value=-5, max_value=5, max_denominator=4).filter(bool)
    term_dicts = st.one_of(
        st.builds(lambda c: {(0,) * slots: c}, coefficients),       # constant
        st.dictionaries(exponents, coefficients, min_size=1, max_size=1),
        st.dictionaries(exponents, coefficients, min_size=1, max_size=12))
    polys = [Polynomial(u_ring(n), terms).terms
             for terms in draw(st.lists(term_dicts, min_size=1, max_size=4))]
    point = draw(st.lists(st.integers(-4, 4), min_size=slots, max_size=slots))
    return slots, polys, point


def _plan_values(polys, slots, point, slot):
    """Values of the term dicts at point, from the line through it on slot."""
    coeffs = syzygies._LinePlan(polys, slots, slot).coefficients(point)
    return [syzygies._horner(c, point[slot]) for c in coeffs]


@settings(max_examples=200, deadline=None)
@given(u_polynomial_sets())
@example((2, [{(0, 0): 3}, {(2, 1): -1, (1, 0): 2}], [0, 0]))
@example((3, [{(1, 2, 0): 5, (0, 0, 4): -1}], [-3, 0, -1]))
def test_plan_matches_termwise_evaluation(case):
    slots, polys, point = case
    want = [evaluate_termwise(terms, point) for terms in polys]
    for slot in range(slots):
        assert _plan_values(polys, slots, point, slot) == want


def test_plan_on_single_slot_and_zero_point():
    # one generator slot, the line's: no head and no tail slot is left
    polys = [{(3,): 1}, {(0,): Fraction(1, 2)}]
    assert syzygies._LinePlan(polys, 1, 0).coefficients([7]) == [
        [0, 0, 0, 1], [Fraction(1, 2)]]
    assert _plan_values(polys, 1, [-2], 0) == [-8, Fraction(1, 2)]
    assert _plan_values(polys, 1, [0], 0) == [0, Fraction(1, 2)]


@settings(max_examples=200, deadline=None)
@given(u_polynomial_sets(), st.integers(0, 7), st.integers(-4, 4))
# a Fraction coefficient at t = 0, on a slot that no term uses
@example((3, [{(0, 2, 1): Fraction(1, 2), (0, 0, 3): -4}], [2, -1, 3]), 0, 0)
@example((2, [{(0, 0): 3}, {(2, 1): Fraction(-2, 3), (1, 0): 2}], [1, -3]), 1, -2)
# one generator slot, the line's: no head and no tail slot is left
@example((1, [{(3,): 1}, {(0,): Fraction(1, 2)}], [5]), 0, -2)
@example((1, [{(3,): 1}, {(0,): Fraction(1, 2)}], [5]), 0, 0)
# the zero point, and a zero base off the line
@example((2, [{(0, 0): 3}, {(2, 1): -1, (1, 0): 2}], [0, 0]), 0, 0)
@example((3, [{(1, 2, 0): 5, (0, 0, 4): -1}], [-3, 0, -1]), 2, 0)
def test_line_values_match_termwise_evaluation(case, slot, t):
    slots, polys, base = case
    slot %= slots
    coeffs = syzygies._LinePlan(polys, slots, slot).coefficients(base)
    point = base[:slot] + [t] + base[slot + 1:]
    assert [syzygies._horner(c, t) for c in coeffs] == [
        evaluate_termwise(terms, point) for terms in polys]


@pytest.mark.parametrize("n,d", [(5, 36), (6, 30), (8, 16)])
def test_certified_rows_match_termwise_reference(n, d):
    gens, _ = bundled(n)
    candidates = powers2(gens.degrees(), d)
    system = syzygies._certified_system(gens, d, candidates)
    assert system is not None
    assert system.rows == certified_rows_termwise(
        gens, d, candidates, syzygies.POINT_RANGE, syzygies.IDLE_POINTS)
    # each line gives several rows from one plan evaluation
    assert 2 * len(gens.evaluation.lines) <= len(system.rows)
    assert gens.evaluation.plan.slot == line_slot_termwise(gens)


@pytest.mark.parametrize("n,degrees", [(6, [10, 15, 29]), (8, [12, 15])])
def test_full_rank_certified_system_has_no_back_substitution(n, degrees, monkeypatch):
    # degrees below the first relation: the certified system reaches rank
    # ncols, so its nullspace is [] with no lifting and no exact fallback
    def refuse(*args):
        raise AssertionError("not reached")

    monkeypatch.setattr(linalg.PackedEliminator, "_lift", refuse)
    monkeypatch.setattr(linalg.Eliminator, "__init__", refuse)
    gens, _ = bundled(n)
    for d in degrees:
        candidates = powers2(gens.degrees(), d)
        system = syzygies._certified_system(gens, d, candidates)
        assert system.rank == system.ncols == len(candidates)
        assert system.nullspace() == []
    assert syzygy_basis(gens, degrees[-1]) == []


def test_check_systems_run_on_the_word_prime(expansions, monkeypatch):
    # every dense evaluation system, read through kills alone or through
    # its lifted nullspace, takes the packed store, modulo WORD_PRIME; the
    # sparse systems take the exact kernel, with no modular step
    built = []
    init = linalg.PackedEliminator.__init__
    exact_init = linalg.Eliminator.__init__

    def spy(self, ncols):
        built.append("packed")
        init(self, ncols)

    def exact_spy(self, ncols):
        built.append("exact")
        exact_init(self, ncols)

    monkeypatch.setattr(linalg.PackedEliminator, "__init__", spy)
    monkeypatch.setattr(linalg.Eliminator, "__init__", exact_spy)
    gens, rel = bundled(8)
    e, c = next(iter(rel.terms.items()))
    bad = Polynomial(rel.context, {**rel.terms, e: c + 1})
    assert check_syzygy(gens, rel)
    assert not check_syzygy(gens, bad)
    assert built == ["packed"] * 2
    built.clear()
    system = syzygies._certified_system(gens, 16, powers2(gens.degrees(), 16))
    assert system.slot == (2 * 30 + (system.ncols + 1).bit_length() + 7) // 8
    assert len(syzygy_basis(gens, 16)) == 1
    assert built == ["packed"] * 2
    assert not expansions
    built.clear()
    assert linalg.nullspace_sparse(2, [{0: 1, 1: -1}]) == [[Fraction(1), Fraction(1)]]
    assert linalg.solve_affine_sparse(1, [{0: 2, 1: 6}]) == [Fraction(3)]
    assert built == ["exact"] * 2


def test_expansion_sums_in_one_dict(ref5, polynomial_arithmetic):
    rel = parse_poly(REFERENCE_RELATION_5, ref5.gen_context())
    powers = {}
    polynomial_arithmetic.clear()
    for e in rel.terms:
        invariants.expand_candidate(ref5, e, powers)
    products = polynomial_arithmetic["__mul__"]
    polynomial_arithmetic.clear()
    assert expand_in_generators(ref5, rel).is_zero()
    # the generator products alone, and no sum or scaling product per term
    assert polynomial_arithmetic == {"__mul__": products}
    polynomial_arithmetic.clear()
    linear = parse_poly("f4 - 2*f8 + 3/2*f12", ref5.gen_context())
    assert expand_in_generators(ref5, linear) == (
        ref5[0].u_poly - ref5[1].u_poly.scale(2) + ref5[2].u_poly.scale(Fraction(3, 2)))
    polynomial_arithmetic.clear()
    expand_in_generators(ref5, linear)
    assert not polynomial_arithmetic


# (n, degrees) the scripts, the benchmark and the tests ask relations for
SYZYGY_CASES = [(5, d) for d in (24, 28, 36, 40)] + [(6, d) for d in (30, 32, 34)] \
    + [(8, d) for d in range(16, 21)]


def test_syzygy_limit_covers_every_case_in_use():
    counts = {(n, d): generator_monomial_count(bundled(n)[0].degrees(), d)
              for n, d in SYZYGY_CASES}
    assert max(counts, key=counts.get) == (8, 20) and counts[8, 20] == 107
    assert counts[8, 20] <= hilbert.MAX_RELATION_CANDIDATES
    assert generator_monomial_count(range(2, 11), 40) == 2265


def test_oversized_syzygy_request_is_refused_before_any_work(monkeypatch):
    gens, relation = bundled(8)

    def nothing(*args):
        raise AssertionError("worked on an oversized request")
    for name in ("powers2", "_certified_system"):
        monkeypatch.setattr(syzygies, name, nothing)
    with pytest.raises(ValueError, match=r"degree 40 for n=8 need at least 2265 "):
        minimal_syzygies(gens, [16, 40])
    big = parse_poly("f10^4", gens.gen_context())
    with pytest.raises(ValueError, match="above the limit of 500"):
        check_syzygy(gens, big)
    with pytest.raises(ValueError, match="above the limit"):
        syzygy_basis(gens, 10**12)


def test_empty_generator_set_is_refused():
    with pytest.raises(ValueError, match="need a nonempty generator set"):
        minimal_syzygies(GeneratorSet(5, ()), [4])


@st.composite
def exponent_lists(draw):
    """(slot count, distinct exponent vectors, point) for the prefix plan.

    Vectors come in the canonical order or drawn order, with the all-zero
    vector among them now and then; the point mixes ints and Fractions.
    """
    slots = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, 5)] * slots)
    exps = draw(st.lists(vector, min_size=1, max_size=40, unique=True))
    if draw(st.booleans()):
        exps.append((0,) * slots)
        exps = list(dict.fromkeys(exps))
    if draw(st.booleans()):
        exps.sort(key=lambda e: e[::-1])
    value = st.integers(-2**70, 2**70) | st.fractions(-9, 9, max_denominator=7)
    point = draw(st.lists(value, min_size=slots, max_size=slots))
    return slots, exps, point


@settings(max_examples=300, deadline=None)
@given(exponent_lists())
@example((1, [(0,), (3,), (1,)], [Fraction(-2, 3)]))
@example((3, [(0, 0, 0)], [0, 5, Fraction(1, 2)]))
@example((2, [(2, 0), (0, 1), (1, 1), (0, 0)], [0, 0]))
def test_prefix_plan_matches_termwise_values(case):
    slots, exps, point = case
    got = syzygies._PrefixPlan(exps, slots).values(point)
    assert got == [monomial_value_termwise(e, point) for e in exps]


@pytest.mark.parametrize("n,d", [(5, 36), (6, 30), (8, 16), (8, 20)])
def test_prefix_plan_shares_every_prefix_of_the_candidates(n, d):
    # on a degree's candidates, in their canonical order, a multiply is
    # made once per distinct prefix with a nonzero last exponent, read from
    # the last slot
    gens, _ = bundled(n)
    candidates = powers2(gens.degrees(), d)
    plan = syzygies._PrefixPlan(candidates, len(gens))
    prefixes = {e[::-1][:i + 1] for e in candidates for i in range(len(gens))}
    assert sum(len(powers) for _, _, powers, _ in plan.steps) == sum(
        1 for r in prefixes if r[-1])


def test_rational_generators_take_the_certified_route(ref5, expansions, monkeypatch):
    # thirds of the bundled generators: every evaluation row holds Fractions,
    # which the packed store scales to integers before it reduces them, so
    # the lifted route answers with no exact fallback
    gens = GeneratorSet(5, tuple(
        Generator(g.name, g.degree, g.weight, g.u_poly.scale(Fraction(1, 3)), None)
        for g in ref5))
    exact = []
    nullspace = linalg.PackedEliminator.nullspace

    def spy(self):
        basis, fell_back = read_nullspace(self, nullspace)
        exact.append(fell_back)
        return basis

    monkeypatch.setattr(linalg.PackedEliminator, "nullspace", spy)
    got = syzygy_basis(gens, 36)
    assert not expansions
    assert exact == [False]
    assert len(got) == 1 and got == syzygy_basis_by_expansion(gens, 36)
    assert check_syzygy(gens, got[0].relation)


def test_nullity_zero_degrees_run_on_the_word_prime(expansions, monkeypatch):
    # below the first relation degree the candidates number dim I_d, so the
    # certified rank alone proves the basis empty: nothing is lifted
    lifted = []
    lift = linalg.PackedEliminator._lift

    def spy(self, free):
        lifted.append(len(free))
        return lift(self, free)

    monkeypatch.setattr(linalg.PackedEliminator, "_lift", spy)
    for n, top in ((6, 29), (8, 15)):
        gens, _ = bundled(n)
        for d in range(1, top + 1):
            assert len(powers2(gens.degrees(), d)) == invariant_dimension(n, d)
            assert syzygy_basis(gens, d) == []
    assert not expansions and not lifted
    # a degree with a relation lifts its one free column
    assert len(syzygy_basis(gens, 16)) == 1
    assert lifted == [1]


@pytest.fixture
def fallbacks(monkeypatch):
    """The certified systems whose nullspace the exact kernel gave, lifting
    having refused."""
    refused = []
    nullspace = linalg.PackedEliminator.nullspace

    def spy(self):
        basis, exact = read_nullspace(self, nullspace)
        if exact:
            refused.append(self.ncols)
        return basis

    monkeypatch.setattr(linalg.PackedEliminator, "nullspace", spy)
    return refused


# every degree the bundled sets have relations in, up to the largest
# checked: the reference filter needs every lower degree
FULL_RANGES = [(5, 48), (6, 36), pytest.param(8, 24, marks=pytest.mark.slow)]


@pytest.mark.parametrize("n,top", FULL_RANGES)
def test_minimal_syzygies_match_the_reference_filter(n, top, fallbacks, expansions):
    # filtered from each degree's own basis, the relations are the ones the
    # filter that carries every lower minimal relation keeps, byte for byte;
    # every bundled system on the way is read by lifting, with no fallback
    gens, _ = bundled(n)
    got = minimal_syzygies(gens, range(1, top + 1))
    assert not fallbacks and not expansions
    want = minimal_syzygies_reference(gens, range(1, top + 1))
    assert [(s.degree, format_poly(s.relation)) for s in got] == [
        (s.degree, format_poly(s.relation)) for s in want]
    assert [s.degree for s in got] == {5: [36], 6: [30], 8: [16, 17, 18, 19, 20]}[n]


@pytest.mark.parametrize("n,degrees,want", [
    (5, [40], []),
    (6, [32, 34], []),
    (8, [20], [20]),
])
def test_minimal_syzygies_drop_consequences_of_unrequested_degrees(n, degrees, want):
    # each degree is filtered from its own basis, so the consequences of
    # relations at degrees not requested are dropped too: f4 times the
    # degree-36 relation at n = 5, products of the degree-30 relation at
    # n = 6, and four of the five degree-20 basis relations at n = 8
    gens, _ = bundled(n)
    got = minimal_syzygies(gens, degrees)
    assert [s.degree for s in got] == want
    assert len(syzygy_basis(gens, degrees[-1])) > len(got)
    if n == 8:
        reference = minimal_syzygies_reference(gens, range(16, 21))
        assert [format_poly(s.relation) for s in got] == [
            format_poly(s.relation) for s in reference if s.degree == 20]


class _Nullities(linalg.Eliminator):
    """An exact kernel whose integer nullspaces the test edits."""

    edit = staticmethod(lambda vectors: vectors)

    def integer_nullspace(self):
        return self.edit(super().integer_nullspace())


def test_relation_count_below_the_degree_count_is_an_internal_error(ref5, monkeypatch):
    # degree 40 holds f4 times the degree-36 relation: the null space for
    # f4 has dimension dim Rel_36 = count(36) - dim I_36 = 1; with it
    # emptied, the per-generator check fails
    assert len(minimal_syzygies(ref5, [40])) == 0
    monkeypatch.setattr(_Nullities, "edit", staticmethod(lambda vectors: vectors[1:]))
    monkeypatch.setattr(syzygies, "Eliminator", _Nullities)
    with pytest.raises(DimensionMismatchError, match="multiples of f4"):
        minimal_syzygies(ref5, [40])


def test_relation_count_above_the_degree_count_is_no_error(ref5, monkeypatch):
    # a null space larger than the count comes from a set that does not
    # span I_e: a hand-built one, not an internal failure.  A zero vector
    # more per generator is such a null space, and changes no pivot.
    want = minimal_syzygies(ref5, [36, 40])
    monkeypatch.setattr(_Nullities, "edit", staticmethod(lambda vectors: vectors + [{}]))
    monkeypatch.setattr(syzygies, "Eliminator", _Nullities)
    assert minimal_syzygies(ref5, [36, 40]) == want
    # and the set with f8 replaced by f4^2 misses I_8, so degree 12 holds
    # f4 * (g8 - f4^2) with count(8) - dim I_8 = 0
    f4 = ref5[0]
    g8 = Generator("g8", 8, 20, f4.u_poly * f4.u_poly, None)
    gens = GeneratorSet(5, tuple(g8 if g.name == "f8" else g for g in ref5))
    monkeypatch.undo()
    assert [s.degree for s in minimal_syzygies(gens, [8, 12])] == [8]
    assert [s.degree for s in minimal_syzygies(gens, [12])] == []
