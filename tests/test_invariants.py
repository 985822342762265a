import io

import pytest

from invforge import cli, invariants
from invforge.derivations import expand_u_to_x
from invforge.invariants import (
    DegreeMismatchError,
    GeneratorSet,
    NonInvariantError,
    UnsupportedFormDegreeError,
    invariant_basis,
    invariant_basis_direct,
    is_member,
    known_degree_table,
    mingenset,
    verify_invariant_u,
    verify_invariant_x,
)
from invforge.rings import Polynomial, normalize, u_ring, x_ring
from invforge.syzygies import expand_in_generators
from invforge.textio import parse_poly

from properties import span_equal

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
        assert span_equal(converted, list(direct.elements), n)


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
    cache = {}
    for g in reference:
        assert is_member(gens6, g.u_poly, cache) is not None
    cache = {}
    for g in gens6:
        assert is_member(reference, g.u_poly, cache) is not None


def test_context_construction_rejects_small_n():
    with pytest.raises(ValueError):
        u_ring(1)
    with pytest.raises(ValueError):
        x_ring(0)
