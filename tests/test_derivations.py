import pytest
from hypothesis import given, settings, strategies as st

from invforge.derivations import (
    Derivation,
    PackedDerivation,
    ResidualDenominatorError,
    apply_derivation,
    expand_u_to_x,
    lowering_derivation,
    project_x_to_u,
    raising_derivation,
    reduced_operator,
    _x_keys,
)
from invforge.exponents import _compositions
from invforge.fixtures import fixture_root, load_generator_dir
from invforge.hilbert import MAX_CANDIDATES, MAX_FORM_DEGREE, candidate_count
from invforge.invariants import invariant_basis
from invforge.rings import (
    ContextMismatchError,
    Polynomial,
    monomial_key,
    u_ring,
    x_ring,
)
from invforge.textio import parse_poly

import properties
from properties import (
    expand_u_to_x_by_substitution,
    full_operator,
    grading_derivation,
    kernel_projection,
    mixed_ring,
    raising_action_on_lambda,
    raising_action_on_u,
    reduced_operator_from_the_pair,
    u_in_mixed,
    u_lowering_derivation,
    u_raising_derivation,
    u_variable_in_x,
    x0_cleared,
    x_variable_in_u,
)

U3 = u_ring(3)


def p(text, ctx):
    return parse_poly(text, ctx)


def test_reduced_operator_images_cubic():
    op = reduced_operator(3)
    assert apply_derivation(op, p("x0*u2^3", U3)) == p("3*x0^2*u2^2*u3", U3)
    assert apply_derivation(op, p("x0^2*u3^2", U3)) == p("-12*x0^2*u2^2*u3", U3)
    assert apply_derivation(op, Polynomial.one(U3)).is_zero()


def test_reduced_operator_closed_form_is_the_lemma():
    # x0*raise_u - (n-1)*u2*lower_u, built from the u-ring pair, is the
    # closed form for every form degree, term order and coefficient types
    # included
    for n in range(2, MAX_FORM_DEGREE + 1):
        want = reduced_operator_from_the_pair(n).images
        got = reduced_operator(n).images
        assert got == want
        assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]
        assert all(type(c) is int for g in got for c in g.terms.values())


def test_reduced_operator_is_built_once_per_form_degree():
    assert reduced_operator(7) is reduced_operator(7)
    assert reduced_operator(7) is not reduced_operator(6)
    assert reduced_operator.cache_info().maxsize == MAX_FORM_DEGREE


def test_sl2_derivations_are_built_once_per_form_degree():
    for make in (lowering_derivation, raising_derivation):
        assert make(7) is make(7)
        assert make(7) is not make(6)
        assert make.cache_info().maxsize == MAX_FORM_DEGREE


def test_reduced_operator_kills_known_invariants():
    assert apply_derivation(reduced_operator(2), p("x0*u2", u_ring(2))).is_zero()
    assert apply_derivation(reduced_operator(3), p("4*x0*u2^3 + x0^2*u3^2", U3)).is_zero()


def test_sl2_derivation_images():
    d1 = lowering_derivation(2)
    assert d1.images[0].is_zero()
    assert d1.images[1] == p("x0", x_ring(2))
    assert d1.images[2] == p("2*x1", x_ring(2))
    for n in (2, 4, 7):
        assert lowering_derivation(n).images[0].is_zero()
    assert raising_derivation(3).images[1] == p("2*x2", x_ring(3))


def test_u_derivation_images():
    n = 6
    up, down = u_raising_derivation(n), u_lowering_derivation(n)
    assert down.images[1].is_zero()          # u2 -> 0
    assert up.images[n - 1].is_zero()        # un -> 0 via u(n+1) = 0
    e = grading_derivation(n)
    u4 = Polynomial.variable(u_ring(n), 3)
    assert apply_derivation(e, u4) == u4.scale(-2)


def test_full_operator_on_x0():
    for n in (2, 3, 5):
        x0 = Polynomial.variable(mixed_ring(n), 0)
        img = apply_derivation(full_operator(n), x0)
        assert img == p(f"-{n}*x0^2*lam", mixed_ring(n))


def test_full_operator_u3_coefficient_quintic():
    img = full_operator(5).images[3]
    assert img == p("2*x0*u4 + x0*u3*lam - 12*u2^2", mixed_ring(5))


def test_full_operator_kills_balanced_invariant():
    f = p("4*x0*u2^3 + x0^2*u3^2", U3)
    assert apply_derivation(full_operator(3), u_in_mixed(f)).is_zero()


def test_kernel_projection_examples():
    X2 = x_ring(2)
    assert kernel_projection(p("x0", X2), 2) == (p("x0", X2), 0)
    P, m = kernel_projection(p("x1", X2), 2)
    assert P.is_zero() and m == 1
    # x2 - x1^2/x0 = u2, cleared by x0^2
    assert kernel_projection(p("x2", X2), 2) == (p("x0^2*x2 - x0*x1^2", X2), 2)


def test_u_variable_closed_form_examples():
    X2 = x_ring(2)
    assert u_variable_in_x(2, 2) == p("x0*x2 - x1^2", X2)
    assert kernel_projection(p("x2", X2), 2) == (u_variable_in_x(2, 2) * p("x0", X2), 2)
    # u3 = x3 - 3*x1*x2/x0 + 2*x1^3/x0^2 at n = 4
    assert u_variable_in_x(3, 4) == p("x0^2*x3 - 3*x0*x1*x2 + 2*x1^3", x_ring(4))
    with pytest.raises(ValueError):
        u_variable_in_x(1, 4)


def test_x_variable_in_u_examples():
    M4 = mixed_ring(4)
    assert x_variable_in_u(2, 4) == p("u2 + x0*lam^2", M4)
    assert x_variable_in_u(3, 4) == p("u3 - 3*u2*lam - x0*lam^3", M4)


def test_x0_cleared_substitution_examples():
    X4 = x_ring(4)
    # u2 has degree 1 and weight 2: its x-form is U2 / x0
    assert x0_cleared(p("u2", u_ring(4)), 4) == (p("x0*x2 - x1^2", X4), 1)
    # x0^3*u3 has degree 4 and weight 3: x0 * U3, nothing to clear
    assert x0_cleared(p("x0^3*u3", u_ring(4)), 4) == (
        p("x0^3*x3 - 3*x0^2*x1*x2 + 2*x0*x1^3", X4), 0)
    # lam = -x1/x0
    assert x0_cleared(p("lam", mixed_ring(4)), 4) == (p("-x1", X4), 1)


def test_projection_to_u_examples():
    X4 = x_ring(4)
    U4 = u_ring(4)
    assert project_x_to_u(p("x4*x0 - 4*x1*x3 + 3*x2^2", X4)) == p("x0*u4 + 3*u2^2", U4)
    assert project_x_to_u(p("x0^3", X4)) == p("x0^3", U4)
    assert project_x_to_u(p("x1^3*x3", X4)).is_zero()


def test_expand_matches_elementwise_substitution():
    # substituting the closed forms slot by slot agrees with the expander
    f = p("x0*u4 + 3*u2^2", u_ring(4))
    assert expand_u_to_x_by_substitution(f, 4) == expand_u_to_x(f, 4)


def test_expand_u_to_x_examples():
    assert expand_u_to_x(p("x0*u2", u_ring(2)), 2) == p("x0*x2 - x1^2", x_ring(2))
    got = expand_u_to_x(p("4*x0*u2^3 + x0^2*u3^2", U3), 3)
    want = p("4*x0*x2^3 - 3*x1^2*x2^2 + x0^2*x3^2 - 6*x0*x1*x2*x3 + 4*x1^3*x3", x_ring(3))
    assert got == want
    assert expand_u_to_x(Polynomial.zero(U3), 3).is_zero()
    assert expand_u_to_x(p("3/2*x0^2", U3), 3) == p("3/2*x0^2", x_ring(3))


def test_expand_u_to_x_shares_keys():
    f = invariant_basis(8, 6)[0]
    first, again = expand_u_to_x(f, 8), expand_u_to_x(f, 8)
    keys = {e: e for e in first.terms}
    assert all(keys[e] is e for e in again.terms)
    assert _x_keys.cache_info().maxsize is not None


def test_mixed_degree_input_interns_nothing():
    # a degree-1 term ahead of degree-14 ones: the degree-1 table must not
    # file the degree-14 keys of the x-form
    U8 = u_ring(8)
    low = p("x0", U8)
    high = p("x0^14 + " + " + ".join(f"x0^13*u{i}" for i in range(2, 9)), U8)
    g = expand_u_to_x(low + high, 8)
    assert g == expand_u_to_x(low, 8) + expand_u_to_x(high, 8)
    assert len(g.terms) > 8
    assert all(sum(e) == 1 for e in _x_keys(8, 1))


def test_oversized_classes_are_not_interned():
    # n = 8, d = 60 is far past what invariant_basis accepts
    assert candidate_count(8, 60) > MAX_CANDIDATES
    f = p("x0^30*u2^30", u_ring(8))
    g = expand_u_to_x(f, 8)
    assert len(g.terms) == 31 and project_x_to_u(g) == f
    assert _x_keys(8, 60) is None


@pytest.mark.parametrize("text,n", [("u2", 2), ("x0*u3", 3), ("x0*u2 + u3", 4),
                                    ("x0^2*u4 + u2^2", 4)],
                         ids=["u2", "x0u3", "x0u2+u3", "x0^2u4+u2^2"])
def test_residual_denominator_in_both_routes(text, n):
    f = p(text, u_ring(n))
    with pytest.raises(ResidualDenominatorError):
        expand_u_to_x(f, n)
    with pytest.raises(ResidualDenominatorError):
        expand_u_to_x_by_substitution(f, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expand_matches_substitution_on_bundled_generators(n):
    for g in load_generator_dir(n, fixture_root() / f"n{n}"):
        assert expand_u_to_x(g.u_poly, n) == expand_u_to_x_by_substitution(g.u_poly, n)


def test_expand_certified_on_octavic_generators():
    # substitution takes ~20 s at n = 8; certify instead: the x-form projects
    # back to f and is killed by the lowering derivation, and the recursion
    # behind expand_u_to_x shows these two facts determine it
    down = lowering_derivation(8)
    for g in load_generator_dir(8, fixture_root() / "n8"):
        fx = expand_u_to_x(g.u_poly, 8)
        assert project_x_to_u(fx) == g.u_poly
        assert apply_derivation(down, fx).is_zero()


@st.composite
def isobaric_u_polys(draw):
    """x0^k times a random isobaric u-polynomial: some convert, some do not."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 4))
    w = draw(st.integers(0, n * d))
    ctx = u_ring(n)
    monos = _compositions(ctx.slot_degrees, ctx.slot_weights, d, w)
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(monos), max_size=len(monos)))
    f = Polynomial(ctx, dict(zip(monos, coeffs)))
    k = draw(st.integers(0, w))
    return n, f * Polynomial.monomial(ctx, (k,) + (0,) * (n - 1))


@settings(max_examples=60, deadline=None)
@given(isobaric_u_polys())
def test_expand_matches_substitution_on_isobaric(case):
    n, f = case
    try:
        want = expand_u_to_x_by_substitution(f, n)
    except ResidualDenominatorError:
        with pytest.raises(ResidualDenominatorError):
            expand_u_to_x(f, n)
    else:
        assert expand_u_to_x(f, n) == want


_BASES = {(n, d): invariant_basis(n, d)
          for n, ds in ((3, (4,)), (4, (2, 3)), (5, (4,)), (6, (2, 4)))
          for d in ds}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted({n for n, _ in _BASES})), st.data())
def test_products_of_invariants_convert(n, data):
    keys = [k for k in _BASES if k[0] == n]
    picks = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3))
    f = Polynomial.one(u_ring(n))
    for key in picks:
        el = data.draw(st.sampled_from(_BASES[key]))
        f = f * el.scale(data.draw(st.integers(1, 4)))
    assert expand_u_to_x(f, n) == expand_u_to_x_by_substitution(f, n)


def test_raising_action_closed_forms():
    # each closed form is x0 times the image under the raising derivation
    M5 = mixed_ring(5)
    assert raising_action_on_lambda(5) == p("x0*lam^2 - 4*u2", M5)
    assert raising_action_on_u(2, 5) == p("3*x0*u3 - x0*u2*lam", M5)
    # i = 3, n = 5: x0*(2*u4 + u3*lam) - 12*u2^2
    assert raising_action_on_u(3, 5) == p("2*x0*u4 + x0*u3*lam - 12*u2^2", M5)
    # i = 3, n = 3 keeps no u4 term and picks up the u2^2 correction
    assert raising_action_on_u(3, 3) == p("3*x0*u3*lam - 6*u2^2", mixed_ring(3))


def test_coefficient_sums_examples():
    assert properties.raising_x0_coefficient(2, 2) == 0
    assert properties.raising_x0_coefficient(3, 5) == -7
    assert properties.raising_u_coefficient(4, 4, 5) == 3
    with pytest.raises(ValueError):
        properties.raising_x0_coefficient(1, 4)
    with pytest.raises(ValueError):
        properties.raising_u_coefficient(1, 5, 4)


def test_leibniz_on_random_pairs():
    properties.check_leibniz(pairs=200)


def test_kernel_projection_matches_closed_forms():
    properties.check_kernel_projection_closed_forms(8)


def test_x_round_trip_identity():
    properties.check_x_round_trip(8)


def test_raising_chain_rule_closed_forms():
    properties.check_raising_chain_rule(8)


def test_coefficient_sums_closed_forms():
    properties.check_coefficient_sums(12, 12)


def test_commutator_grading():
    properties.check_commutator(8)


def test_reduced_operator_grading():
    properties.check_reduced_operator_grading()


def test_full_operator_agrees_on_balanced():
    properties.check_full_operator_agreement()


def _polys(ctx, max_exp=3):
    expt = st.tuples(*[st.integers(0, max_exp)] * ctx.slot_count)
    coeffs = st.one_of(st.integers(-6, 6), st.integers(2**70, 2**72),
                       st.integers(-2**72, -2**70),
                       st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return st.dictionaries(expt, coeffs, max_size=4).map(lambda t: Polynomial(ctx, t))


# small exponents make terms collide and cancel; exponents up to 300 need
# packed fields wider than one byte, with products up to 600
_MAX_EXPONENTS = st.sampled_from((3, 300))


# (derivation ring, argument ring): the same ring, or two rings that differ
_RING_PAIRS = [(x_ring, x_ring), (u_ring, u_ring), (mixed_ring, mixed_ring),
               (x_ring, u_ring), (u_ring, mixed_ring), (mixed_ring, u_ring)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RING_PAIRS), st.integers(2, 4), st.data())
def test_apply_derivation_matches_termwise(rings, n, data):
    dctx, fctx = rings[0](n), rings[1](n)
    max_exp = data.draw(_MAX_EXPONENTS)
    images = [data.draw(_polys(dctx, max_exp)) for _ in range(dctx.slot_count)]
    for slot in data.draw(st.sets(st.integers(0, dctx.slot_count - 1))):
        images[slot] = Polynomial.zero(dctx)
    d = Derivation(dctx, tuple(images))
    f = data.draw(_polys(fctx, max_exp))
    if dctx != fctx:
        with pytest.raises(ContextMismatchError):
            apply_derivation(d, f)
        return
    got = apply_derivation(d, f)
    assert got == properties.apply_derivation_termwise(d, f)
    assert got.context == dctx
    assert all(got.terms.values())


_OPERATORS = (lowering_derivation, raising_derivation, u_lowering_derivation,
              u_raising_derivation, reduced_operator)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_OPERATORS), st.integers(2, 8), st.booleans(), st.data())
def test_operators_match_termwise(make, n, one_term, data):
    d = make(n)
    if one_term:
        e = data.draw(st.tuples(*[st.integers(0, 4)] * d.context.slot_count))
        f = Polynomial.monomial(d.context, e, data.draw(st.integers(-9, 9)))
    else:
        f = data.draw(_polys(d.context, data.draw(_MAX_EXPONENTS)))
    assert apply_derivation(d, f) == properties.apply_derivation_termwise(d, f)


def test_apply_derivation_on_zero_images_and_disjoint_rings():
    zero = Derivation(U3, (Polynomial.zero(U3),) * 3)
    f = p("x0*u2^3 + 2*u3^2", U3)
    assert apply_derivation(zero, f).is_zero()
    assert properties.apply_derivation_termwise(zero, f).is_zero()
    with pytest.raises(ContextMismatchError):
        apply_derivation(reduced_operator(3), p("x0*x2", x_ring(2)))


def test_apply_derivation_sums_in_one_dict(polynomial_arithmetic):
    f10 = load_generator_dir(8, fixture_root() / "n8")[-1].u_poly
    op = reduced_operator(8)
    x_form = expand_u_to_x(f10, 8)
    lower, upper = lowering_derivation(8), raising_derivation(8)
    polynomial_arithmetic.clear()
    assert apply_derivation(op, f10).is_zero()
    assert apply_derivation(lower, x_form).is_zero()
    assert apply_derivation(upper, x_form).is_zero()
    assert not polynomial_arithmetic


def test_packed_fields_hold_the_largest_exponent_of_the_call():
    # the reduced operator's images reach exponent 2 (u2^2 in slot u3's),
    # so arguments up to 253 fit one byte per field and 254 needs two
    op = reduced_operator(5)
    assert PackedDerivation(op, 253).bits == 8
    assert PackedDerivation(op, 254).bits == 16
    f = p("x0^254*u3 + u2^253*u4", u_ring(5))
    assert apply_derivation(op, f) == properties.apply_derivation_termwise(op, f)


def test_packed_order_is_the_row_order_within_a_degree():
    # slot 0 in the most significant field, then slots m-1 down to 1:
    # descending keys of one degree are monomial_rows' order
    ctx = u_ring(5)
    packed = PackedDerivation(reduced_operator(5), 300)
    monos = (_compositions(ctx.slot_degrees, ctx.slot_weights, 7, 14)
             + [(300, 0, 0, 0, 0), (0, 0, 0, 0, 300)])
    for d in (7, 300):
        same = [e for e in monos if sum(e) == d]
        keys = {sum(k * w for k, w in zip(e, packed.weights)): e for e in same}
        assert [keys[k] for k in sorted(keys, reverse=True)] == sorted(
            same, key=lambda e: (e[0], monomial_key(ctx, e)), reverse=True)
        assert all(packed.unpack(k) == e for k, e in keys.items())
