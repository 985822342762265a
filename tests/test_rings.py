from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invforge.hilbert import MAX_FORM_DEGREE
from invforge.rings import (
    ContextMismatchError,
    NonIsobaricError,
    Polynomial,
    RingKind,
    VarContext,
    ZeroPolynomialError,
    _common_weight,
    degree,
    gen_ring,
    monomial_key,
    substitute,
    u_ring,
    weight_u,
    x_ring,
)
from invforge.textio import parse_poly

from properties import mul_termwise, normalize, normalize_reference, weight_x

X2 = x_ring(2)
X3 = x_ring(3)
U3 = u_ring(3)
U4 = u_ring(4)


def p(text, ctx):
    return parse_poly(text, ctx)


def test_add_cancellation():
    f = p("x0 + x1", X2) + p("-x1", X2)
    assert f == p("x0", X2)


def test_add_identity():
    f = p("x0*x2 - 3*x1", X2)
    assert f + Polynomial.zero(X2) == f


def test_add_builds_quadratic_invariant():
    assert p("x0*x2", X2) + p("-x1^2", X2) == p("x0*x2 - x1^2", X2)


def test_add_context_mismatch():
    with pytest.raises(ContextMismatchError):
        p("x0", X2) + p("x0", X3)


def test_mul_binomial_square():
    f = p("x0 + x1", X2)
    assert f * f == p("x0^2 + 2*x0*x1 + x1^2", X2)


def test_mul_identity():
    f = p("x0*x2 - x1^2", X2)
    assert f * Polynomial.one(X2) == f


def test_mul_u2_cubed():
    u2 = p("u2", U3)
    cube = u2 * u2 * u2
    assert cube == p("u2^3", U3)
    assert degree(cube) == 3
    assert weight_u(cube) == 6


def test_pow_zero_and_simple():
    f = p("x0*x2 - x1^2", X2)
    assert f ** 0 == Polynomial.one(X2)
    assert p("x0", X2) ** 3 == p("x0^3", X2)


def test_pow_square_in_u_ring():
    f = p("u2 + x0", U4)
    assert f ** 2 == p("u2^2 + 2*x0*u2 + x0^2", U4)


def test_degree_examples():
    assert degree(p("x0^2*u3^2", U3)) == 4
    assert degree(p("7", U3)) == 0
    assert degree(p("x0*u2^3", U3)) == 4
    with pytest.raises(ZeroPolynomialError):
        degree(Polynomial.zero(U3))


def test_weight_u_examples():
    assert weight_u(p("x0^2*u3^2", U3)) == 6
    assert weight_u(p("x0^4", U3)) == 0
    assert weight_u(p("x0*u2^3", U3)) == 6
    with pytest.raises(NonIsobaricError):
        weight_u(p("u2 + u3", U3))


def test_weight_x_examples():
    assert weight_x(p("x0*x2 - x1^2", X2)) == 2
    assert weight_x(p("x0^5", X2)) == 0
    five_term = p("4*x0*x2^3 - 3*x1^2*x2^2 + x0^2*x3^2 - 6*x0*x1*x2*x3 + 4*x1^3*x3", X3)
    assert weight_x(five_term) == 6


def test_normalize_examples():
    assert normalize(p("8*x0*u2^3 + 2*x0^2*u3^2", U3)) == p("4*x0*u2^3 + x0^2*u3^2", U3)
    assert normalize(p("-x1^2 + x0*x2", X2)) == p("x0*x2 - x1^2", X2)
    f = p("x0*x2 - x1^2", X2)
    assert normalize(f) == f
    with pytest.raises(ZeroPolynomialError):
        normalize(Polynomial.zero(X2))


def test_normalize_clears_fractions():
    f = p("1/2*x0*x2 - 1/2*x1^2", X2)
    assert normalize(f) == p("x0*x2 - x1^2", X2)


def test_substitute_projection_example():
    X4 = x_ring(4)
    f = p("x4*x0 - 4*x1*x3 + 3*x2^2", X4)
    images = {
        0: p("x0", U4), 1: Polynomial.zero(U4),
        2: p("u2", U4), 3: p("u3", U4), 4: p("u4", U4),
    }
    assert substitute(f, images) == p("x0*u4 + 3*u2^2", U4)


def test_substitute_constant():
    f = p("5", U4)
    assert substitute(f, {0: p("x1", x_ring(4))}) == p("5", x_ring(4))


def test_monomial_rejects_negative_exponents():
    for ctx, e in ((X2, (-1, 0, 0)), (X2, (0, -1, 0)), (U3, (-2, 1, 0))):
        with pytest.raises(ValueError):
            Polynomial.monomial(ctx, e)


def test_substitute_missing_image():
    with pytest.raises(ValueError):
        substitute(p("u2*u3", U4), {1: p("x1", x_ring(4))})


# -- property tests ---------------------------------------------------------

coeffs = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def polys(ctx, max_exp=3):
    expt = st.tuples(*[st.integers(0, max_exp)] * ctx.slot_count)
    return st.dictionaries(expt, coeffs, max_size=5).map(lambda t: Polynomial(ctx, t))


@settings(max_examples=120, deadline=None)
@given(polys(U3), polys(U3), polys(U3))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=80, deadline=None)
@given(polys(U4), polys(U4))
def test_degree_weight_additive(f, g):
    fg = f * g
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
        return
    # multiplying single isobaric terms keeps degree and weight additive
    ef, cf = next(iter(f.terms.items()))
    eg, cg = next(iter(g.terms.items()))
    mf = Polynomial(U4, {ef: cf})
    mg = Polynomial(U4, {eg: cg})
    assert degree(mf * mg) == degree(mf) + degree(mg)
    assert weight_u(mf * mg) == weight_u(mf) + weight_u(mg)


@settings(max_examples=80, deadline=None)
@given(polys(U3), st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_normalize_scale_invariant(f, c):
    if f.is_zero() or c == 0:
        return
    assert normalize(f.scale(c)) == normalize(f)
    assert normalize(normalize(f)) == normalize(f)


# int (up to 2^70), Fraction and mixed coefficients
big = st.integers(min_value=-2**70, max_value=2**70)
normalize_inputs = st.one_of(*(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), c, min_size=1, max_size=6)
    for c in (st.integers(-8, 8) | big, st.fractions(max_denominator=12), coeffs | big)
)).map(lambda t: Polynomial(U3, t))


@settings(max_examples=200, deadline=None)
@given(normalize_inputs)
@example(Polynomial(U3, {(1, 0, 0): Fraction(-3, 4), (0, 1, 0): 6}))
@example(Polynomial(U3, {(0, 0, 2): Fraction(-2, 3)}))
def test_normalize_matches_fraction_reference(f):
    if f.is_zero():
        return
    got = normalize(f)
    assert got == normalize_reference(f)
    assert all(type(c) is int for c in got.terms.values())


# x-, u- and generator rings; small, negative, >= 2^70 and Fraction
# coefficients; exponents past one byte
PRODUCT_RINGS = (x_ring(3), u_ring(4), gen_ring([("f4", 4, 10), ("f8", 8, 20), ("g3", 3, 9)]))
product_coeffs = (st.integers(-9, 9) | st.integers(2**70, 2**90) | st.integers(-2**90, -2**70)
                  | st.fractions(min_value=-7, max_value=7, max_denominator=9))
product_exps = st.integers(0, 4) | st.integers(250, 300)


def product_factors(ctx):
    expt = st.tuples(*[product_exps] * ctx.slot_count)
    terms = (st.dictionaries(expt, product_coeffs, max_size=6)
             | st.dictionaries(expt, product_coeffs, min_size=1, max_size=1))
    return terms.map(lambda t: Polynomial(ctx, t))


def assert_same_product(f, g):
    got, want = f * g, mul_termwise(f, g)
    assert got.context == want.context
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
    assert all(got.terms.values())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRODUCT_RINGS).flatmap(
    lambda ctx: st.tuples(product_factors(ctx), product_factors(ctx))))
@example((p("x0 + x1", X3), p("x0 - x1", X3)))
@example((p(f"x0^300*u2^256 - {2**71}*u3", U4), p(f"x0^300*u2^256 + {2**71}*u3", U4)))
def test_mul_matches_termwise_reference(pair):
    f, g = pair
    assert_same_product(f, g)
    # (f + g)(f - g): the cross terms f*g and -g*f cancel
    assert_same_product(f + g, f - g)
    assert_same_product(g, f)


@settings(max_examples=40, deadline=None)
@given(polys(u_ring(2), max_exp=2), polys(u_ring(2), max_exp=2))
def test_substitute_multiplicative(f, g):
    X = x_ring(2)
    images = {0: p("x0 + x1", X), 1: p("x2^2 - x1", X)}
    assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)


def test_degree_and_weight_on_weighted_generator_slots():
    # slots of degree 4, 8 and 3 with weights 10, 20 and 9
    G = gen_ring([("f4", 4, 10), ("f8", 8, 20), ("g3", 3, 9)])
    rel = p("f4^2 - 3*f8 + 2*f4*g3^3", G)
    assert G.slot_degrees == (4, 8, 3) and G.slot_weights == (10, 20, 9)
    assert degree(rel) == 4 + 9
    assert degree(p("f8*g3 + f4", G)) == 11
    with pytest.raises(NonIsobaricError):
        _common_weight(rel)
    assert _common_weight(p("f4^2 - 3*f8", G)) == 20
    assert _common_weight(p("g3^4*f8", G)) == 56
    with pytest.raises(ZeroPolynomialError):
        degree(Polynomial.zero(G))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 9)), min_size=1, max_size=4),
       st.data())
def test_degree_and_weight_read_slot_by_slot(profile, data):
    G = gen_ring((f"g{j}", d, w) for j, (d, w) in enumerate(profile))
    f = data.draw(polys(G))
    if f.is_zero():
        return
    graded = [(sum(e * G.slot_degrees[i] for i, e in enumerate(exp)),
               sum(e * G.slot_weights[i] for i, e in enumerate(exp))) for exp in f.terms]
    assert degree(f) == max(d for d, _ in graded)
    weights = {w for _, w in graded}
    if len(weights) == 1:
        assert _common_weight(f) == weights.pop()
    else:
        with pytest.raises(NonIsobaricError):
            _common_weight(f)


def test_slot_table_matches_the_per_kind_formulas():
    # X: slot i is xi of weight i; U: slot 0 is x0 of weight 0, slot i >= 1
    # is u(i+1) of weight i+1; every slot of both has degree 1
    for n in range(2, MAX_FORM_DEGREE + 1):
        X, U = x_ring(n), u_ring(n)
        assert X.slot_count == n + 1 and U.slot_count == n
        assert X.names == tuple(f"x{i}" for i in range(n + 1))
        assert X.slot_degrees == (1,) * (n + 1)
        assert X.slot_weights == tuple(range(n + 1))
        assert U.names == tuple("x0" if i == 0 else f"u{i + 1}" for i in range(n))
        assert U.slot_degrees == (1,) * n
        assert U.slot_weights == tuple(0 if i == 0 else i + 1 for i in range(n))
    G = gen_ring([("f4", 4, 10), ("f8", 8, 20), ("g3", 3, 9)])
    assert G.slot_count == 3 and G.names == ("f4", "f8", "g3")
    assert G.slot_degrees == (4, 8, 3) and G.slot_weights == (10, 20, 9)
    # graded by degree for X and U, by the generator degrees for GEN
    for ctx, e in ((x_ring(3), (2, 0, 1, 5)), (u_ring(4), (1, 0, 3)), (G, (2, 1, 3))):
        grade = sum(k * d for k, d in zip(e, ctx.slot_degrees))
        assert monomial_key(ctx, e) == (grade, e[::-1])
    assert monomial_key(G, (2, 1, 3)) == (25, (3, 1, 2))


def test_slot_table_is_not_compared_hashed_or_printed():
    U5 = VarContext(RingKind.U, 5)
    assert U5 == u_ring(5) and hash(U5) == hash(u_ring(5))
    assert repr(U5) == "VarContext(kind=<RingKind.U: 'u'>, n=5, generators=())"
    assert u_ring(5) is u_ring(5) and x_ring(5) is x_ring(5)


def test_duplicate_generator_names_are_refused():
    # a1 + 2*a2 would print as "2*a + a", which parses back as 3*a
    with pytest.raises(ValueError, match="not distinct"):
        gen_ring([("a", 2, 2), ("a", 3, 3)])
