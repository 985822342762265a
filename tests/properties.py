"""Reusable exact property batteries, shared by the unit and acceptance suites."""

import math
import random
import re
from fractions import Fraction
from operator import mul
from unittest import mock

from invforge.derivations import (
    Derivation,
    ResidualDenominatorError,
    apply_derivation,
    lowering_derivation,
    raising_derivation,
    reduced_operator,
)
from invforge.exponents import _compositions, powers2
from invforge.hilbert import invariant_dimension
from invforge.invariants import expand_candidate, monomial_rows
from invforge.linalg import (
    Eliminator,
    PackedEliminator,
    nullspace_sparse,
    rank_sparse,
    solve_affine_sparse,
)
from invforge.rings import (
    ContextMismatchError,
    Polynomial,
    RingKind,
    ZeroPolynomialError,
    _common_weight,
    gen_ring,
    monomial_key,
    substitute,
    u_ring,
    weight_u,
    x_ring,
)
from invforge.syzygies import Syzygy, syzygy_basis
from invforge.textio import PolyParseError, _slot_table


def random_polynomial(rng, ctx, max_terms=4, max_exp=3, zero_ok=True):
    terms = {}
    for _ in range(rng.randrange(0 if zero_ok else 1, max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(ctx.slot_count))
        c = rng.randrange(-6, 7)
        if rng.random() < 0.25:
            c = Fraction(c, rng.randrange(1, 5))
        terms[e] = terms.get(e, 0) + c
    return Polynomial(ctx, terms)


def normalize(f: Polynomial) -> Polynomial:
    """Canonical representative of the line through f.

    Scales to integer coefficients of content 1 with a positive coefficient
    on the greatest monomial; idempotent, and invariant under nonzero
    rational rescaling of the input.  Ints and Fractions take one path, in
    integer arithmetic only: each coefficient n/q becomes n * (L // q), L
    the lcm of the denominators, and the result is divided by the gcd,
    negated when the greatest monomial's coefficient is negative.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot normalize the zero polynomial")
    terms = f.terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    out = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    g = math.gcd(*out.values())
    ctx = f.context
    if out[max(out, key=lambda e: monomial_key(ctx, e))] < 0:
        g = -g
    if g != 1:
        out = {e: v // g for e, v in out.items()}
    p = Polynomial.__new__(Polynomial)
    p.context, p.terms = ctx, out
    return p


def weight_x(f: Polynomial) -> int:
    """Common x-weight of an isobaric polynomial in the x-ring."""
    if f.is_zero():
        raise ZeroPolynomialError("weight of the zero polynomial is undefined")
    if f.context.kind is not RingKind.X:
        raise ContextMismatchError("weight_x expects an x-ring polynomial")
    return _common_weight(f)


def normalize_reference(f: Polynomial) -> Polynomial:
    """normalize in Fraction arithmetic: the line through f scaled to
    integer coefficients of content 1, positive on the greatest monomial."""
    den_lcm = 1
    for c in f.terms.values():
        d = c.denominator if isinstance(c, Fraction) else 1
        den_lcm = den_lcm * d // math.gcd(den_lcm, d)
    num_gcd = 0
    for c in f.terms.values():
        num_gcd = math.gcd(num_gcd, abs(int(c * den_lcm)))
    scale = Fraction(den_lcm, num_gcd)
    out = {e: int(c * scale) for e, c in f.terms.items()}
    lead = max(out, key=lambda e: monomial_key(f.context, e))
    if out[lead] < 0:
        out = {e: -c for e, c in out.items()}
    return Polynomial(f.context, out)


def check_leibniz(pairs=200, seed=7):
    """D(fg) = D(f)g + fD(g) for random pairs under several derivations."""
    rng = random.Random(seed)
    ops = [reduced_operator(4), u_raising_derivation(5), u_lowering_derivation(5),
           grading_derivation(3), raising_derivation(3), lowering_derivation(4)]
    for k in range(pairs):
        d = ops[k % len(ops)]
        f = random_polynomial(rng, d.context)
        g = random_polynomial(rng, d.context)
        lhs = apply_derivation(d, f * g)
        rhs = apply_derivation(d, f) * g + f * apply_derivation(d, g)
        assert lhs == rhs


# -- the lemmas' own derivations and the mixed presentation -------------------

def u_lowering_derivation(n: int) -> Derivation:
    """u2 -> 0, ui -> i*u(i-1), x0 -> 0 on the u-ring."""
    ctx = u_ring(n)
    images = [Polynomial.zero(ctx), Polynomial.zero(ctx)]
    for i in range(3, n + 1):
        images.append(Polynomial.variable(ctx, i - 2).scale(i))
    return Derivation(ctx, tuple(images))


def u_raising_derivation(n: int) -> Derivation:
    """ui -> (n-i)*u(i+1) with u(n+1) = 0, x0 -> 0 on the u-ring."""
    ctx = u_ring(n)
    images = [Polynomial.zero(ctx)]
    for i in range(2, n + 1):
        if i < n:
            images.append(Polynomial.variable(ctx, i).scale(n - i))
        else:
            images.append(Polynomial.zero(ctx))
    return Derivation(ctx, tuple(images))


def reduced_operator_from_the_pair(n: int) -> Derivation:
    """The single operator built by the lemma: x0*raise_u - (n-1)*u2*lower_u,
    slot by slot."""
    ctx = u_ring(n)
    x0 = Polynomial.variable(ctx, 0)
    u2 = Polynomial.variable(ctx, 1)
    up, down = u_raising_derivation(n), u_lowering_derivation(n)
    return Derivation(ctx, tuple(x0 * up.images[s] - u2.scale(n - 1) * down.images[s]
                                 for s in range(ctx.slot_count)))


def grading_derivation(n: int) -> Derivation:
    """ui -> (n-2i)*ui, x0 -> n*x0: the degree/weight grading operator.

    Defined by its eigenvalues; every monomial is an eigenvector with
    eigenvalue n*deg - 2*weight, so the balanced polynomials are exactly
    its kernel.
    """
    ctx = u_ring(n)
    images = [Polynomial.variable(ctx, 0).scale(n)]
    for i in range(2, n + 1):
        images.append(Polynomial.variable(ctx, i - 1).scale(n - 2 * i))
    return Derivation(ctx, tuple(images))


def mixed_ring(n: int):
    """The mixed presentation k[x0, lam, u2..un] as a generator ring.

    lam = -x1/x0 has degree 0 and weight 1; x0 and ui keep their u-ring
    degree and weight.  Slot 0 is x0, slot 1 lam and slot i is ui.  Every
    closed form below that would divide by x0 is multiplied through by x0,
    so no slot needs a negative exponent.
    """
    return gen_ring((("x0", 1, 0), ("lam", 0, 1))
                    + tuple((f"u{i}", 1, i) for i in range(2, n + 1)))


def u_in_mixed(f: Polynomial) -> Polynomial:
    """A u-ring polynomial inside the mixed ring, with no lam."""
    return Polynomial(mixed_ring(f.context.n),
                      {(e[0], 0) + e[1:]: c for e, c in f.terms.items()})


def full_operator(n: int) -> Derivation:
    """The reduction operator on the mixed (x0, lam, u) presentation.

    Carries the lambda bookkeeping explicitly; on a weight-balanced
    u-polynomial (no lambda), its value coincides with reduced_operator's.
    """
    ctx = mixed_ring(n)
    x0 = Polynomial.variable(ctx, 0)
    lam = Polynomial.variable(ctx, 1)
    u2 = Polynomial.variable(ctx, 2)

    def u(i):
        return Polynomial.variable(ctx, i)

    images = [(x0 * x0 * lam).scale(-n),
              x0 * lam * lam - u2.scale(n - 1)]
    for i in range(2, n + 1):
        img = (x0 * u(i)).scale(-(n - 2 * i)) * lam
        if i < n:
            img = img + (x0 * u(i + 1)).scale(n - i)
        if i >= 3:
            img = img - (u2 * u(i - 1)).scale(i * (n - 1))
        images.append(img)
    return Derivation(ctx, tuple(images))


def x_variable_in_u(i: int, n: int) -> Polynomial:
    """The coordinate xi written in the mixed (x0, lam, u) presentation."""
    if not 2 <= i <= n:
        raise ValueError("x-index out of range")
    ctx = mixed_ring(n)
    lam = Polynomial.variable(ctx, 1)
    total = Polynomial.zero(ctx)
    lam_power = Polynomial.one(ctx)
    for k in range(i - 1):
        u = Polynomial.variable(ctx, i - k)
        total = total + u.scale((-1) ** k * math.comb(i, k)) * lam_power
        lam_power = lam_power * lam
    lam_power = lam_power * lam
    x0 = Polynomial.variable(ctx, 0)
    return total + x0.scale((-1) ** i) * lam_power


def raising_action_on_lambda(n: int) -> Polynomial:
    """x0 times the raising derivation's image of lam, in the mixed ring."""
    ctx = mixed_ring(n)
    x0, lam, u2 = (Polynomial.variable(ctx, k) for k in range(3))
    return x0 * lam * lam - u2.scale(n - 1)


def raising_action_on_u(i: int, n: int) -> Polynomial:
    """x0 times the raising derivation's image of ui, in the mixed ring.

    x0*((n-i)*u(i+1) - (n-2i)*ui*lam), less i*(n-1)*u2*u(i-1) once i
    exceeds 2; u(n+1) is identically zero.
    """
    if not 2 <= i <= n:
        raise ValueError("u-index out of range")
    ctx = mixed_ring(n)
    x0, lam, u2 = (Polynomial.variable(ctx, k) for k in range(3))
    total = Polynomial.zero(ctx)
    if i < n:
        total = total + Polynomial.variable(ctx, i + 1).scale(n - i)
    total = x0 * (total - Polynomial.variable(ctx, i).scale(n - 2 * i) * lam)
    if i > 2:
        total = total - (u2 * Polynomial.variable(ctx, i - 1)).scale(i * (n - 1))
    return total


# -- the u-coordinates in x, cleared of x0 denominators ----------------------
#
# With lam = -x1/x0, ui = sum_k C(i,k) * x(i-k) * lam^k is a Laurent
# polynomial in x; Ui = x0^(i-1)*ui is a polynomial.  A Laurent x-form is
# carried as a pair (P, k) standing for P / x0^k.

def u_variable_in_x(i: int, n: int) -> Polynomial:
    """Ui = x0^(i-1)*ui, the coordinate ui cleared of its x0 denominators."""
    if not 2 <= i <= n:
        raise ValueError("u-index out of range")
    ctx = x_ring(n)
    x0 = Polynomial.variable(ctx, 0)
    minus_x1 = -Polynomial.variable(ctx, 1)
    # the k = i term is x0*lam^i = x0 * (-x1)^i / x0^i
    total = minus_x1 ** i
    for k in range(i):
        xvar = Polynomial.variable(ctx, i - k).scale(math.comb(i, k))
        total = total + xvar * minus_x1 ** k * x0 ** (i - 1 - k)
    return total


def kernel_projection(f: Polynomial, n: int):
    """(P, m): P / x0^m is the projection of f onto the lowering kernel.

    The projection is sum over k of lower^k(f) * lam^k / k!, a finite sum
    because the lowering derivation is locally nilpotent; m is the last k
    with lower^k(f) != 0, so P is a polynomial.  The lowering derivation
    kills x0, hence the projection lies in its kernel iff P does.
    """
    down = lowering_derivation(n)
    steps = [f]
    while not (nxt := apply_derivation(down, steps[-1])).is_zero():
        steps.append(nxt)
    m = len(steps) - 1
    ctx = x_ring(n)
    x0 = Polynomial.variable(ctx, 0)
    minus_x1 = -Polynomial.variable(ctx, 1)
    total = Polynomial.zero(ctx)
    for k, g in enumerate(steps):
        total = total + g * (minus_x1 ** k * x0 ** (m - k)).scale(
            Fraction(1, math.factorial(k)))
    return total, m


def x0_cleared(f: Polynomial, n: int):
    """(P, k): P / x0^k is the x-form of f, with k >= 0 as small as the terms allow.

    f lies in the u-ring or the mixed ring.  Substituting x0 -> 1,
    lam -> -x1 and ui -> Ui into a term of degree d and weight w gives
    x0^(w-d) times its x-form: the x0 powers cancel exactly.  Terms are
    substituted in groups of equal d - w, each then multiplied by
    x0^(d - w + k).
    """
    ctx = x_ring(n)
    named = {"x0": Polynomial.one(ctx), "lam": -Polynomial.variable(ctx, 1)}
    named.update((f"u{i}", u_variable_in_x(i, n)) for i in range(2, n + 1))
    images = {slot: named[name] for slot, name in enumerate(f.context.names)}
    degs, wts = f.context.slot_degrees, f.context.slot_weights
    groups = {}
    for e, c in f.terms.items():
        shift = sum(map(mul, e, degs)) - sum(map(mul, e, wts))
        groups.setdefault(shift, {})[e] = c
    k = max(0, -min(groups, default=0))
    x0 = Polynomial.variable(ctx, 0)
    total = Polynomial.zero(ctx)
    for shift, terms in groups.items():
        part = substitute(Polynomial(f.context, terms), images, ctx)
        total = total + part * x0 ** (shift + k)
    return total, k


def divide_by_x0(P: Polynomial, k: int) -> Polynomial:
    """P / x0^k; ResidualDenominatorError when x0^k does not divide P."""
    if any(e[0] < k for e in P.terms):
        raise ResidualDenominatorError("a negative x0 power survives")
    return Polynomial(P.context, {(e[0] - k,) + e[1:]: c for e, c in P.terms.items()})


def same_x_form(a, b) -> bool:
    """Whether the pairs (P1, k1) and (P2, k2) stand for one Laurent polynomial."""
    (p1, k1), (p2, k2) = a, b
    x0 = Polynomial.variable(p1.context, 0)
    return p1 * x0 ** k2 == p2 * x0 ** k1


def raise_x_form(P: Polynomial, k: int, n: int):
    """The raising derivation R of P / x0^k, as a pair.

    R(x0) = n*x1, so R(P / x0^k) = (x0*R(P) - k*n*x1*P) / x0^(k+1).
    """
    ctx = x_ring(n)
    x0, x1 = Polynomial.variable(ctx, 0), Polynomial.variable(ctx, 1)
    image = x0 * apply_derivation(raising_derivation(n), P) - (x1 * P).scale(k * n)
    return image, k + 1


def expand_u_to_x_by_substitution(f: Polynomial, n: int) -> Polynomial:
    """Reference u -> x conversion: the x0-cleared substitution ui -> Ui.

    The independent route beside derivations.expand_u_to_x; raises
    ResidualDenominatorError when a negative x0 power survives.
    """
    if f.context != u_ring(n):
        raise ContextMismatchError("expected a u-ring polynomial")
    return divide_by_x0(*x0_cleared(f, n))


def check_kernel_projection_closed_forms(n_max=8):
    """Projection images match the closed forms and die under the lowering map."""
    for n in range(2, n_max + 1):
        down = lowering_derivation(n)
        x0 = Polynomial.variable(x_ring(n), 0)
        for i in range(2, n + 1):
            P, m = kernel_projection(Polynomial.variable(x_ring(n), i), n)
            assert m == i and P == x0 * u_variable_in_x(i, n)
            assert apply_derivation(down, P).is_zero()


def check_x_round_trip(n_max=8):
    """Substituting the u closed forms into x_variable_in_u recovers xi."""
    for n in range(2, n_max + 1):
        for i in range(2, n + 1):
            back = divide_by_x0(*x0_cleared(x_variable_in_u(i, n), n))
            assert back == Polynomial.variable(x_ring(n), i)


def check_raising_chain_rule(n_max=8):
    """Raising derivation on the u closed forms equals the stated images.

    The closed forms are x0 times the images, hence the extra x0 on their
    side of each comparison.
    """
    for n in range(2, n_max + 1):
        lam = (-Polynomial.variable(x_ring(n), 1), 1)
        P, k = x0_cleared(raising_action_on_lambda(n), n)
        assert same_x_form(raise_x_form(*lam, n), (P, k + 1))
        for i in range(2, n + 1):
            lhs = raise_x_form(u_variable_in_x(i, n), i - 1, n)
            P, k = x0_cleared(raising_action_on_u(i, n), n)
            assert same_x_form(lhs, (P, k + 1))


# -- collapsed binomial coefficient sums ------------------------------------

def raising_x0_coefficient_direct(i: int, n: int) -> int:
    return sum((-1) ** (i - k + 1) * (n - (i - k)) * math.comb(i, k)
               for k in range(i - 1))


def raising_x0_coefficient(i: int, n: int) -> int:
    """Collapsed x0*lam^(i+1) coefficient; closed form n + i - n*i."""
    if i <= 1:
        raise ValueError("defined for i > 1")
    closed = n + i - n * i
    direct = raising_x0_coefficient_direct(i, n)
    if closed != direct:
        raise AssertionError("coefficient sum disagrees with its closed form")
    return closed


def raising_u_coefficient_direct(p: int, i: int, n: int) -> int:
    lo = 3 if p == 2 else p
    return sum((-1) ** (k - p) * (n - (k - 1)) * math.comb(k, p) * math.comb(i, k - 1)
               for k in range(lo, i + 2))


def raising_u_coefficient(p: int, i: int, n: int) -> int:
    """Collapsed u_p coefficient sum; piecewise closed form in p."""
    if i <= 3 or not 2 <= p <= i + 1:
        raise ValueError("defined for i > 3 and 2 <= p <= i+1")
    if p == i + 1:
        closed = n - i
    elif p == i:
        closed = 2 * i - n
    elif p == i - 1:
        closed = -i
    elif p == 2:
        closed = -(n - 1) * i
    else:
        closed = 0
    direct = raising_u_coefficient_direct(p, i, n)
    if closed != direct:
        raise AssertionError("coefficient sum disagrees with its closed form")
    return closed


def check_coefficient_sums(i_max=12, n_max=12):
    for n in range(2, n_max + 1):
        for i in range(2, i_max + 1):
            assert raising_x0_coefficient(i, n) == raising_x0_coefficient_direct(i, n)
        for i in range(4, i_max + 1):
            for p in range(2, i + 2):
                assert raising_u_coefficient(p, i, n) == raising_u_coefficient_direct(p, i, n)


def check_commutator(n_max=8):
    """[lower_u, raise_u] has the grading eigenvalues on u3..un."""
    for n in range(2, n_max + 1):
        down, up = u_lowering_derivation(n), u_raising_derivation(n)
        grade = grading_derivation(n)
        for i in range(3, n + 1):
            ui = Polynomial.variable(u_ring(n), i - 1)
            bracket = (apply_derivation(down, apply_derivation(up, ui))
                       - apply_derivation(up, apply_derivation(down, ui)))
            assert bracket == ui.scale(n - 2 * i)
            assert apply_derivation(grade, ui) == ui.scale(n - 2 * i)


def check_reduced_operator_grading(seed=11, cases=60):
    """Isobaric (d, w) inputs map to isobaric (d+1, w+1) outputs or zero."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randrange(2, 7)
        ctx = u_ring(n)
        d = rng.randrange(1, 5)
        w = rng.randrange(0, 2 * n)
        terms = {}
        for e in _compositions(ctx.slot_degrees, ctx.slot_weights, d, w):
            if rng.random() < 0.5:
                terms[e] = rng.randrange(-5, 6) or 1
        f = Polynomial(ctx, terms)
        if f.is_zero():
            continue
        img = apply_derivation(reduced_operator(n), f)
        if img.is_zero():
            continue
        degs = {sum(e) for e in img.terms}
        assert degs == {d + 1}
        assert weight_u(img) == w + 1


def check_full_operator_agreement(n_max=6, seed=3, cases=40):
    """On weight-balanced u-polynomials the mixed-ring operator reduces exactly."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randrange(2, n_max + 1)
        d = rng.randrange(1, 4)
        if (n * d) % 2:
            continue
        terms = {}
        ctx = u_ring(n)
        for e in _compositions(ctx.slot_degrees, ctx.slot_weights, d, n * d // 2):
            if rng.random() < 0.6:
                terms[e] = rng.randrange(-4, 5) or 2
        f = Polynomial(ctx, terms)
        if f.is_zero():
            continue
        lhs = apply_derivation(full_operator(n), u_in_mixed(f))
        rhs = u_in_mixed(apply_derivation(reduced_operator(n), f))
        assert lhs == rhs


def nullspace_polynomials(ctx, candidates, vectors) -> list:
    """Normalized polynomials sum(v[j] * candidates[j]), one per vector."""
    return [normalize(Polynomial(ctx, {candidates[j]: v
                                       for j, v in enumerate(vec) if v}))
            for vec in vectors]


def invariant_basis_direct(n: int, d: int) -> tuple:
    """Oracle: solve both derivation equations over the x-ring directly."""
    if (n * d) % 2:
        return ()
    ctx = x_ring(n)
    candidates = _compositions(ctx.slot_degrees, ctx.slot_weights, d, n * d // 2)
    rows = []
    for op in (lowering_derivation(n), raising_derivation(n)):
        rows += monomial_rows(ctx, (apply_derivation(op, Polynomial.monomial(ctx, e))
                                    for e in candidates))
    return tuple(nullspace_polynomials(
        ctx, candidates, nullspace_sparse(len(candidates), rows)))


def span_equal(xs, ys, n):
    """Exact mutual expressibility of two lists of x-ring polynomials."""
    if len(xs) != len(ys):
        return False
    if not xs:
        return True
    ctx = x_ring(n)
    mono = sorted({e for f in xs + ys for e in f.terms},
                  key=lambda e: monomial_key(ctx, e))
    idx = {e: i for i, e in enumerate(mono)}
    for targets, basis in ((xs, ys), (ys, xs)):
        for t in targets:
            rows = {}
            for j, b in enumerate(basis):
                for e, c in b.terms.items():
                    rows.setdefault(idx[e], {})[j] = c
            for e, c in t.terms.items():
                rows.setdefault(idx[e], {})[len(basis)] = c
            if solve_affine_sparse(len(basis), rows.values()) is None:
                return False
    return True


def syzygy_basis_by_expansion(gens, d):
    """syzygy_basis's answer from the expanded candidate matrix A alone.

    The reference route: every candidate product is expanded and the rows
    of A are eliminated exactly, with no evaluation and no modular step.
    """
    candidates = powers2(gens.degrees(), d)
    powers = {}
    columns = [expand_candidate(gens, e, powers) for e in candidates]
    rows = monomial_rows(u_ring(gens.n), columns)
    return [Syzygy(rel, d) for rel in nullspace_polynomials(
        gens.gen_context(), candidates, nullspace_sparse(len(candidates), rows))]


def minimal_syzygies_reference(gens, degrees):
    """minimal_syzygies by carrying the minimal relations found so far.

    For each requested degree d, ascending, the columns are m * s over the
    minimal relations s found at lower requested degrees and the generator
    monomials m of complementary degree, then the degree-d basis; a basis
    relation is minimal iff its column is a pivot column, since each free
    column is the last nonzero entry of its canonical null vector.  It is
    right only when every lower degree with a relation is requested too.
    """
    ctx, gen_degs = gens.gen_context(), gens.degrees()
    minimal = []
    for d in sorted(set(degrees)):
        basis = syzygy_basis(gens, d)
        if not basis:
            continue
        columns = [Polynomial.monomial(ctx, m) * s.relation
                   for s in minimal for m in powers2(gen_degs, d - s.degree)]
        first = len(columns)
        columns += [s.relation for s in basis]
        free = {max(j for j, v in enumerate(vec) if v) for vec in
                nullspace_sparse(len(columns), monomial_rows(ctx, columns))}
        minimal += [s for j, s in enumerate(basis, first) if j not in free]
    return minimal


def naive_rref(rows, cols):
    """Textbook Gauss-Jordan over Fraction lists; the linalg oracle."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_nullspace(rows, cols):
    m, pivots = naive_rref(rows, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def naive_solve_affine(rows, b, cols):
    """The solution of A x = b that the naive RREF of [A | b] gives, free
    variables 0, or None when b's column is a pivot column."""
    m, pivots = naive_rref([list(r) + [v] for r, v in zip(rows, b)], cols + 1)
    if cols in pivots:
        return None
    sol = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        sol[c] = m[r][cols]
    return sol


def check_pivot_layout(elim):
    """Each pivot row of an Eliminator is an integer row with content 1, a
    positive entry on its pivot column and none on any other pivot column."""
    for c, row in elim.pivots.items():
        assert all(type(v) is int and v for v in row.values())
        assert row[c] > 0 and math.gcd(*row.values()) == 1
        assert not (row.keys() - {c}) & elim.pivots.keys()


def read_nullspace(elim, nullspace=PackedEliminator.nullspace):
    """A PackedEliminator's nullspace, and whether the exact kernel gave it
    (lifting refused) rather than lifting."""
    with mock.patch.object(Eliminator, "integer_nullspace", autospec=True,
                           side_effect=Eliminator.integer_nullspace) as exact:
        basis = nullspace(elim)
    return basis, exact.called


def sparse_rows(data, rhs=None):
    """Sparse rows of a dense matrix; a right-hand side goes in column len(row)."""
    out = []
    for i, r in enumerate(data):
        row = {j: v for j, v in enumerate(r) if v}
        if rhs is not None and rhs[i]:
            row[len(r)] = rhs[i]
        out.append(row)
    return out


def linalg_naive_cases(seed=23, cases=120):
    """Small seeded rational systems as (dense rows, column count, rhs)."""
    rng = random.Random(seed)
    for _ in range(cases):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        data = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 if rng.random() < 0.7 else 0
                 for _ in range(cols)] for _ in range(rows)]
        b = [rng.randrange(-3, 4) for _ in range(rows)]
        yield data, cols, b


TALL_KINDS = ("consistent", "late-inconsistent", "rhs-only", "rank-deficient",
              "fraction-rhs", "no-columns")


def linalg_tall_cases(seed=29, cases=40):
    """Seeded tall affine systems, up to 4 rows per column, as (kind, dense
    rows, column count, rhs), cases of each of TALL_KINDS in turn:

    - consistent: cols independent rows first, then combinations of them,
      and b = A x for an integer x, so full column rank comes early;
    - late-inconsistent: the same, with b off by one on a single row that
      comes after full rank;
    - rhs-only: the same, with a row after full rank replaced by zero
      coefficients and a nonzero b;
    - rank-deficient: combinations of fewer rows than columns, b = A x or
      drawn freely;
    - fraction-rhs: full column rank with Fraction entries and b = A x for
      a Fraction x;
    - no-columns: no column at all, b all 0 or not.
    """
    rng = random.Random(seed)

    def entry(fractions):
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4) if fractions else 1)

    for k in range(cases):
        kind = TALL_KINDS[k % len(TALL_KINDS)]
        cols = 0 if kind == "no-columns" else rng.randrange(1, 6)
        nrows = rng.randrange(max(cols, 1) + 1, 4 * max(cols, 1) + 1)
        fractions = kind == "fraction-rhs"
        if kind == "no-columns":
            data = [[] for _ in range(nrows)]
            b = [rng.randrange(-2, 3) if rng.random() < 0.3 else 0 for _ in range(nrows)]
            yield kind, data, cols, b
            continue
        # cols base rows, lower triangular with a nonzero diagonal, so
        # independent and each one a new pivot
        base = [[entry(fractions) if j < i else 0 for j in range(cols)]
                for i in range(cols)]
        for i, row in enumerate(base):
            row[i] = rng.choice((1, 2, -3))
        if kind == "rank-deficient":
            base = base[:rng.randrange(max(cols - 2, 0), cols)] or [[0] * cols]
        data = list(base) if kind != "rank-deficient" else []
        while len(data) < nrows:
            mix = [rng.randrange(-2, 3) for _ in base]
            data.append([sum(m * r[j] for m, r in zip(mix, base)) for j in range(cols)])
        x = [entry(True) if fractions else Fraction(rng.randrange(-3, 4))
             for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, x)) for row in data]
        if kind == "rank-deficient" and rng.random() < 0.5:
            b = [rng.randrange(-3, 4) for _ in data]
        elif kind == "late-inconsistent":
            b[rng.randrange(cols, nrows)] += 1
        elif kind == "rhs-only":
            i = rng.randrange(cols, nrows)
            data[i], b[i] = [0] * cols, rng.choice((1, -2, Fraction(1, 3)))
        yield kind, data, cols, b


def check_linalg_against_naive(seed=23, cases=120):
    for data, cols, b in linalg_naive_cases(seed, cases):
        _, pivots = naive_rref(data, cols)
        assert rank_sparse(cols, sparse_rows(data)) == len(pivots)
        got = nullspace_sparse(cols, sparse_rows(data))
        assert got == naive_nullspace(data, cols)
        for v in got:
            for row in data:
                assert sum(a * x for a, x in zip(row, v)) == 0
        sol = solve_affine_sparse(cols, sparse_rows(data, b))
        aug = [list(r) + [bv] for r, bv in zip(data, b)]
        _, aug_pivots = naive_rref(aug, cols + 1)
        solvable = cols not in aug_pivots
        assert (sol is not None) == solvable
        if sol is not None:
            for row, bv in zip(data, b):
                assert sum(a * x for a, x in zip(row, sol)) == bv


def monomial_value_termwise(expts, point):
    """Value of one monomial at a point, slot by slot."""
    v = 1
    for x, k in zip(point, expts):
        if k:
            v *= x ** k
    return v


def evaluate_termwise(terms, point):
    """Exact value of a term dict at a point, one monomial at a time."""
    return sum(c * monomial_value_termwise(e, point) for e, c in terms.items())


def line_slot_termwise(gens):
    """The slot that the lines of ``syzygies._Points`` vary: the first slot
    with the largest exponent among the generator terms, one scan per slot."""
    slots = range(len(next(iter(gens[0].u_poly.terms))))
    return max(slots, key=lambda s: max(e[s] for g in gens for e in g.u_poly.terms))


def certified_rows_termwise(gens, d, candidates, point_range, idle_points):
    """Rows of the certified evaluation system, evaluated term by term.

    The same lines as ``syzygies._certified_system``: line k has its base
    point drawn from random.Random(k) and sets the slot of largest generator
    exponent (the first such) to t = 0, 1, -1, ..., point_range,
    -point_range, ending at its first point that does not raise the rank.
    The same stopping rule gives the exact rows the modular eliminator
    keeps: dense lists, one value per candidate.
    """
    slot = line_slot_termwise(gens)
    steps = [0]
    for t in range(1, point_range + 1):
        steps += [t, -t]
    target = invariant_dimension(gens.n, d)
    elim = PackedEliminator(len(candidates))
    k = idle = 0
    while elim.rank < target and idle < idle_points:
        rng = random.Random(k)
        base = [rng.randint(-point_range, point_range) for _ in range(gens.n)]
        for t in steps:
            point = base[:slot] + [t] + base[slot + 1:]
            values = [evaluate_termwise(g.u_poly.terms, point) for g in gens]
            before = elim.rank
            elim.add_row([monomial_value_termwise(e, values) for e in candidates])
            if elim.rank == before:
                idle += 1
                break
            idle = 0
            if elim.rank == target:
                break
        k += 1
    return elim.rows


# -- term-by-term references of the request-path kernels ----------------------

def mul_termwise(f, g):
    """f * g term pair by term pair, each exponent summed slot by slot over zip.

    The same loop as ``Polynomial.__mul__`` (the shorter factor outside, one
    dict, a cancelled sum deleted), so the terms come out in the same order.
    """
    if f.context != g.context:
        raise ContextMismatchError("product operands' contexts disagree")
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(sum, zip(e1, e2)))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return Polynomial(f.context, out)


def apply_derivation_termwise(d, f):
    """Leibniz rule with one polynomial product and sum per (term, slot)."""
    if f.context != d.context:
        raise ContextMismatchError("derivation and argument contexts disagree")
    ctx, images = d.context, d.images
    total = Polynomial.zero(ctx)
    for e, c in f.terms.items():
        for slot, k in enumerate(e):
            if not k or images[slot].is_zero():
                continue
            lowered = list(e)
            lowered[slot] = k - 1
            part = mul_termwise(Polynomial.monomial(ctx, lowered, c * k), images[slot])
            total = total + part
    return total


_TOKEN_REFERENCE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([+\-*/^()]))")


def tokenize_reference(text: str):
    """The text tokens, one anchored match per token."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_REFERENCE.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            at = pos + (len(rest) - len(stripped))
            raise PolyParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


def parse_poly_reference(text: str, ctx):
    """Recursive-descent parse of the text grammar over tokenize_reference."""
    tokens = tokenize_reference(text)
    slots = _slot_table(ctx)
    k = 0

    def peek():
        return tokens[k]

    def take():
        nonlocal k
        tok = tokens[k]
        k += 1
        return tok

    def parse_factor():
        kind, val, pos = take()
        if kind != "name":
            raise PolyParseError("expected a variable name", pos)
        if val not in slots:
            raise PolyParseError(f"unknown variable {val!r} for this ring", pos)
        slot = slots[val]
        power = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            kind, val, pos = take()
            if kind != "int":
                raise PolyParseError("expected an exponent", pos)
            power = val
        return slot, power

    def parse_term(sign: int):
        coeff = None
        if peek()[0] == "int":
            coeff = take()[1]
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                kind, val, pos = take()
                if kind != "int":
                    raise PolyParseError("expected a denominator", pos)
                if val == 0:
                    raise PolyParseError("zero denominator", pos)
                coeff = Fraction(coeff, val)
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                if peek()[0] != "name":
                    raise PolyParseError("expected a variable after '*'", peek()[2])
        exps = [0] * ctx.slot_count
        saw_factor = False
        while peek()[0] == "name":
            slot, power = parse_factor()
            exps[slot] += power
            saw_factor = True
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                if peek()[0] != "name":
                    raise PolyParseError("expected a variable after '*'", peek()[2])
        if coeff is None:
            if not saw_factor:
                raise PolyParseError("expected a term", peek()[2])
            coeff = 1
        return tuple(exps), sign * coeff

    terms = {}
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        sign = -1 if take()[1] == "-" else 1
    while True:
        e, c = parse_term(sign)
        s = terms.get(e, 0) + c
        if s:
            terms[e] = s
        elif e in terms:
            del terms[e]
        kind, val, pos = peek()
        if kind == "end":
            break
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
            continue
        raise PolyParseError(f"unexpected {val!r}", pos)
    return Polynomial(ctx, terms)
