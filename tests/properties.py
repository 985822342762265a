"""Reusable exact property batteries, shared by the unit and acceptance suites."""

import math
import random
import re
from fractions import Fraction

from invforge.derivations import (
    ResidualDenominatorError,
    _embeds,
    apply_derivation,
    embed,
    full_operator,
    grading_derivation,
    lowering_derivation,
    raising_action_on_lambda,
    raising_action_on_u,
    raising_derivation,
    reduced_operator,
    u_lowering_derivation,
    u_raising_derivation,
    x_variable_in_u,
)
from invforge.exponents import _compositions
from invforge.hilbert import invariant_dimension
from invforge.linalg import ModularEliminator, nullspace_sparse, rank_sparse, solve_affine_sparse
from invforge.rings import (
    ContextMismatchError,
    Polynomial,
    lambda_u_ring,
    local_x_ring,
    monomial_key,
    substitute,
    u_ring,
    weight_u,
    x_ring,
)
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


# -- the u-coordinates as Laurent polynomials in x ---------------------------

def _lambda_in_x(n: int) -> Polynomial:
    # lam = -x1/x0 inside the localized x-ring
    ctx = local_x_ring(n)
    e = [0] * ctx.slot_count
    e[0], e[1] = -1, 1
    return Polynomial.monomial(ctx, e, -1)


def kernel_projection(f: Polynomial, n: int) -> Polynomial:
    """Project k[X] onto the lowering derivation's kernel.

    sum over i of lower^i(f) * lam^i / i!, a finite sum because the lowering
    derivation is locally nilpotent; the image is annihilated by it.
    """
    ctx = local_x_ring(n)
    lam = _lambda_in_x(n)
    down = lowering_derivation(n)
    total = embed(f, ctx)
    cur = f
    lam_power = Polynomial.one(ctx)
    i = 0
    while True:
        cur = apply_derivation(down, cur)
        if cur.is_zero():
            return total
        i += 1
        lam_power = lam_power * lam
        total = total + embed(cur, ctx) * lam_power.scale(Fraction(1, math.factorial(i)))


def u_variable_in_x(i: int, n: int) -> Polynomial:
    """The coordinate ui written in the localized x-ring."""
    if not 2 <= i <= n:
        raise ValueError("u-index out of range")
    ctx = local_x_ring(n)
    lam = _lambda_in_x(n)
    total = Polynomial.zero(ctx)
    lam_power = Polynomial.one(ctx)
    for k in range(i + 1):
        xvar = embed(Polynomial.variable(x_ring(n), i - k), ctx)
        total = total + xvar.scale(math.comb(i, k)) * lam_power
        lam_power = lam_power * lam
    return total


def expand_u_to_x_by_substitution(f: Polynomial, n: int) -> Polynomial:
    """Reference u -> x conversion: substitute the Laurent images of the ui.

    The independent route that derivations.expand_u_to_x replaced; raises
    ResidualDenominatorError when a negative x0 power survives.
    """
    loc = local_x_ring(n)
    images = {0: embed(Polynomial.variable(x_ring(n), 0), loc)}
    for slot in range(1, n):
        images[slot] = u_variable_in_x(slot + 1, n)
    result = substitute(f, images, loc)
    if any(e[0] < 0 for e in result.terms):
        raise ResidualDenominatorError("a negative x0 power survives")
    return Polynomial(x_ring(n), result.terms)


def check_kernel_projection_closed_forms(n_max=8):
    """Projection images match the closed forms and die under the lowering map."""
    for n in range(2, n_max + 1):
        down = lowering_derivation(n)
        for i in range(2, n + 1):
            ui = kernel_projection(Polynomial.variable(x_ring(n), i), n)
            assert ui == u_variable_in_x(i, n)
            assert apply_derivation(down, ui).is_zero()


def check_x_round_trip(n_max=8):
    """Substituting the u closed forms into x_variable_in_u recovers xi."""
    for n in range(2, n_max + 1):
        loc = local_x_ring(n)
        lam = _lambda_in_x(n)
        images = {0: embed(Polynomial.variable(x_ring(n), 0), loc), 1: lam}
        for j in range(2, n + 1):
            images[j] = u_variable_in_x(j, n)
        for i in range(2, n + 1):
            back = substitute(x_variable_in_u(i, n), images, loc)
            assert back == embed(Polynomial.variable(x_ring(n), i), loc)


def check_raising_chain_rule(n_max=8):
    """Raising derivation on the u closed forms equals the stated images."""
    for n in range(2, n_max + 1):
        loc = local_x_ring(n)
        up = raising_derivation(n)
        lam = _lambda_in_x(n)
        images = {0: embed(Polynomial.variable(x_ring(n), 0), loc), 1: lam}
        for j in range(2, n + 1):
            images[j] = u_variable_in_x(j, n)
        assert apply_derivation(up, lam) == substitute(
            raising_action_on_lambda(n), images, loc)
        for i in range(2, n + 1):
            lhs = apply_derivation(up, u_variable_in_x(i, n))
            rhs = substitute(raising_action_on_u(i, n), images, loc)
            assert lhs == rhs


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
        for e in _compositions(u_ring(n), d, w):
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
        for e in _compositions(u_ring(n), d, n * d // 2):
            if rng.random() < 0.6:
                terms[e] = rng.randrange(-4, 5) or 2
        f = Polynomial(u_ring(n), terms)
        if f.is_zero():
            continue
        mixed = lambda_u_ring(n)
        lhs = apply_derivation(full_operator(n), embed(f, mixed))
        rhs = embed(apply_derivation(reduced_operator(n), f), mixed)
        assert lhs == rhs


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


def certified_rows_termwise(gens, d, candidates, point_range, idle_points):
    """Rows of the certified evaluation system, evaluated term by term.

    The same point sequence as ``syzygies._certified_system`` (the k-th point
    drawn from random.Random(k)), the same stopping rule, and the exact rows
    the modular eliminator keeps.
    """
    target = invariant_dimension(gens.n, d)
    elim = ModularEliminator(len(candidates))
    k = idle = 0
    while elim.rank < target and idle < idle_points:
        rng = random.Random(k)
        point = [rng.randint(-point_range, point_range) for _ in range(gens.n)]
        values = [evaluate_termwise(g.u_poly.terms, point) for g in gens]
        before = elim.rank
        elim.add_row({j: v for j, e in enumerate(candidates)
                      if (v := monomial_value_termwise(e, values))})
        k += 1
        idle = 0 if elim.rank > before else idle + 1
    return elim.rows


# -- term-by-term references of the request-path kernels ----------------------

def apply_derivation_termwise(d, f):
    """Leibniz rule with one polynomial product and sum per (term, slot)."""
    if _embeds(f.context, d.context):
        ctx = d.context
        f = embed(f, ctx)
        images = d.images
    elif _embeds(d.context, f.context):
        ctx = f.context
        images = tuple(embed(g, ctx) for g in d.images)
    else:
        raise ContextMismatchError("derivation and argument contexts disagree")
    total = Polynomial.zero(ctx)
    for e, c in f.terms.items():
        for slot, k in enumerate(e):
            if not k or images[slot].is_zero():
                continue
            lowered = list(e)
            lowered[slot] = k - 1
            part = Polynomial.monomial(ctx, lowered, c * k) * images[slot]
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
