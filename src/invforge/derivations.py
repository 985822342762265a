"""Derivations of the coefficient rings and the coordinate changes.

The two sl2 derivations act on k[x0..xn]; after passing to the coordinates
x0, u2..un (kernel generators of the lowering derivation) the whole system
collapses to a single first-order operator.  This module builds all of
these derivations and the coordinate-change maps in both directions.

Every derivation is applied by one Leibniz loop on packed monomials
(PackedDerivation): an exponent vector is one int of byte fields, so a
product of a term with a shifted image term is one int add, and only the
terms that survive cancellation become exponent tuples again.  Verifying
an invariant cancels everything and builds no tuple; invariant_basis files
the packed images of its candidates as rows without unpacking them.

u -> x never substitutes the Laurent images of the ui.  Since the lowering
derivation L kills x0 and every ui, it kills the x-form of any u-polynomial
f; writing that x-form as sum_k x1^k * g_k (no g_k containing x1), L = 0
becomes a two-term recursion for g_(k+1) in g_k and g_(k-1), starting from
g_0 = f with ui -> xi.  The g_k are unique, so the recursion is exact, and
its one division by x0 per step is exact precisely when the x-form is a
polynomial (see expand_u_to_x).  x -> u is the projection x1 -> 0.  Each
input component is sized by ``hilbert.refuse_large_x_form`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .hilbert import (
    MAX_CANDIDATES,
    MAX_DEGREE,
    MAX_FORM_DEGREE,
    candidate_count,
    refuse_large_x_form,
)
from .rings import ContextMismatchError, Polynomial, VarContext, u_ring, x_ring


class ResidualDenominatorError(ValueError):
    """A u-polynomial failed to clear x0 from its denominator in the x-ring."""


@dataclass(frozen=True)
class Derivation:
    """A derivation given by its images on the slot variables."""

    context: VarContext
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.context.slot_count:
            raise ValueError("need exactly one image per variable slot")


class PackedDerivation:
    """A derivation's Leibniz rule on packed integer monomials.

    Every exponent vector of the call is one int of fixed-width byte fields,
    each wide enough for the largest exponent the call can produce: slot 0
    in the most significant field, then slots m-1 down to 1.  Within one
    degree, descending packed keys are then x0's exponent first, descending,
    ties in descending canonical order: the row order of monomial_rows.
    Each slot's image is packed once, shifted by -1 on its own slot, so the
    product of a term x^e with an image term x^h of slot s (e[s] != 0) has
    the key E + H.  A field may borrow in H, never in E + H, whose fields
    are the exponents of x^(e + h - unit_s): nonnegative, and below
    2^bits by the choice of width.
    """

    __slots__ = ("bits", "weights", "shifted")

    def __init__(self, d: Derivation, top: int):
        """Packs d's images for arguments with exponents up to top."""
        top += max((max(h) for g in d.images for h in g.terms), default=0)
        m = d.context.slot_count
        self.bits = bits = 8 * max(1, -(-top.bit_length() // 8))
        self.weights = weights = ((1 << bits * (m - 1),)
                                  + tuple(1 << bits * (i - 1) for i in range(1, m)))
        self.shifted = [(slot, [(sum(map(mul, h, weights)) - weights[slot], c)
                                for h, c in g.terms.items()])
                        for slot, g in enumerate(d.images) if g.terms]

    def image(self, terms) -> dict:
        """Packed key -> coefficient of the image of sum c*x^e over (e, c).

        The cost is linear in the number of (term, image term) pairs, with
        one int add per pair.  Cancelled keys stay in, with coefficient 0.
        """
        weights, shifted = self.weights, self.shifted
        out = {}
        for e, c in terms:
            packed = sum(map(mul, e, weights))
            for slot, image in shifted:
                k = e[slot]
                if k:
                    ck = c * k
                    for h, ch in image:
                        key = packed + h
                        out[key] = out.get(key, 0) + ck * ch
        return out

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of a packed key."""
        bits, mask = self.bits, (1 << self.bits) - 1
        fields = [key >> bits * i & mask for i in range(len(self.weights))]
        return (fields.pop(),) + tuple(fields)


def apply_derivation(d: Derivation, f: Polynomial) -> Polynomial:
    """Leibniz-rule action: sum over slots of (df/dslot) * image(slot).

    Runs PackedDerivation's loop on f's terms and turns only the keys that
    survive cancellation back into exponent tuples: the image of an
    invariant under an operator that kills it builds no tuple at all.
    """
    if f.context != d.context:
        raise ContextMismatchError("derivation and argument contexts disagree")
    if not f.terms:
        return Polynomial.zero(d.context)
    packed = PackedDerivation(d, max(map(max, f.terms)))
    return Polynomial(d.context, {packed.unpack(key): c
                                  for key, c in packed.image(f.terms.items()).items()
                                  if c})


# -- the sl2 derivations ---------------------------------------------------

@lru_cache(maxsize=MAX_FORM_DEGREE)
def lowering_derivation(n: int) -> Derivation:
    """x0 -> 0, xi -> i*x(i-1): lowers the x-weight by one."""
    ctx = x_ring(n)
    images = [Polynomial.zero(ctx)]
    for i in range(1, n + 1):
        images.append(Polynomial.variable(ctx, i - 1).scale(i))
    return Derivation(ctx, tuple(images))


@lru_cache(maxsize=MAX_FORM_DEGREE)
def raising_derivation(n: int) -> Derivation:
    """xi -> (n-i)*x(i+1), xn -> 0: raises the x-weight by one."""
    ctx = x_ring(n)
    images = []
    for i in range(n):
        images.append(Polynomial.variable(ctx, i + 1).scale(n - i))
    images.append(Polynomial.zero(ctx))
    return Derivation(ctx, tuple(images))


@lru_cache(maxsize=MAX_FORM_DEGREE)
def reduced_operator(n: int) -> Derivation:
    """The single operator on the u-ring, in closed form:

        x0 -> 0,  ui -> (n-i)*x0*u(i+1) - (n-1)*i*u2*u(i-1),  u(n+1) = u1 = 0.

    It is x0*raise_u - (n-1)*u2*lower_u for the u-ring pair ui -> (n-i)*u(i+1)
    and ui -> i*u(i-1) (the lemma the test suite proves for n = 2..64).  Its
    kernel, intersected with the balanced isobaric polynomials, is the
    invariant ring; on an isobaric (degree d, weight w) polynomial the image
    is isobaric of (degree d+1, weight w+1) or zero.  Built once per n: a
    Derivation is frozen, and every verifier still runs on every call.
    """
    ctx = u_ring(n)
    x0, u2 = Polynomial.variable(ctx, 0), Polynomial.variable(ctx, 1)

    def u(i):
        return Polynomial.variable(ctx, i - 1) if 2 <= i <= n else Polynomial.zero(ctx)

    return Derivation(ctx, (Polynomial.zero(ctx),) + tuple(
        (x0 * u(i + 1)).scale(n - i) - (u2 * u(i - 1)).scale((n - 1) * i)
        for i in range(2, n + 1)))


# -- coordinate changes ----------------------------------------------------

def project_x_to_u(f: Polynomial) -> Polynomial:
    """Multiplicative projection x0 -> x0, x1 -> 0, xi -> ui.

    Acts as the identity on polynomials that already lie in the u-subring,
    so it recovers the u-form of an invariant from its x-form.  Dropping the
    zero x1 exponent maps the terms kept one to one, so nothing cancels.
    """
    return Polynomial(u_ring(f.context.n), {(e[0],) + e[2:]: c
                                            for e, c in f.terms.items() if not e[1]})


@lru_cache(maxsize=64)
def _x_keys(n: int, d: int) -> dict | None:
    """Interning table for the x-ring keys expand_u_to_x hands out in degree d.

    Each key goes in the first time it is produced, so x-forms of the same
    (n, d) held at once share their exponent tuples.  Only a homogeneous
    input is interned, so a table holds keys of its own degree.  None, and
    nothing is kept, for a degree above MAX_DEGREE or whose candidate count
    is above MAX_CANDIDATES: those are the requests invariant_basis refuses.
    """
    return {} if d <= MAX_DEGREE and candidate_count(n, d) <= MAX_CANDIDATES else None


def expand_u_to_x(f: Polynomial, n: int) -> Polynomial:
    """Write a u-polynomial in the x-ring by the lowering recursion.

    The x-form is sum_k x1^k * g_k with no g_k containing x1.  Setting x1 = 0
    sends ui to xi, so g_0 is f with ui -> xi.  Every ui and x0 is killed by
    the lowering derivation L = sum_i i*x(i-1)*d/dxi, hence so is the x-form,
    and the x1^m coefficient of L(x-form) = 0 reads

        (m+1)*x0*g_(m+1) = -(2*dg_(m-1)/dx2 + sum_(i>=3) i*x(i-1)*dg_m/dxi).

    The g_k are the unique x1-coefficients of the x-form, so the recursion
    reproduces them exactly and stops once two consecutive ones vanish.  A
    division by x0 that is not exact means the x-form keeps an x0^-1 term:
    ResidualDenominatorError, i.e. the input is not a polynomial in the xi.
    An input with a component too large for its x-form is refused with
    ValueError by hilbert.refuse_large_x_form before the recursion starts.
    """
    if f.context != u_ring(n):
        raise ContextMismatchError("expected a u-ring polynomial")
    weights = f.context.slot_weights
    components = {(sum(e), sum(map(mul, e, weights))) for e in f.terms}
    for d, w in components:
        refuse_large_x_form(n, d, w)
    degrees = {d for d, _ in components}
    keys = _x_keys(n, degrees.pop()) if len(degrees) == 1 else None
    out = {}
    prev, cur = {}, {(e[0], 0) + e[1:]: c for e, c in f.terms.items()}
    m = 0
    while prev or cur:
        for e, c in cur.items():
            key = (e[0], m) + e[2:]
            if keys is not None:
                key = keys.setdefault(key, key)
            out[key] = c
        rhs = {}
        for e, c in prev.items():
            if e[2]:
                key = e[:2] + (e[2] - 1,) + e[3:]
                rhs[key] = rhs.get(key, 0) + 2 * e[2] * c
        for e, c in cur.items():
            for i in range(3, n + 1):
                if e[i]:
                    key = e[:i - 1] + (e[i - 1] + 1, e[i] - 1) + e[i + 1:]
                    rhs[key] = rhs.get(key, 0) + i * e[i] * c
        m += 1
        nxt = {}
        for e, c in rhs.items():
            if not c:
                continue
            if not e[0]:
                raise ResidualDenominatorError(
                    "x0^-1 survives; input is not polynomial in the x-ring")
            nxt[(e[0] - 1,) + e[1:]] = (-c // m if isinstance(c, int) and not c % m
                                        else Fraction(-c, m))
        prev, cur = cur, nxt
    return Polynomial(x_ring(n), out)
