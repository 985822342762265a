"""Sparse multivariate polynomials over exact rationals.

Every polynomial is tagged with a variable context (one of the ring kinds
below) and stores its terms as a map from exponent tuples to nonzero
coefficients.  A context carries its slot table (each slot's name, degree
and weight), built once; ``x_ring`` and ``u_ring`` hand out one context
per n, so every polynomial of a ring shares it.  Coefficients are plain
ints while no division has occurred and ``fractions.Fraction`` afterwards;
both compare and hash consistently, so mixed dicts are safe.  A product
adds the exponent tuples of each term pair with
``tuple(map(add, e1, e2))``, one pass in C per pair, and sums the
coefficients straight into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Mapping

from .hilbert import MAX_FORM_DEGREE, refuse_form_degree


class RingKind(Enum):
    X = "x"      # k[x0..xn]
    U = "u"      # k[x0, u2..un]
    GEN = "gen"  # k[g1..gm], gj named generator symbols


class ContextMismatchError(ValueError):
    """Operands live in different variable contexts."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no degree, weight or normal form."""


class NonIsobaricError(ValueError):
    """Weight requested for a polynomial whose terms have unequal weights."""


@dataclass(frozen=True)
class VarContext:
    """A variable context: ring kind plus whatever names its slots.

    Slot layout by kind (n = binary form degree):
      X   : slots 0..n hold x0..xn, slot i has weight i
      U   : slot 0 holds x0 (weight 0), slots 1..n-1 hold u2..un
      GEN : slot j holds generators[j] = (name, degree, weight)

    The slot table (``names``, ``slot_degrees``, ``slot_weights``) is built
    once, here; it is not a field of ``==``, ``hash`` or ``repr``, which
    see only kind, n and generators.
    """

    kind: RingKind
    n: int = 0
    generators: tuple = ()
    names: tuple = field(init=False, compare=False, repr=False)
    slot_degrees: tuple = field(init=False, compare=False, repr=False)
    slot_weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind is not RingKind.GEN:
            refuse_form_degree(self.n)
        if self.kind is RingKind.GEN:
            if not self.generators:
                raise ValueError("GEN context needs at least one generator")
            names, degrees, weights = zip(*self.generators)
            if len(set(names)) < len(names):
                raise ValueError(f"generator names {names} are not distinct")
        elif self.kind is RingKind.X:
            names = tuple(f"x{i}" for i in range(self.n + 1))
            degrees, weights = (1,) * (self.n + 1), tuple(range(self.n + 1))
        else:
            names = ("x0",) + tuple(f"u{i}" for i in range(2, self.n + 1))
            degrees, weights = (1,) * self.n, (0,) + tuple(range(2, self.n + 1))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "slot_degrees", degrees)
        object.__setattr__(self, "slot_weights", weights)

    @property
    def slot_count(self) -> int:
        return len(self.names)


@lru_cache(maxsize=MAX_FORM_DEGREE)
def x_ring(n: int) -> VarContext:
    return VarContext(RingKind.X, n)


@lru_cache(maxsize=MAX_FORM_DEGREE)
def u_ring(n: int) -> VarContext:
    return VarContext(RingKind.U, n)


def gen_ring(generators: Iterable[tuple]) -> VarContext:
    return VarContext(RingKind.GEN, 0, tuple(generators))


def monomial_key(ctx: VarContext, expts: tuple):
    """Sort key of the canonical monomial order (ascending).

    Graded first by the slot degrees, ties broken by reading the exponent
    tuple from the last slot backwards, the larger exponent winning.  This
    is the one total order used everywhere: normalization, echelon forms,
    printing, enumeration.
    """
    return (sum(map(mul, expts, ctx.slot_degrees)), tuple(reversed(expts)))


class Polynomial:
    """Immutable-by-convention sparse polynomial over a VarContext."""

    __slots__ = ("context", "terms")

    def __init__(self, context: VarContext, terms: Mapping[tuple, object] = ()):
        self.context = context
        clean = {}
        for e, c in dict(terms).items():
            if c:
                clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "Polynomial":
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx: VarContext, c) -> "Polynomial":
        if not c:
            return cls.zero(ctx)
        return cls(ctx, {(0,) * ctx.slot_count: c})

    @classmethod
    def one(cls, ctx: VarContext) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def monomial(cls, ctx: VarContext, expts: Iterable[int], coeff=1) -> "Polynomial":
        e = tuple(expts)
        if len(e) != ctx.slot_count:
            raise ValueError("exponent tuple length does not match context")
        for i, k in enumerate(e):
            if k < 0:
                raise ValueError(f"negative exponent on {ctx.names[i]}")
        if not coeff:
            return cls.zero(ctx)
        return cls(ctx, {e: coeff})

    @classmethod
    def variable(cls, ctx: VarContext, slot: int) -> "Polynomial":
        e = [0] * ctx.slot_count
        e[slot] = 1
        return cls(ctx, {tuple(e): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.context != other.context:
            raise ContextMismatchError(
                f"{self.context.kind.value} vs {other.context.kind.value}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        p = Polynomial.__new__(Polynomial)
        p.context, p.terms = self.context, out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.context = self.context
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        p = Polynomial.__new__(Polynomial)
        p.context, p.terms = self.context, out
        return p

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.context)
        p = Polynomial.__new__(Polynomial)
        p.context = self.context
        p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.context)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    # -- inspection --------------------------------------------------------

    def sorted_terms(self, reverse: bool = True):
        """Terms in canonical order, leading term first by default."""
        ctx = self.context
        return sorted(self.terms.items(),
                      key=lambda t: monomial_key(ctx, t[0]), reverse=reverse)

    def __repr__(self) -> str:
        if not self.terms:
            return "<poly 0>"
        parts = []
        for e, c in self.sorted_terms()[:4]:
            parts.append(f"{c}*{e}")
        more = "..." if len(self.terms) > 4 else ""
        return f"<poly {' + '.join(parts)}{more}>"


# -- ring-level operations --------------------------------------------------

def degree(f: Polynomial) -> int:
    """Total degree: maximum graded degree over the terms."""
    if f.is_zero():
        raise ZeroPolynomialError("degree of the zero polynomial is undefined")
    degs = f.context.slot_degrees
    return max(sum(map(mul, exp, degs)) for exp in f.terms)


def _common_weight(f: Polynomial) -> int:
    wts = f.context.slot_weights
    weights = {sum(map(mul, exp, wts)) for exp in f.terms}
    if len(weights) != 1:
        raise NonIsobaricError("polynomial is not isobaric")
    return weights.pop()


def weight_u(f: Polynomial) -> int:
    """Common u-weight of an isobaric polynomial in the u-ring."""
    if f.is_zero():
        raise ZeroPolynomialError("weight of the zero polynomial is undefined")
    if f.context.kind is not RingKind.U:
        raise ContextMismatchError("weight_u expects a u-ring polynomial")
    return _common_weight(f)


def substitute(f: Polynomial, images: Mapping[int, Polynomial],
               target: VarContext = None) -> Polynomial:
    """Ring-homomorphic image of f under slot -> polynomial substitution.

    Every slot occurring in f with a nonzero exponent needs an image; all
    images must share one target context.
    """
    if target is None:
        for g in images.values():
            target = g.context
            break
        if target is None:
            raise ValueError("no images and no target context given")
    for slot, g in images.items():
        if g.context != target:
            raise ContextMismatchError("substitution images disagree on context")

    power_cache = {}

    def image_power(slot: int, k: int) -> Polynomial:
        key = (slot, k)
        got = power_cache.get(key)
        if got is not None:
            return got
        if slot not in images:
            raise ValueError(
                f"no image for occurring variable {f.context.names[slot]}")
        val = images[slot] ** k
        power_cache[key] = val
        return val

    total = Polynomial.zero(target)
    for e, c in f.terms.items():
        term = Polynomial.constant(target, c)
        for slot, k in enumerate(e):
            if k:
                term = term * image_power(slot, k)
        total = total + term
    return total
