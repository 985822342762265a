"""Invariant bases, subring membership, and minimal generating sets.

The per-degree solver turns the reduced operator's action on candidate
monomials into a homogeneous linear system indexed directly by monomials
(columns: degree-d weight-balanced candidates, rows: image monomials) and
reads invariants off the canonical nullspace, as coprime integer vectors
that are already the normalized invariants.  Its rows are keyed by the
packed integer monomials of derivations.PackedDerivation, so no image term
becomes an exponent tuple.  Membership solves the system whose columns are
the expanded generator products and the target, keyed by tuples.  Both
systems are sparse and go to ``linalg``'s exact kernel, an incremental
reduced echelon form over integer rows, so the answer is the exact
canonical one by construction; the basis size is still checked against the
Cayley-Sylvester count.  A membership system has far more rows (monomials)
than columns (products): ``solve_affine_sparse`` stops eliminating once the
products are independent on the rows fed, and checks the one candidate
representation on every row left by an exact dot product, so a target that
differs from a member only on its last rows is still refused.  The
brute-force solver over the original two-derivation system in
x-coordinates, the independent oracle, lives with the test suite's
property batteries.  Every request is sized first, by
``hilbert.refuse_large_invariants``.  A ``Generator`` is verified when it
is made, so every ``GeneratorSet`` holds invariants by construction, and
``verify_invariant_u`` asks for one degree as well as the balanced weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Iterable, Optional

from .derivations import (
    PackedDerivation,
    apply_derivation,
    expand_u_to_x,
    lowering_derivation,
    raising_derivation,
    reduced_operator,
)
from .exponents import grad, powers
from .hilbert import invariant_dimension, refuse_large_invariants
from .linalg import Eliminator, solve_affine_sparse
from .rings import (
    ContextMismatchError,
    Polynomial,
    RingKind,
    VarContext,
    degree,
    gen_ring,
    monomial_key,
    u_ring,
    weight_u,
    x_ring,
)


class DegreeMismatchError(RuntimeError):
    """Discovered generators disagree with the supplied (count, degrees)."""


class UnsupportedFormDegreeError(ValueError):
    """No stored generator table for this form degree."""


class DimensionMismatchError(RuntimeError):
    """A computed invariant basis disagrees with the Cayley-Sylvester count."""


class NonInvariantError(RuntimeError):
    """A generator fails the invariance verifiers."""


@dataclass(frozen=True)
class Generator:
    """A named invariant of the binary form of degree u_poly.context.n,
    checked when it is made.

    ``u_poly`` must be a nonconstant u-ring polynomial that
    ``verify_invariant_u`` accepts, and ``x_poly``, when given (the x-form
    of ``u_poly``, as ``mingenset`` passes it), an x-ring polynomial that
    ``verify_invariant_x`` accepts; anything else raises NonInvariantError.
    ``degree`` and ``weight`` are read off ``u_poly``.
    """

    name: str
    u_poly: Polynomial
    x_poly: Optional[Polynomial] = None
    degree: int = field(init=False)
    weight: int = field(init=False)

    def __post_init__(self):
        u, x = self.u_poly, self.x_poly
        n = u.context.n
        if not (u.context.kind is RingKind.U and any(map(any, u.terms))
                and verify_invariant_u(n, u)):
            raise NonInvariantError(f"{self.name} is not a nonconstant invariant"
                                    f" in the u-ring of n={n}")
        if x is not None and not (x.context == x_ring(n) and x.terms
                                  and verify_invariant_x(n, x)):
            raise NonInvariantError(f"the x-form of {self.name} is not an invariant")
        d = degree(u)
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "weight", n * d // 2)


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of the invariants of the binary form of degree n.

    Every generator is an invariant of this n, checked when it was made;
    a generator of another form degree raises ContextMismatchError.  Two
    things are kept on a set for its lifetime, each built on first use and
    neither a field (not in ``__init__``, ``==``, ``hash`` or ``repr``).
    ``with_generator`` and every load give a new set, which starts with
    neither of them.

    * ``gen_context()``: one generator ring, shared by every relation found
      on the set.
    * ``evaluation``: the generators on the syzygy engine's lines
      (``syzygies._Points``), built by the first syzygy call that evaluates:
      the line plan, and each line's coefficients in t once that line has
      been asked for.  The lines asked grow with the highest degree asked,
      which ``hilbert.MAX_RELATION_CANDIDATES`` bounds.  For the bundled
      octavic set, plan and lines hold 49 KB after degree 16 (5 lines) and
      129 KB after degree 28 (34 lines), against 251 KB of generator terms
      (``sys.getsizeof`` summed over the objects held).  Certified systems
      and bases are per-degree results and last one call.
    """

    n: int
    generators: tuple

    def __post_init__(self):
        if any(g.u_poly.context != u_ring(self.n) for g in self.generators):
            raise ContextMismatchError(f"a generator is not an invariant of n={self.n}")

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, k):
        return self.generators[k]

    def gen_context(self) -> VarContext:
        return self._gen_context

    @cached_property
    def _gen_context(self) -> VarContext:
        return gen_ring((g.name, g.degree, g.weight) for g in self.generators)

    def degrees(self) -> tuple:
        return tuple(g.degree for g in self.generators)

    def profile(self) -> tuple:
        return tuple((g.degree, g.weight) for g in self.generators)

    def with_generator(self, g: Generator) -> "GeneratorSet":
        return GeneratorSet(self.n, self.generators + (g,))

    @cached_property
    def evaluation(self):
        from .syzygies import _Points  # syzygies builds on this module
        return _Points(self)


def monomial_rows(ctx: VarContext, columns: Iterable[Polynomial]) -> list:
    """Sparse rows of the linear system whose j-th column is columns[j].

    One row per monomial occurring in some column, by first exponent (x0's
    in a u-ring) first, descending, with ties in descending canonical order
    of ctx.  The reduced echelon form of a row space is unique, so the order
    changes no nullspace and no solution, but it sets how much work the
    exact kernel does to get there, most of it clearing new pivot columns
    from earlier pivot rows (timings in the README's performance notes).
    Membership builds its systems here, and so does the syzygy expansion
    route, for a degree without a certificate; invariant_basis files packed
    keys in the same order instead (_basis_rows).  Columns are read one at a time: pass
    a generator, and no list of column polynomials is ever held.
    """
    rows = {}
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            rows.setdefault(e, {})[j] = c
    return [rows[e] for e in sorted(rows, key=lambda e: (e[0], monomial_key(ctx, e)),
                                    reverse=True)]


def primitive_polynomial(ctx: VarContext, candidates, vec: dict) -> Polynomial:
    """sum(v * candidates[j]) for a primitive integer null vector, in the
    form of ``Eliminator.integer_nullspace`` (invariant bases and relations).

    The candidates ascend in the canonical order, so the vector's free
    column, its last, is the greatest monomial: with content 1 and a
    positive entry there, the polynomial is already normalized.
    """
    p = Polynomial.__new__(Polynomial)
    p.context, p.terms = ctx, {candidates[j]: v for j, v in vec.items()}
    return p


def _basis_rows(n: int, d: int, candidates) -> list:
    """Rows of the system whose j-th column is the reduced operator's image
    of the degree-d monomial candidates[j], in monomial_rows' order.

    The images are filed by their packed keys, with no Polynomial and no
    exponent tuple per image term.  Every image has degree d + 1, so the
    descending packed order is monomial_rows' order (see PackedDerivation).
    """
    packed = PackedDerivation(reduced_operator(n), d)
    rows = {}
    for j, e in enumerate(candidates):
        for key, c in packed.image(((e, 1),)).items():
            if c:
                rows.setdefault(key, {})[j] = c
    return [rows[key] for key in sorted(rows, reverse=True)]


def invariant_basis(n: int, d: int) -> tuple:
    """All invariants of degree d, via the reduced single-operator system, as
    a tuple of normalized u-polynomials.

    The basis size is checked against the Cayley-Sylvester count on every
    call; a disagreement raises DimensionMismatchError.  A request that
    hilbert.refuse_large_invariants refuses raises ValueError, before any work.
    """
    refuse_large_invariants(n, d, "invariants")
    candidates = powers(n, d)
    elim = Eliminator(len(candidates)).add_rows(_basis_rows(n, d, candidates))
    elements = tuple(primitive_polynomial(u_ring(n), candidates, vec)
                     for vec in elim.integer_nullspace())
    expected = invariant_dimension(n, d)
    if len(elements) != expected:
        raise DimensionMismatchError(
            f"degree-{d} invariant basis for n={n} has {len(elements)} elements,"
            f" the Cayley-Sylvester count is {expected}")
    return elements


def verify_invariant_x(n: int, f: Polynomial) -> bool:
    """True iff both x-ring derivations annihilate f."""
    if f.is_zero():
        raise ValueError("verify expects a nonzero polynomial")
    if apply_derivation(lowering_derivation(n), f).is_zero():
        return apply_derivation(raising_derivation(n), f).is_zero()
    return False


def verify_invariant_u(n: int, f: Polynomial) -> bool:
    """True iff every term of f has one degree d and the weight n*d/2, and
    the reduced operator kills f.

    The reduced operator sends x0 to 0, so it kills f/x0 whenever it kills
    f: without one degree, f plus f/x0 would pass.
    """
    if f.is_zero():
        raise ValueError("verify expects a nonzero polynomial")
    degs, wts = f.context.slot_degrees, f.context.slot_weights
    grades = {(sum(map(mul, e, degs)), sum(map(mul, e, wts))) for e in f.terms}
    (d, w), *others = grades
    if others or n * d != 2 * w:
        return False
    return apply_derivation(reduced_operator(n), f).is_zero()


def _generator_power(gens: GeneratorSet, j: int, k: int, powers: dict) -> Polynomial:
    """gens[j]^k, memoized in powers as (j, k) -> power; each missing power
    is the one below times gens[j], from the highest one memoized upwards."""
    top = k
    while top and (j, top) not in powers:
        top -= 1
    for m in range(top + 1, k + 1):
        powers[(j, m)] = powers[(j, m - 1)] * gens[j].u_poly if m > 1 else gens[j].u_poly
    return powers[(j, k)]


def expand_candidate(gens: GeneratorSet, exps, powers: dict) -> Polynomial:
    """Product of generator powers for one exponent vector, largest last.

    powers memoizes (j, k) -> gens[j]^k for the calling expansion.
    """
    factors = [_generator_power(gens, j, k, powers)
               for j, k in enumerate(exps) if k]
    if not factors:
        return Polynomial.one(u_ring(gens.n))
    factors.sort(key=lambda p: len(p.terms))
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


def is_member(gens: GeneratorSet, f: Polynomial) -> Optional[Polynomial]:
    """Express f in the subring generated by gens, if possible.

    Returns the echelon particular representation as a generator-ring
    polynomial, or None when f is not a member.  When the products are
    independent, as in every degree below the first relation, the
    representation is unique, and it is checked exactly on every monomial
    row the elimination did not need.  f must be a nonzero, homogeneous and
    isobaric polynomial of u_ring(gens.n), else ContextMismatchError or
    ValueError.  A degree that hilbert.refuse_large_invariants refuses raises
    ValueError, before any work.
    """
    if f.context != u_ring(gens.n):
        raise ContextMismatchError("target is not in the u-ring of the generator set")
    if f.is_zero():
        raise ValueError("membership of the zero polynomial is not asked")
    degs = {sum(e) for e in f.terms}
    if len(degs) != 1:
        raise ValueError("membership needs a homogeneous polynomial")
    target = (degs.pop(), weight_u(f))
    refuse_large_invariants(gens.n, target[0], "members")
    if not len(gens):
        return None
    candidates = grad(gens.profile(), target)
    if not candidates:
        return None
    powers = {}
    # the target is the last column, which is the solver's right-hand side
    columns = chain((expand_candidate(gens, e, powers) for e in candidates), (f,))
    sol = solve_affine_sparse(len(candidates), monomial_rows(u_ring(gens.n), columns))
    if sol is None:
        return None
    terms = {candidates[j]: v for j, v in enumerate(sol) if v}
    return Polynomial(gens.gen_context(), terms)


_GENERATOR_TABLE = {
    2: (1, (2,)),
    3: (1, (4,)),
    4: (2, (2, 3)),
    5: (4, (4, 8, 12, 18)),
    6: (5, (2, 4, 6, 10, 15)),
    8: (9, (2, 3, 4, 5, 6, 7, 8, 9, 10)),
}


def known_degree_table(n: int):
    """(count, degrees) of the minimal generating set, for supported n."""
    try:
        return _GENERATOR_TABLE[n]
    except KeyError:
        raise UnsupportedFormDegreeError(
            f"no generator table for form degree {n}") from None


_SUFFIXES = "bcdefghijklmnopqrstuvwxyz"


def _generator_name(d: int, k: int) -> str:
    """f{d}, f{d}b .. f{d}z, f{d}zb ..: distinct identifiers, sorting by k."""
    if not k:
        return f"f{d}"
    z, r = divmod(k - 1, len(_SUFFIXES))
    return f"f{d}{'z' * z}{_SUFFIXES[r]}"


def mingenset(n: int, r: int, degrees) -> GeneratorSet:
    """Minimal generating set with the prescribed degree multiset.

    Walks the degrees in ascending order, keeps every basis invariant not
    already in the subring generated so far, and insists the outcome matches
    (r, degrees) exactly; any disagreement raises DegreeMismatchError.  The
    generators come out by (degree, name), each with its x-form.
    """
    degrees = sorted(degrees)
    if len(degrees) != r:
        raise DegreeMismatchError(
            f"expected {r} generator degrees, got {len(degrees)}")
    for d in set(degrees):
        refuse_large_invariants(n, d, "invariants")
    gens = GeneratorSet(n, ())
    for d in sorted(set(degrees)):
        expected = degrees.count(d)
        found = 0
        for el in invariant_basis(n, d):
            if len(gens) and is_member(gens, el) is not None:
                continue
            gens = gens.with_generator(
                Generator(_generator_name(d, found), el, expand_u_to_x(el, n)))
            found += 1
            if found > expected:
                raise DegreeMismatchError(
                    f"more than {expected} new generators at degree {d}")
        if found != expected:
            raise DegreeMismatchError(
                f"expected {expected} new generators at degree {d}, found {found}")
    return gens
