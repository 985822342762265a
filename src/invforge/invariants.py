"""Invariant bases, subring membership, and minimal generating sets.

The per-degree solver turns the reduced operator's action on candidate
monomials into a homogeneous linear system indexed directly by monomials
(columns: degree-d weight-balanced candidates, rows: image monomials) and
reads invariants off the canonical nullspace.  A brute-force solver over
the original two-derivation system in x-coordinates serves as the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .derivations import (
    apply_derivation,
    expand_u_to_x,
    lowering_derivation,
    raising_derivation,
    reduced_operator,
)
from .exponents import grad, powers
from .hilbert import invariant_dimension
from .linalg import nullspace_sparse, solve_affine_sparse
from .rings import (
    Polynomial,
    VarContext,
    gen_ring,
    is_isobaric_balanced,
    monomial_key,
    normalize,
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


@dataclass(frozen=True)
class InvariantBasis:
    n: int
    d: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    weight: int
    u_poly: Polynomial
    x_poly: Polynomial


@dataclass(frozen=True)
class GeneratorSet:
    n: int
    generators: tuple

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, k):
        return self.generators[k]

    def gen_context(self) -> VarContext:
        return gen_ring((g.name, g.degree, g.weight) for g in self.generators)

    def degrees(self) -> tuple:
        return tuple(g.degree for g in self.generators)

    def profile(self) -> tuple:
        return tuple((g.degree, g.weight) for g in self.generators)

    def with_generator(self, g: Generator) -> "GeneratorSet":
        return GeneratorSet(self.n, self.generators + (g,))


def _nullspace_polynomials(ctx, candidates, columns):
    """Shared tail of the basis solvers: monomial-indexed nullspace.

    columns[j] is the image polynomial of candidate j; returns normalized
    polynomials over the candidate monomials, in canonical nullspace order.
    """
    rows = {}
    for j, img in enumerate(columns):
        for e, c in img.terms.items():
            rows.setdefault(e, {})[j] = c
    ordered = [rows[e] for e in sorted(rows, key=lambda e: monomial_key(ctx, e))]
    out = []
    for vec in nullspace_sparse(len(candidates), ordered):
        terms = {candidates[j]: v for j, v in enumerate(vec) if v}
        out.append(normalize(Polynomial(ctx, terms)))
    return out


def invariant_basis(n: int, d: int) -> InvariantBasis:
    """All invariants of degree d, via the reduced single-operator system.

    The basis size is checked against the Cayley-Sylvester count on every
    call; a disagreement raises DimensionMismatchError.
    """
    candidates = powers(n, d)
    elements = ()
    if candidates:
        ctx = u_ring(n)
        op = reduced_operator(n)
        columns = [apply_derivation(op, Polynomial.monomial(ctx, e))
                   for e in candidates]
        elements = tuple(_nullspace_polynomials(ctx, candidates, columns))
    expected = invariant_dimension(n, d)
    if len(elements) != expected:
        raise DimensionMismatchError(
            f"degree-{d} invariant basis for n={n} has {len(elements)} elements,"
            f" the Cayley-Sylvester count is {expected}")
    return InvariantBasis(n, d, elements)


def _x_monomials(n: int, d: int, w: int) -> list:
    """Exponents over x0..xn with total degree d and x-weight w."""
    out = []
    exps = [0] * (n + 1)

    def walk(i, rem_d, rem_w):
        if i > n:
            if rem_d == 0 and rem_w == 0:
                out.append(tuple(exps))
            return
        if i == 0:
            top = rem_d
        else:
            top = min(rem_d, rem_w // i)
        for a in range(top + 1):
            exps[i] = a
            walk(i + 1, rem_d - a, rem_w - i * a)
        exps[i] = 0

    walk(0, d, w)
    ctx = x_ring(n)
    out.sort(key=lambda e: monomial_key(ctx, e))
    return out


def invariant_basis_direct(n: int, d: int) -> InvariantBasis:
    """Oracle: solve both derivation equations over the x-ring directly."""
    if (n * d) % 2:
        return InvariantBasis(n, d, ())
    candidates = _x_monomials(n, d, n * d // 2)
    if not candidates:
        return InvariantBasis(n, d, ())
    ctx = x_ring(n)
    down, up = lowering_derivation(n), raising_derivation(n)
    rows = {}
    for j, e in enumerate(candidates):
        mono = Polynomial.monomial(ctx, e)
        for tag, op in (("d", down), ("u", up)):
            for me, c in apply_derivation(op, mono).terms.items():
                rows.setdefault((tag, me), {})[j] = c
    ordered = [rows[k] for k in sorted(rows, key=lambda k: (k[0], monomial_key(ctx, k[1])))]
    out = []
    for vec in nullspace_sparse(len(candidates), ordered):
        terms = {candidates[j]: v for j, v in enumerate(vec) if v}
        out.append(normalize(Polynomial(ctx, terms)))
    return InvariantBasis(n, d, tuple(out))


def verify_invariant_x(n: int, f: Polynomial) -> bool:
    """True iff both x-ring derivations annihilate f."""
    if f.is_zero():
        raise ValueError("verify expects a nonzero polynomial")
    if apply_derivation(lowering_derivation(n), f).is_zero():
        return apply_derivation(raising_derivation(n), f).is_zero()
    return False


def verify_invariant_u(n: int, f: Polynomial) -> bool:
    """True iff f is weight-balanced and the reduced operator kills it."""
    if f.is_zero():
        raise ValueError("verify expects a nonzero polynomial")
    if not is_isobaric_balanced(f, n):
        return False
    return apply_derivation(reduced_operator(n), f).is_zero()


def _generator_power(gens: GeneratorSet, j: int, k: int, cache: dict) -> Polynomial:
    if k == 0:
        return Polynomial.one(u_ring(gens.n))
    got = cache.get((j, k))
    if got is None:
        if k == 1:
            got = gens[j].u_poly
        else:
            got = _generator_power(gens, j, k - 1, cache) * gens[j].u_poly
        cache[(j, k)] = got
    return got


def expand_candidate(gens: GeneratorSet, exps, cache: dict) -> Polynomial:
    """Product of generator powers for one exponent vector, largest last."""
    factors = [_generator_power(gens, j, k, cache)
               for j, k in enumerate(exps) if k]
    if not factors:
        return Polynomial.one(u_ring(gens.n))
    factors.sort(key=lambda p: len(p.terms))
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


def is_member(gens: GeneratorSet, f: Polynomial,
              cache: dict = None) -> Optional[Polynomial]:
    """Express f in the subring generated by gens, if possible.

    Returns the echelon particular representation as a generator-ring
    polynomial, or None when f is not a member.  f must be nonzero,
    homogeneous and isobaric.
    """
    if f.is_zero():
        raise ValueError("membership of the zero polynomial is not asked")
    degs = {sum(e) for e in f.terms}
    if len(degs) != 1:
        raise ValueError("membership needs a homogeneous polynomial")
    target = (degs.pop(), weight_u(f))
    if not len(gens):
        return None
    candidates = grad(gens.profile(), target)
    if not candidates:
        return None
    if cache is None:
        cache = {}
    rhs_col = len(candidates)
    rows = {}
    for j, exps in enumerate(candidates):
        for e, c in expand_candidate(gens, exps, cache).terms.items():
            rows.setdefault(e, {})[j] = c
    for e, c in f.terms.items():
        rows.setdefault(e, {})[rhs_col] = c
    ctx = u_ring(gens.n)
    ordered = [rows[e] for e in sorted(rows, key=lambda e: monomial_key(ctx, e))]
    sol = solve_affine_sparse(len(candidates), ordered)
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


def _next_name(d: int, taken) -> str:
    name = f"f{d}"
    suffix = "bcdefgh"
    k = 0
    while name in taken:
        name = f"f{d}{suffix[k]}"
        k += 1
    return name


def mingenset(n: int, r: int, degrees) -> GeneratorSet:
    """Minimal generating set with the prescribed degree multiset.

    Walks the degrees in ascending order, keeps every basis invariant not
    already in the subring generated so far, and insists the outcome matches
    (r, degrees) exactly; any disagreement raises DegreeMismatchError.
    """
    degrees = sorted(degrees)
    if len(degrees) != r:
        raise DegreeMismatchError(
            f"expected {r} generator degrees, got {len(degrees)}")
    gens = GeneratorSet(n, ())
    cache = {}
    taken = set()
    for d in sorted(set(degrees)):
        expected = degrees.count(d)
        found = 0
        for el in invariant_basis(n, d):
            if len(gens) and is_member(gens, el, cache) is not None:
                continue
            x_form = expand_u_to_x(el, n)
            if not (verify_invariant_u(n, el) and verify_invariant_x(n, x_form)):
                raise AssertionError("solver produced a non-invariant")
            name = _next_name(d, taken)
            taken.add(name)
            gens = gens.with_generator(
                Generator(name, d, n * d // 2, el, x_form))
            found += 1
            if found > expected:
                raise DegreeMismatchError(
                    f"more than {expected} new generators at degree {d}")
        if found != expected:
            raise DegreeMismatchError(
                f"expected {expected} new generators at degree {d}, found {found}")
    return gens
