"""Algebraic relations among a generating set, per weighted degree.

A syzygy is a generator-ring polynomial whose expansion through the
generator polynomials vanishes identically.  The degree-d relations are the
nullspace of the candidate-expansion matrix A (columns: generator monomials
of weighted degree d, rows: u-monomials).  Rather than expanding A, the
engine evaluates the generators at integer points: one point gives one row
of E = V*A, so null(A) is contained in null(E), and rank E <= rank A <=
dim I_d because every column of A is a degree-d invariant.  The rows go to
a ``linalg.PackedEliminator``, the modular kernel, as dense lists of values
(each row modulo the word-size prime p = ``WORD_PRIME`` is one packed
integer, so a row update is one big-integer multiply-add; evaluation rows
fill nearly every column), and points are added until the rank of E modulo
p reaches the Cayley-Sylvester count dim I_d.  Since rank_p E <= rank_Q E,
that certifies rank E = rank A = dim I_d over Q, so null(E) = null(A)
exactly and E answers both questions:

* the basis (``syzygy_basis``) is the eliminator's lifted nullspace: the
  null vectors modulo p^s by p-adic lifting, reconstructed after each step
  and checked by exact dot products.  Every checked vector is in null(E),
  there are ncols - rank_p = ncols - rank_Q of them, and each one's last
  nonzero entry is its own free column, so they are the canonical (RREF)
  basis of null(A), the same one the expansion route gives, as primitive
  integer vectors, which are the normalized relations.  A degree whose
  candidates number dim I_d has no free column: rank = ncols proves its
  basis empty, with nothing to lift;
* a relation checks (``check_syzygy``) iff each weighted-degree component
  v has E*v = 0 on the kept rows, by exact dot products alone.

A relation is minimal when no lower-degree relations give it: the
consequences in degree d are the sum over the generators f_j of f_j times
the relations of degree d - deg f_j, and ``minimal_syzygies`` reads them,
per generator, from the degree-d basis alone, checking each count against
count(e) - dim I_e.

The points lie on lines (``_Points``).  Line k draws a base point from
``random.Random(k)`` and sets one slot, the one with the largest exponent
among the generator terms, to t = 0, 1, -1, ..., 5, -5 (``LINE_STEPS``, 11
points); a line ends at its first point that does not raise the rank, or
after its last step.  Restricted to a line each generator is a polynomial
in t, so one plan evaluation per line gives all its coefficients and a
point costs one Horner step per coefficient.  The bundled systems of rank
47 (n = 6 degree 30, n = 8 degree 16) take 5 lines and no idle point.
Every row is still the exact value of E at a point, so the certificate and
every answer are unchanged.  The evaluation belongs to the generator set
(``GeneratorSet.evaluation``): the first call that evaluates builds the
plan, each line is evaluated the first time any call asks for it, and
every later call on the set reads both, so a set gives the same rows
whichever calls came before.

The generator plan (``_LinePlan``) groups each generator's terms by their
exponent a on the line's slot, so that on the line the generator is the
sum of P_a(base) * t^a, and splits the rest of each exponent tuple into a
head (the first half of the other slots) and a tail (the rest).  The
bundled octavic set has 1512 terms but 77 distinct heads and 166 distinct
tails.  At a base point, one power table per coordinate gives every
distinct head and tail value, each term is then ``c * head * tail`` and
each coefficient P_a(base) the sum of its terms.  The candidate row at a
point comes from prefix products instead (``_PrefixPlan``, one per degree,
over the generator slots with the generator values as coordinates): the
candidates, read from their last slot, form a trie in which every distinct
prefix costs one multiply at most and one ending in a zero exponent none:
88 multiplies for the 183 prefixes of the 48 candidates of n = 8 degree
16.  Products pay there because candidates are plain monomials that share
long prefixes, while generator terms carry coefficients and share halves.
All of it is exact integer (or rational) arithmetic, so every value is the
one the term-by-term product and sum give.

A certified system's basis is read back by its ``nullspace``, whose only
fallback is the exact kernel on the same rows.  Without the
certificate (a set that does not span I_d, a stalled rank, or a hand-built
generator that is no invariant of its degree; loaded and computed sets
arrive verified from ``invariants.verified_set``) the rows are those of the
expanded A instead, sparse, and they go to ``linalg.Eliminator``, the exact
kernel of invariant bases and membership.  The expanded A alone is the
test suite's reference route.

Every degree is sized by ``hilbert.relation_candidate_count`` before
anything is enumerated or evaluated: a degree above ``hilbert.MAX_DEGREE``
is refused with ValueError before it is counted, and one with more than
``hilbert.MAX_RELATION_CANDIDATES`` generator monomials after.
``minimal_syzygies`` sizes every requested degree before it works on the
first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice

from .exponents import powers2
from .hilbert import generator_monomial_count, invariant_dimension, relation_candidate_count
from .invariants import (
    DimensionMismatchError,
    GeneratorSet,
    expand_candidate,
    monomial_rows,
    primitive_polynomial,
)
from .linalg import Eliminator, PackedEliminator
from .rings import ContextMismatchError, Polynomial, u_ring

# The certificate gives up after this many consecutive points that do not
# raise the rank.  Base point coordinates are drawn from [-POINT_RANGE,
# POINT_RANGE], and a line visits t in that range too, nearest 0 first
# (small values keep the integers in the elimination short).  Ranges 3..7
# measured alike per `relations` pass; 5 gives the fewest lines without an
# idle point on the bundled systems, and n = 8 degree 24 took 19 lines
# instead of 29 at range 3.
IDLE_POINTS = 8
POINT_RANGE = 5
LINE_STEPS = (0,) + tuple(s * t for t in range(1, POINT_RANGE + 1) for s in (1, -1))


@dataclass(frozen=True)
class Syzygy:
    relation: Polynomial  # generator-ring polynomial, normalized
    degree: int           # weighted degree sum(a_j * deg f_j)


def expand_in_generators(gens: GeneratorSet, g: Polynomial) -> Polynomial:
    """Substitute every generator symbol by its u-polynomial, exactly.

    Each term's generator product is scaled into one accumulating dict.
    """
    if g.context != gens.gen_context():
        raise ContextMismatchError("relation is over a different generator set")
    powers, out = {}, {}
    for e, c in g.terms.items():
        for m, v in expand_candidate(gens, e, powers).terms.items():
            out[m] = out.get(m, 0) + c * v
    return Polynomial(u_ring(gens.n), out)


def _count(gens: GeneratorSet, d: int) -> int:
    """Number of degree-d generator monomials, sized by
    ``hilbert.relation_candidate_count``."""
    if not len(gens):
        raise ValueError("need a nonempty generator set")
    return relation_candidate_count(gens.n, gens.degrees(), d)


def _candidates(gens: GeneratorSet, d: int) -> list:
    return powers2(gens.degrees(), d) if _count(gens, d) else []


class _PrefixPlan:
    """Exact values of exponent vectors (monomials) at a point, by prefix
    products.

    Read from the last slot to the first, the vectors form a trie: a prefix
    is its parent prefix times x^a, one multiply from the power table of its
    slot, and a prefix whose last exponent is 0 is its parent, with no
    multiply.  The canonical order sorts a degree's candidates by that same
    reading, so a prefix shared by consecutive vectors is made once and
    every distinct prefix costs at most one multiply; any other order still
    gives the right values.
    """

    def __init__(self, exps, slots: int):
        parents = [[] for _ in range(slots)]  # per depth: (depth, index) of each parent
        powers = [[] for _ in range(slots)]
        # the current vector's prefix nodes; (-1, 0) is the empty prefix, 1
        node = [(-1, 0)] * (slots + 1)
        prev, out = (), []
        for e in exps:
            r = e[::-1]
            start = 0
            for a, b in zip(r, prev):
                if a != b:
                    break
                start += 1
            for i in range(start, slots):
                if a := r[i]:
                    parents[i].append(node[i])
                    powers[i].append(a)
                    node[i + 1] = (i, len(powers[i]) - 1)
                else:
                    node[i + 1] = node[i]
            out.append(node[slots])
            prev = r
        # one flat list of values: 1, then each depth's new prefixes
        offset = {-1: 0}
        for i in range(slots):
            offset[i] = offset[i - 1] + (len(powers[i - 1]) if i else 1)
        self.steps = [(slots - 1 - i, [offset[d] + k for d, k in parents[i]],
                       powers[i], max(powers[i]))
                      for i in range(slots) if powers[i]]
        self.out = [offset[d] + k for d, k in out]

    def values(self, point) -> list:
        """One exact value per exponent vector; point has one number per slot."""
        flat = [1]
        for slot, parents, powers, top in self.steps:
            x = point[slot]
            table = [1]
            for _ in range(top):
                table.append(table[-1] * x)
            flat += [flat[p] * table[a] for p, a in zip(parents, powers)]
        return [flat[k] for k in self.out]


class _LinePlan:
    """Coefficients in t of term dicts on a line that varies one slot.

    On the line a term dict is the sum over a of P_a(base) * t^a, P_a its
    terms with exponent a on ``slot``.  A term's other exponents index a
    table of distinct heads (the first half of those slots) and one of
    distinct tails (the rest); see the module docstring.
    """

    def __init__(self, polys, slots: int, slot: int):
        cut = (slots - 1) // 2
        heads, tails = {}, {}
        self.coeffs, self.head_of, self.tail_of = [], [], []
        self.sizes, self.lengths = [], []  # terms per P_a; coefficients per term dict
        for terms in polys:
            parts = {}
            for e, c in terms.items():
                parts.setdefault(e[slot], []).append((e[:slot] + e[slot + 1:], c))
            self.lengths.append(max(parts) + 1)
            for a in range(max(parts) + 1):
                part = parts.get(a, [])
                self.sizes.append(len(part))
                for rest, c in part:
                    self.coeffs.append(c)
                    self.head_of.append(heads.setdefault(rest[:cut], len(heads)))
                    self.tail_of.append(tails.setdefault(rest[cut:], len(tails)))
        self.slot, self.cut = slot, cut
        # one exponent column per slot but ``slot``: the head slots, then the tail slots
        self.head_cols = [list(col) for col in zip(*heads)]
        self.tail_cols = [list(col) for col in zip(*tails)]
        self.tops = [max(col) for col in self.head_cols + self.tail_cols]

    def coefficients(self, base) -> list:
        """Per term dict, its coefficients in t, lowest first."""
        tables = []
        for x, top in zip(base[:self.slot] + base[self.slot + 1:], self.tops):
            table = [1]
            for _ in range(top):
                table.append(table[-1] * x)
            tables.append(table)
        head = _products(tables[:self.cut], self.head_cols)
        tail = _products(tables[self.cut:], self.tail_cols)
        terms = iter([c * head[a] * tail[b]
                      for c, a, b in zip(self.coeffs, self.head_of, self.tail_of)])
        parts = iter([sum(islice(terms, k)) for k in self.sizes])
        return [list(islice(parts, k)) for k in self.lengths]


def _products(tables, columns) -> list:
    """Per row r, the product of tables[i][columns[i][r]] over i; with no
    columns, [1] for the one empty row."""
    if not columns:
        return [1]
    vals = [tables[0][k] for k in columns[0]]
    for table, col in zip(tables[1:], columns[1:]):
        vals = [v * table[k] for v, k in zip(vals, col)]
    return vals


def _horner(coeffs, t):
    v = 0
    for c in reversed(coeffs):
        v = v * t + c
    return v


class _Points:
    """Generator values on a fixed sequence of lines, one per generator set.

    A set builds its own on the first call that evaluates (see
    ``GeneratorSet.evaluation``) and keeps it for its lifetime.  Line k
    draws a base point from ``random.Random(k)`` and varies one slot: the
    one with the largest exponent among the generator terms (the first
    such).  The ``_LinePlan`` gives each generator's coefficients in t once
    per line, the first time the line is asked for; each point of the line
    then costs one Horner step per coefficient.  Every value is the same on
    a set first asked now and on one asked before.
    """

    def __init__(self, gens: GeneratorSet):
        polys = [g.u_poly.terms for g in gens]
        tops = [max(col) for col in zip(*chain.from_iterable(polys))]
        self.plan = _LinePlan(polys, len(tops), tops.index(max(tops)))
        self.n = gens.n
        self.lines = []

    def values(self, k: int, t: int) -> list:
        """The generator values at the point t of line k."""
        while len(self.lines) <= k:
            rng = random.Random(len(self.lines))
            self.lines.append(self.plan.coefficients(
                [rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(self.n)]))
        return [_horner(coeffs, t) for coeffs in self.lines[k]]


def _certified_system(gens: GeneratorSet, d: int, candidates: list):
    """PackedEliminator over evaluation rows with rank dim I_d, or None.

    The rows come from the points t in LINE_STEPS of lines 0, 1, ...; a
    line ends at its first point that does not raise the rank.
    """
    target = invariant_dimension(gens.n, d)
    if len(candidates) < target or not gens.verified:
        return None
    points, monomials = gens.evaluation, _PrefixPlan(candidates, len(gens))
    elim = PackedEliminator(len(candidates))
    k = idle = 0
    while elim.rank < target and idle < IDLE_POINTS:
        for t in LINE_STEPS:
            before = elim.rank
            elim.add_row(monomials.values(points.values(k, t)))
            if elim.rank == before:
                idle += 1
                break
            idle = 0
            if elim.rank == target:
                break
        k += 1
    return elim if elim.rank == target else None


def _expansion_rows(gens: GeneratorSet, candidates: list) -> list:
    """Sparse rows of the expanded candidate matrix A."""
    powers = {}
    columns = (expand_candidate(gens, e, powers) for e in candidates)
    return monomial_rows(u_ring(gens.n), columns)


def syzygy_basis(gens: GeneratorSet, d: int) -> list:
    """Canonical basis of all relations of weighted degree d."""
    candidates = _candidates(gens, d)
    if not candidates:
        return []
    system = _certified_system(gens, d, candidates)
    if system is None:
        vectors = Eliminator(len(candidates)).add_rows(
            _expansion_rows(gens, candidates)).integer_nullspace()
    else:
        vectors = system.nullspace()
    ctx = gens.gen_context()
    return [Syzygy(primitive_polynomial(ctx, candidates, vec), d) for vec in vectors]


def check_syzygy(gens: GeneratorSet, relation: Polynomial) -> bool:
    """True iff the relation expands to the exact zero polynomial.

    Each weighted-degree component must be exactly orthogonal to every row
    of its degree's certified evaluation system; a component without a
    certificate is expanded instead.
    """
    if relation.is_zero():
        return True
    if relation.context != gens.gen_context():
        raise ContextMismatchError("relation is over a different generator set")
    degs = gens.degrees()
    parts = {}
    for e, c in relation.terms.items():
        parts.setdefault(sum(a * k for a, k in zip(e, degs)), {})[e] = c
    for d, terms in parts.items():
        candidates = _candidates(gens, d)
        system = _certified_system(gens, d, candidates)
        if system is None:
            part = Polynomial(relation.context, terms)
            if not expand_in_generators(gens, part).is_zero():
                return False
            continue
        index = {e: j for j, e in enumerate(candidates)}
        if not system.kills({index[e]: c for e, c in terms.items()}):
            return False
    return True


def minimal_syzygies(gens: GeneratorSet, degrees) -> list:
    """Minimal relations per degree: the basis relations that are no
    consequence of lower-degree relations.

    The degree-d consequences are C_d = sum over j of f_j * Rel_e, e =
    d - deg f_j.  The generator ring is a domain with no zero generator, so
    f_j * S is a relation exactly when S is one, and f_j * Rel_e is the set
    of degree-d relations every term of which contains f_j: the null space
    of the basis coefficients on the candidates without f_j.  Its dimension
    is dim Rel_e.  For a verified set (every generator an invariant, so the
    degree-e generator monomials map into I_e) that is at least count(e) -
    dim I_e (count(e) the generator monomials of degree e), with equality
    when the generators span I_e; a smaller one raises
    DimensionMismatchError (a larger one comes from a hand-built set that
    does not span I_e).  An unverified set bounds nothing and is not
    counted.  Then, in basis coordinates,
    the columns are the consequence vectors followed by the k unit vectors:
    a basis relation is minimal iff its unit column is a pivot column.
    Each degree reads its own basis only; minimal relations keep the basis
    order, degrees ascending.
    """
    degrees = sorted(set(degrees))
    for d in degrees:
        _count(gens, d)
    minimal = []
    for d in degrees:
        basis = syzygy_basis(gens, d)
        if basis:
            minimal += _minimal(gens, d, basis)
    return minimal


def _minimal(gens: GeneratorSet, d: int, basis: list) -> list:
    k, degs = len(basis), gens.degrees()
    consequences = []
    for j, deg in enumerate(degs):
        rows = {}
        for i, s in enumerate(basis):
            for e, c in s.relation.terms.items():
                if not e[j]:
                    rows.setdefault(e, {})[i] = c
        elim = Eliminator(k)
        for row in rows.values():
            elim.add_row(row)
            if elim.rank == k:
                break
        vectors = elim.integer_nullspace()
        low = d - deg
        if low >= 0 and gens.verified:
            least = generator_monomial_count(degs, low) - invariant_dimension(gens.n, low)
            if len(vectors) < least:
                raise DimensionMismatchError(
                    f"degree-{d} relations for n={gens.n} hold {len(vectors)}"
                    f" independent multiples of {gens[j].name}, below the"
                    f" {least} that the degree-{low} count asks for")
        consequences += vectors
    m = len(consequences)
    elim = Eliminator(m + k)
    for i in range(k):
        row = {c: vec[i] for c, vec in enumerate(consequences) if i in vec}
        row[m + i] = 1
        elim.add_row(row)
    return [s for i, s in enumerate(basis) if m + i in elim.pivots]
