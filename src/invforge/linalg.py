"""Exact rational linear algebra: rank, canonical nullspace, affine solve.

Both eliminators here share one contract: the canonical (RREF) nullspace
basis of the rows fed, exactly.  The RREF of a row space is unique, so
every result is deterministic no matter the insertion order of the rows.

``Eliminator`` is the exact kernel: an incremental reduced echelon form
over sparse integer rows.  Each pivot row has content 1, a positive entry
on its own pivot column and 0 on every other pivot column, so a new row is
cleared of every pivot column it meets in one pass, and the nullspace and
an affine solution are read straight off the pivot rows.
It solves, with no modular step, the expanded sparse monomial systems of
invariant bases, membership (``solve_affine_sparse``) and the syzygy
expansion route, and the small basis-coordinate systems of the syzygy
minimality filter.  ``integer_nullspace`` reads each canonical null vector
as coprime integers straight off the integer pivot rows, with no Fraction:
invariant bases and relations take it, since that is already their
normalized form; ``nullspace_sparse`` divides the same vectors by their
entry on the free column, as Fractions, for callers that want that form.
An affine system [A | b] is answered from the same form: it is
inconsistent exactly when b's column is a pivot column.  Its rows are
eliminated only until the answer is fixed: when b's column becomes a pivot
(None), or when every column of A is one.  A system of full column rank
has one solution, which is then certified exactly on the rows left, one
exact dot product each; membership systems, many times taller than
wide, reach full rank after a small share of their rows.

``PackedEliminator`` eliminates modulo ``WORD_PRIME``, the largest prime
below 2^30, whose residues are one-digit CPython ints.  It is the store of
the dense syzygy evaluation systems, whose rows fill nearly every column
with integers that exact elimination grows to thousands of bits; it takes
them as dense lists and keeps them as integers (a row of Fractions scaled
by the lcm of its denominators, which leaves its row space unchanged), each
row modulo p is packed into one Python int, so a row update is one
big-integer multiply-add.  Its rank is a lower bound for the rational rank
of the rows it was fed.  Its nullspace is exact all the same: every row
that raises the rank records the multipliers it took and its normalizing
inverse, so the echelon solves modulo p, and p-adic lifting (Dixon) gives
the null vectors modulo p^s, every free column at once.  After each step
the vectors are reconstructed with one common denominator and checked with
exact dot products against every row kept, all the vectors at once:
``kills`` packs them into one integer per column, so one dot product per
row checks every vector.  The first checked set whose vectors each end on
their own free column is the canonical basis, as primitive integer vectors
(the form of ``integer_nullspace``): the ncols - rank_p vectors are
independent, since rank_p <= rank_Q they span the rational nullspace, and
their last columns are the rational RREF's free columns.  Whenever the
pivots modulo p are not the rational ones or lifting reaches its step cap
(a Hadamard bound on the entries, from the rows themselves),
``nullspace`` eliminates the kept rows with ``Eliminator`` instead, the
only place where dense rows become sparse dicts, so it always answers.

The kernel follows from how a system is built, never from an option.  On
sparse rows an exact update touches only the entries present, and the
exact kernel measured faster than the certified modular route it replaced
there, with identical answers (``BENCH_exact_kernel.json``); the packed
store pays full-width big-integer work for a few entries, and behind the
sparse systems it read 2.3 times slower on the ``generators`` benchmark
(``BENCH_packed_kernel.json``, ``store_choice``).
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterable, Optional


class Eliminator:
    """Incremental reduced echelon form over integer rows; columns are
    0..ncols-1 in fixed order."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        # pivot column -> integer row: content 1, a positive entry on its
        # pivot column, 0 on every other pivot column
        self.pivots = {}

    def add_row(self, row: dict) -> None:
        pivots = self.pivots
        # pivot rows vanish on every other pivot column, so one pass clears
        # them all: L * row - sum of (row[c] * L / lead_c) * P_c, with L the
        # lcm of the leads met (1 when there are none)
        m = math.lcm(*(pivots[c][c] for c in row if c in pivots))
        acc = {j: v * m for j, v in row.items()} if m != 1 else dict(row)
        for c, v in row.items():
            p = pivots.get(c)
            if p is not None:
                f = v * (m // p[c])
                for j, w in p.items():
                    acc[j] = acc.get(j, 0) - f * w
        acc = {j: v for j, v in acc.items() if v}
        if not acc:
            return
        # integers with content 1 and a positive lead
        if any(type(v) is not int for v in acc.values()):
            den = math.lcm(*(v.denominator for v in acc.values()))
            acc = {j: v.numerator * (den // v.denominator) for j, v in acc.items()}
        c = min(acc)
        g = math.gcd(*acc.values())
        if acc[c] < 0:
            g = -g
        if g != 1:
            acc = {j: v // g for j, v in acc.items()}
        # clear column c from every earlier pivot row, in place
        a = acc[c]
        for c0, p in pivots.items():
            f = p.get(c)
            if f is None:
                continue
            g = math.gcd(a, f)
            s = a // g
            if s != 1:
                for j in p:
                    p[j] *= s
            f //= g
            for j, v in acc.items():
                w = p.get(j, 0) - f * v
                if w:
                    p[j] = w
                else:
                    del p[j]
            if p[c0] != 1:
                g = math.gcd(*p.values())
                if g != 1:
                    for j in p:
                        p[j] //= g
        pivots[c] = acc

    def add_rows(self, rows: Iterable[dict]) -> "Eliminator":
        for row in rows:
            if row:
                self.add_row(row)
        return self

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def integer_nullspace(self) -> list:
        """The canonical nullspace basis, each vector scaled to integers.

        Per free column f, ascending: the canonical vector for f (1 on f,
        -P_c[f] / P_c[c] on each pivot column c, 0 elsewhere) times the
        least common denominator of its entries, as {column: entry} in
        ascending column order, so f comes last.  That puts the lcm,
        positive, on f, and leaves content 1: a smaller multiple would make
        every entry integral already.  No Fraction is built.
        """
        pivots = self.pivots
        entries = {f: [] for f in range(self.ncols) if f not in pivots}
        for c in sorted(pivots):
            p = pivots[c]
            lead = p[c]
            for f, v in p.items():
                if f != c:
                    entries[f].append((c, v, lead))
        basis = []
        for f, col in entries.items():
            den = math.lcm(*(lead // math.gcd(lead, v) for _, v, lead in col))
            vec = {c: -v * den // lead for c, v, lead in col}
            vec[f] = den
            basis.append(vec)
        return basis


WORD_PRIME = 2**30 - 35  # the largest prime below 2^30: one-digit CPython ints


def _rational(a: int, m: int) -> Optional[Fraction]:
    """The r/s with |r|, |s| <= sqrt(m/2) congruent to a modulo m, or None.

    Wang, Guy & Davenport, "P-adic reconstruction of rational numbers",
    SIGSAM Bull. 1982: stop the extended Euclidean remainder sequence of
    (m, a) at the first remainder within the bound.  The bound follows the
    modulus, so a short modulus recovers only short entries and refuses
    (None) the rest.
    """
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _primitive_vector(residues: dict, m: int) -> Optional[dict]:
    """The primitive integer vector on the rational vector that ``residues``
    ({column: residue modulo m}) stands for, or None.

    The entries share one growing denominator D (Bright & Storjohann,
    "Vector rational number reconstruction", ISSAC 2011): an entry whose
    D-multiple modulo m lies within sqrt(m/2) needs no reconstruction, and
    any other one is reconstructed alone by ``_rational`` and multiplies D
    by what its denominator lacks.  The vector times the final D is then
    divided by the gcd of its entries and signed positive on its last
    column.  Zero entries are dropped, and the column order is kept.
    """
    bound, den, nums = math.isqrt(m // 2), 1, []
    for j, a in residues.items():
        v = a * den % m
        if v > bound:
            v -= m
            if v < -bound:
                q = _rational(a, m)
                if q is None:
                    return None
                den *= q.denominator // math.gcd(den, q.denominator)
                v = q.numerator * (den // q.denominator)
        if v:
            nums.append((j, v, den))
    vec = {j: v * (den // at) for j, v, at in nums}
    g = math.gcd(*vec.values())
    if nums[-1][1] < 0:
        g = -g
    return {j: v // g for j, v in vec.items()}


def _pack(values: list, width: int) -> int:
    """One int of little-endian slots of width bytes, one per value; a
    single int value is its own packing."""
    if len(values) == 1 and type(values[0]) is int:
        return values[0]
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]),
                          "little")


def _unpack(packed: int, count: int, width: int) -> list:
    """The first count slots of width bytes of a nonnegative packed int."""
    if count == 1:
        return [packed & ((1 << 8 * width) - 1)]
    data = packed.to_bytes(width * count, "little")
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, width * count, width)]


class PackedEliminator:
    """Row echelon form modulo WORD_PRIME that keeps every exact row it is fed.

    A row modulo p is one Python int made of fixed-width little-endian byte
    slots, one per column, so a row update is one multiply-add on big
    integers (Dumas, Fousse & Salvy, "Simultaneous modular reduction and
    Kronecker substitution for small finite fields", J. Symb. Comput. 46,
    2011).  The pivot row of column c lives in ``echelon`` and is stored
    shifted: slot 0 is column c and holds 1, slot k column c + k, every slot
    a residue below p.  A new row is reduced by walking the pivots in
    ascending column order: the accumulator is shifted down to the pivot's
    column, f = (acc & mask) mod p is read off slot 0, and (p - f) * pivot
    is added.  Every term is nonnegative, so no borrow crosses a slot, and a
    slot starts below p and takes at most ncols additions of less than p^2:
    it stays below (ncols + 1) * p^2 < 2^(2 bits(p) + bits(ncols + 1)),
    which is the slot width, rounded up to whole bytes.  The walk stops
    early at a non-pivot column that is nonzero modulo p; that column, or
    else the first such one after the last pivot, becomes the new pivot,
    found and normalized by one unpack of the row.  Pivot rows stay in
    echelon form, not reduced.

    Each row that raises the rank leaves in ``solver`` the multipliers p - f
    it took from each pivot and the inverse that normalized it, so the
    echelon also solves, modulo p, any system whose rows are the rows that
    raised the rank (``_lift``).

    Rows come as dense lists, the form of the evaluation rows: the residues
    are one comprehension and the pack one byte join.  A row that holds
    Fractions is scaled to integers by the lcm of its denominators once, and
    that integer row is eliminated and kept.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []  # the rows fed, as integers
        self.slot = (2 * WORD_PRIME.bit_length() + (ncols + 1).bit_length() + 7) // 8
        self.echelon = []  # (pivot column, packed shifted row), ascending column
        # per row that raised the rank, in the order fed: (the row, its
        # pivot column c, the multiplier p - f it took from each column
        # before c, 0 off the pivots, the inverse that normalized it, its
        # pivot row from c on)
        self.solver = []

    @property
    def rank(self) -> int:
        """Rank modulo the prime: at most the rational rank of the kept rows."""
        return len(self.echelon)

    def add_row(self, row: list) -> None:
        """Feed one row: a dense list of ncols ints or Fractions.

        A row that holds Fractions is scaled to integers by the lcm of its
        denominators; the integer row is kept, for ``kills``, ``_lift`` and
        the exact fallback.
        """
        p, ncols, s = WORD_PRIME, self.ncols, self.slot
        try:
            acc = _pack([c % p for c in row], s)
        except AttributeError:  # a Fraction entry: c % p is a Fraction, with no to_bytes
            den = math.lcm(*(c.denominator for c in row))
            row = [c.numerator * (den // c.denominator) for c in row]
            acc = _pack([c % p for c in row], s)
        self.rows.append(row)
        w = 8 * s
        mask = (1 << w) - 1
        taken = []  # (pivot column, multiplier p - f) where f was nonzero
        pos = start = 0  # acc's slot 0 is column pos; columns from start on are unread
        for c, pivot in self.echelon:
            if c > start:  # columns start..c-1 are free and final: the lead may be there
                gap = _unpack((acc & ((1 << w * (c - pos)) - 1)) >> w * (start - pos),
                              c - start, s)
                lead = next((start + i for i, v in enumerate(gap) if v % p), None)
                if lead is not None:
                    vals = _unpack(acc >> w * (lead - pos), ncols - lead, s)
                    break
            acc >>= w * (c - pos)
            pos, start = c, c + 1
            f = (acc & mask) % p
            if f:
                acc += (p - f) * pivot
                taken.append((c, p - f))
        else:
            vals = _unpack(acc >> w * (start - pos), ncols - start, s)
            lead = next((start + i for i, v in enumerate(vals) if v % p), None)
            if lead is None:
                return
            vals = vals[lead - start:]
        inv = pow(vals[0], -1, p)
        vals = [v * inv % p for v in vals]
        insort(self.echelon, (lead, _pack(vals, s)))
        mult = [0] * lead
        for c, m in taken:
            mult[c] = m
        self.solver.append((row, lead, mult, inv, vals))

    def add_rows(self, rows: Iterable[list]) -> "PackedEliminator":
        for row in rows:
            if row:
                self.add_row(row)
        return self

    def kills(self, *vectors) -> bool:
        """True iff every kept row is exactly orthogonal to every vector.

        Each vector is a dict {col: value}, scaled here to integers.  The
        vectors are packed into one integer per column, vector k in the
        balanced slot k of B bits, B = bits(largest row l1 norm * largest
        entry) + 2.  A row's dot product with the packed columns is then the
        sum of its dot products with the vectors, each shifted to its slot;
        every one is below 2^(B - 2) in absolute value, so the sum is 0
        exactly when every one is.  One dot product per row checks them all.
        """
        ints = []
        for vec in vectors:
            den = math.lcm(*(v.denominator for v in vec.values()))
            ints.append([(j, v.numerator * (den // v.denominator))
                         for j, v in vec.items() if v])
        top = max((abs(x) for vec in ints for _, x in vec), default=0)
        if not top:
            return True
        norm = max((sum(map(abs, row)) for row in self.rows), default=0)
        width = (norm * top).bit_length() + 2
        packed = [0] * self.ncols
        for k, vec in enumerate(ints):
            for j, x in vec:
                packed[j] += x << width * k
        return not any(sum(map(mul, row, packed)) for row in self.rows)

    def nullspace(self) -> list:
        """The canonical nullspace basis of the kept rows.

        Same form as ``Eliminator.integer_nullspace``: per free column f,
        ascending, the canonical vector scaled to integers of content 1,
        positive on f, as {column: entry} in ascending column order.  The
        lifted basis when there is one, else that of the kept rows
        eliminated exactly.
        """
        basis = self._lifted_nullspace()
        if basis is None:
            exact = Eliminator(self.ncols).add_rows(
                {j: v for j, v in enumerate(row) if v} for row in self.rows)
            basis = exact.integer_nullspace()
        return basis

    def _lifted_nullspace(self) -> Optional[list]:
        """The canonical nullspace basis by p-adic lifting, or None.

        The vectors come from ``_lift``; after each lifting step every vector
        is reconstructed (``_primitive_vector``), and the first set in which
        each vector ends on its own free column and which ``kills`` accepts
        is the answer: those ncols - rank_p vectors are independent null
        vectors of the kept rows with distinct last columns, and since
        rank_p <= rank_Q they span the rational nullspace, their last columns
        are the free columns of the rational RREF, and they are its canonical
        basis.  None when a lifted vector has an entry past its free column
        (the pivot columns modulo p are not the rational ones, which no
        further step changes), or when the step cap passes with no accepted
        set.  A full-rank store answers [] at once: rank_p <= rank_Q <=
        ncols, so there is no null vector.
        """
        if self.rank == self.ncols:
            return []
        pivots = [c for c, _ in self.echelon]
        free = sorted(set(range(self.ncols)).difference(pivots))
        for m, x in self._lift(free):
            basis = []
            for f, xf in zip(free, x):
                entries = dict(zip(reversed(pivots), xf))
                if any(entries[c] for c in pivots if c > f):
                    return None
                vec = _primitive_vector({**{c: entries[c] for c in pivots if c < f}, f: 1}, m)
                if vec is None:
                    break
                basis.append(vec)
            else:
                if self.kills(*basis):
                    return basis
        return None

    def _lift(self, free):
        """Dixon's p-adic lifting of the null vectors (Dixon, "Exact solution
        of linear equations using p-adic expansions", Numer. Math. 40, 1982).

        Let A be the r rows that raised the rank (``solver``, as integers)
        and B its pivot columns, invertible modulo p.  The null vector of
        free column f is 1 on f, 0 on the other free columns and y on the
        pivot columns, with B y = -A e_f.  Per step, y_s = B^-1 R mod p,
        where R starts as -A e_f, and then R = (R - A y_s) / p exactly, so
        that y = sum p^s y_s.  After each step s this yields (p^s, x), x
        holding per free column its y modulo p^s on the pivot columns,
        descending; at most ``cap`` steps are taken.

        Every free column goes through each step in one pass: the
        right-hand sides and y_s are packed one slot per free column.  B^-1
        modulo p is the echelon read backwards: the recorded multipliers and
        inverses turn R into the right-hand sides of the pivot rows
        (forward, in the order fed), and back-substitution on the pivot
        rows, descending, with their entries negated, gives y_s.  Both sums
        have nonnegative slots below (ncols + 1) * p^2, so they take the
        slots of ``add_row`` and are reduced modulo p slot by slot.  The
        exact residual of each free column is one integer of balanced slots
        (each slot signed, the sum taken as one integer), one per row, of B
        bits with 2^(B - 1) above ncols * (largest entry) * p, within which
        R - A y_s stays; the pivot columns of A are packed the same way, so
        R - A y_s is one dot product of them with y_s, and the division by p
        is exact, every slot being a multiple of p.

        The step cap: by Cramer's rule every entry of y is a ratio of r x r
        minors of A, which Hadamard's inequality bounds by H = product over
        the rows of sqrt(ncols) * (largest entry).  Once p^s > 2 H^2,
        ``_rational`` recovers every entry exactly, so more steps change
        nothing.
        """
        p, ncols, k, s = WORD_PRIME, self.ncols, len(free), self.slot
        solver, r = self.solver, self.rank
        top = hbits = 0
        for row, *_ in solver:
            big = max(max(row), -min(row))
            top = max(top, big)
            hbits += big.bit_length() + (ncols.bit_length() + 1) // 2
        cap = (2 * hbits + 1) // (p.bit_length() - 1) + 1
        width = (ncols * top * p).bit_length() // 8 + 1
        half = 1 << 8 * width - 1
        offset = _pack([half] * r, width)  # half in every slot: balanced to unsigned
        # the pivot rows, descending, negated past their pivot
        back = sorted(((lead, [p - v if v else 0 for v in vals[1:]])
                       for _, lead, _, _, vals in solver), reverse=True)
        rows = [row for row, *_ in solver]
        columns = [_pack([half + row[c] for row in rows], width) - offset for c, _ in back]
        residual = [_pack([half - row[f] for row in rows], width) - offset for f in free]
        x = [[0] * r for _ in free]
        scale = 1
        for _ in range(cap):
            residues = zip(*[[(v - half) % p for v in _unpack(res + offset, r, width)]
                             for res in residual])
            rhs = [0] * ncols
            for (_, lead, taken, inv, _), b in zip(solver, residues):
                rhs[lead] = _pack([(u + v) * inv % p for u, v in zip(
                    b, _unpack(sum(map(mul, taken, rhs)), k, s))], s)
            y, digits = [0] * ncols, []
            for c, tail in back:
                d = [v % p for v in _unpack(
                    rhs[c] + sum(map(mul, tail, islice(y, c + 1, None))), k, s)]
                y[c] = _pack(d, s)
                digits.append(d)
            for i, yi in enumerate(zip(*digits)):
                residual[i] = (residual[i] - sum(map(mul, columns, yi))) // p
                x[i] = [a + v * scale for a, v in zip(x[i], yi)]
            scale *= p
            yield scale, x


def nullspace_sparse(ncols: int, rows: Iterable[dict]) -> list:
    """Canonical nullspace basis of the matrix given by sparse rows, as
    Fraction vectors: each vector of ``Eliminator.integer_nullspace`` divided
    by its entry on its free column f, its last, so that it is 1 on f,
    -P_c[f] / P_c[c] on each pivot column c and 0 on every other column."""
    basis = Eliminator(ncols).add_rows(rows).integer_nullspace()
    return [[Fraction(vec.get(j, 0), vec[max(vec)]) for j in range(ncols)]
            for vec in basis]


def solve_affine_sparse(ncols: int, rows: Iterable[dict]) -> Optional[list]:
    """Particular solution of an affine system, or None if inconsistent.

    Each row dict maps column -> coefficient with the right-hand side stored
    under column index ``ncols``.  Free variables come back as 0: the
    solution is the one the reduced echelon form of [A | b] gives,
    x_c = P_c[ncols] / P_c[c] on each pivot column c.  The system is
    inconsistent exactly when column ``ncols`` is a pivot column.

    The rows are eliminated in the order given, and elimination stops as
    soon as the answer is fixed.  Once column ``ncols`` is a pivot, the
    rows fed so far are inconsistent, so the whole system is: None.  Once
    every one of the ncols columns is a pivot (and ``ncols`` is not), the
    rows fed have the unique solution x_c = P_c[ncols] / P_c[c], which is
    the reduced echelon one whenever the system is consistent.  It is then
    scaled to integers X over the common denominator D of its entries, and
    each remaining row r is checked by one exact dot product,
    sum r[j] X_j == r[ncols] D: the answer is x if every row holds, else
    None.  A system that never reaches full column rank is eliminated
    whole.
    """
    elim = Eliminator(ncols + 1)
    pivots = elim.pivots
    rows = iter(rows)
    while len(pivots) < ncols:
        row = next(rows, None)
        if row is None:
            break
        if row:
            elim.add_row(row)
            if ncols in pivots:
                return None
    sol = [Fraction(0)] * ncols
    for c, p in pivots.items():
        if v := p.get(ncols):
            sol[c] = Fraction(v, p[c])
    if len(pivots) == ncols:
        # full column rank: one exact dot product per row not eliminated
        den = math.lcm(*(p[c] for c, p in pivots.items()))
        scaled = [x.numerator * (den // x.denominator) for x in sol] + [-den]
        for row in rows:
            if sum([v * scaled[j] for j, v in row.items()]):
                return None
    return sol


def rank_sparse(ncols: int, rows: Iterable[dict]) -> int:
    return Eliminator(ncols).add_rows(rows).rank
