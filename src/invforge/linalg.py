"""Exact rational linear algebra: rank, canonical nullspace, affine solve.

Both eliminators here share one contract: the canonical (RREF) nullspace
basis of the rows fed, exactly.  The RREF of a row space is unique, so
every result is deterministic no matter the insertion order of the rows.

``Eliminator`` is the exact kernel: an incremental reduced echelon form
over sparse integer rows.  Each pivot row has content 1, a positive entry
on its own pivot column and 0 on every other pivot column, so a new row is
cleared of every pivot column it meets in one pass, and the nullspace and
an affine solution are read straight off the pivot rows.
``nullspace_sparse`` and ``solve_affine_sparse`` run on it, with no
modular step: the expanded, sparse monomial systems of invariant bases,
membership, the syzygy minimality filter and the syzygy expansion route.
``integer_nullspace`` reads each canonical null vector as coprime integers
straight off the integer pivot rows, with no Fraction: invariant bases take
it, since that is already their normalized form.
An affine system [A | b] is answered from the same form: it is
inconsistent exactly when b's column is a pivot column.

``PackedEliminator`` eliminates modulo a prime, which keeps every entry
short: ``PRIME`` = 2^127 - 1 for a system whose nullspace is read, or the
word-size ``WORD_PRIME`` for one read only through its rank and ``kills``.
It is the store of the dense syzygy evaluation systems, whose rows fill
nearly every column with integers that exact elimination grows to
thousands of bits; it takes and keeps them as dense lists (a sparse dict
row is accepted too), each row modulo p is packed into one Python int, so
a row update is one big-integer multiply-add.  Its rank is a lower bound
for the rational rank of the rows it was fed, whatever the prime.  Its
nullspace is exact all the same: each modular null vector is recovered by
rational reconstruction, with a bound that follows the modulus, and then
checked with exact dot products against every row it keeps, all the
vectors at once: ``kills`` packs them into one integer per column, so one
dot product per row checks every vector.  A checked
vector for free column f has 1 on f, 0 on every other modular free column
and nothing after f, so the ncols - rank_p checked vectors are
independent; since rank_p <= rank_Q, they span the rational nullspace,
their free columns are the rational RREF's, and they are its canonical
basis.  Whenever a row has no residue, or reconstruction or a check fails,
``certified_nullspace`` eliminates the kept rows with ``Eliminator``, the
only place where dense rows become sparse dicts.

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

    def nullspace(self) -> list:
        """Canonical nullspace basis of the row space eliminated so far.

        One basis vector per free column, in ascending free-column order; the
        vector carries 1 on its free column f, -P_c[f] / P_c[c] on each pivot
        column c and 0 on every other free column: the vector of
        ``integer_nullspace`` divided by its entry on f.
        """
        basis = []
        for vec in self.integer_nullspace():
            den = vec[next(reversed(vec))]  # f, the last column
            row = [Fraction(0)] * self.ncols
            for j, v in vec.items():
                row[j] = Fraction(v, den)
            basis.append(row)
        return basis

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


PRIME = 2**127 - 1
WORD_PRIME = 2**30 - 35  # the largest prime below 2^30: one-digit CPython ints


def _residue(c, p: int) -> Optional[int]:
    """c modulo p, or None when its denominator is divisible by p."""
    if type(c) is int:  # the common case, without isinstance's ABC lookup
        return c % p
    if isinstance(c, Fraction):
        den = c.denominator % p
        if not den:
            return None
        return c.numerator * pow(den, -1, p) % p
    return c % p


def _rational(a: int, p: int) -> Optional[Fraction]:
    """The r/s with |r|, |s| <= sqrt(p/2) congruent to a modulo p, or None.

    Wang, Guy & Davenport, "P-adic reconstruction of rational numbers",
    SIGSAM Bull. 1982: stop the extended Euclidean remainder sequence of
    (p, a) at the first remainder within the bound.  The bound follows the
    modulus, so a short modulus recovers only short entries and refuses
    (None) the rest.
    """
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


class PackedEliminator:
    """Row echelon form modulo a prime that keeps every exact row it is fed.

    The modulus defaults to PRIME, whose 127 bits let ``nullspace``
    reconstruct the entries the engine's systems have.  A system read only
    through ``rank`` and ``kills`` may take WORD_PRIME instead: its residues
    are one-digit CPython ints, so every update is cheaper, and the rank
    modulo any prime is still a lower bound for the rational rank.

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
    echelon form, not reduced; ``_null_residues`` back-substitutes once at
    the end.

    Rows come as dense lists, the form of the evaluation rows: the residues
    are one comprehension and the pack one byte join.  A sparse dict row is
    spread to a list first.  A row that holds Fractions takes its residues
    entry by entry (``_residue``); one whose denominator p divides has none
    and leaves the store unreduced, so only the exact fallback reads it.
    """

    def __init__(self, ncols: int, modulus: int = PRIME):
        self.ncols = ncols
        self.modulus = modulus
        self.rows = []       # the exact rows, as fed
        self.reduced = True  # every kept row was reduced modulo the prime
        self.slot = (2 * modulus.bit_length() + (ncols + 1).bit_length() + 7) // 8
        self.echelon = []  # (pivot column, packed shifted row), ascending column

    @property
    def rank(self) -> int:
        """Rank modulo the prime: at most the rational rank of the kept rows."""
        return len(self.echelon)

    def _pack(self, residues) -> int:
        s = self.slot
        return int.from_bytes(b"".join([v.to_bytes(s, "little") for v in residues]),
                              "little")

    def _unpack(self, packed: int, count: int) -> list:
        """The first count slots of packed, each reduced modulo the prime."""
        s, p = self.slot, self.modulus
        data = packed.to_bytes(s * count, "little")
        return [int.from_bytes(data[i:i + s], "little") % p
                for i in range(0, s * count, s)]

    def add_row(self, row) -> None:
        """Feed one row: a list of ncols entries, or a sparse dict {col: value}.

        The row is kept as it came, for ``kills`` and the exact fallback.
        """
        self.rows.append(row)
        p, ncols = self.modulus, self.ncols
        if type(row) is dict:
            dense = [0] * ncols
            for j, c in row.items():
                dense[j] = c
            row = dense
        try:
            acc = self._pack([c % p for c in row])
        except AttributeError:  # a Fraction entry: c % p is a Fraction, with no to_bytes
            vals = [_residue(c, p) for c in row]
            if None in vals:
                self.reduced = False
                return
            acc = self._pack(vals)
        w = 8 * self.slot
        mask = (1 << w) - 1
        pos = start = 0  # acc's slot 0 is column pos; columns from start on are unread
        for c, pivot in self.echelon:
            if c > start:  # columns start..c-1 are free and final: the lead may be there
                gap = self._unpack((acc & ((1 << w * (c - pos)) - 1)) >> w * (start - pos),
                                   c - start)
                lead = next((start + i for i, v in enumerate(gap) if v), None)
                if lead is not None:
                    vals = self._unpack(acc >> w * (lead - pos), ncols - lead)
                    break
            acc >>= w * (c - pos)
            pos, start = c, c + 1
            f = (acc & mask) % p
            if f:
                acc += (p - f) * pivot
        else:
            vals = self._unpack(acc >> w * (start - pos), ncols - start)
            lead = next((start + i for i, v in enumerate(vals) if v), None)
            if lead is None:
                return
            vals = vals[lead - start:]
        inv = pow(vals[0], -1, p)
        insort(self.echelon, (lead, self._pack([v * inv % p for v in vals])))

    def add_rows(self, rows: Iterable) -> "PackedEliminator":
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
        rows, norm = [], 0
        for row in self.rows:
            vals = row.values() if type(row) is dict else row
            size = sum(map(abs, vals))
            if type(size) is not int:  # Fraction entries: scale the row to integers
                den = math.lcm(*(v.denominator for v in vals))
                size = int(size * den)
                if type(row) is dict:
                    row = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
                else:
                    row = [v.numerator * (den // v.denominator) for v in row]
            rows.append(row)
            norm = max(norm, size)
        width = (norm * top).bit_length() + 2
        packed = [0] * self.ncols
        for k, vec in enumerate(ints):
            for j, x in vec:
                packed[j] += x << width * k
        for row in rows:
            if type(row) is dict:
                if sum(c * packed[j] for j, c in row.items()):
                    return False
            elif sum(map(mul, row, packed)):
                return False
        return True

    def nullspace(self) -> Optional[list]:
        """The canonical nullspace basis of the kept rows, or None.

        Same form as ``Eliminator.nullspace``; None when a row could not be
        reduced modulo the prime, an entry cannot be reconstructed or a
        reconstructed vector fails ``kills``.  A full-rank store answers []
        at once: rank_p <= rank_Q <= ncols, so there is no null vector.
        """
        if self.rank == self.ncols:
            return []
        if not self.reduced:
            return None
        p = self.modulus
        basis = []
        for f, residues in self._null_residues():
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for c, v in residues.items():
                q = _rational(v, p)
                if q is None:
                    return None
                vec[c] = q
            basis.append(vec)
        if not self.kills(*({j: v for j, v in enumerate(vec) if v} for vec in basis)):
            return None
        return basis

    def _null_residues(self):
        """Per free column f, ascending: (f, {pivot column: nonzero residue})
        of the modular null vector that is 1 on f and 0 on every other free
        column, by back-substitution.

        For the free columns F, each pivot c, descending, gets its entries
        in all the null vectors at once, packed one slot per free column:
        x_c = -(row c on F + sum over pivots j > c of row_c[j] * x_j).  A
        slot sums fewer than ncols products below p^2 and one residue, so
        the slot bound of ``add_row`` holds here too.
        """
        p, ncols = self.modulus, self.ncols
        pivot_cols = {c for c, _ in self.echelon}
        free = [f for f in range(ncols) if f not in pivot_cols]
        x, packed = {}, {}  # pivot column -> its entries in the null vectors
        for c, pivot in reversed(self.echelon):
            row = self._unpack(pivot, ncols - c)
            acc = self._pack([row[f - c] if f > c else 0 for f in free])
            for j, xj in packed.items():
                if v := row[j - c]:
                    acc += v * xj
            x[c] = [-v % p for v in self._unpack(acc, len(free))]
            packed[c] = self._pack(x[c])
        for i, f in enumerate(free):
            yield f, {c: v for c, _ in self.echelon if (v := x[c][i])}


def certified_nullspace(elim: PackedEliminator) -> list:
    """Canonical nullspace basis of elim's kept rows.

    The checked modular basis when ``elim.nullspace()`` has one, else the
    basis of the kept rows eliminated exactly.
    """
    basis = elim.nullspace()
    if basis is None:
        basis = nullspace_sparse(elim.ncols, (
            row if type(row) is dict else {j: v for j, v in enumerate(row) if v}
            for row in elim.rows))
    return basis


def nullspace_sparse(ncols: int, rows: Iterable[dict]) -> list:
    """Canonical nullspace basis of the matrix given by sparse rows."""
    return Eliminator(ncols).add_rows(rows).nullspace()


def solve_affine_sparse(ncols: int, rows: Iterable[dict]) -> Optional[list]:
    """Particular solution of an affine system, or None if inconsistent.

    Each row dict maps column -> coefficient with the right-hand side stored
    under column index ``ncols``.  Free variables come back as 0: the
    solution is the one the reduced echelon form of [A | b] gives,
    x_c = P_c[ncols] / P_c[c] on each pivot column c.  The system is
    inconsistent exactly when column ``ncols`` is a pivot column.
    """
    pivots = Eliminator(ncols + 1).add_rows(rows).pivots
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for c, p in pivots.items():
        if v := p.get(ncols):
            sol[c] = Fraction(v, p[c])
    return sol


def rank_sparse(ncols: int, rows: Iterable[dict]) -> int:
    return Eliminator(ncols).add_rows(rows).rank
