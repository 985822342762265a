"""Exact rational linear algebra: rank, canonical nullspace, affine solve.

Every eliminator here shares one contract: the canonical (RREF) nullspace
basis of the rows fed, exactly.  The RREF of a row space is unique, so
every result here is deterministic no matter the insertion order of the
rows.

``ModularEliminator`` eliminates modulo a prime, which keeps every entry
short: by default the Mersenne prime ``PRIME`` = 2^127 - 1, or the
word-size ``WORD_PRIME`` for a system read only through its rank and
``kills``.  Its rank is a lower bound for the rational rank of the rows it
was fed, whatever the prime.  Its nullspace is exact all the same: each
modular null vector is recovered by rational reconstruction, with a bound
that follows the modulus, and then checked with exact dot products against
every row it keeps.  A checked vector for free column f has 1 on f, 0 on
every other modular free column and nothing after f, so the
ncols - rank_p checked vectors are independent; since rank_p <= rank_Q,
they span the rational nullspace, their free columns are the rational
RREF's, and they are its canonical basis.  Whenever a row has no residue,
or reconstruction or a check fails, the method returns None.

It has two row stores, which share the kept rows, ``kills`` and that
certificate, and differ only in where the pivot rows live, how rows are
reduced and how the modular null vectors are read:

* ``ModularEliminator`` itself keeps the RREF as sparse dicts, so an update
  touches only the entries present: the store for the expanded, sparse
  monomial systems of invariant bases, membership and the syzygy
  minimality filter (``nullspace_sparse``, ``solve_affine_sparse``);
* ``PackedEliminator`` keeps a row echelon form with each row modulo p
  packed into one Python int, one byte slot per column of
  ceil((2 bits(p) + bits(ncols + 1)) / 8) bytes, wide enough for
  (ncols + 1) * p^2, the most a slot reaches between reductions.  A row
  update is then one big-integer multiply-add, so it is the store for the
  dense syzygy evaluation systems, whose rows fill nearly every column.

The store follows from how a system is built, never from an option.  Each
is the faster one on its own systems: with the packed store behind
``nullspace_sparse`` and ``solve_affine_sparse`` as well, the perfbench
``generators`` workload read 2.3 times slower and ``queries`` 1.2 times
(``BENCH_packed_kernel.json``, ``store_choice``), since a sparse row then
costs as much as a dense one.

``Eliminator`` is the exact route: a fraction-free incremental eliminator
over sparse integer rows (cross-multiplied updates with content stripping,
Bareiss style), whose reduced echelon form is produced once at the end by
exact back-substitution into rationals.

``nullspace_sparse`` and ``solve_affine_sparse`` take the certified route:
the modular nullspace when it is checked, else the kept rows eliminated
exactly (``certified_nullspace``).  An affine system [A | b] is answered
from the canonical nullspace of [A | b] alone.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from typing import Iterable, Optional


def _int_row(row: dict) -> dict:
    """Scale a sparse rational row to integers with content 1."""
    den = 1
    for c in row.values():
        d = c.denominator if isinstance(c, Fraction) else 1
        den = den * d // math.gcd(den, d)
    g = 0
    vals = {}
    for j, c in row.items():
        v = int(c * den)
        if v:
            vals[j] = v
            g = math.gcd(g, abs(v))
    if g > 1:
        vals = {j: v // g for j, v in vals.items()}
    return vals


def _reduce(row: dict, p: dict, c: int) -> dict:
    """row minus a multiple of pivot row p that clears column c, content 1."""
    a, b = p[c], row[c]
    g = math.gcd(a, abs(b))
    a //= g
    b //= g
    new = {j: v * a for j, v in row.items()}
    for j, v in p.items():
        s = new.get(j, 0) - v * b
        if s:
            new[j] = s
        elif j in new:
            del new[j]
    g = 0
    for v in new.values():
        g = math.gcd(g, abs(v))
    if g > 1:
        new = {j: v // g for j, v in new.items()}
    return new


class Eliminator:
    """Incremental row reduction; columns are 0..ncols-1 in fixed order."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots = {}  # pivot column -> integer row (content 1, lead > 0)

    def add_row(self, row: dict) -> None:
        row = _int_row(row)
        pivots = self.pivots
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                if row[c] < 0:
                    row = {j: -v for j, v in row.items()}
                pivots[c] = row
                return
            row = _reduce(row, p, c)

    def add_rows(self, rows: Iterable[dict]) -> "Eliminator":
        for row in rows:
            if row:
                self.add_row(row)
        return self

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref(self) -> list:
        """Reduced echelon rows as (pivot_col, {col: Fraction}), ascending."""
        rows = dict(self.pivots)  # _reduce builds new rows, never edits one
        cols = sorted(rows)
        for c in reversed(cols):
            pc = rows[c]
            for c2 in cols:
                if c2 >= c:
                    break
                r2 = rows[c2]
                if c not in r2:
                    continue
                rows[c2] = _reduce(r2, pc, c)
        out = []
        for c in cols:
            r = rows[c]
            lead = r[c]
            out.append((c, {j: Fraction(v, lead) for j, v in r.items()}))
        return out

    def nullspace(self) -> list:
        """Canonical nullspace basis of the row space eliminated so far.

        One basis vector per free column, in ascending free-column order; the
        vector carries 1 on its free column and 0 on every other free column.
        """
        rref = self.rref()
        pivot_cols = {c for c, _ in rref}
        basis = []
        for f in range(self.ncols):
            if f in pivot_cols:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for c, r in rref:
                v = r.get(f)
                if v:
                    vec[c] = -v
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


class ModularEliminator:
    """Incremental RREF modulo a prime that keeps every exact row it is fed.

    The sparse row store: each pivot row is a dict of its nonzero residues.
    ``PackedEliminator`` is the dense one; a store supplies ``_new_store``,
    ``add_row``, ``rank`` and ``_null_residues``, and ``nullspace``
    certifies the result of either.

    The modulus defaults to PRIME, whose 127 bits let ``nullspace``
    reconstruct the entries the engine's systems have.  A system read only
    through ``rank`` and ``kills`` may take WORD_PRIME instead: its residues
    are one-digit CPython ints, so every update is cheaper, and the rank
    modulo any prime is still a lower bound for the rational rank.
    """

    def __init__(self, ncols: int, modulus: int = PRIME):
        self.ncols = ncols
        self.modulus = modulus
        self.rows = []       # the exact rows, as fed
        self.reduced = True  # every kept row was reduced modulo the prime
        self._new_store()

    def _new_store(self) -> None:
        self.pivots = {}  # pivot column -> {later non-pivot column: residue}

    def add_row(self, row: dict) -> None:
        self.rows.append(row)
        p = self.modulus
        res = {}
        for j, c in row.items():
            v = _residue(c, p)
            if v is None:
                self.reduced = False
                return
            if v:
                res[j] = v
        # pivot rows vanish on every other pivot column: one pass clears them
        pivots = self.pivots
        acc = {j: v for j, v in res.items() if j not in pivots}
        for c, f in res.items():
            tail = pivots.get(c)
            if tail is not None:
                for j, v in tail.items():
                    acc[j] = acc.get(j, 0) - f * v
        acc = {j: r for j, v in acc.items() if (r := v % p)}
        if not acc:
            return
        c = min(acc)
        inv = pow(acc.pop(c), -1, p)
        new = {j: v * inv % p for j, v in acc.items()}
        for tail in pivots.values():
            f = tail.pop(c, 0)
            if f:
                for j, v in new.items():
                    r = (tail.get(j, 0) - f * v) % p
                    if r:
                        tail[j] = r
                    else:
                        tail.pop(j, None)
        pivots[c] = new

    @property
    def rank(self) -> int:
        """Rank modulo the prime: at most the rational rank of the kept rows."""
        return len(self.pivots)

    def add_rows(self, rows: Iterable[dict]) -> "ModularEliminator":
        for row in rows:
            if row:
                self.add_row(row)
        return self

    def kills(self, vec: dict) -> bool:
        """True iff every kept row is exactly orthogonal to vec {col: value}.

        Each dot product walks the shorter of the row and the vector and
        looks its entries up in the other: invariant systems have sparse rows
        and dense vectors, syzygy evaluation systems dense rows and sparse
        vectors.
        """
        den = math.lcm(*(v.denominator for v in vec.values()))
        ints = {j: int(v * den) for j, v in vec.items() if v}
        size, get = len(ints), ints.get
        for row in self.rows:
            if len(row) < size:
                dot = sum(c * x for j, c in row.items() if (x := get(j)))
            else:
                dot = sum(c * x for j, x in ints.items() if (c := row.get(j)))
            if dot:
                return False
        return True

    def nullspace(self) -> Optional[list]:
        """The canonical nullspace basis of the kept rows, or None.

        Same form as ``Eliminator.nullspace``; None when a row could not be
        reduced modulo the prime, an entry cannot be reconstructed or a
        reconstructed vector fails ``kills``.  Every row store shares this
        certificate and differs only in ``_null_residues``.
        """
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
            if not self.kills({j: v for j, v in enumerate(vec) if v}):
                return None
            basis.append(vec)
        return basis

    def _null_residues(self):
        """Per free column f, ascending: (f, {pivot column: nonzero residue})
        of the modular null vector that is 1 on f and 0 on every other free
        column.  The RREF tails give it directly: its entry on pivot column
        c is minus c's tail entry on f."""
        p = self.modulus
        for f in range(self.ncols):
            if f not in self.pivots:
                yield f, {c: p - v for c, tail in self.pivots.items()
                          if (v := tail.get(f))}


class PackedEliminator(ModularEliminator):
    """Row echelon form modulo a prime, one packed integer per pivot row.

    The dense row store of ``ModularEliminator``: same ``rows``,
    ``reduced``, ``kills`` and ``nullspace``, but its pivot rows live in
    ``echelon``, not ``pivots``, and a row modulo p is one Python int made
    of fixed-width little-endian byte slots, one per column, so a row
    update is one multiply-add on big integers (Dumas, Fousse & Salvy,
    "Simultaneous modular reduction and Kronecker substitution for small
    finite fields", J. Symb. Comput. 46, 2011).

    The pivot row of column c is stored shifted: slot 0 is column c and
    holds 1, slot k column c + k, every slot a residue below p.  A new row
    is reduced by walking the pivots in ascending column order: the
    accumulator is shifted down to the pivot's column, f = (acc & mask) mod
    p is read off slot 0, and (p - f) * pivot is added.  Every term is
    nonnegative, so no borrow crosses a slot, and a slot starts below p and
    takes at most ncols additions of less than p^2: it stays below
    (ncols + 1) * p^2 < 2^(2 bits(p) + bits(ncols + 1)), which is the slot
    width, rounded up to whole bytes.  The walk stops early at a non-pivot
    column that is nonzero modulo p; that column, or else the first such
    one after the last pivot, becomes the new pivot, found and normalized
    by one unpack of the row.  Pivot rows stay in echelon form, not
    reduced; ``_null_residues`` back-substitutes once at the end.

    Dense rows are what it is for: the syzygy evaluation systems, whose
    every row has an entry in nearly every column.  Sparse systems keep
    ``ModularEliminator``, whose updates touch only the entries present;
    on them this store does a full-width shift per pivot and a full-width
    multiply-add per update, and measured slower (module docstring).
    """

    def _new_store(self) -> None:
        self.slot = (2 * self.modulus.bit_length() + (self.ncols + 1).bit_length() + 7) // 8
        self.echelon = []  # (pivot column, packed shifted row), ascending column

    @property
    def rank(self) -> int:
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

    def add_row(self, row: dict) -> None:
        self.rows.append(row)
        p, ncols = self.modulus, self.ncols
        vals = [0] * ncols
        for j, c in row.items():
            v = _residue(c, p)
            if v is None:
                self.reduced = False
                return
            vals[j] = v
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

    def _null_residues(self):
        """As ``ModularEliminator._null_residues``, by back-substitution.

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


def certified_nullspace(elim: ModularEliminator) -> list:
    """Canonical nullspace basis of elim's kept rows.

    The checked modular basis when ``elim.nullspace()`` has one, else the
    basis of the kept rows eliminated exactly.
    """
    basis = elim.nullspace()
    if basis is None:
        basis = Eliminator(elim.ncols).add_rows(elim.rows).nullspace()
    return basis


def nullspace_sparse(ncols: int, rows: Iterable[dict]) -> list:
    """Canonical nullspace basis of the matrix given by sparse rows."""
    return certified_nullspace(ModularEliminator(ncols).add_rows(rows))


def solve_affine_sparse(ncols: int, rows: Iterable[dict]) -> Optional[list]:
    """Particular solution of an affine system, or None if inconsistent.

    Each row dict maps column -> coefficient with the right-hand side stored
    under column index ``ncols``.  Free variables come back as 0: the
    solution is the one the reduced echelon form of [A | b] gives.

    The canonical nullspace of [A | b] decides it.  b is the last column, so
    it is free exactly when the last basis vector is nonzero on it; that
    vector is then (-x, 1) with A x = b and x zero on every other free
    column.  Otherwise b is a pivot column and the system is inconsistent.
    """
    basis = certified_nullspace(ModularEliminator(ncols + 1).add_rows(rows))
    if not basis or not basis[-1][ncols]:
        return None
    return [-v for v in basis[-1][:ncols]]


def rank_sparse(ncols: int, rows: Iterable[dict]) -> int:
    return Eliminator(ncols).add_rows(rows).rank
