"""Exact rational linear algebra: rank, canonical nullspace, affine solve.

Two eliminators share one contract: the canonical (RREF) nullspace basis of
the rows fed, exactly.  The RREF of a row space is unique, so every result
here is deterministic no matter the insertion order of the rows.

``ModularEliminator`` keeps the RREF modulo a prime, which keeps every
entry short: by default the Mersenne prime ``PRIME`` = 2^127 - 1, or the
word-size ``WORD_PRIME`` for a system read only through its rank and
``kills``.  Its rank is a lower bound for the rational rank of the rows it
was fed, whatever the prime.  Its nullspace is exact all the same: each
vector read off the modular RREF is recovered by rational reconstruction,
with a bound that follows the modulus, and then checked with exact dot
products against every row it keeps.  A checked vector for free column f
has 1 on f, 0 on every other modular free column and nothing after f, so
the ncols - rank_p checked vectors are independent; since rank_p <= rank_Q,
they span the rational nullspace, their free columns are the rational
RREF's, and they are its canonical basis.  Whenever a row has no residue,
or reconstruction or a check fails, the method returns None.

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
        self.pivots = {}     # pivot column -> {later non-pivot column: residue}
        self.reduced = True  # every kept row was reduced modulo the prime

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
        reconstructed vector fails ``kills``.
        """
        if not self.reduced:
            return None
        basis = []
        for f in range(self.ncols):
            if f in self.pivots:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for c, tail in self.pivots.items():
                v = tail.get(f)
                if v:
                    q = _rational(self.modulus - v, self.modulus)
                    if q is None:
                        return None
                    vec[c] = q
            if not self.kills({j: v for j, v in enumerate(vec) if v}):
                return None
            basis.append(vec)
        return basis


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
