"""Exact rational linear algebra: rank, canonical nullspace, affine solve.

The work happens in a fraction-free incremental eliminator over sparse
integer rows (cross-multiplied updates with content stripping, Bareiss
style); the reduced echelon form is produced once at the end by exact
back-substitution into rationals.  The RREF of a row space is unique, so
every result here is deterministic no matter the insertion order of the
rows.
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


def nullspace_sparse(ncols: int, rows: Iterable[dict]) -> list:
    """Canonical nullspace basis of the matrix given by sparse rows."""
    return Eliminator(ncols).add_rows(rows).nullspace()


def solve_affine_sparse(ncols: int, rows: Iterable[dict]) -> Optional[list]:
    """Particular solution of an affine system, or None if inconsistent.

    Each row dict maps column -> coefficient with the right-hand side stored
    under column index ``ncols``.  Free variables come back as 0.
    """
    rhs = ncols
    elim = Eliminator(ncols + 1).add_rows(rows)
    if rhs in elim.pivots:
        return None
    sol = [Fraction(0)] * ncols
    for c, r in elim.rref():
        sol[c] = r.get(rhs, Fraction(0))
    return sol


def rank_sparse(ncols: int, rows: Iterable[dict]) -> int:
    return Eliminator(ncols).add_rows(rows).rank
