"""Correctness checks the benchmark applies outside its timed windows.

The dimension count is independent of the engine: it is the
Cayley–Sylvester formula (Sturmfels, *Algorithms in Invariant Theory*),
dim I_d = p(d, n; nd/2) - p(d, n; nd/2 - 1), where p(d, n; w) counts the
partitions of w into at most d parts of size at most n.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@lru_cache(maxsize=None)
def _box_partitions(d: int, n: int, w: int) -> int:
    """Partitions of w into at most d parts, each at most n."""
    if w == 0:
        return 1
    if w < 0 or d == 0 or n == 0:
        return 0
    # either no part equals n, or remove one part equal to n
    return _box_partitions(d, n - 1, w) + _box_partitions(d - 1, n, w - n)


def cayley_sylvester(n: int, d: int) -> int:
    """Dimension of the degree-d invariants of the binary form of degree n."""
    if (n * d) % 2:
        return 0
    w = n * d // 2
    return _box_partitions(d, n, w) - _box_partitions(d, n, w - 1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def generators_text(gens, format_poly) -> str:
    """Canonical text of a generating set: header, u-form and x-form each."""
    parts = []
    for g in gens:
        parts.append(f"{g.name} degree={g.degree} weight={g.weight}\n")
        parts.append(format_poly(g.u_poly) + "\n")
        parts.append(format_poly(g.x_poly) + "\n")
    return "".join(parts)


def syzygies_text(found, format_poly) -> str:
    """Canonical text of a list of minimal syzygies, as the CLI prints it."""
    parts = []
    for syz in found:
        parts.append(f"syzygy degree={syz.degree}\n")
        parts.append(format_poly(syz.relation) + "\n")
    return "".join(parts)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
