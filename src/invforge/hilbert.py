"""Cayley–Sylvester dimension count of the invariants of a binary form.

dim I_d = p(d, n; nd/2) - p(d, n; nd/2 - 1), where p(d, n; w) counts the
partitions of w into at most d parts, each at most n (Sturmfels,
*Algorithms in Invariant Theory*; Derksen–Kemper, *Computational Invariant
Theory*).  The p(d, n; w) are the coefficients of the Gaussian binomial
[n + d choose n]_q = prod_{i=1..n} (1 - q^(d+i)) / (1 - q^i).
"""

from __future__ import annotations


def _box_partitions(d: int, n: int, top: int) -> list:
    """p(d, n; w) for w = 0..top."""
    c = [1] + [0] * top
    for i in range(1, n + 1):
        for w in range(top, d + i - 1, -1):   # times (1 - q^(d+i))
            c[w] -= c[w - d - i]
        for w in range(i, top + 1):            # divided by (1 - q^i)
            c[w] += c[w - i]
    return c


def invariant_dimension(n: int, d: int) -> int:
    """Dimension of the degree-d invariants of the binary form of degree n."""
    if (n * d) % 2:
        return 0
    w = n * d // 2
    if w == 0:
        return 1
    c = _box_partitions(d, n, w)
    return c[w] - c[w - 1]
