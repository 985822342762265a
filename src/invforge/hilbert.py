"""Cayley–Sylvester dimension count of the invariants of a binary form.

dim I_d = p(d, n; nd/2) - p(d, n; nd/2 - 1), where p(d, n; w) counts the
partitions of w into at most d parts, each at most n (Sturmfels,
*Algorithms in Invariant Theory*; Derksen–Kemper, *Computational Invariant
Theory*).  The p(d, n; w) are the coefficients of the Gaussian binomial
[n + d choose n]_q = prod_{i=1..n} (1 - q^(d+i)) / (1 - q^i).  The same
numbers count the solver's candidate monomials, so an oversized request is
sized before anything is enumerated.
"""

from __future__ import annotations

import math


# Largest candidate set invariant_basis and is_member take on.  The bundled
# tables need at most 641 (n = 8, d = 10, about 0.2 s on a 2-vCPU Xeon host);
# n = 8, d = 12 has 1430 and takes about 0.6-1.0 s, and d = 14 has 2898.
# Larger requests are refused before any work.
MAX_CANDIDATES = 2000

# Largest degree any request may have; sizing a degree builds tables of
# n*d/2 + 1 entries, so a larger one is refused before any table is built.
# For n >= 3 that refuses only degrees with more than MAX_CANDIDATES
# candidates (see candidate_count).  The quadratic has one candidate in each
# even degree, but the x-form of its degree-d invariant has d/2 + 1 terms;
# it is refused from the same degree on.
MAX_DEGREE = 4 * MAX_CANDIDATES - 1


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


def candidate_count(n: int, d: int) -> int:
    """|powers(n, d)|: u-monomials of degree d and weight nd/2, 0 if none.

    A monomial u0^a0 u2^a2 ... un^an is a partition of w = nd/2 into at most
    d parts (a_i parts equal to i, the a0 zeros padding) with no part 1.
    Those with a part 1 are, less that part, the partitions of w - 1 into
    at most d - 1 parts, so the count is p(d, n; w) - p(d - 1, n; w - 1).

    Above MAX_DEGREE the result is d // 4 + 1, a lower bound above
    MAX_CANDIDATES, and no table is built.  For n >= 3 and nd even the count
    is at least d // 4 + 1: P = x0^2*un^2 and Q = x0*u2*u(n-2)*un (x0*u2^3
    for n = 3) are distinct candidates of degree 4, and each r < 4 with nr
    even has a candidate v of degree r (1, u(n/2), x0*un, x0*u(n/2)*un), so
    for d = 4k + r the v * P^i * Q^(k-i), i = 0..k, are k + 1 distinct
    candidates.  The quadratic has one, (x0*u2)^(d/2), in each even degree.
    """
    if n < 2 or d < 1 or (n * d) % 2:
        return 0
    if n == 2:
        return 1 - d % 2
    if d > MAX_DEGREE:
        return d // 4 + 1
    w = n * d // 2
    return _box_partitions(d, n, w)[w] - _box_partitions(d - 1, n, w - 1)[w - 1]


def generator_monomial_count(degrees, d: int, limit: int) -> int:
    """|powers2(degrees, d)| when at most limit, else some number above it.

    Coin change: ways[w] counts the exponent vectors of degree w over the
    generators taken so far, in O(d) memory.  Past the degree where the
    count provably exceeds limit, no table is built.  With g = gcd(degrees),
    a <= b the two smallest of the degrees / g, and F < (a - 1)(top - 1)
    the Frobenius number of the degrees / g (Schur's bound, top the
    largest), every degree g*(N*a*b + r) with r > F has the N + 1 distinct
    vectors v + i*b*e_a + (N - i)*a*e_b, i = 0..N, v of degree g*r.
    """
    g = math.gcd(*degrees)
    if d < 0 or d % g:
        return 0
    ks, d = sorted(k // g for k in degrees), d // g
    if len(ks) == 1:
        return 1
    if d >= limit * ks[0] * ks[1] + (ks[0] - 1) * (ks[-1] - 1):
        return limit + 1
    ways = [1] + [0] * d
    for k in ks:
        for w in range(k, d + 1):
            ways[w] += ways[w - k]
    return ways[d]
