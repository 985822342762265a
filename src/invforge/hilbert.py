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


# Sizing counts exactly while a table of part sizes times entries stays at
# most this large (about 25 ms per table on a 2-vCPU Xeon host).  A larger
# request meets a lower bound first, which a refusal reports as "N or more".
EXACT_WORK = 100_000


def _box_partitions(d: int, n: int, top: int, limit: int = None) -> list:
    """p(d, n; w) for w = 0..top.

    With a limit, stops after the first part size i at which p(d, i; top)
    is above it; entry top is then a lower bound above limit, since the
    count with parts at most i never decreases as i grows.
    """
    c = [1] + [0] * top
    for i in range(1, n + 1):
        for w in range(top, d + i - 1, -1):   # times (1 - q^(d+i))
            c[w] -= c[w - d - i]
        for w in range(i, top + 1):            # divided by (1 - q^i)
            c[w] += c[w - i]
        if limit is not None and c[top] > limit:
            break
    return c


def box_partition_count(d: int, n: int, w: int, limit: int) -> int:
    """p(d, n; w) when at most limit, else some number above it.

    p(d, n; w) = p(d, n; nd - w) = p(n, d; w), so the table runs over
    s = min(d, n) part sizes and min(w, nd - w) + 1 entries.  A larger
    table than EXACT_WORK meets a lower bound first: by Sylvester's
    unimodality theorem p(d, n; k) <= p(d, n; w) for k <= w <= nd/2, and
    for k <= l = max(d, n) that is the number of partitions of k into parts
    at most s.  Two part sizes already give k // 2 + 1 of them, so k =
    min(w, l, 2 * limit + 1) decides in a few passes over at most
    2 * limit + 2 entries.  At k = w that count is p(d, n; w) itself; at
    k = l < w, a count at most limit leaves a small box to count exactly.
    """
    if not 0 <= w <= n * d:
        return 0
    w = min(w, n * d - w)
    s, l = sorted((d, n))
    if s * w > EXACT_WORK:
        k = min(w, l, 2 * limit + 1)
        low = _box_partitions(l, s, k, limit)[k]
        if low > limit or k == w:
            return low
    return _box_partitions(l, s, w)[w]


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
    """|powers(n, d)|: u-monomials of degree d and weight nd/2, 0 if none;
    exact when at most MAX_CANDIDATES, else some number above it.

    A monomial u0^a0 u2^a2 ... un^an is a partition of w = nd/2 into at most
    d parts (a_i parts equal to i, the a0 zeros padding) with no part 1.
    Those with a part 1 are, less that part, the partitions of w - 1 into
    at most d - 1 parts, so the count is p(d, n; w) - p(d - 1, n; w - 1).

    Two lower bounds answer first where the tables would be large.  Above
    MAX_DEGREE the result is d // 4 + 1, and no table is built: for n >= 3
    and nd even the count is at least d // 4 + 1, since P = x0^2*un^2 and
    Q = x0*u2*u(n-2)*un (x0*u2^3 for n = 3) are distinct candidates of
    degree 4, and each r < 4 with nr even has a candidate v of degree r (1,
    u(n/2), x0*un, x0*u(n/2)*un), so for d = 4k + r the v * P^i * Q^(k-i),
    i = 0..k, are k + 1 distinct candidates.  Past EXACT_WORK the result is
    C(d // 2 + t, t), t = (n - 2) // 2, when that is above MAX_CANDIDATES:
    with u0 = x0, the t pairs u_k*u_(n-k), k = 0 and 2 <= k < n/2, share no
    variable and have degree 2 and weight n, and u(n/2) (for even n only)
    has degree 1 and weight n/2, so every product of d // 2 or fewer pairs
    (exactly d/2 for odd n), filled up to degree d with u(n/2), is a
    distinct candidate.  The quadratic has one, (x0*u2)^(d/2), in each even
    degree.
    """
    if n < 2 or d < 1 or (n * d) % 2:
        return 0
    if n == 2:
        return 1 - d % 2
    if d > MAX_DEGREE:
        return d // 4 + 1
    w = n * d // 2
    if n * w > EXACT_WORK:
        t = (n - 2) // 2
        low = math.comb(d // 2 + t, t)
        if low > MAX_CANDIDATES:
            return low
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


def relation_numerator(n: int, degrees, top: int) -> list:
    """Coefficients of t^0..t^top in N(t) = H(t) * prod(1 - t^d_i).

    H(t) is the Hilbert series of the invariants, the sum of dim I_d * t^d,
    and the d_i are the degrees of a generating set, so N(t) comes from
    counts alone.  By the minimal free resolution of the invariants over
    the generator ring, N(t) = 1 - (minimal relations) + (second syzygies)
    - ..., each a sum of t^degree.  A second syzygy has degree at least
    r0 + min d_i, r0 the lowest relation degree, so below that degree the
    coefficient of t^d, d >= 1, is minus the number of minimal relations
    of degree d.  When N(t) = 1 - t^r0 through top, one relation R of
    degree r0 generates every relation through top: the generator ring
    modulo R alone has numerator 1 - t^r0, so the relations that R does
    not generate change no dimension through top, and there are none.
    """
    coeffs = [invariant_dimension(n, d) for d in range(top + 1)]
    for k in degrees:
        for d in range(top, k - 1, -1):   # times (1 - t^k)
            coeffs[d] -= coeffs[d - k]
    return coeffs
