"""Cayley–Sylvester dimension count of the invariants of a binary form,
and every limit and refusal that sizes a request.

dim I_d = p(d, n; nd/2) - p(d, n; nd/2 - 1), where p(d, n; w) counts the
partitions of w into at most d parts, each at most n (Sturmfels,
*Algorithms in Invariant Theory*; Derksen–Kemper, *Computational Invariant
Theory*).  The p(d, n; w) are the coefficients of the Gaussian binomial
[n + d choose n]_q = prod_{i=1..n} (1 - q^(d+i)) / (1 - q^i).  The same
numbers count candidate, generator and x-monomials, so a request's degree
is checked against MAX_DEGREE, then its count against its limit, before
anything is enumerated.  It imports nothing from the package.
"""

from __future__ import annotations

import math


# Largest form degree of a u- or x-ring.  At n = 64 the slowest request the
# candidate limit admits (degree 3) takes 1.5 s on a 2-vCPU Xeon host; at
# n = 100 it takes 7 s.  A larger n is refused before any work of size n.
MAX_FORM_DEGREE = 64

# Largest candidate set invariant_basis and is_member take on.  The bundled
# tables need at most 641 (n = 8, d = 10, about 0.2 s on a 2-vCPU Xeon host);
# n = 8, d = 12 has 1430 and takes about 0.6-1.0 s, and d = 14 has 2898.
# Larger requests are refused before any work.
MAX_CANDIDATES = 2000

# Largest number of generator monomials a syzygy degree may have.  The
# bundled octavic set needs at most 107 (d = 20, 0.05 s on a 2-vCPU Xeon
# host); d = 24 has 220 and takes 0.3 s, d = 28 has 422 and takes 1.5 to
# 2.2 s: a sixth of it the word-size elimination, two fifths the p-adic
# lifting of its 57 null vectors and a quarter their exact check.  The time
# grows about 2.3-fold per two degrees.  Larger requests are refused before
# any point is evaluated.
MAX_RELATION_CANDIDATES = 500

# Largest degree of an invariant, membership or relation request (x-forms
# take none), checked before any table of n*d/2 + 1 entries is built.  For
# n >= 3 and nd even it refuses only degrees with more than MAX_CANDIDATES
# candidates, as there are d // 4 + 1 or more: P = x0^2*un^2 and Q =
# x0*u2*u(n-2)*un (x0*u2^3 for n = 3) are distinct candidates of degree 4,
# each r < 4 with nr even has one, v, of degree r (1, u(n/2), x0*un,
# x0*u(n/2)*un), and for d = 4k + r the v * P^i * Q^(k-i), i = 0..k, differ.
# The quadratic has one candidate per even degree, but the x-form of its
# degree-d invariant has d/2 + 1 terms; it stops at the same degree.
MAX_DEGREE = 4 * MAX_CANDIDATES - 1

# Most terms an x-form may have: p(d, n; w), the count of x-monomials of
# degree d and weight w, bounds the x-form of a (d, w) component.  The
# cubic's invariants pass it up to d = 892 (`invariants --coords x` at
# d = 800 takes 2 s and writes 17 MB on a 2-vCPU host, peak RSS 59 MB); the
# generator tables need at most 3788 (n = 8, d = 12).
MAX_X_TERMS = 100_000

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
    exact when at most MAX_CANDIDATES, else some number above it; ValueError
    above MAX_DEGREE.

    A monomial u0^a0 u2^a2 ... un^an is a partition of w = nd/2 into at most
    d parts (a_i parts equal to i, the a0 zeros padding) with no part 1.
    Those with a part 1 are, less that part, the partitions of w - 1 into
    at most d - 1 parts, so the count is p(d, n; w) - p(d - 1, n; w - 1).

    A lower bound answers first where the tables would be large: past
    EXACT_WORK the result is C(d // 2 + t, t), t = (n - 2) // 2, when that
    is above MAX_CANDIDATES.  With u0 = x0, the t pairs u_k*u_(n-k), k = 0
    and 2 <= k < n/2, share no variable and have degree 2 and weight n, and
    u(n/2) (for even n only) has degree 1 and weight n/2, so every product
    of d // 2 or fewer pairs (exactly d/2 for odd n), filled up to degree d
    with u(n/2), is a distinct candidate.  The quadratic has one,
    (x0*u2)^(d/2), in each even degree.
    """
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} is above the limit of {MAX_DEGREE}")
    if n < 2 or d < 1 or (n * d) % 2:
        return 0
    if n == 2:
        return 1 - d % 2
    w = n * d // 2
    if n * w > EXACT_WORK:
        t = (n - 2) // 2
        low = math.comb(d // 2 + t, t)
        if low > MAX_CANDIDATES:
            return low
    return _box_partitions(d, n, w)[w] - _box_partitions(d - 1, n, w - 1)[w - 1]


def generator_monomial_count(degrees, d: int) -> int:
    """|powers2(degrees, d)|; ValueError above MAX_DEGREE.

    Coin change: ways[w] counts the exponent vectors of degree w over the
    generators taken so far, with the degrees divided by their gcd, in a
    table of at most MAX_DEGREE + 1 entries.
    """
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} is above the limit of {MAX_DEGREE}")
    g = math.gcd(*degrees)
    if d < 0 or d % g:
        return 0
    d //= g
    ways = [1] + [0] * d
    for k in degrees:
        k //= g
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


def refuse_form_degree(n: int) -> None:
    """ValueError unless 2 <= n <= MAX_FORM_DEGREE (every u- and x-ring)."""
    if n < 2:
        raise ValueError("form degree must be >= 2")
    if n > MAX_FORM_DEGREE:
        raise ValueError(f"form degree {n} is above the limit of {MAX_FORM_DEGREE}")


def _refuse_degree(n: int, d: int, what: str) -> None:
    if d > MAX_DEGREE:
        raise ValueError(f"{what} of degree {d} for n={n}: the degree is above"
                         f" the limit of {MAX_DEGREE}")


def refuse_large_invariants(n: int, d: int, what: str) -> None:
    """ValueError for "invariants" or "members" (what) of degree d for n: a
    form degree out of range, then a degree above MAX_DEGREE, then more
    than MAX_CANDIDATES candidates."""
    refuse_form_degree(n)
    _refuse_degree(n, d, what)
    count = candidate_count(n, d)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{what} of degree {d} for n={n} need {count} or more candidate"
            f" monomials, above the limit of {MAX_CANDIDATES}")


def relation_candidate_count(n: int, degrees, d: int) -> int:
    """Number of degree-d monomials over generators of these degrees;
    ValueError above MAX_DEGREE, then above MAX_RELATION_CANDIDATES."""
    _refuse_degree(n, d, "relations")
    count = generator_monomial_count(degrees, d)
    if count > MAX_RELATION_CANDIDATES:
        raise ValueError(
            f"relations of degree {d} for n={n} need at least {count}"
            f" generator monomials, above the limit of {MAX_RELATION_CANDIDATES}")
    return count


def refuse_large_x_form(n: int, d: int, w: int) -> None:
    """ValueError when an x-form of degree d and weight w for n may have
    more than MAX_X_TERMS terms; x-forms take no degree cap."""
    count = box_partition_count(d, n, w, MAX_X_TERMS)
    if count > MAX_X_TERMS:
        raise ValueError(
            f"x-forms of degree {d} and weight {w} for n={n} may have {count}"
            f" terms or more, above the limit of {MAX_X_TERMS}")
