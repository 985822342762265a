"""Enumeration of the exponent vectors indexing unknown coefficients.

Every candidate set is one weighted-composition problem over a slot table:
exponent vectors a >= 0 with sum(a_j * deg_j) = d and, when a weight
target is given, sum(a_j * wt_j) = w.  ``powers`` reads the u-ring's table;
``powers2`` and ``grad`` pass the generator degrees (and weights) they are
given.  One depth-first search with remaining-budget pruning solves it and
returns the solutions sorted in the canonical monomial order (every one
has graded degree d, so that is the order of the reversed tuples), so
downstream matrices get a reproducible column order.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import u_ring


def _compositions(degrees: tuple, weights: tuple, d: int, w: int = None) -> list:
    """Exponent vectors of graded degree d (and weight w, when given) over
    the slots of degrees and weights; weights is read only when w is given.

    Slots are searched from the last to the first; slot 0 takes whatever
    degree is left, so the weight-0 x0 slot of the u- and x-rings is never
    branched on.
    """
    if not degrees or min(degrees) < 1:
        raise ValueError("need at least one slot, each of degree >= 1")
    if w is None:
        weights, w = (0,) * len(degrees), 0
    out = []
    exps = [0] * len(degrees)

    def walk(j, rem_d, rem_w):
        if j == 0:
            a, r = divmod(rem_d, degrees[0])
            if a >= 0 and not r and rem_w == a * weights[0]:
                exps[0] = a
                out.append(tuple(exps))
            return
        dj, wj = degrees[j], weights[j]
        top = rem_d // dj
        if wj > 0:
            top = min(top, rem_w // wj)
        for a in range(top + 1):
            exps[j] = a
            walk(j - 1, rem_d - a * dj, rem_w - a * wj)
        exps[j] = 0

    walk(len(degrees) - 1, d, w)
    out.sort(key=lambda e: e[::-1])
    return out


def powers(n: int, d: int) -> list:
    """Exponents of u-ring monomials of degree d and weight n*d/2.

    Tuples are (a0, a2, ..., an) over the u-ring slots; empty whenever n*d
    is odd.  Every call returns a fresh list of the same tuple objects, so
    the invariants built on them share their exponent keys.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    if (n * d) % 2:
        return []
    return list(_u_powers(n, d))


@lru_cache(maxsize=64)
def _u_powers(n: int, d: int) -> tuple:
    ctx = u_ring(n)
    return tuple(_compositions(ctx.slot_degrees, ctx.slot_weights, d, n * d // 2))


def powers2(gen_degrees, d: int) -> list:
    """Exponents with sum(a_j * deg_j) = d, for syzygy candidates.

    Like ``powers``, every call returns a fresh list of the same tuple
    objects, so the relations built on them share their exponent keys.
    """
    return list(_gen_powers(tuple(gen_degrees), d))


@lru_cache(maxsize=64)
def _gen_powers(gen_degrees: tuple, d: int) -> tuple:
    return tuple(_compositions(gen_degrees, (), d))


def grad(gen_profile, target) -> list:
    """Exponents matching both a degree and a weight target.

    gen_profile lists (degree, weight) per generator; for genuine invariants
    the weight row is redundant but it is enforced anyway.
    """
    degrees = tuple(dj for dj, _ in gen_profile)
    weights = tuple(wj for _, wj in gen_profile)
    return _compositions(degrees, weights, *target)
