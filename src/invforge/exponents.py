"""Enumeration of the exponent vectors indexing unknown coefficients.

Every candidate set is one weighted-composition problem over the slots of
a variable context: exponent vectors a >= 0 with sum(a_j * deg_j) = d and,
when a weight target is given, sum(a_j * wt_j) = w, where deg_j and wt_j
are the slot degrees and weights of the context.  One depth-first search
with remaining-budget pruning solves it and returns the solutions sorted
in the context's canonical monomial order, so downstream matrices get a
reproducible column order.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import VarContext, gen_ring, monomial_key, u_ring


def _compositions(ctx: VarContext, d: int, w: int = None) -> list:
    """Exponent vectors over ctx's slots of graded degree d (and weight w).

    Slots are searched from the last to the first; slot 0 takes whatever
    degree is left, so the weight-0 x0 slot of the u- and x-rings is never
    branched on.
    """
    m = ctx.slot_count
    degs, wts = ctx.slot_degrees, ctx.slot_weights
    if min(degs) < 1:
        raise ValueError("every slot needs degree >= 1")
    out = []
    exps = [0] * m

    def walk(j, rem_d, rem_w):
        if j == 0:
            a, r = divmod(rem_d, degs[0])
            if a >= 0 and not r and (w is None or rem_w == a * wts[0]):
                exps[0] = a
                out.append(tuple(exps))
            return
        dj, wj = degs[j], wts[j]
        top = rem_d // dj
        if w is not None and wj > 0:
            top = min(top, rem_w // wj)
        for a in range(top + 1):
            exps[j] = a
            walk(j - 1, rem_d - a * dj, rem_w - a * wj)
        exps[j] = 0

    walk(m - 1, d, w or 0)
    out.sort(key=lambda e: monomial_key(ctx, e))
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
    return tuple(_compositions(u_ring(n), d, n * d // 2))


def powers2(gen_degrees, d: int) -> list:
    """Exponents with sum(a_j * deg_j) = d, for syzygy candidates.

    Like ``powers``, every call returns a fresh list of the same tuple
    objects, so the relations built on them share their exponent keys.
    """
    return list(_gen_powers(tuple(gen_degrees), d))


@lru_cache(maxsize=64)
def _gen_powers(gen_degrees: tuple, d: int) -> tuple:
    return tuple(_compositions(
        gen_ring((f"g{j}", k, 1) for j, k in enumerate(gen_degrees)), d))


def grad(gen_profile, target) -> list:
    """Exponents matching both a degree and a weight target.

    gen_profile lists (degree, weight) per generator; for genuine invariants
    the weight row is redundant but it is enforced anyway.
    """
    td, tw = target
    return _compositions(
        gen_ring((f"g{j}", dj, wj) for j, (dj, wj) in enumerate(gen_profile)),
        td, tw)
