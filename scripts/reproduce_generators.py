#!/usr/bin/env python3
"""Recompute the minimal generating sets and check them against the bundled data.

Runs n = 2..6 by default; pass --all to include the octavic (n = 8, a few
seconds of exact arithmetic).
"""

import argparse
import time

from invforge.fixtures import fixture_generator_set
from invforge.invariants import is_member, known_degree_table, mingenset
from invforge.textio import format_poly


def run(n: int) -> None:
    r, degrees = known_degree_table(n)
    t0 = time.perf_counter()
    gens = mingenset(n, r, degrees)
    dt = time.perf_counter() - t0
    print(f"n={n}: {len(gens)} generators of degrees {gens.degrees()} in {dt:.1f}s")
    for g in gens:
        body = format_poly(g.u_poly)
        shown = body if len(body) < 100 else f"{body[:96]}... ({len(g.u_poly.terms)} terms)"
        print(f"  {g.name} (degree {g.degree}, weight {g.weight}): {shown}")
    reference = fixture_generator_set(n)
    mutual = all(is_member(gens, g.u_poly) is not None for g in reference)
    mutual &= all(is_member(reference, g.u_poly) is not None for g in gens)
    print(f"  subring agrees with the bundled reference generators: {mutual}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true", help="include n = 8")
    args = parser.parse_args()
    for n in (2, 3, 4, 5, 6) + ((8,) if args.all else ()):
        run(n)


if __name__ == "__main__":
    main()
