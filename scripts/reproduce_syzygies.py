#!/usr/bin/env python3
"""Recompute the minimal relations among the generators, per form degree.

Every weighted degree is requested: 1..48 for the quintic, 1..36 for the
sextic and 1..26 for the octavic (under --all), each filtered from its own
basis.  The quintic has one minimal relation (weighted degree 36), the
sextic one (degree 30), the octavic five (degrees 16..20, none in 21..26);
the script asserts those degrees.  It also checks the number of minimal
relations in each degree against the Hilbert-series numerator N(t) (see
``hilbert.relation_numerator``): below r0 + min d_i, and through the top
degree when N(t) = 1 - t^r0.  Relations are computed for the freshly
computed generator sets and, where available, the status of each bundled
relation is printed: ``load_fixtures`` has checked it against the bundled
generators it validated, an independent identity check.
"""

import argparse
import time

from invforge.fixtures import VALIDATED, load_fixtures
from invforge.hilbert import relation_numerator
from invforge.invariants import known_degree_table, mingenset
from invforge.syzygies import check_syzygy, minimal_syzygies
from invforge.textio import format_poly

TOP_DEGREE = {5: 48, 6: 36, 8: 26}
RELATION_DEGREES = {5: [36], 6: [30], 8: [16, 17, 18, 19, 20]}


def run(n: int) -> None:
    r, degrees = known_degree_table(n)
    gens = mingenset(n, r, degrees)
    t0 = time.perf_counter()
    found = minimal_syzygies(gens, range(1, TOP_DEGREE[n] + 1))
    dt = time.perf_counter() - t0
    print(f"n={n}: {len(found)} minimal relations at degrees "
          f"{[s.degree for s in found]} in {dt:.1f}s")
    for syz in found:
        body = format_poly(syz.relation)
        shown = body if len(body) < 100 else f"{body[:96]}... ({len(syz.relation.terms)} terms)"
        print(f"  degree {syz.degree}: {shown}")
        assert check_syzygy(gens, syz.relation)
    numerator = relation_numerator(n, degrees, TOP_DEGREE[n])
    first = next(d for d in range(1, len(numerator)) if numerator[d])
    one_relation = numerator[1:] == [-(d == first) for d in range(1, len(numerator))]
    checked = len(numerator) if one_relation else first + min(degrees)
    for d in range(1, checked):
        count = sum(syz.degree == d for syz in found)
        assert count == -numerator[d], (
            f"degree {d}: {count} minimal relations, the Hilbert numerator asks {-numerator[d]}")
    print(f"  minimal relation counts agree with the Hilbert numerator below degree {checked}")
    assert [syz.degree for syz in found] == RELATION_DEGREES[n]
    for rec in load_fixtures(n):
        if rec.coordinates == "gen":
            ok = rec.status == VALIDATED
            print(f"  bundled {rec.name} expands to zero on the reference set: {ok}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true", help="include n = 8")
    args = parser.parse_args()
    for n in (5, 6) + ((8,) if args.all else ()):
        run(n)


if __name__ == "__main__":
    main()
