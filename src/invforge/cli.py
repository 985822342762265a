"""Command-line front end.

Subcommands: invariants, mingenset, syzygies, member, convert, verify,
fixtures.  Exit codes: 0 on success, 1 when a verification or membership
question comes back negative, 2 on bad input (including a generator-table
mismatch and any OS error such as an unreadable file), 3 on an internal
failure.  Codes 2 and 3 print one ``error:`` or ``internal error:`` line to
stderr and no traceback.  The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .derivations import ResidualDenominatorError, expand_u_to_x, project_x_to_u
from .fixtures import load_fixtures, load_generator_dir, write_generator_dir
from .hilbert import refuse_large_invariants, refuse_large_x_form
from .invariants import (
    DegreeMismatchError,
    UnsupportedFormDegreeError,
    invariant_basis,
    is_member,
    known_degree_table,
    mingenset,
    verify_invariant_u,
    verify_invariant_x,
)
from .rings import u_ring, x_ring
from .syzygies import minimal_syzygies
from .textio import PolyParseError, iter_format_json, iter_format_text, parse_poly


def _emit(poly, style: str, out) -> None:
    it = iter_format_text(poly) if style == "text" else iter_format_json(poly)
    for chunk in it:
        out.write(chunk)
    out.write("\n")


def _read_poly_arg(path: str, ctx):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_poly(text.strip(), ctx)


def _parse_degree_list(raw: str) -> list:
    degrees = [int(s) for s in raw.split(",") if s.strip()]
    if not degrees or min(degrees) < 1:
        raise ValueError(f"--degrees needs positive integers, got {raw!r}")
    return degrees


def _cmd_invariants(args, out) -> int:
    n, d = args.n, args.degree
    if args.coords == "x" and not n * d % 2:
        # size the x-forms before any basis is computed
        refuse_large_invariants(n, d, "invariants")
        refuse_large_x_form(n, d, n * d // 2)
    basis = invariant_basis(n, d)
    for el in basis:
        if args.coords == "x":
            el = expand_u_to_x(el, n)
        _emit(el, args.format, out)
    return 0


def _cmd_mingenset(args, out) -> int:
    if args.degrees:
        degrees = _parse_degree_list(args.degrees)
        try:
            table = known_degree_table(args.n)[1]
        except UnsupportedFormDegreeError:
            table = ()  # no table, no note
        missing = sorted(set(table) - set(degrees))
        if missing:
            print(f"note: --degrees omits the n={args.n} table degrees "
                  f"{','.join(map(str, missing))}", file=sys.stderr)
    else:
        _, degrees = known_degree_table(args.n)
    gens = mingenset(args.n, len(degrees), degrees)
    # write first, so a directory that cannot be written leaves stdout empty
    if args.out:
        write_generator_dir(gens, args.out)
    for g in gens:
        out.write(f"{g.name} degree={g.degree} weight={g.weight}\n")
        _emit(g.u_poly if args.coords == "u" else g.x_poly, args.format, out)
    if args.out:
        out.write(f"wrote {len(gens)} generators to {args.out}\n")
    return 0


def _cmd_syzygies(args, out) -> int:
    gens = load_generator_dir(args.n, args.gens)
    degrees = _parse_degree_list(args.degrees)
    found = minimal_syzygies(gens, degrees)
    for syz in found:
        out.write(f"syzygy degree={syz.degree}\n")
        _emit(syz.relation, args.format, out)
    out.write(f"{len(found)} minimal syzygies in degrees {degrees}\n")
    return 0


def _cmd_member(args, out) -> int:
    gens = load_generator_dir(args.n, args.gens)
    target = _read_poly_arg(args.target, u_ring(args.n))
    rep = is_member(gens, target)
    if rep is None:
        out.write("not a member\n")
        return 1
    _emit(rep, args.format, out)
    return 0


def _cmd_convert(args, out) -> int:
    if args.direction == "u2x":
        f = _read_poly_arg(args.file, u_ring(args.n))
        try:
            g = expand_u_to_x(f, args.n)
        except ResidualDenominatorError as exc:
            out.write(f"not expressible in the x-ring: {exc}\n")
            return 1
    else:
        f = _read_poly_arg(args.file, x_ring(args.n))
        g = project_x_to_u(f)
    _emit(g, args.format, out)
    return 0


def _cmd_verify(args, out) -> int:
    ctx = u_ring(args.n) if args.coords == "u" else x_ring(args.n)
    f = _read_poly_arg(args.file, ctx)
    ok = (verify_invariant_u if args.coords == "u" else verify_invariant_x)(args.n, f)
    out.write("invariant\n" if ok else "not an invariant\n")
    return 0 if ok else 1


def _cmd_fixtures(args, out) -> int:
    records = load_fixtures(args.n)
    for rec in records:
        line = f"{rec.name} [{rec.coordinates}] {rec.status}"
        if rec.note:
            line += f" ({rec.note})"
        out.write(line + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invforge",
        description="Generators and syzygies of the invariant ring of a binary form.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, required=True, help="binary form degree")
        p.add_argument("--coords", choices=("u", "x"), default="u")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("invariants", help="per-degree invariant basis")
    add_common(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("mingenset", help="minimal generating set")
    add_common(p)
    p.add_argument("--degrees", help="comma-separated degree multiset")
    p.add_argument("--out", help="directory to write the generators to")
    p.set_defaults(func=_cmd_mingenset)

    p = sub.add_parser("syzygies", help="minimal relations among generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", required=True, help="generator directory")
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_syzygies)

    p = sub.add_parser("member", help="subring membership of a target polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--target", required=True, help="polynomial file, '-' for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("convert", help="change between u- and x-coordinates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--direction", choices=("u2x", "x2u"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("file", help="polynomial file, '-' for stdin")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("verify", help="check a polynomial for invariance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coords", choices=("u", "x"), default="u")
    p.add_argument("file", help="polynomial file, '-' for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fixtures", help="validate the bundled reference data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--validate", action="store_true",
                   help="accepted for clarity; validation always runs")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (PolyParseError, DegreeMismatchError, UnsupportedFormDegreeError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
