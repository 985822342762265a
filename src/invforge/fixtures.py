"""Bundled reference polynomials with load-time validation.

The reference data ships verbatim under ``fixtures/n{N}/``: ``{name}.poly``
holds a generator in u-coordinates (``{name}_x.poly`` in x-coordinates) and
``syzygy-{k}.gen`` a relation in generator symbols.  Nothing is trusted on
faith: every record is classified at load time as ``validated`` or
``transcription-suspect`` by running it through the invariance verifiers
(generators) or ``syzygies.check_syzygy`` against the validated generators
(relations), which tests it exactly against the certified relation space
of its degree.  Suspect records stay available but must not feed golden
comparisons.  ``load_fixtures``, ``generator_set_from_records`` and
``load_generator_dir`` (a ``--gens`` directory) build their verified sets
with ``invariants.verified_set``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .invariants import (
    Generator,
    GeneratorSet,
    verified_set,
    verify_invariant_u,
    verify_invariant_x,
)
from .rings import Polynomial, degree, u_ring, x_ring
from .syzygies import check_syzygy
from .textio import PolyParseError, format_poly, parse_poly

VALIDATED = "validated"
SUSPECT = "transcription-suspect"

_DATA_ROOT = Path(__file__).parent / "fixtures"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


@dataclass
class FixtureRecord:
    n: int
    name: str
    coordinates: str  # "u", "x" or "gen"
    body: str
    status: str
    poly: Optional[Polynomial]
    note: str = ""


def fixture_root() -> Path:
    return _DATA_ROOT


def _name_key(name: str):
    m = re.match(r"[a-z]+(\d+)(.*)", name)
    if m:
        return (int(m.group(1)), m.group(2))
    return (0, name)


def _validate_generator(n: int, name: str, coords: str, body: str) -> FixtureRecord:
    ctx = u_ring(n) if coords == "u" else x_ring(n)
    try:
        poly = parse_poly(body, ctx)
    except PolyParseError as exc:
        return FixtureRecord(n, name, coords, body, SUSPECT, None, str(exc))
    if poly.is_zero():
        return FixtureRecord(n, name, coords, body, SUSPECT, poly, "parsed to zero")
    if degree(poly) == 0:
        return FixtureRecord(n, name, coords, body, SUSPECT, poly,
                             "constant, not a generator")
    verify = verify_invariant_u if coords == "u" else verify_invariant_x
    if verify(n, poly):
        return FixtureRecord(n, name, coords, body, VALIDATED, poly)
    return FixtureRecord(n, name, coords, body, SUSPECT, poly,
                         "fails the invariance verifier")


def generator_set_from_records(n: int, records) -> GeneratorSet:
    """Verified generator set over the validated u-coordinate records, by
    degree; a balanced invariant of degree d has weight n*d/2."""
    gens = []
    for rec in records:
        if rec.coordinates == "u" and rec.status == VALIDATED:
            d = degree(rec.poly)
            gens.append(Generator(rec.name, d, n * d // 2, rec.poly, None))
    return verified_set(n, gens)


def load_fixtures(n: int, base: Path = None) -> list:
    """Load and classify every fixture for one form degree."""
    root = Path(base) if base else _DATA_ROOT
    folder = root / f"n{n}"
    if not folder.is_dir():
        raise FileNotFoundError(f"no fixtures for n={n} under {root}")

    records = []
    for path in sorted(folder.glob("*.poly"), key=lambda p: _name_key(p.stem)):
        stem = path.stem
        if stem.endswith("_x"):
            name, coords = stem[:-2], "x"
        else:
            name, coords = stem, "u"
        records.append(_validate_generator(n, name, coords, path.read_text().strip()))

    gens = generator_set_from_records(n, records)
    gctx = gens.gen_context() if len(gens) else None
    for path in sorted(folder.glob("syzygy-*.gen"), key=lambda p: _name_key(p.stem.split("-")[-1])):
        body = path.read_text().strip()
        name = path.stem
        if gctx is None:
            records.append(FixtureRecord(n, name, "gen", body, SUSPECT, None,
                                         "no validated generators to expand against"))
            continue
        try:
            # a reference to a suspect generator is an unknown variable here,
            # so it lands in the parse-error branch
            rel = parse_poly(body, gctx)
        except PolyParseError as exc:
            records.append(FixtureRecord(n, name, "gen", body, SUSPECT, None, str(exc)))
            continue
        if check_syzygy(gens, rel):
            records.append(FixtureRecord(n, name, "gen", body, VALIDATED, rel))
        else:
            records.append(FixtureRecord(n, name, "gen", body, SUSPECT, rel,
                                         "expansion through the generators is nonzero"))
    return records


def fixture_generator_set(n: int, base: Path = None) -> GeneratorSet:
    return generator_set_from_records(n, load_fixtures(n, base))


def load_generator_dir(n: int, path) -> GeneratorSet:
    """Read a --gens directory: every *.poly is a u-coordinate generator.

    Files with an ``_x`` suffix are skipped (they are the optional x-forms
    written next to the u-forms).  Every file stem must be an identifier of
    the text grammar that is not a u-ring variable name, so relations print
    with names that parse back, and every generator must be a nonconstant
    polynomial that passes the u-ring verifier; anything else is a usage
    error.
    """
    folder = Path(path)
    reserved = set(u_ring(n).names()) | {"t"}
    gens = []
    for p in sorted(folder.glob("*.poly"), key=lambda p: _name_key(p.stem)):
        if p.stem.endswith("_x"):
            continue
        if not _IDENTIFIER.fullmatch(p.stem) or p.stem in reserved:
            raise ValueError(f"{p.name}: {p.stem!r} cannot name a generator")
        poly = parse_poly(p.read_text().strip(), u_ring(n))
        if poly.is_zero() or not verify_invariant_u(n, poly):
            raise ValueError(f"{p.name} is not a verified invariant")
        d = degree(poly)
        if d == 0:
            raise ValueError(f"{p.name} is a constant, not a generator")
        gens.append(Generator(p.stem, d, n * d // 2, poly, None))
    if not gens:
        raise ValueError(f"no generator files in {folder}")
    return verified_set(n, gens)


def write_generator_dir(gens: GeneratorSet, path) -> None:
    """Write a generator set in the fixture directory layout."""
    folder = Path(path)
    folder.mkdir(parents=True, exist_ok=True)
    for g in gens:
        (folder / f"{g.name}.poly").write_text(format_poly(g.u_poly) + "\n")
        if g.x_poly is not None:
            (folder / f"{g.name}_x.poly").write_text(format_poly(g.x_poly) + "\n")
