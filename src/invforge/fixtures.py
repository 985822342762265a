"""Bundled reference polynomials with load-time validation.

The reference data ships verbatim under ``fixtures/n{N}/``: ``{name}.poly``
holds a generator in u-coordinates (``{name}_x.poly`` in x-coordinates) and
``syzygy-{k}.gen`` a relation in generator symbols.  Nothing is trusted on
faith: every generator file goes through one check (parse, zero, constant,
then the invariance verifier of its coordinates).  ``load_fixtures``
classifies every record as ``validated`` or ``transcription-suspect`` (an
x-form is suspect too when it does not project onto its validated u-form),
then checks each relation with ``syzygies.check_syzygy`` against the validated
u-form generators, exactly against the certified relation space of its
degree; suspect records stay available but must not feed golden
comparisons.  ``load_generator_dir`` (a ``--gens`` directory, or a bundled
one through ``fixture_generator_set``) reads only the u-forms, raises on the
first file that fails and checks no relation.  The invariance check of a
u-form is the making of its ``invariants.Generator``, once per file; both
loaders build their sets from the generators so made.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .derivations import project_x_to_u
from .invariants import Generator, GeneratorSet, NonInvariantError, verify_invariant_x
from .rings import Polynomial, u_ring, x_ring
from .syzygies import check_syzygy
from .textio import PolyParseError, format_poly, parse_poly

VALIDATED = "validated"
SUSPECT = "transcription-suspect"
_CONSTANT = "constant, not a generator"

_DATA_ROOT = Path(__file__).parent / "fixtures"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


@dataclass
class FixtureRecord:
    name: str
    coordinates: str  # "u", "x" or "gen"
    status: str
    poly: Optional[Polynomial]
    note: str = ""
    generator: Optional[Generator] = None  # a validated u-form's


def fixture_root() -> Path:
    return _DATA_ROOT


def _name_key(name: str):
    # f2 before f10; a tie (f2, g2) goes by the name, not the listing order
    m = re.match(r"[a-z]+(\d+)(.*)", name)
    if m:
        return (int(m.group(1)), m.group(2), name)
    return (0, name, name)


def _generator_files(folder: Path):
    """(name, coordinates, path) of every ``*.poly`` in folder, in name order."""
    for path in sorted(folder.glob("*.poly"), key=lambda p: _name_key(p.stem)):
        stem = path.stem
        if stem.endswith("_x"):
            yield stem[:-2], "x", path
        else:
            yield stem, "u", path


def _check_generator(n: int, name: str, coords: str, path: Path) -> FixtureRecord:
    ctx = u_ring(n) if coords == "u" else x_ring(n)
    try:
        poly = parse_poly(path.read_text().strip(), ctx)
    except PolyParseError as exc:
        return FixtureRecord(name, coords, SUSPECT, None, str(exc))
    if poly.is_zero():
        return FixtureRecord(name, coords, SUSPECT, poly, "parsed to zero")
    if not any(map(any, poly.terms)):  # no term holds a variable
        return FixtureRecord(name, coords, SUSPECT, poly, _CONSTANT)
    if coords == "x":
        if verify_invariant_x(n, poly):
            return FixtureRecord(name, coords, VALIDATED, poly)
    else:
        try:
            return FixtureRecord(name, coords, VALIDATED, poly,
                                 generator=Generator(name, poly))
        except NonInvariantError:
            pass
    return FixtureRecord(name, coords, SUSPECT, poly, "fails the invariance verifier")


def _generator_set(n: int, records) -> GeneratorSet:
    """The set of the records' generators, by (degree, name)."""
    return GeneratorSet(n, tuple(sorted((rec.generator for rec in records),
                                        key=lambda g: (g.degree, g.name))))


def load_fixtures(n: int, base: Path = None) -> list:
    """Load and classify every fixture for one form degree."""
    root = Path(base) if base else _DATA_ROOT
    folder = root / f"n{n}"
    if not folder.is_dir():
        raise FileNotFoundError(f"no fixtures for n={n} under {root}")

    records = [_check_generator(n, *file) for file in _generator_files(folder)]
    u_forms = {r.name: r for r in records if r.generator}
    for rec in records:
        if (rec.coordinates == "x" and rec.status == VALIDATED and rec.name in u_forms
                and project_x_to_u(rec.poly) != u_forms[rec.name].poly):
            rec.status, rec.note = SUSPECT, f"does not project onto {rec.name}.poly"
    gens = _generator_set(n, u_forms.values())
    # by the number after the dash: syzygy-2 before syzygy-10
    for path in sorted(folder.glob("syzygy-*.gen"),
                       key=lambda p: _name_key(p.stem.replace("-", ""))):
        body, rel = path.read_text().strip(), None
        note = "no validated generators to expand against"
        if gens:
            try:
                # a reference to a suspect generator is an unknown variable
                # here, so it lands in the parse-error branch
                rel = parse_poly(body, gens.gen_context())
            except PolyParseError as exc:
                note = str(exc)
            else:
                note = ("" if check_syzygy(gens, rel)
                        else "expansion through the generators is nonzero")
        records.append(FixtureRecord(path.stem, "gen", SUSPECT if note else VALIDATED,
                                     rel, note))
    return records


def fixture_generator_set(n: int) -> GeneratorSet:
    """The bundled generators for n, read as a ``--gens`` directory."""
    return load_generator_dir(n, _DATA_ROOT / f"n{n}")


def load_generator_dir(n: int, path) -> GeneratorSet:
    """Read a --gens directory: every *.poly is a u-coordinate generator.

    Files with an ``_x`` suffix are skipped (they are the optional x-forms
    written next to the u-forms).  Every file stem must be an identifier of
    the text grammar that is not a u-ring variable name, so relations print
    with names that parse back, and every file must pass the generator
    check; the first one that fails is a usage error that names the file.
    A path that is not a directory, or a directory with no generator file,
    is a usage error too.
    """
    folder = Path(path)
    if not folder.is_dir():
        raise ValueError(f"{folder} is not a directory")
    reserved = set(u_ring(n).names) | {"t"}
    records = []
    for name, coords, p in _generator_files(folder):
        if coords == "x":
            continue
        if not _IDENTIFIER.fullmatch(name) or name in reserved:
            raise ValueError(f"{p.name}: {name!r} cannot name a generator")
        rec = _check_generator(n, name, coords, p)
        if rec.poly is None:  # a parse error
            raise ValueError(f"{p.name}: {rec.note}")
        if rec.note == _CONSTANT:
            raise ValueError(f"{p.name} is a constant, not a generator")
        if rec.status != VALIDATED:
            raise ValueError(f"{p.name} is not a verified invariant")
        records.append(rec)
    if not records:
        raise ValueError(f"no generator files in {folder}")
    return _generator_set(n, records)


def write_generator_dir(gens: GeneratorSet, path) -> None:
    """Write a generator set in the fixture directory layout."""
    folder = Path(path)
    folder.mkdir(parents=True, exist_ok=True)
    for g in gens:
        (folder / f"{g.name}.poly").write_text(format_poly(g.u_poly) + "\n")
        if g.x_poly is not None:
            (folder / f"{g.name}_x.poly").write_text(format_poly(g.x_poly) + "\n")
