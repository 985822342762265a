import re
import shutil
from operator import mul

import pytest

from invforge import fixtures, invariants, syzygies
from invforge.fixtures import (
    SUSPECT,
    VALIDATED,
    fixture_generator_set,
    fixture_root,
    load_fixtures,
    load_generator_dir,
    write_generator_dir,
)
from invforge.invariants import mingenset, verify_invariant_u
from invforge.rings import degree, weight_u, x_ring
from invforge.textio import format_poly, parse_poly


@pytest.mark.parametrize("n,names", [
    (2, ["f2", "f2"]),
    (3, ["f4", "f4"]),
    (4, ["f2", "f3"]),
    (5, ["f4", "f8", "f12", "f18", "syzygy-1"]),
    (6, ["f2", "f4", "f6", "f10", "f15", "syzygy-1"]),
])
def test_all_bundled_records_validate(n, names):
    records = load_fixtures(n)
    assert [r.name for r in records] == names
    assert all(r.status == VALIDATED for r in records)


def test_statuses_stable_across_runs():
    a = [(r.name, r.status) for r in load_fixtures(5)]
    b = [(r.name, r.status) for r in load_fixtures(5)]
    assert a == b


def test_generator_metadata():
    gens = fixture_generator_set(5)
    assert gens.degrees() == (4, 8, 12, 18)
    for g in gens:
        assert g.weight == 5 * g.degree // 2
        assert degree(g.u_poly) == g.degree
        assert weight_u(g.u_poly) == g.weight
        assert verify_invariant_u(5, g.u_poly)


def test_fixture_bodies_round_trip_and_octavic_statuses():
    from invforge.textio import format_poly, parse_poly
    for n in (2, 3, 4, 5, 6, 8):
        for rec in load_fixtures(n):
            assert rec.status == VALIDATED
            assert rec.poly is not None
            assert parse_poly(format_poly(rec.poly), rec.poly.context) == rec.poly


def test_corrupted_body_goes_suspect(tmp_path):
    folder = tmp_path / "n3"
    folder.mkdir()
    (folder / "f4.poly").write_text("4*x0*u2^3 + x0^2*u3^2\n")
    (folder / "bogus.poly").write_text("x0*u2^3\n")           # not an invariant
    (folder / "broken.poly").write_text("4*x0*u9 + ??\n")     # unparseable
    records = load_fixtures(3, base=tmp_path)
    by_name = {r.name: r for r in records}
    assert by_name["f4"].status == VALIDATED
    assert by_name["bogus"].status == SUSPECT
    assert by_name["broken"].status == SUSPECT
    assert by_name["broken"].poly is None


def test_constant_record_goes_suspect(tmp_path):
    shutil.copytree(fixture_root() / "n5", tmp_path / "n5")
    (tmp_path / "n5" / "c0.poly").write_text("7\n")
    by_name = {r.name: r for r in load_fixtures(5, tmp_path)}
    assert by_name["c0"].status == SUSPECT
    assert by_name["c0"].note == "constant, not a generator"
    assert by_name["syzygy-1"].status == VALIDATED
    with pytest.raises(ValueError, match="c0.poly is a constant, not a generator"):
        load_generator_dir(5, tmp_path / "n5")


def test_x_form_that_does_not_project_onto_its_u_form_goes_suspect(tmp_path):
    # twice the true x-form is still an invariant, so only the projection
    # onto f4.poly tells that it is not f4's x-form
    folder = shutil.copytree(fixture_root() / "n3", tmp_path / "n3")
    x_form = parse_poly((folder / "f4_x.poly").read_text().strip(), x_ring(3))
    (folder / "f4_x.poly").write_text(format_poly(x_form.scale(2)) + "\n")
    by_coords = {r.coordinates: r for r in load_fixtures(3, tmp_path)}
    assert by_coords["u"].status == VALIDATED
    assert (by_coords["x"].status, by_coords["x"].note) == (
        SUSPECT, "does not project onto f4.poly")


def test_u_form_of_two_degrees_goes_suspect(tmp_path):
    # the discriminant plus the discriminant divided by x0: the reduced
    # operator kills both summands, which have one weight but two degrees
    folder = bundled_copy(tmp_path, 3)
    (folder / "g4.poly").write_text("x0^2*u3^2 + 4*x0*u2^3 + x0*u3^2 + 4*u2^3\n")
    by_name = {r.name: r for r in load_fixtures(3, tmp_path) if r.coordinates == "u"}
    assert by_name["f4"].status == VALIDATED
    assert (by_name["g4"].status, by_name["g4"].note) == (
        SUSPECT, "fails the invariance verifier")


def test_a_load_verifies_each_u_form_once(monkeypatch):
    calls = []
    verify = invariants.verify_invariant_u
    monkeypatch.setattr(invariants, "verify_invariant_u",
                        lambda n, f: calls.append(f) or verify(n, f))
    gens = fixture_generator_set(8)
    assert calls == [g.u_poly for g in gens]
    calls.clear()
    records = load_fixtures(5)
    assert calls == [r.poly for r in records if r.coordinates == "u"]
    assert len(calls) == 4


def test_write_and_reload_generator_dir(tmp_path):
    gens = mingenset(4, 2, [2, 3])
    write_generator_dir(gens, tmp_path / "gens4")
    back = load_generator_dir(4, tmp_path / "gens4")
    assert back.degrees() == gens.degrees()
    assert [g.u_poly for g in back] == [g.u_poly for g in gens]


def test_load_generator_dir_rejects_non_invariant(tmp_path):
    folder = tmp_path / "bad"
    folder.mkdir()
    (folder / "f1.poly").write_text("u2\n")
    with pytest.raises(ValueError):
        load_generator_dir(3, folder)


@pytest.mark.parametrize("stem", ["2f", "f-2", "u3", "x0", "t"])
def test_load_generator_dir_rejects_bad_names(tmp_path, stem):
    folder = tmp_path / "gens"
    folder.mkdir()
    (folder / f"{stem}.poly").write_text("x0*u4 + 3*u2^2\n")
    with pytest.raises(ValueError, match="cannot name a generator"):
        load_generator_dir(4, folder)


def test_load_fixtures_builds_one_generator_plan(monkeypatch):
    # every relation check of one load shares the generator values, so the
    # generators' line plan is built once; each checked degree builds one
    # candidate evaluator, over the generator slots
    gens = fixture_generator_set(8)
    generator_terms = [g.u_poly.terms for g in gens]
    lines, evaluators = [], []
    line_plan, prefix_plan = syzygies._LinePlan, syzygies._PrefixPlan

    def line_spy(polys, slots, slot):
        lines.append(polys == generator_terms)
        return line_plan(polys, slots, slot)

    def evaluator_spy(exps, slots):
        evaluators.append((sum(map(mul, exps[0], gens.degrees())), slots))
        return prefix_plan(exps, slots)

    monkeypatch.setattr(syzygies, "_LinePlan", line_spy)
    monkeypatch.setattr(syzygies, "_PrefixPlan", evaluator_spy)
    records = load_fixtures(8)
    relations = [r for r in records if r.coordinates == "gen"]
    assert len(relations) == 5
    assert all(r.status == VALIDATED for r in relations)
    assert lines == [True]
    degrees = [sum(map(mul, next(iter(r.poly.terms)), gens.degrees())) for r in relations]
    assert sorted(degrees) == list(range(16, 21))
    assert evaluators == [(d, len(gens)) for d in degrees]


def bundled_copy(tmp_path, n=5):
    shutil.copytree(fixture_root() / f"n{n}", tmp_path / f"n{n}")
    return tmp_path / f"n{n}"


def test_zero_record_goes_suspect(tmp_path):
    (bundled_copy(tmp_path) / "z0.poly").write_text("0\n")
    by_name = {r.name: r for r in load_fixtures(5, tmp_path)}
    assert by_name["z0"].status == SUSPECT
    assert by_name["z0"].note == "parsed to zero"
    assert by_name["syzygy-1"].status == VALIDATED


def test_relation_without_validated_generators_goes_suspect(tmp_path):
    folder = tmp_path / "n3"
    folder.mkdir()
    (folder / "bogus.poly").write_text("x0*u2^3\n")
    (folder / "syzygy-1.gen").write_text("bogus^2\n")
    rel = load_fixtures(3, tmp_path)[-1]
    assert (rel.name, rel.coordinates, rel.status) == ("syzygy-1", "gen", SUSPECT)
    assert rel.note == "no validated generators to expand against"
    assert rel.poly is None


def test_relation_naming_a_suspect_generator_goes_suspect(tmp_path):
    # f8 fails the verifier, so the relation's f8 is an unknown variable
    (bundled_copy(tmp_path) / "f8.poly").write_text("u2\n")
    by_name = {r.name: r for r in load_fixtures(5, tmp_path)}
    assert by_name["f8"].note == "fails the invariance verifier"
    rel = by_name["syzygy-1"]
    assert rel.status == SUSPECT
    assert rel.poly is None
    assert rel.note.startswith("unknown variable 'f8'")


def test_nonvanishing_relation_goes_suspect(tmp_path):
    (bundled_copy(tmp_path) / "syzygy-2.gen").write_text("f4*f8\n")
    by_name = {r.name: r for r in load_fixtures(5, tmp_path)}
    assert by_name["syzygy-1"].status == VALIDATED
    assert by_name["syzygy-2"].status == SUSPECT
    assert by_name["syzygy-2"].note == "expansion through the generators is nonzero"
    assert by_name["syzygy-2"].poly is not None


def test_missing_fixture_folder_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="no fixtures for n=7"):
        load_fixtures(7, tmp_path)


def test_load_generator_dir_rejects_empty_folder(tmp_path):
    with pytest.raises(ValueError, match="no generator files in"):
        load_generator_dir(4, tmp_path)


def test_load_generator_dir_rejects_a_path_that_is_not_a_directory(tmp_path):
    for path in (tmp_path / "nodir", fixture_root() / "n4" / "f2.poly"):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not a directory$"):
            load_generator_dir(4, path)


def test_relations_load_in_number_order(tmp_path):
    folder = bundled_copy(tmp_path)
    for k in (2, 10):
        shutil.copy(folder / "syzygy-1.gen", folder / f"syzygy-{k}.gen")
    records = load_fixtures(5, tmp_path)
    assert [r.name for r in records if r.coordinates == "gen"] == [
        "syzygy-1", "syzygy-2", "syzygy-10"]
    assert all(r.status == VALIDATED for r in records)


def test_generator_files_load_in_name_order(tmp_path):
    folder = tmp_path / "n4"
    folder.mkdir()
    body = (fixture_root() / "n4" / "f2.poly").read_text()
    names = ["g2", "b2", "h2", "a2", "f10", "f2", "z2"]
    for name in names:
        (folder / f"{name}.poly").write_text(body)
    assert [r.name for r in load_fixtures(4, tmp_path)] == [
        "a2", "b2", "f2", "g2", "h2", "z2", "f10"]

def test_bundled_set_runs_no_relation_or_x_form_check(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(fixtures, name)
        monkeypatch.setattr(fixtures, name, lambda *a: calls.append(name) or real(*a))

    spy("check_syzygy")
    spy("verify_invariant_x")
    gens = fixture_generator_set(8)
    assert gens.degrees() == tuple(range(2, 11))
    assert calls == []


def test_suspect_bundled_generator_fails_loudly(tmp_path, monkeypatch):
    (bundled_copy(tmp_path, 4) / "f3.poly").write_text("u2\n")
    monkeypatch.setattr(fixtures, "_DATA_ROOT", tmp_path)
    with pytest.raises(ValueError, match="f3.poly is not a verified invariant"):
        fixture_generator_set(4)
