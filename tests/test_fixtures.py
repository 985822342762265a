import shutil
from operator import mul

import pytest

from invforge import syzygies
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
from invforge.rings import degree, weight_u


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
    gens = fixture_generator_set(5, tmp_path)
    assert gens.degrees() == (4, 8, 12, 18)
    assert gens.verified


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
