import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invforge import cli, fixtures, hilbert
from invforge.cli import main
from invforge.fixtures import fixture_root, load_generator_dir
from invforge.invariants import mingenset
from invforge.rings import x_ring
from invforge.textio import parse_poly


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_invariants_x_coords():
    code, out = run_cli("invariants", "--n", "3", "--degree", "4", "--coords", "x")
    assert code == 0
    assert out.strip() == "x0^2*x3^2 - 6*x0*x1*x2*x3 + 4*x1^3*x3 + 4*x0*x2^3 - 3*x1^2*x2^2"


def test_invariants_json():
    code, out = run_cli("invariants", "--n", "4", "--degree", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == {"kind": "u", "n": 4}


def test_verify_exit_codes(tmp_path):
    good = tmp_path / "good.poly"
    good.write_text("x0*x2 - x1^2\n")
    code, out = run_cli("verify", "--n", "2", "--coords", "x", str(good))
    assert code == 0 and "invariant" in out
    bad = tmp_path / "bad.poly"
    bad.write_text("x1\n")
    code, out = run_cli("verify", "--n", "2", "--coords", "x", str(bad))
    assert code == 1 and "not an invariant" in out


def test_verify_bad_input_exit_2(tmp_path):
    f = tmp_path / "junk.poly"
    f.write_text("x0 + @@\n")
    code, _ = run_cli("verify", "--n", "2", "--coords", "x", str(f))
    assert code == 2


def test_binary_quadric_degree_600_on_two_byte_fields(tmp_path):
    # exponents of 300 and 600 take two-byte packed fields in the verifiers
    # and in the basis rows; the output is the discriminant's 300th power
    code, out = run_cli("invariants", "--n", "2", "--degree", "600", "--coords", "x")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5b7dbf586db1688411bebe246894b5f3d40fc173c650aa1842547f6dd26e4483")
    assert parse_poly(out, x_ring(2)) == parse_poly("x0*x2 - x1^2", x_ring(2)) ** 300
    code, js = run_cli("invariants", "--n", "2", "--degree", "600", "--coords", "x",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(js.encode()).hexdigest() == (
        "a097669806341aebec86e70c50d32f90e3e1efc2d4b0a042e432b642b9dcb5cc")
    u_form = tmp_path / "u.poly"
    u_form.write_text("x0^300*u2^300\n")
    assert run_cli("verify", "--n", "2", str(u_form)) == (0, "invariant\n")
    x_form = tmp_path / "x.poly"
    x_form.write_text(out)
    assert run_cli("verify", "--n", "2", "--coords", "x", str(x_form)) == (0, "invariant\n")


def test_mingenset_defaults_and_out(tmp_path):
    out_dir = tmp_path / "gens2"
    code, out = run_cli("mingenset", "--n", "2", "--out", str(out_dir))
    assert code == 0
    assert "f2 degree=2 weight=2" in out
    assert "x0*u2" in out
    assert (out_dir / "f2.poly").read_text().strip() == "x0*u2"
    assert (out_dir / "f2_x.poly").read_text().strip() == "x0*x2 - x1^2"


def test_mingenset_unwritable_out_prints_nothing(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    code, out = run_cli("mingenset", "--n", "4", "--out", str(blocker / "gens4"))
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == "not a directory\n"


def test_mingenset_unsupported_n_exits_2():
    code, _ = run_cli("mingenset", "--n", "7")
    assert code == 2


def test_mingenset_names_missing_table_degrees(capsys):
    code, out = run_cli("mingenset", "--n", "5", "--degrees", "4,8,12")
    assert code == 0
    assert out.count(" degree=") == 3
    assert capsys.readouterr().err == "note: --degrees omits the n=5 table degrees 18\n"
    run_cli("mingenset", "--n", "4", "--degrees", "3,2")
    assert capsys.readouterr().err == ""


def test_mingenset_degree_mismatch_exits_2():
    code, _ = run_cli("mingenset", "--n", "3", "--degrees", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["syzygies", "--n", "5", "--gens", "@n5", "--degrees", "-3"],
    ["syzygies", "--n", "5", "--gens", "@n5", "--degrees", "0"],
    ["syzygies", "--n", "5", "--gens", "@n5", "--degrees", "36,0"],
    ["syzygies", "--n", "5", "--gens", "@n5", "--degrees", ","],
    ["mingenset", "--n", "5", "--degrees", ",,"],
    ["mingenset", "--n", "5", "--degrees", "4,-8"],
], ids=" ".join)
def test_bad_degree_list_exits_2(argv, capsys):
    argv = [str(fixture_root() / "n5") if a == "@n5" else a for a in argv]
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --degrees")


def test_member_flow(tmp_path):
    gens_dir = tmp_path / "gens4"
    code, _ = run_cli("mingenset", "--n", "4", "--out", str(gens_dir))
    assert code == 0
    target = tmp_path / "target.poly"
    target.write_text("x0^2*u4^2 + 6*x0*u2^2*u4 + 9*u2^4\n")  # f2 squared
    code, out = run_cli("member", "--n", "4", "--gens", str(gens_dir),
                        "--target", str(target))
    assert code == 0
    assert out.strip() == "f2^2"
    non_member = tmp_path / "nm.poly"
    non_member.write_text("x0*u2\n")
    code, out = run_cli("member", "--n", "4", "--gens", str(gens_dir),
                        "--target", str(non_member))
    assert code == 1
    assert "not a member" in out


def test_syzygies_flow(tmp_path):
    gens_dir = tmp_path / "gens2"
    run_cli("mingenset", "--n", "2", "--out", str(gens_dir))
    code, out = run_cli("syzygies", "--n", "2", "--gens", str(gens_dir),
                        "--degrees", "4,6,8")
    assert code == 0
    assert "0 minimal syzygies" in out


def test_convert_round_trip(tmp_path):
    u_form = tmp_path / "f.poly"
    u_form.write_text("4*x0*u2^3 + x0^2*u3^2\n")
    code, out = run_cli("convert", "--n", "3", "--direction", "u2x", str(u_form))
    assert code == 0
    x_file = tmp_path / "fx.poly"
    x_file.write_text(out)
    code, out2 = run_cli("convert", "--n", "3", "--direction", "x2u", str(x_file))
    assert code == 0
    assert out2.strip() == "x0^2*u3^2 + 4*x0*u2^3"


def test_convert_residual_denominator_exits_1(tmp_path):
    f = tmp_path / "u2.poly"
    f.write_text("u2\n")
    code, out = run_cli("convert", "--n", "2", "--direction", "u2x", str(f))
    assert code == 1
    assert "not expressible" in out


def test_fixtures_subcommand():
    code, out = run_cli("fixtures", "--n", "4", "--validate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["f2 [u] validated", "f3 [u] validated"]


def test_fixtures_subcommand_prints_notes(tmp_path, monkeypatch):
    shutil.copytree(fixture_root() / "n4", tmp_path / "n4")
    (tmp_path / "n4" / "f3.poly").write_text("u2\n")
    monkeypatch.setattr(fixtures, "_DATA_ROOT", tmp_path)
    code, out = run_cli("fixtures", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "f2 [u] validated",
        "f3 [u] transcription-suspect (fails the invariance verifier)"]


def test_directory_target_exits_2(tmp_path, capsys):
    gens_dir = tmp_path / "gens4"
    run_cli("mingenset", "--n", "4", "--out", str(gens_dir))
    capsys.readouterr()
    code, _ = run_cli("member", "--n", "4", "--gens", str(gens_dir),
                      "--target", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_failure_exits_3(monkeypatch, capsys):
    def broken(n, d):
        raise RuntimeError("solver fault")
    monkeypatch.setattr(cli, "invariant_basis", broken)
    code, _ = run_cli("invariants", "--n", "3", "--degree", "4")
    assert code == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: solver fault\n"


@pytest.mark.parametrize("command", ["syzygies", "member"])
def test_constant_generator_file_exits_2(tmp_path, capsys, command):
    gens_dir = tmp_path / "gens"
    gens_dir.mkdir()
    n5 = fixture_root() / "n5"
    (gens_dir / "f4.poly").write_text((n5 / "f4.poly").read_text())
    (gens_dir / "c.poly").write_text("1\n")
    extra = (["--degrees", "8"] if command == "syzygies"
             else ["--target", str(n5 / "f8.poly")])
    code, _ = run_cli(command, "--n", "5", "--gens", str(gens_dir), *extra)
    assert code == 2
    assert capsys.readouterr().err == "error: c.poly is a constant, not a generator\n"


@pytest.mark.parametrize("command", ["syzygies", "member"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_gens_path_that_is_not_a_directory_exits_2(tmp_path, capsys, command, kind):
    gens = tmp_path / "nodir"
    if kind == "file":
        gens.write_text((fixture_root() / "n5" / "f4.poly").read_text())
    extra = (["--degrees", "8"] if command == "syzygies"
             else ["--target", str(fixture_root() / "n5" / "f8.poly")])
    code, out = run_cli(command, "--n", "5", "--gens", str(gens), *extra)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {gens} is not a directory\n"


def test_unparseable_generator_file_is_named(tmp_path, capsys):
    gens_dir = tmp_path / "gens"
    gens_dir.mkdir()
    n4 = fixture_root() / "n4"
    (gens_dir / "f2.poly").write_text("4*x0*u9 + ??\n")
    code, _ = run_cli("member", "--n", "4", "--gens", str(gens_dir),
                      "--target", str(n4 / "f3.poly"))
    assert code == 2
    assert capsys.readouterr().err == "error: f2.poly: unexpected character '?' (at position 10)\n"


def test_oversized_invariants_request_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli("invariants", "--n", "12", "--degree", "40")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n=12" in err and "degree 40" in err and "384781134" in err


@pytest.mark.parametrize("coords", ["u", "x"])
@pytest.mark.parametrize("text", ["0", "x0 - x0", "1/2*x0*u2 - 1/2*t*u2"])
def test_verify_zero_polynomial_exits_2(tmp_path, capsys, coords, text):
    f = tmp_path / "zero.poly"
    f.write_text(text.replace("u2", "x2" if coords == "x" else "u2") + "\n")
    code, out = run_cli("verify", "--n", "4", "--coords", coords, str(f))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: verify expects a nonzero polynomial\n"


def test_oversized_member_request_exits_2_at_once(tmp_path, capsys):
    target = tmp_path / "big.poly"
    target.write_text("x0^30*u8^30\n")
    start = time.perf_counter()
    code, out = run_cli("member", "--n", "8", "--gens", str(fixture_root() / "n8"),
                        "--target", str(target))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n=8" in err and "degree 60" in err and "5785827" in err


def test_oversized_x_form_request_exits_2_at_once(capsys):
    # the cubic's degree-7996 x-form could have 7996001 terms: refused
    # before the basis is computed
    start = time.perf_counter()
    code, out = run_cli("invariants", "--n", "3", "--degree", "7996", "--coords", "x")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n=3" in err and "degree 7996" in err and "7996001" in err
    assert "limit of 100000" in err


def test_oversized_convert_request_exits_2(tmp_path, capsys):
    # a component of degree 1500 and weight 1800 for n = 3 has 248251
    # x-monomials; a smaller component of the same input does not help it
    f = tmp_path / "big.poly"
    f.write_text("x0^900*u3^600 + x0*u2\n")
    code, out = run_cli("convert", "--n", "3", "--direction", "u2x", str(f))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "248251" in err and "limit of 100000" in err


HEAVY_REQUESTS = [
    # (argv, weight of the input, exit code)
    (["invariants", "--n", "64", "--degree", "7998"], 64 * 7998 // 2, 2),
    (["invariants", "--n", "64", "--degree", "2000"], 64 * 2000 // 2, 2),
    (["convert", "--n", "64", "--direction", "u2x", "u33^8000"], 33 * 8000, 2),
    (["convert", "--n", "64", "--direction", "u2x", "u64^4000"], 64 * 4000, 1),
]


@pytest.mark.parametrize("argv,weight,code", HEAVY_REQUESTS,
                         ids=[" ".join(argv) for argv, _, _ in HEAVY_REQUESTS])
def test_heavy_requests_are_sized_in_small_tables(tmp_path, monkeypatch, argv, weight, code):
    # sizing builds no partition table of the input's full weight: symmetry,
    # unimodality and the candidate pair bound answer first; u64^4000 is
    # sized, then fails its x-form (exit 1)
    tops = []
    box = hilbert._box_partitions

    def spy(d, n, top, limit=None):
        tops.append(top)
        return box(d, n, top, limit)

    monkeypatch.setattr(hilbert, "_box_partitions", spy)
    if argv[0] == "convert":
        poly = tmp_path / "heavy.poly"
        poly.write_text(argv[-1] + "\n")
        argv = argv[:-1] + [str(poly)]
    start = time.perf_counter()
    assert run_cli(*argv)[0] == code
    assert time.perf_counter() - start < 1
    assert max(tops, default=0) <= weight // 30


def test_member_of_a_high_generator_power(tmp_path):
    # the generator power is built one product at a time, with no recursion
    # per power: f2^998 is found at degree 1996
    gens_dir = tmp_path / "gens"
    gens_dir.mkdir()
    (gens_dir / "f2.poly").write_text("x0*u2\n")
    target = tmp_path / "t.poly"
    target.write_text("x0^998*u2^998\n")
    code, out = run_cli("member", "--n", "2", "--gens", str(gens_dir),
                        "--target", str(target))
    assert (code, out) == (0, "f2^998\n")


def test_oversized_syzygies_request_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli("syzygies", "--n", "8", "--gens", str(fixture_root() / "n8"),
                        "--degrees", "16,40")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degree 40" in err and "2265" in err and "limit of 500" in err


OVERSIZED_FORM_REQUESTS = {
    "invariants": ["--degree", "2"],
    "mingenset": ["--degrees", "2"],
    "verify": ["{poly}"],
    "convert": ["--direction", "u2x", "{poly}"],
    "member": ["--gens", str(fixture_root() / "n5"), "--target", "{poly}"],
    "syzygies": ["--gens", str(fixture_root() / "n5"), "--degrees", "36"],
}


@pytest.mark.parametrize("n", [65, 990])
@pytest.mark.parametrize("command", sorted(OVERSIZED_FORM_REQUESTS))
def test_oversized_form_degree_exits_2_at_once(tmp_path, capsys, command, n):
    poly = tmp_path / "square.poly"
    poly.write_text("x0^2\n")
    rest = [a.format(poly=poly) for a in OVERSIZED_FORM_REQUESTS[command]]
    start = time.perf_counter()
    code, out = run_cli(command, "--n", str(n), *rest)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: form degree {n} is above the limit of 64\n"


HUGE_DEGREE_REQUESTS = [
    ["invariants", "--n", "4", "--degree", "99999999999999999999"],
    ["invariants", "--n", "2", "--degree", "99999999999999999998"],
    ["invariants", "--n", "3", "--degree", "12000"],
    ["mingenset", "--n", "4", "--degrees", "2,99999999999999999999"],
    ["member", "--n", "4", "--gens", "@n4", "--target", "{poly}"],
    ["syzygies", "--n", "2", "--gens", "@n2", "--degrees", "99999999999999999998"],
    ["syzygies", "--n", "3", "--gens", "@n3", "--degrees", "400000"],
]


@pytest.mark.parametrize("argv", HUGE_DEGREE_REQUESTS, ids=" ".join)
def test_huge_degree_exits_2_at_once(tmp_path, capsys, argv):
    # the degree is refused before any table of n*d/2 entries is built
    poly = tmp_path / "huge.poly"
    poly.write_text("x0^99999999999999999999*u4^99999999999999999999\n")
    argv = [str(fixture_root() / a[1:]) if a.startswith("@") else a.format(poly=poly)
            for a in argv]
    start = time.perf_counter()
    code, out = run_cli(*argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    # mingenset notes the table degrees that --degrees omits first
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and "the degree is above the limit of 7999" in last


REFUSALS = [
    # (argv, message); "@dir" names a bundled folder, "=text" a file of text
    (["convert", "--n", "64", "--direction", "u2x", "=u33^8000"],
     "x-forms of degree 8000 and weight 264000 for n=64 may have 5337334 terms"
     " or more, above the limit of 100000"),
    (["syzygies", "--n", "8", "--gens", "@n8", "--degrees", "40"],
     "relations of degree 40 for n=8 need at least 2265 generator monomials,"
     " above the limit of 500"),
    (["syzygies", "--n", "8", "--gens", "@n8", "--degrees", "7999"],
     "relations of degree 7999 for n=8 need at least 117680267263486929157"
     " generator monomials, above the limit of 500"),
    (["syzygies", "--n", "8", "--gens", "@n8", "--degrees", "100000000000"],
     "relations of degree 100000000000 for n=8: the degree is above the limit"
     " of 7999"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_exits_2_at_once(tmp_path, capsys, argv, message):
    # the degree cap is checked before any count, and a count under the cap
    # is exact: degree 7999 reports its full number of generator monomials
    poly = tmp_path / "request.poly"
    args = []
    for a in argv:
        if a.startswith("="):
            poly.write_text(a[1:] + "\n")
            a = str(poly)
        args.append(str(fixture_root() / a[1:]) if a.startswith("@") else a)
    start = time.perf_counter()
    code, out = run_cli(*args)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_x_forms_take_no_degree_cap(tmp_path):
    poly = tmp_path / "huge.poly"
    poly.write_text("x0^1000000000\n")
    start = time.perf_counter()
    code, out = run_cli("convert", "--n", "3", "--direction", "u2x", str(poly))
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "x0^1000000000\n")


def test_member_of_a_constant_is_the_empty_product(tmp_path):
    target = tmp_path / "seven.poly"
    target.write_text("7\n")
    code, out = run_cli("member", "--n", "4", "--gens", str(fixture_root() / "n4"),
                        "--target", str(target))
    assert (code, out) == (0, "7\n")


def test_balanced_target_of_no_generator_degree_is_no_member(tmp_path):
    # degree 6, weight 15 = 5*6/2, but the quintic's generator degrees
    # 4, 8, 12, 18 give no product of degree 6
    target = tmp_path / "t.poly"
    target.write_text("x0^3*u5^3\n")
    code, out = run_cli("member", "--n", "5", "--gens", str(fixture_root() / "n5"),
                        "--target", str(target))
    assert (code, out) == (1, "not a member\n")


def test_mingenset_refuses_more_new_generators_than_asked(capsys):
    # the sextic has ten new degree-14 invariants without the lower degrees
    code, out = run_cli("mingenset", "--n", "6", "--degrees", "14")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: more than 1 new generators at degree 14"


def test_largest_degree_is_answered():
    # the quadratic answers every even degree up to the limit
    code, out = run_cli("invariants", "--n", "2", "--degree", "7998")
    assert code == 0 and out == "x0^3999*u2^3999\n"


def test_largest_form_degree_is_answered():
    code, out = run_cli("invariants", "--n", "64", "--degree", "2")
    assert code == 0 and out.count("\n") == 1


def test_mingenset_names_many_generators_of_one_degree(tmp_path):
    # the sextic's ten degree-14 invariants are all new without lower degrees
    out_dir = tmp_path / "gens"
    code, out = run_cli("mingenset", "--n", "6", "--degrees", ",".join(["14"] * 10),
                        "--out", str(out_dir))
    assert code == 0
    names = ["f14"] + [f"f14{c}" for c in "bcdefghij"]
    assert [line.split()[0] for line in out.splitlines() if "degree=" in line] == names
    gens = mingenset(6, 10, [14] * 10)
    assert [(g.name, g.u_poly) for g in load_generator_dir(6, out_dir)] == [
        (g.name, g.u_poly) for g in gens]


def run_cli_subprocess(*argv):
    """One request in a fresh interpreter, with this checkout's package on its path."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "invforge", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = run_cli_subprocess("mingenset", "--n", "2")
    assert proc.returncode == 0
    assert "x0*u2" in proc.stdout


def test_one_parser_serves_a_sequence_of_requests(tmp_path, capsys):
    malformed = tmp_path / "malformed.poly"
    malformed.write_text("x0*u2 +\n")
    requests = [
        ["invariants", "--n", "4", "--bogus"],
        ["fixtures", "--n", "4", "--validate"],
        ["fixtures", "--n", "4"],
        ["invariants", "--n", "4", "--degree", "6"],
        ["invariants", "--n", "4", "--degree", "6", "--format", "json"],
        ["verify", "--n", "4", str(malformed)],
    ]
    capsys.readouterr()
    got = []
    for argv in requests:
        try:
            code, out = run_cli(*argv)
        except SystemExit as exc:
            code, out = exc.code, ""
        got.append((code, out, capsys.readouterr().err))
    assert [code for code, _, _ in got] == [2, 0, 0, 0, 0, 2]
    for argv, (code, out, err) in zip(requests, got):
        fresh = run_cli_subprocess(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert parser.parse_args(["fixtures", "--n", "4", "--validate"]).validate
    assert not parser.parse_args(["fixtures", "--n", "4"]).validate


# sha256 of stdout and the exit code per request; "@" paths are relative to
# the bundled fixtures, "%" paths to tests/data
DATA = Path(__file__).parent / "data"
GOLDEN = [
    (["invariants", "--n", "5", "--degree", "12"], 0,
     "55979db80549d1dffa02f04420061b8140db8b593282ef997c98851c1b8b11d2",
     "5beaf61a1f91ad79a9b7a00ef1cf4ab27c807508822244a429766e29702e53e5"),
    (["invariants", "--n", "6", "--degree", "6", "--coords", "x"], 0,
     "533d53cab834b6de28c86d22386cf7bcf4c7d4a547b4f7995c3700db59ef6461",
     "28dff953d2995f0901800f9698b17a84df55fab3b1e92865cb994aeadb532c70"),
    (["mingenset", "--n", "5"], 0,
     "3256f465e8f55ce45112c39cf8d37c85c3a2c162703bf22fa225a46fea2329bc",
     "42f8753ba934279fb45c0260f24d41f03546b81bf8f1bfb584ad4fe237f31dc6"),
    (["syzygies", "--n", "5", "--gens", "@n5", "--degrees", "36"], 0,
     "9b787ab520503e8bea3eb34dfdabcc863d0ac70f3bdf56bb0903bd69b12537b7",
     "2d483bb141a01e62c17c46f043fbd93bd663cd44090467aa63778b4475242b71"),
    (["syzygies", "--n", "8", "--gens", "@n8", "--degrees", "16"], 0,
     "24a1e251a9d4b427a9a2ab5865c86e341fc1f0efbefc7128d8e3c9270a666787",
     "537dbf55b301e3e4a049748533a2d623a4b36ab916b9440ced610709611d3eb1"),
    (["member", "--n", "5", "--gens", "@n5", "--target", "@n5/f18.poly"], 0,
     "013c94bceac28a9c160b7eddc647097bc93c4e8c465f620c661e01219217a38a",
     "9fbe32dad4e47e9e74d622d4d73e40b94bbe478f61ff2f313372289ec6765b39"),
    (["convert", "--n", "5", "--direction", "u2x", "@n5/f8.poly"], 0,
     "f37d1ce858b3f61ced0997d3f5f98ad3af6f511e3b0642d68525e6c2f78c9605",
     "76b4f3f84189e1f5383fd91ebcab3ed1f6178e35e89a6411de1f6dd4994e6fb2"),
    # f8 + f2*f6 - 2*f3*f5 + 3*f4^2, and the same plus 5*u4^8
    (["member", "--n", "8", "--gens", "@n8", "--target", "%n8_member.poly"], 0,
     "7d1e8138a95d837a0b125a78fd020710d983150a73ab4ef7d4067b0fa909642e",
     "1ac5d20be52b4f2ad5985f256a675d6b8a1f0ad537fc42136f6b614be4b20d3a"),
    (["member", "--n", "8", "--gens", "@n8", "--target", "%n8_non_member.poly"], 1,
     "ac1b262badf802d4123e595071f0f00d00c111cc81aed5bf1721164375e29a51",
     "ac1b262badf802d4123e595071f0f00d00c111cc81aed5bf1721164375e29a51"),
    # 3/2*f4^2 - f8, hand-spaced, with t for x0
    (["member", "--n", "5", "--gens", "@n5", "--target", "%n5_target.poly"], 0,
     "c8a208db40d2f36398d785c3b785a1f86fe3331ea879f06312ce41ea76599c70",
     "d408dfea09ea949355c942976ae5dcf10c67f3bbdd16620b00f5ecb2f8b0c2e6"),
    # the x-form of the bundled octavic f10 (1430 terms)
    (["convert", "--n", "8", "--direction", "x2u", "%n8_f10_x.poly"], 0,
     "b31941ce730f74667b8d1c90319140380c0fcbf79675d1a74f68259e9ef2d251",
     "21d2fa87c1fa4358bbb931f20b28fe90e44ac2010da67d3365f5c230600d6bbb"),
]
GOLDEN_CASES = [(argv + ["--format", fmt], code, digest)
                for argv, code, text, js in GOLDEN
                for fmt, digest in (("text", text), ("json", js))]
GOLDEN_CASES += [
    (["fixtures", "--n", "5"], 0,
     "0444b4024aab033d7e8d002da0e0dd445de34db5d889aadac4c81fd98a7e7d41"),
    (["verify", "--n", "8", "--coords", "x", "%n8_f10_x.poly"], 0,
     "6e12c7dfa08efa46a146a1f2363a0d90f289cf36f989160c1d961f2ff90d77ab"),
]


def _golden_path(arg: str) -> str:
    if arg.startswith("@"):
        return str(fixture_root() / arg[1:])
    if arg.startswith("%"):
        return str(DATA / arg[1:])
    return arg


@pytest.mark.parametrize("argv,code,digest", GOLDEN_CASES,
                         ids=[" ".join(a) for a, _, _ in GOLDEN_CASES])
def test_golden_output(argv, code, digest):
    got, out = run_cli(*map(_golden_path, argv))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_canonical_order_pins_generator_and_x_ring_output():
    # the one monomial_key orders a generator-ring relation (text and JSON)
    # and the x-forms of mingenset; digests of the output before it was one
    gens5 = str(fixture_root() / "n5")
    code, out = run_cli("syzygies", "--n", "5", "--gens", gens5, "--degrees", "36")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9b787ab520503e8bea3eb34dfdabcc863d0ac70f3bdf56bb0903bd69b12537b7")
    code, js = run_cli("syzygies", "--n", "5", "--gens", gens5, "--degrees", "36",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(js.encode()).hexdigest() == (
        "2d483bb141a01e62c17c46f043fbd93bd663cd44090467aa63778b4475242b71")
    code, js = run_cli("mingenset", "--n", "4", "--coords", "x", "--format", "json")
    assert code == 0
    assert hashlib.sha256(js.encode()).hexdigest() == (
        "19e0b5f31650ecbad4428082e42708b4b75f27cf98f6621f7f2b629e2710e695")
