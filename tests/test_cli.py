import io
import json
import subprocess
import sys

from invforge import cli
from invforge.cli import main


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


def test_mingenset_defaults_and_out(tmp_path):
    out_dir = tmp_path / "gens2"
    code, out = run_cli("mingenset", "--n", "2", "--out", str(out_dir))
    assert code == 0
    assert "f2 degree=2 weight=2" in out
    assert "x0*u2" in out
    assert (out_dir / "f2.poly").read_text().strip() == "x0*u2"
    assert (out_dir / "f2_x.poly").read_text().strip() == "x0*x2 - x1^2"


def test_mingenset_unsupported_n_exits_2():
    code, _ = run_cli("mingenset", "--n", "7")
    assert code == 2


def test_mingenset_degree_mismatch_exits_2():
    code, _ = run_cli("mingenset", "--n", "3", "--degrees", "2")
    assert code == 2


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "invforge", "mingenset", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "x0*u2" in proc.stdout
