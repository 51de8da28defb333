"""End-to-end checks of the command-line surface through main(argv)."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import charzeros
from charzeros.cli import main
from charzeros.groupcore import parse_group_file


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_stdout_parses(capsys):
    rc, out, _ = run(capsys, "build", "PSL(2,7)")
    assert rc == 0
    g = parse_group_file(out)
    assert g.name == "PSL(2,7)" and g.order == 168


def test_build_out_file(tmp_path, capsys):
    f = tmp_path / "g.grp"
    rc, out, _ = run(capsys, "build", "C12", "--out", str(f))
    assert rc == 0
    assert "wrote" in out and "order 12" in out
    assert parse_group_file(f.read_text()).order == 12


def test_table_then_verify(tmp_path, capsys):
    f = tmp_path / "t.json"
    rc, out, _ = run(capsys, "table", "SL(2,5)", "--out", str(f))
    assert rc == 0 and "9 classes" in out
    rc, out, err = run(capsys, "verify", str(f))
    assert rc == 0 and err == ""
    assert "table ok" in out


def test_verify_json_format(tmp_path, capsys):
    f = tmp_path / "t.json"
    run(capsys, "table", "C6", "--out", str(f))
    rc, out, _ = run(capsys, "verify", str(f), "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"group": "C6", "ok": True, "violations": []}


def test_verify_tampered_table(tmp_path, capsys):
    f = tmp_path / "t.json"
    run(capsys, "table", "C6", "--out", str(f))
    obj = json.loads(f.read_text())
    # double a degree entry; the file still parses but orthogonality breaks
    obj["rows"][1][0]["c"][0][1] *= 2
    f.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "verify", str(f))
    assert rc == 1
    assert "degree-sum" in err or "row-orth" in err


def test_verify_malformed_file(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("not json at all")
    rc, _, err = run(capsys, "verify", str(f))
    assert rc == 1 and "malformed table file" in err


def _a5_table(tmp_path, capsys, edit):
    f = tmp_path / "a5.json"
    run(capsys, "table", "A5", "--out", str(f))
    obj = json.loads(f.read_text())
    edit(obj)
    f.write_text(json.dumps(obj))
    return f


def test_verify_rejects_power_map_out_of_range(tmp_path, capsys):
    def edit(obj):
        obj["classes"][1]["powers"] = [0, 99]

    rc, out, err = run(capsys, "verify", str(_a5_table(tmp_path, capsys, edit)))
    assert (rc, out) == (1, "") and "power map" in err


def test_verify_rejects_relabelled_class_order(tmp_path, capsys):
    def edit(obj):
        c = obj["classes"][3]  # 5A, relabelled as order 3
        assert c["order"] == 5
        c["order"] = 3
        c["powers"] = c["powers"][:3]

    rc, out, err = run(capsys, "verify", str(_a5_table(tmp_path, capsys, edit)))
    assert (rc, out) == (1, "") and "class 3" in err


def test_verify_rejects_huge_entry_level_in_bounded_time(tmp_path, capsys):
    def edit(obj):
        obj["rows"][1][1] = {"m": 1000000007 * 998244353, "c": [[0, 1, 1]]}

    f = _a5_table(tmp_path, capsys, edit)
    src = str(Path(charzeros.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from charzeros.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", "verify", str(f)],
        capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "exponent" in proc.stderr


def test_zeros_text(capsys):
    rc, out, _ = run(capsys, "zeros", "PSL(2,7)")
    assert rc == 0
    assert "PSL(2,7): order 168, 6 classes" in out
    assert "zeros on classes:" in out
    assert "row 0 degree 1: zeros on classes: none" in out


def test_zeros_json_row(capsys):
    rc, out, _ = run(capsys, "zeros", "PSL(2,7)", "--row", "1",
                     "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["group"] == "PSL(2,7)" and obj["order"] == 168
    (entry,) = obj["rows"]
    assert entry["row"] == 1 and entry["degree"] == 3
    ((_, order),) = entry["zeros"]
    assert order == 3


def test_zeros_row_out_of_range(capsys):
    rc, _, err = run(capsys, "zeros", "C6", "--row", "99")
    assert rc == 2 and "out of range" in err


def test_star_single_row(capsys):
    rc, out, _ = run(capsys, "star", "PSL(2,5)", "--row", "3")
    assert rc == 0
    assert "star holds with p = 2" in out


def test_star_out_order_override(capsys):
    rc, out, _ = run(capsys, "star", "PSL(2,5)", "--row", "1",
                     "--out-order", "0")
    assert rc == 0 and "star fails" in out


def test_star_survey_json(capsys):
    rc, out, _ = run(capsys, "star", "Sz(8)", "--format", "json")
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 11
    assert {r["degree"] for r in reports if r["holds"]} == {14}


def test_classify_text_and_json(capsys):
    rc, out, _ = run(capsys, "classify", "PSL(2,5)")
    assert rc == 0 and "(match)" in out
    rc, out, _ = run(capsys, "classify", "PSL(2,5)", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["observed"] == [3, 3, 4]


def test_group_file_target(tmp_path, capsys):
    f = tmp_path / "g.grp"
    run(capsys, "build", "C12", "--out", str(f))
    capsys.readouterr()
    rc, out, _ = run(capsys, "zeros", str(f))
    assert rc == 0 and "order 12, 12 classes" in out


def test_table_file_target(tmp_path, capsys):
    f = tmp_path / "t.json"
    run(capsys, "table", "SL(2,5)", "--out", str(f))
    rc, out, _ = run(capsys, "classify", str(f))
    assert rc == 0 and "SL(2,5)" in out


def test_unknown_target(capsys):
    rc, _, err = run(capsys, "zeros", "M11")
    assert rc == 2
    assert "neither a registry group nor a readable file" in err


def test_budget_failures(capsys):
    rc, _, err = run(capsys, "table", "C12", "--max-classes", "5")
    assert rc == 1 and "class" in err
    rc, _, err = run(capsys, "table", "A5", "--max-order", "10")
    assert rc == 1 and "budget" in err


def test_order_budget_stops_enumeration(tmp_path, capsys):
    # S10 has 3628800 elements; enumeration must stop at the default budget
    f = tmp_path / "s10.grp"
    f.write_text("degree 10\n(1 2 3 4 5 6 7 8 9 10)\n(1 2)\n")
    rc, _, err = run(capsys, "zeros", str(f))
    assert rc == 1 and "budget" in err


def test_max_order_is_the_enumeration_budget(tmp_path, capsys):
    f = tmp_path / "s5.grp"
    f.write_text("degree 5\n(1 2 3 4 5)\n(1 2)\n")
    rc, _, err = run(capsys, "zeros", str(f), "--max-order", "119")
    assert rc == 1 and "budget" in err
    rc, out, _ = run(capsys, "zeros", str(f), "--max-order", "120")
    assert rc == 0 and "order 120" in out


def test_numtheory_diophantine(capsys):
    rc, out, _ = run(capsys, "numtheory", "diophantine", "--part", "a",
                     "--bound", "1000")
    assert rc == 0
    assert "part A, bound 1000: q in {3, 5, 17}" in out
    assert "q = 17: q-1 = 2^4, q+1 = 2^1 3^2" in out


def test_numtheory_diophantine_json(capsys):
    rc, out, _ = run(capsys, "numtheory", "diophantine", "--part", "C",
                     "--bound", "1000", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["part"] == "C" and obj["values"] == [3]


def test_numtheory_outer_bound(capsys):
    rc, out, _ = run(capsys, "numtheory", "outer-bound", "--bound", "500")
    assert rc == 0 and "both inequalities hold" in out
    rc, out, _ = run(capsys, "numtheory", "outer-bound", "--bound", "500",
                     "--format", "json")
    obj = json.loads(out)
    assert obj == {"bound": 500, "ok": True, "violations": []}


def test_numtheory_zsigmondy(capsys):
    rc, out, _ = run(capsys, "numtheory", "zsigmondy", "2", "4")
    assert rc == 0 and "least primitive prime divisor of 2^4 - 1: 5" in out
    rc, out, _ = run(capsys, "numtheory", "zsigmondy", "2", "6")
    assert rc == 0 and "(q, n) = (2, 6)" in out
    rc, out, _ = run(capsys, "numtheory", "zsigmondy", "7", "2")
    assert rc == 0 and "power of two" in out
    rc, out, _ = run(capsys, "numtheory", "zsigmondy", "2", "6",
                     "--format", "json")
    assert json.loads(out)["exception_reason"] == "Q2N6"


def test_numtheory_torus(capsys):
    rc, out, _ = run(capsys, "numtheory", "torus", "A", "1", "5")
    assert rc == 0
    assert "family A, n = 1, q = 5:" in out
    assert "order 6" in out and "order 4" in out and "= 3" in out


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "numtheory")[0] == 2
    assert run(capsys, "table", "C6", "--bogus")[0] == 2
    assert run(capsys, "numtheory", "diophantine", "--part", "D")[0] == 2
    assert run(capsys, "numtheory", "zsigmondy", "6", "3")[0] == 2
    assert run(capsys, "numtheory", "torus", "Z", "1", "5")[0] == 2
    assert run(capsys, "verify", "/no/such/file")[0] == 2


def test_stdout_deterministic(capsys):
    first = run(capsys, "table", "PSL(2,7)")
    second = run(capsys, "table", "PSL(2,7)")
    assert first == second
    first = run(capsys, "star", "SL(2,5)")
    second = run(capsys, "star", "SL(2,5)")
    assert first == second


def test_installed_script():
    exe = shutil.which("charzeros")
    # without the console script, run the module entry point of the package
    # this test imported
    cmd = [exe] if exe else [sys.executable, "-m", "charzeros.cli"]
    src = str(Path(charzeros.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(cmd + ["numtheory", "zsigmondy", "2", "4"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert "5" in proc.stdout
