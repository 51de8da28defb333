"""End-to-end checks of the command-line surface through main(argv)."""
import argparse
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import charzeros
from charzeros import chartab, cli, numtheory
from charzeros.chartab import table_from_text, table_to_text, verify_table
from charzeros.cli import main
from charzeros.constructions import registry
from charzeros.groupcore import Group, parse_group_file
from charzeros.vanishing import BurnsideReport
from check_interpreters import DISPATCH, FILES, LEGS, TOP_USAGE, ZSIGMONDY_USAGE


PINNED_TABLES = Path(__file__).resolve().parents[1] / "perfbench" / "pinned" / "tables"


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


def test_verify_non_utf8_file_is_malformed(tmp_path, capsys):
    # a table file is UTF-8 JSON: any other bytes are a malformed table file
    f = tmp_path / "bad.tbl"
    f.write_bytes(b"\xff{")
    rc, out, err = run(capsys, "verify", str(f))
    assert (rc, out) == (1, "") and "malformed table file" in err


def test_files_are_read_and_written_as_utf8(tmp_path):
    # every file the program opens names its encoding: one that does not
    # warns under -X warn_default_encoding, and the warning is made an error
    src = str(Path(charzeros.__file__).parents[1])
    cmd = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
           "-m", "charzeros.cli"]
    group = str(tmp_path / "a5.txt")
    for argv in (["build", "A5", "--out", group], ["table", group], ["build", "3.A6"],
                 ["verify", str(PINNED_TABLES / "A5.tbl")],
                 ["suite", "--dir", str(tmp_path / "suite")]):
        proc = subprocess.run(cmd + argv, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, (argv, proc.stderr)


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


def test_table_file_rejects_power_map_that_does_not_compose(tmp_path, capsys):
    def edit(obj):
        c = obj["classes"][3]  # 5A, whose square is 5B: (5A^2)^2 = 5A^4 = 5B
        assert c["powers"] == [0, 3, 4, 4, 3]
        c["powers"] = [0, 3, 4, 3, 3]  # every class order still consistent

    f = str(_a5_table(tmp_path, capsys, edit))
    for verb in ("verify", "zeros"):
        rc, out, err = run(capsys, verb, f)
        assert (rc, out) == (1, ""), verb
        assert "class 3: power map does not compose" in err, (verb, err)


def test_malformed_table_prefix_printed_once(tmp_path, capsys):
    def edit(obj):
        assert obj["classes"][1]["order"] == 2
        obj["classes"][1]["rep"] = "(0 1)(2 3)"

    f = str(_a5_table(tmp_path, capsys, edit))
    rc, out, err = run(capsys, "verify", f)
    assert (rc, out) == (1, "") and err.count("malformed table file") == 1
    assert "point 0 outside degree 256" in err
    rc, out, err = run(capsys, "zeros", f)
    assert (rc, out) == (1, "") and err.count("malformed table file") == 1


def test_table_file_reps_only_in_canonical_form(tmp_path, capsys):
    # the involution "(2 3)(4 5)" of A5 spelled as `table` never writes it,
    # or with two more points beyond the largest degree 256
    for rep in ("(4 5)(2 3)", "(3 2)(5 4)", "( 2 3 )(4 5)", "(2 3)(4 5)(1)",
                "(2 3)(4 5)()", "(2 03)(4 5)", "(2 3)(4 5)(300 301)"):
        def edit(obj):
            assert obj["classes"][1]["rep"] == "(2 3)(4 5)"
            obj["classes"][1]["rep"] = rep

        rc, out, err = run(capsys, "verify", str(_a5_table(tmp_path, capsys, edit)))
        assert (rc, out) == (1, "") and "malformed table file" in err, (rep, err)


def test_table_of_a_table_file_records_the_given_seed(check_legs):
    check_legs("table A5.tbl --seed 5")


def test_table_of_a_pinned_table_file_is_that_file(capsys):
    # a table file read back and written again is the same bytes
    files = sorted(PINNED_TABLES.glob("*.tbl"))
    assert len(files) == 35
    for f in files:
        assert run(capsys, "table", str(f)) == (0, f.read_text(), ""), f.name


def test_table_file_verdicts_read_verified_tables(tmp_path, capsys):
    def edit(obj):
        obj["rows"][1][1] = {"m": obj["exponent"], "c": []}  # one entry set to 0

    f = str(_a5_table(tmp_path, capsys, edit))
    for verb in ("zeros", "star", "classify"):
        rc, out, err = run(capsys, verb, f)
        assert (rc, out) == (1, ""), verb
        assert err.startswith("error: ") and err.count("\n") == 1, (verb, err)
        assert "row-orth" in err, verb


def test_power_maps_breaking_the_galois_law_fail_every_read_verb(check_legs):
    # 5A and 5B each sent to itself by every unit: the file loads, and its
    # rows and columns are orthonormal, but sigma_7 swaps 5A's and 5B's values
    check_legs("verify a5swap.tbl", "verify --format json a5swap.tbl",
               *(f"{verb} a5swap.tbl" for verb in ("zeros", "star", "classify")))


def test_os_errors_exit_2(tmp_path, capsys):
    d = str(tmp_path)
    for argv in (["verify", d], ["build", "A5", "--out", d], ["table", "C2", "--out", d]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


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


def test_deeply_nested_table_file_is_malformed(tmp_path, capsys):
    f = tmp_path / "deep.json"
    for verb, text in (("verify", "[" * 200000),
                       ("zeros", '{"format":"chartab/1","x":' + "[" * 200000)):
        f.write_text(text)
        rc, out, err = run(capsys, verb, str(f))
        assert (rc, out) == (1, ""), verb
        assert err.count("\n") == 1 and "nested too deeply" in err, (verb, err)


def test_overlong_integer_literal_is_malformed(tmp_path, capsys):
    # json.loads refuses an integer literal over 4,300 digits with a plain
    # ValueError (Python >= 3.11); a file holding one is malformed (exit 1),
    # not a usage error.  Where the literal parses, the order check rejects it.
    f = _a5_table(tmp_path, capsys, lambda obj: obj.update(order="BIG"))
    f.write_text(f.read_text().replace('"BIG"', "7" * 5000))
    for verb in ("verify", "zeros", "star", "classify"):
        rc, out, err = run(capsys, verb, str(f))
        assert (rc, out) == (1, ""), (verb, err)
        assert err.count("\n") == 1 and "malformed table file" in err, (verb, err)


def test_denominator_is_refused_by_every_read_verb(tmp_path, capsys):
    # entries are cyclotomic integers: `table` writes every denominator as 1,
    # and a file with any other one does not load
    obj = json.loads((PINNED_TABLES / "PSL_2_7_.tbl").read_text())
    term = obj["rows"][1][1]["c"][0]
    assert term[2] == 1
    f = tmp_path / "den.tbl"
    for den in (2, 0, -1):
        term[2] = den
        f.write_text(json.dumps(obj))
        for verb in ("verify", "zeros", "star", "classify"):
            for fmt in ("text", "json"):
                rc, out, err = run(capsys, verb, str(f), "--format", fmt)
                assert (rc, out) == (1, ""), (den, verb, fmt)
                assert err.count("\n") == 1 and "malformed table file" in err, (den, verb, err)


def test_class_ceiling_stops_the_scan(tmp_path, capsys, monkeypatch):
    # C2^16 has 65536 classes; the scan stops once it has found 65
    leg = LEGS["table c2_16.txt"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c2_16.txt").write_text(FILES["c2_16.txt"]())
    start = time.perf_counter()
    got = run(capsys, *leg.words())
    assert time.perf_counter() - start < 1
    assert leg.outcome(*got) == leg.pinned()


def test_class_ceiling_holds_for_table_files(check_legs):
    # no table the program computes has more than 64 classes, and verify
    # grows as the cube of the class count, so a table file over the
    # ceiling is refused on load, before any entry is read
    check_legs("verify c2_6.tbl",
               *(f"{verb} c2_7.tbl" for verb in ("verify", "zeros", "star", "classify")))


def test_retyped_copy_of_a_seen_entry_is_refused(tmp_path, capsys):
    # each distinct entry of a file is built once, but JSON true and 1.0
    # equal 1 and hash like it: a later copy of a seen entry, retyped, must
    # still be refused by every read verb
    obj = json.loads((PINNED_TABLES / "SL_2_5_.tbl").read_text())
    assert obj["exponent"] == 60
    cells = [v for row in obj["rows"] for v in row]
    i = max(i for i, v in enumerate(cells) if v in cells[:i] and v["c"] == [[0, 1, 1]])
    f = tmp_path / "retyped.tbl"
    for field, value in ((("c", 0, 1), True), (("c", 0, 1), 1.0), (("m",), 60.0)):
        bad = json.loads(json.dumps(obj))
        entry = [v for row in bad["rows"] for v in row][i]
        *head, last = field
        for k in head:
            entry = entry[k]
        entry[last] = value
        f.write_text(json.dumps(bad))
        assert f.read_text().count(json.dumps(value)) == 1
        for verb in ("verify", "zeros", "star", "classify"):
            rc, out, err = run(capsys, verb, str(f))
            assert (rc, out) == (1, ""), (field, value, verb)
            assert err.count("\n") == 1 and "malformed table file" in err, (verb, err)


def test_non_object_entry_is_refused_alike_on_every_interpreter(tmp_path, capsys):
    # an entry that is not an object is refused by the entry check, with the
    # program's own message, not with CPython's text for a bad subscript
    obj = json.loads((PINNED_TABLES / "A5.tbl").read_text())
    f = tmp_path / "entry.tbl"
    for value in ("x", [1], 5, None):
        bad = json.loads(json.dumps(obj))
        bad["rows"][1][2] = value
        f.write_text(json.dumps(bad))
        for verb in ("verify", "zeros", "star", "classify"):
            rc, out, err = run(capsys, verb, str(f))
            assert (rc, out) == (1, ""), (value, verb)
            assert err.count("\n") == 1, (value, verb, err)
            assert err.endswith(
                "malformed table file: expected an object with the fields m and c\n"), (value, verb, err)


def test_class_of_order_zero_is_refused(tmp_path, capsys):
    # order 0 with an empty power map agrees in length, so the order itself
    # must be refused before the power map is indexed
    obj = json.loads((PINNED_TABLES / "A5.tbl").read_text())
    obj["classes"][1]["order"] = 0
    obj["classes"][1]["powers"] = []
    f = tmp_path / "order0.tbl"
    f.write_text(json.dumps(obj))
    for verb in ("verify", "zeros", "star", "classify"):
        rc, out, err = run(capsys, verb, str(f))
        assert (rc, out) == (1, ""), verb
        assert err.count("\n") == 1, (verb, err)
        assert err.endswith("malformed table file: class 1: inconsistent class summary\n"), (verb, err)


def test_read_verbs_match_the_pinned_digests(capsys):
    # the exit code and stdout of each read verb on each pinned table, as
    # perfbench/pin.py recorded them
    want = json.loads((PINNED_TABLES.parent / "digests.json").read_text())["outputs"]
    files = sorted(PINNED_TABLES.glob("*.tbl"))
    assert len(files) == 35
    for f in files:
        for verb in ("verify", "zeros", "star", "classify"):
            rc, out, _ = run(capsys, verb, str(f))
            got = {"rc": rc, "sha256": hashlib.sha256(out.encode()).hexdigest()}
            assert got == want[f"{verb}/{f.name}"], (verb, f.name)


_FUZZ_VALUES = (10**40, -1, -10**30, 0, 1.5, True, None, "", "x", [], [[]], {})


def _value_paths(obj, path=()):
    """Every key path in a JSON value, containers included."""
    out = [path] if path else []
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        out.extend(_value_paths(v, path + (k,)))
    return out


def _retyped(old) -> list:
    """The same value under JSON types the table writer never uses for it."""
    if isinstance(old, bool) or old is None:
        return [int(bool(old))]
    if isinstance(old, int):
        return [float(old), str(old), [old]] + ([bool(old)] if old in (0, 1) else [])
    if isinstance(old, str):
        return [[old], {"s": old}]
    if isinstance(old, list):
        return [{str(i): x for i, x in enumerate(old)}, json.dumps(old)]
    return [list(old.values()), dict(old, extra=0)]


def _canonical(text: str) -> str:
    """A JSON text up to spacing and key order; unlike ==, it tells 1, 1.0
    and true apart."""
    return json.dumps(json.loads(text), sort_keys=True)


def test_table_file_fuzz_exits_cleanly(tmp_path, capsys, get_table):
    # Seeded structured mutations: one value of a computed table replaced in
    # place by a huge, negative, wrong-type or empty value, by the same value
    # under another JSON type, or nudged by one.  Every verb must answer 0, 1
    # or 2 without raising, and 0 only for a file that parses, passes
    # verify_table and is what table_to_text writes, up to spacing.
    rng = random.Random(2024)
    texts = [table_to_text(get_table(name)) for name in ("A5", "PSL(2,7)", "C6", "SL(2,5)")]
    f = tmp_path / "fuzz.json"
    for n in range(500):
        obj = json.loads(texts[n % len(texts)])
        *head, last = rng.choice(_value_paths(obj))
        parent = obj
        for k in head:
            parent = parent[k]
        old = parent[last]
        roll = rng.random()
        if isinstance(old, int) and not isinstance(old, bool) and roll < 0.3:
            parent[last] = old + rng.choice((-1, 1))
        elif roll < 0.6:
            parent[last] = rng.choice(_retyped(old))
        else:
            parent[last] = rng.choice(_FUZZ_VALUES)
        text = json.dumps(obj)
        f.write_text(text)
        for verb in ("verify", "zeros", "star", "classify"):
            rc, _, err = run(capsys, verb, str(f))
            assert rc in (0, 1, 2), (n, verb, rc, err)
            if rc == 0:
                t = table_from_text(text)
                assert verify_table(t).ok, (n, verb, head, last)
                seed = json.loads(text)["seed"]
                assert _canonical(table_to_text(t, seed)) == _canonical(text), (n, head, last)


def test_group_file_degree_is_bounded_and_directives_are_whole_words(tmp_path, capsys):
    f = tmp_path / "g.grp"
    for argv, text, why in (
            (["table"], "degree 1000000000000000\n(1 2)\n", "exceeds the order budget"),
            (["zeros", "--max-order", "5"], "degree 6\n(1 2)\n", "exceeds the order budget 5"),
            (["zeros"], "degrees 5\n(1 2)\n", "degree must come first"),
            (["zeros"], "degree 5 7\n(1 2)\n", "bad degree directive: 'degree 5 7'"),
            (["zeros"], "degree 5\nnamed X\n(1 2)\n", "malformed cycle notation"),
            (["zeros"], "degree 3\nname\n(1 2)\n", "empty name directive"),
            (["zeros"], "degree 3\nname  # none\n(1 2)\n", "empty name directive"),
            (["zeros"], "degree 257\n(1 257)\n", "exceeds the largest degree 256")):
        f.write_text(text)
        rc, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (rc, out) == (2, ""), text
        assert err.startswith("error: ") and err.count("\n") == 1 and why in err, (text, err)
    f.write_text("degree 5\nname X\n(1 2)\n")
    rc, out, _ = run(capsys, "zeros", str(f), "--max-order", "5")
    assert rc == 0 and out.startswith("X: order 2")


def test_build_refuses_a_name_the_group_file_cannot_carry(capsys, monkeypatch):
    for name in ("a#b", " pad ", "a\u2028b"):
        monkeypatch.setattr(cli, "build", lambda _: (Group([(1, 0)], degree=2, name=name), None))
        rc, out, err = run(capsys, "build", "C2")
        assert (rc, out) == (2, ""), name
        assert err == f"error: a group file cannot carry the name {name!r}\n"


def test_registry_ops_compute_one_table(tmp_path, capsys, monkeypatch):
    # every verb reads the table that `build` validated, and computes no other;
    # the suite computes its tables in worker processes, so calls are counted
    # in a file that every process appends to
    log = tmp_path / "calls"

    def counted(g, **kwargs):
        with log.open("a") as f:
            f.write(g.name + "\n")
        return real(g, **kwargs)

    def calls():
        names = log.read_text().splitlines()
        log.unlink()
        return names

    real = chartab.character_table
    monkeypatch.setattr(chartab, "character_table", counted)
    monkeypatch.setattr(cli, "character_table", counted)
    for argv in (["build", "A5"], ["table", "A5"], ["zeros", "A5"], ["star", "A5"],
                 ["classify", "A5"]):
        assert run(capsys, *argv)[0] == 0
        assert calls() == ["A5"], argv
    monkeypatch.setattr(cli, "registry_names", lambda: ("SL(2,5)", "A5"))
    assert run(capsys, "suite")[0] == 0
    assert sorted(calls()) == ["A5", "SL(2,5)"]


def test_registry_facts_need_the_registry_order(check_legs):
    # a file may call any group A5; A5's facts apply only to a table that
    # meets them all, so neither C5 nor C60 (order 60, not simple), as a
    # group file or as a verified table file, gets them
    check_legs("table c60.txt --out c60.tbl",
               *(f"{verb} {name}{bound}" for name in ("c5.txt", "c60.txt", "c60.tbl")
                 for verb, bound in (("classify", ""), ("star", ""),
                                     ("star", " --out-order 2"))))


def test_nameless_group_file_is_named_after_its_stem(tmp_path, capsys):
    f = tmp_path / "d7.txt"
    f.write_text("degree 7\n(1 2 3 4 5 6 7)\n(2 7)(3 6)(4 5)\n")
    rc, out, _ = run(capsys, "table", str(f), "--out", str(tmp_path / "d7.tbl"))
    assert (rc, out) == (0, f"wrote {tmp_path / 'd7.tbl'} (d7: order 14, 5 classes)\n")
    assert table_from_text((tmp_path / "d7.tbl").read_text()).group == "d7"
    rc, out, _ = run(capsys, "classify", str(f))
    assert rc == 0 and out.splitlines()[0] == (
        "d7: faithful single-vanishing-class degrees [2, 2, 2] (no expected entry)")
    # a stem that is a registry name gets the registry's facts only if the
    # table meets them: a nameless C5 in A5.grp is not A5
    f = tmp_path / "A5.grp"
    f.write_text("degree 5\n(1 2 3 4 5)\n")
    rc, out, _ = run(capsys, "classify", str(f))
    assert rc == 0 and "not the registry's A5: order 5 != expected 60" in out


def test_suite_reports_burnside_violation(capsys, monkeypatch):
    monkeypatch.setattr(cli, "registry_names", lambda: ("A5",))
    monkeypatch.setattr(cli, "burnside_check",
                        lambda t: BurnsideReport(t.group, 4, (1,)))
    rc, out, err = run(capsys, "suite")
    assert rc == 1 and "suite: 1 groups, 1 failures" in out
    assert err == "A5: degree-3 row 1 never vanishes\n"


@pytest.mark.parametrize("name, change, line", [
    ("Sz(8):3", {"two_prime_excused": False},
     "Sz(8):3: unexcused two-prime-degree row with a single vanishing class"),
    ("A5", {"one_class": (3, 4)}, "A5: one-class degrees [3, 3, 4] != expected [3, 4]"),
    ("A5", {"simple_allowed": (3,)},
     "A5: survey violation: one-class degrees [3, 3, 4] not in [3]"),
])
def test_suite_reports_each_recipe_mismatch(capsys, monkeypatch, add_recipe, name, change,
                                            line):
    monkeypatch.setattr(cli, "registry_names", lambda: (name,))
    add_recipe(registry.find_recipe(name)._replace(**change))
    rc, out, err = run(capsys, "suite")
    assert rc == 1 and out.endswith("suite: 1 groups, 1 failures\n")
    assert err == line + "\n"


def test_suite_failure_is_the_first_group_by_name(tmp_path, capsys, monkeypatch):
    # A5 and PSL(2,7) both fail validation.  PSL(2,7), claimed to be the
    # largest group, is built first and fails first; as in a serial run, the
    # suite reports A5, the first by name, after writing the tables before it
    wrong = {"A5": 59, "PSL(2,7)": 10**6}
    monkeypatch.setattr(registry, "RECIPES", tuple(
        r._replace(order=wrong[r.name]) if r.name in wrong else r
        for r in registry.RECIPES))
    rc, out, err = run(capsys, "suite", "--dir", str(tmp_path))
    assert (rc, out, err) == (1, "", "error: A5: order 60 != expected 59\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["3_A6.tbl", "3_A6_2_3.tbl"]
    assert multiprocessing.active_children() == []


def test_suite_over_the_order_budget(tmp_path, capsys):
    # the first group by name, 3.A6 of order 1080, is over the budget
    rc, out, err = run(capsys, "suite", "--max-order", "100", "--dir", str(tmp_path))
    assert (rc, out, err) == (1, "", "error: 3.A6: group exceeds order budget 100\n")
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_suite_worker_death_is_an_error_not_a_hang(tmp_path, capsys, monkeypatch):
    # a worker killed while it builds a table (say by the OOM killer) ends the
    # suite with exit 1 and no process left behind
    real = cli.build

    def dying(name, **kwargs):
        if name == "A5":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(name, **kwargs)

    monkeypatch.setattr(cli, "build", dying)
    monkeypatch.setattr(cli, "registry_names", lambda: ("SL(2,5)", "A5"))
    rc, out, err = run(capsys, "suite", "--dir", str(tmp_path))
    assert (rc, out) == (1, "")
    assert err == "error: a worker process died; the table of A5 was not built\n"
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_suite_without_fork_or_cpu_affinity(capsys, monkeypatch):
    # where os.sched_getaffinity or the fork start method is missing (macOS,
    # Windows), the workers are counted by os.cpu_count and spawned
    monkeypatch.setattr(cli, "registry_names", lambda: ("SL(2,5)", "A5"))
    expected = run(capsys, "suite")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert run(capsys, "suite") == expected
    assert expected[0] == 0 and multiprocessing.active_children() == []


def test_suite_json_matches_the_text_report(capsys):
    # the pinned text report and the JSON report list the same groups with
    # the same verdicts
    rc, out, err = run(capsys, "suite", "--format", "json")
    assert (rc, err) == (0, "")
    rep = json.loads(out)
    *rows, survey, summary = (PINNED_TABLES / "report.txt").read_text().splitlines()[1:]
    flag = {True: "ok", False: "FAIL", None: "none"}
    assert [[g["group"], str(g["order"]), str(g["classes"]), flag[g["table_ok"]],
             flag[g["burnside_ok"]], flag[g["two_prime_ok"]], flag[g["classify"]],
             ",".join(map(str, g["star_degrees"])) or "--"]
            for g in rep["groups"]] == [line.split() for line in rows]
    assert survey == f"simple-group survey over {len(rep['survey']['entries'])} groups: ok"
    assert summary == f"suite: {len(rep['groups'])} groups, all checks passed"
    assert (rep["seed"], rep["ok"], rep["survey"]["ok"]) == (0, True, True)


SUITE_JSON = LEGS["suite --format json --dir suite"]


@pytest.mark.parametrize("argv, digest", [
    (["star", "Sz(8)", "--format", "json"],
     "f449f8f57f69375ebc449aadfaac30e0b7988eb435e38afb4589f2a64a6f8bac"),
    (["classify", "PSL(2,5)", "--format", "json"],
     "9c054aa6c31fb775bd89f467a05712a23f443bd95ec8f08d0c09507e1162ee64"),
    (list(SUITE_JSON.words()), SUITE_JSON.out.removeprefix("sha256:")),
])
def test_json_reports_keep_their_bytes(run_words, argv, digest):
    # each report record is written as a JSON object of its fields, the
    # survey's entries included, never as an array of its values
    rc, out, err = run_words(argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_zeros_row_out_of_range(check_legs):
    check_legs(*(f"{verb} C6 --row {row}" for verb in ("zeros", "star")
                 for row in ("99", "6", "-1")))


def test_star_single_row(capsys):
    rc, out, _ = run(capsys, "star", "PSL(2,5)", "--row", "3")
    assert rc == 0
    assert "star holds with p = 2" in out


def test_star_out_order_override(capsys):
    # row 4 (degree 5) vanishes on two classes and holds at the registry's 2
    rc, out, _ = run(capsys, "star", "PSL(2,5)", "--row", "4",
                     "--out-order", "1")
    assert rc == 0 and "star fails" in out


def test_star_out_order_below_one_is_refused(check_legs):
    # |Out| >= 1, so a smaller bound is a usage error, with or without --row
    check_legs(*(f"star PSL(2,5){row} --out-order {bound}" for bound in ("0", "-1")
                 for row in (" --row 1", "")))


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


def test_budget_failures(tmp_path, capsys):
    # C3^4: 81 classes, over the fixed ceiling of 64
    f = tmp_path / "c3_4.grp"
    f.write_text("degree 12\n(1 2 3)\n(4 5 6)\n(7 8 9)\n(10 11 12)\n")
    rc, out, err = run(capsys, "table", str(f))
    assert (rc, out) == (1, "")
    assert err == "error: more than 64 conjugacy classes exceed the budget 64\n"
    rc, _, err = run(capsys, "table", "A5", "--max-order", "10")
    assert rc == 1 and "budget" in err
    # --max-order is the only size setting
    for argv in (["table", "C12"], ["zeros", "C12"], ["star", "C12"],
                 ["classify", "C12"], ["suite"]):
        rc, out, err = run(capsys, *argv, "--max-classes", "5")
        assert (rc, out) == (2, "") and "--max-classes" in err, argv


def test_determinism_and_seed_field(capsys):
    # the computation takes no seed: --seed only changes the recorded field
    rc0, t0, _ = run(capsys, "table", "PSL(2,7)", "--seed", "0")
    assert (rc0, run(capsys, "table", "PSL(2,7)", "--seed", "0")[1]) == (0, t0)
    assert t0.count('"seed":0') == 1
    assert run(capsys, "table", "PSL(2,7)", "--seed", "1") == (
        0, t0.replace('"seed":0', '"seed":1'), "")


def test_seed_only_where_it_is_written(capsys):
    # the read verbs print no seed, so they take no --seed (a usage error)
    for verb in ("zeros", "star", "classify"):
        rc, out, err = run(capsys, verb, "C6", "--seed", "1")
        assert (rc, out) == (2, "") and "--seed" in err, verb


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


def test_numtheory_outer_bound(check_legs):
    check_legs("numtheory outer-bound --bound 500",
               "numtheory outer-bound --bound 500 --format json")


def test_numtheory_outer_bound_violations(capsys, monkeypatch):
    failing = {(13, "A"), (9, "B"), (27, "B")}
    monkeypatch.setattr(numtheory, "_outer_bound_failures", lambda qs, f: [
        (q, part) for q in qs for part in "AB" if (q, part) in failing])
    rc, out, err = run(capsys, "numtheory", "outer-bound", "--bound", "100",
                       "--format", "json")
    assert rc == 1
    assert json.loads(out) == {"bound": 100, "ok": False, "violations": [
        {"p": 3, "f": 2, "part": "B"}, {"p": 13, "f": 1, "part": "A"},
        {"p": 3, "f": 3, "part": "B"}]}
    assert err == ("part B fails at q = 3^2\npart A fails at q = 13^1\n"
                   "part B fails at q = 3^3\n")


def test_numtheory_outer_bound_ceiling(capsys, monkeypatch):
    def no_sieve(bound):
        raise AssertionError(f"sieved up to {bound}")

    monkeypatch.setattr(numtheory, "_odd_sieve", no_sieve)
    for fmt in ("text", "json"):
        rc, out, err = run(capsys, "numtheory", "outer-bound",
                           "--bound", "10000000000", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == "error: bound must be <= 10000000, got 10000000000\n"


def test_numtheory_outer_bound_floor(check_legs):
    # these once exited 0 with "both inequalities hold for every prime power q <= -5"
    check_legs(*(f"numtheory outer-bound --bound {bound}{fmt}" for bound in ("-5", "0", "1")
                 for fmt in ("", " --format json")))


def test_numtheory_zsigmondy(capsys):
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


def test_numtheory_torus_json(capsys):
    # the same rows as the text form: a prime, an exception, not applicable
    rc, out, _ = run(capsys, "numtheory", "torus", "A", "5", "2")
    assert (rc, out) == (0, "family A, n = 5, q = 2:\n"
                            "  T1: order 63, l(6) exception (Q2N6)\n"
                            "  T2: order 31, l(5) = 31\n")
    rc, out, _ = run(capsys, "numtheory", "torus", "A", "5", "2", "--format", "json")
    assert rc == 0 and json.loads(out) == [
        {"label": "T1", "order": 63, "zsig_n": 6, "zsig_prime": None,
         "zsig_exception": "Q2N6"},
        {"label": "T2", "order": 31, "zsig_n": 5, "zsig_prime": 31,
         "zsig_exception": None}]
    rc, out, _ = run(capsys, "numtheory", "torus", "A", "1", "5", "--format", "json")
    assert rc == 0 and json.loads(out)[1] == {
        "label": "T2", "order": 4, "zsig_n": 1, "zsig_prime": None,
        "zsig_exception": None}  # l(1) not applicable


def test_numtheory_refusal_is_one_line(check_legs):
    # past the search limit and the size cap: exit 1, one stderr line that
    # names the limits, nothing on stdout
    check_legs("numtheory zsigmondy 2 100000", "numtheory zsigmondy 2 100000 --format json",
               "numtheory torus A 100000 2")


def test_usage_errors(capsys):
    assert run(capsys, "table", "C6", "--bogus")[0] == 2
    assert run(capsys, "numtheory", "diophantine", "--part", "D")[0] == 2
    assert run(capsys, "numtheory", "zsigmondy", "6", "3")[0] == 2
    assert run(capsys, "numtheory", "torus", "Z", "1", "5")[0] == 2
    assert run(capsys, "verify", "/no/such/file")[0] == 2


NUMTHEORY_USAGE = ("usage: charzeros numtheory [-h] "
                   "{diophantine,outer-bound,zsigmondy,torus} ...\n")


def _choices(*names: str) -> str:
    """The choices as this interpreter's argparse lists them after an invalid
    one: quoted by older releases (3.12.1, 3.13.0), bare by newer (3.13.13)."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as exc:
        parser.parse_args(["b"])
    quote = "'" if "'a'" in str(exc.value) else ""
    return ", ".join(f"{quote}{n}{quote}" for n in names)


# (argv, exit code, stdout, stderr) at 80 columns
USAGE_BYTES = [
    ([], 2, "", TOP_USAGE + "charzeros: error: the following arguments are required: verb\n"),
    (["bogus"], 2, "", TOP_USAGE + (
        "charzeros: error: argument verb: invalid choice: 'bogus' (choose from "
        + _choices("build", "table", "verify", "zeros", "star", "classify", "suite",
                   "numtheory") + ")\n")),
    (["table"], 2, "", (
        "usage: charzeros table [-h] [--out OUT] [--seed SEED] [--max-order MAX_ORDER]\n"
        "                       target\n"
        "charzeros table: error: the following arguments are required: target\n")),
    (["table", "A5", "extra"], 2, "",
     TOP_USAGE + "charzeros: error: unrecognized arguments: extra\n"),
    (["numtheory"], 2, "", NUMTHEORY_USAGE
     + "charzeros numtheory: error: the following arguments are required: subverb\n"),
    (["zeros", "C6", "--format", "xml"], 2, "", (
        "usage: charzeros zeros [-h] [--row ROW] [--format {text,json}]\n"
        "                       [--max-order MAX_ORDER]\n"
        "                       target\n"
        "charzeros zeros: error: argument --format: invalid choice: 'xml' "
        f"(choose from {_choices('text', 'json')})\n")),
    (["numtheory", "zsigmondy", "x", "4"], 2, "", ZSIGMONDY_USAGE
     + "charzeros numtheory zsigmondy: error: argument q: invalid int value: 'x'\n"),
    (["--help"], 0, TOP_USAGE + """
Exact character tables and vanishing-class analysis

positional arguments:
  {build,table,verify,zeros,star,classify,suite,numtheory}
    build               construct a registry group file
    table               compute a character table
    verify              check a table file's orthogonality
    zeros               list each row's vanishing classes
    star                vanishing-pattern reports per row
    classify            faithful single-vanishing-class degrees
    suite               run every registry group through table, verification,
                        and checks
    numtheory           integer-arithmetic reports

options:
  -h, --help            show this help message and exit
""", ""),
    (["numtheory", "--help"], 0, NUMTHEORY_USAGE + """
positional arguments:
  {diophantine,outer-bound,zsigmondy,torus}
    diophantine         prime powers with constrained q-1/q+1 factorizations
    outer-bound         sweep both automorphism-count inequalities
    zsigmondy           least primitive prime divisor
    torus               maximal-torus orders for a family

options:
  -h, --help            show this help message and exit
""", ""),
    # and, as the table of legs pins them:
    *((list(LEGS[name].words()), *LEGS[name].pinned())
      for name in ("numtheory zsigmondy 2 4 extra", "numtheory zsigmondy --help")),
]


@pytest.mark.parametrize("argv,rc,out,err", USAGE_BYTES,
                         ids=[" ".join(c[0]) or "(no words)" for c in USAGE_BYTES])
def test_usage_error_and_help_bytes(capsys, monkeypatch, argv, rc, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    assert run(capsys, *argv) == (rc, out, err)


def test_dispatch_matches_the_full_parse(capsys, monkeypatch):
    # main must give what a parse from the top of the tree gives: the same
    # exit code, stdout and stderr on every argv of the interpreter check's
    # corpus, and for valid argv the same Namespace for the handler
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser()
    seen = []  # the Namespace of each outermost parse_known_args
    depth = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, args=None, namespace=None):
        depth.append(self)
        try:
            parsed = parse_known_args(self, args, namespace)
        finally:
            depth.pop()
        if not depth:
            seen.append(parsed[0])
        return parsed

    for argv in DISPATCH:
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(argparse.ArgumentParser, "parse_known_args", recording)
            got = run(capsys, *argv)
            handed = seen[-1] if seen else None
            m.setattr(cli, "_COMMANDS", {}, raising=False)  # every argv parsed from the top
            assert run(capsys, *argv) == got, argv
        try:
            want = parser.parse_args(argv)
        except SystemExit:  # a usage error or help: no handler runs
            capsys.readouterr()
            continue
        assert handed == want, argv


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "numtheory", "zsigmondy", "2", "4")[0] == 0
    first = len(built)
    assert run(capsys, "numtheory", "zsigmondy", "2", "6")[0] == 0
    assert len(built) == first


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
    leg = LEGS["numtheory zsigmondy 2 4"]
    proc = subprocess.run(cmd + list(leg.words()), capture_output=True, text=True, timeout=60,
                          env=env)
    assert leg.outcome(proc.returncode, proc.stdout, proc.stderr) == leg.pinned()
