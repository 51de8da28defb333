"""Acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail line under pytest -v.  Equality checks on
exact data use exact comparison (no tolerances); the stated wall-clock
budgets are asserted inside the tests that carry them.
"""
import time
from pathlib import Path

from helpers import brute_table_rows, brute_zsigmondy

from charzeros import cli
from charzeros.chartab import is_simple, verify_table
from charzeros.numtheory import (
    diophantine_solutions,
    outer_bound_sweep,
    prime_power,
    zsigmondy,
)
from charzeros.vanishing import (
    burnside_check,
    classify_one_class,
    simple_one_class_survey,
    star_survey,
    two_prime_degree_check,
)

BOUND = 10**6


def test_criterion_01_diophantine_solution_sets():
    t0 = time.perf_counter()
    got = {part: diophantine_solutions(part, BOUND).values
           for part in ("A", "B", "C")}
    elapsed = time.perf_counter() - t0
    assert got == {"A": (3, 5, 17), "B": (3, 9), "C": (3,)}
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_02_outer_bound_inequalities():
    t0 = time.perf_counter()
    bad = outer_bound_sweep(BOUND)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_03_zsigmondy_against_brute_force():
    t0 = time.perf_counter()
    checked = 0
    for q in range(2, 51):
        if prime_power(q) is None:
            continue
        for n in range(2, 13):
            assert zsigmondy(q, n).prime == brute_zsigmondy(q, n), (q, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 253
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_04_all_corpus_tables_verify(get_table, corpus):
    bad = []
    for name in corpus:
        rep = verify_table(get_table(name))
        if not rep.ok:
            bad.append((name, rep.violations))
    assert bad == []


STAR_REGRESSION = {
    "PSL(2,5)": {3, 4, 5},
    "SL(2,5)": {2, 4},
    "3.A6": {9},
    "PSL(2,7)": {3, 7},
    "PSL(2,8)": {7, 8},
    "PSL(2,9)": {9},
    "PSL(2,11)": {5, 10, 11},
    "PSL(2,13)": {13},
    "PSL(2,16)": {16},
    "PSU(3,4)": {13},
    "Sz(8)": {14},
}


def test_criterion_05_star_holds_for_pinned_degrees(get_table):
    missing = []
    for name, degrees in STAR_REGRESSION.items():
        reports = star_survey(get_table(name))
        for d in degrees:
            if not any(r.holds and r.faithful for r in reports
                       if r.degree == d):
                missing.append((name, d))
    assert missing == []


CLASSIFY_MATCHES = [
    "PSL(2,5)", "SL(2,5)", "A6:2_2", "A6:2_3", "3.A6:2_3", "PSL(2,7)",
    "PSL(2,8):3", "PGL(2,5)", "PGL(2,7)", "PGL(2,9)", "PGL(2,11)", "Sz(8):3",
]


def test_criterion_06_classification_matches_expected(get_table):
    bad = []
    for name in CLASSIFY_MATCHES:
        rep = classify_one_class(get_table(name))
        if rep.match is not True:
            bad.append((name, rep.observed, rep.expected))
    assert bad == []


SIMPLE_ONE_CLASS = {
    "A5": [3, 3, 4],
    "PSL(2,5)": [3, 3, 4],
    "PSL(2,7)": [3, 3],
    "PSL(2,8)": [8],
    "PSL(2,16)": [16],
}


def test_criterion_07_simple_survey_exact(get_table, corpus):
    simples = [n for n in corpus if is_simple(t := get_table(n))
               and any(t.degree(i) > 1 for i in range(len(t.rows)))]
    rep = simple_one_class_survey([get_table(n) for n in simples])
    assert rep.ok
    got = {e.group: sorted(d for _, d in e.one_class_rows)
           for e in rep.entries}
    want = {n: SIMPLE_ONE_CLASS.get(n, []) for n in simples}
    assert got == want


def test_criterion_08_burnside_corpus_wide(get_table, corpus):
    bad = [(n, burnside_check(get_table(n)).violations) for n in corpus
           if not burnside_check(get_table(n)).ok]
    assert bad == []


def test_criterion_09_two_prime_flags(get_table, corpus):
    flagged = {}
    for name in corpus:
        rep = two_prime_degree_check(get_table(name))
        assert rep.ok, (name, rep.flagged)
        if rep.flagged:
            flagged[name] = rep
    assert set(flagged) == {"Sz(8):3"}
    rep = flagged["Sz(8):3"]
    assert rep.excused and all(d == 14 for _, d in rep.flagged)


def test_criterion_10_tables_match_brute_oracle(get_group, get_table, corpus):
    t0 = time.perf_counter()
    small = [n for n in corpus if get_group(n).order <= 200]
    assert len(small) == 17
    for name in small:
        t = get_table(name)
        assert set(t.rows) == brute_table_rows(get_group(name)), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_11_suite_reruns_byte_identical(tmp_path, capsys):
    outs = []
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        rc = cli.main(["suite", "--seed", "0", "--dir", str(d)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    names = [sorted(p.name for p in d.iterdir()) for d in dirs]
    assert names[0] == names[1]
    assert "report.txt" in names[0] and len(names[0]) == 36
    for fname in names[0]:
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), fname
