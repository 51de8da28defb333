"""Check that other Python interpreters give the pinned outputs.

    python3 tools/check_interpreters.py [PYTHON ...]

Each PYTHON is an interpreter to check.  With none, the first working
`python3.10` ... `python3.13` on PATH is checked for each version.  Every
interpreter runs `charzeros` from `src/` of this checkout, with
PYTHONPATH=src and no installed package needed, and must:

- write with `suite --seed 0 --dir D`, under PYTHONHASHSEED 0 and 1, files
  byte-identical to `perfbench/pinned/tables`;
- give, for verify, zeros, star and classify on each of the 35 pinned
  tables, the exit code and stdout SHA-256 in `perfbench/pinned/digests.json`;
- print, for `numtheory outer-bound --bound B --format json` at B = 100000
  and at B = 994009 = 997^2 (where 997 moves between the sweep's two
  passes), the JSON object {"bound": B, "ok": true, "violations": []} and
  exit 0;
- print, for `numtheory diophantine --part A`, the solutions q = 3, 5, 17
  as in the README, and exit 0;
- print, for `numtheory zsigmondy` at (2, 4), (1000003, 60), (13, 19) and
  (43, 23), and for `numtheory torus A 1 7`, the fixed answers below (the
  first and last as in the README), and exit 0;
- give, for every 8th of the 238 `torus/...` keys of
  `perfbench/pinned/digests.json` in sorted order, the pinned exit code and
  stdout SHA-256 of `numtheory torus FAMILY N Q --format json`;
- load no sympy while doing so;
- give, for each argv of `DISPATCH`, the same exit code, stdout and stderr
  from `charzeros.cli.main` as from `main` parsing through
  `_build_parser().parse_args` alone (its table of command parsers emptied).
  `main` hands argv to the parser of the command its leading words name, so
  this is where a change of argparse between versions would show.

The pinned files are only read.  Exit 0 when every interpreter passes, 1 on
a mismatch or a named interpreter that does not start, 2 when none starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "perfbench" / "pinned"
TABLES = PINNED / "tables"
VERBS = ("verify", "zeros", "star", "classify")
NAMES = tuple(f"python3.{v}" for v in range(10, 14))


def _outer_bound_leg(bound: int) -> tuple[list[str], str]:
    # the CLI writes JSON indented by 2, keys sorted
    return (["numtheory", "outer-bound", "--bound", str(bound), "--format", "json"],
            json.dumps({"bound": bound, "ok": True, "violations": []},
                       indent=2, sort_keys=True) + "\n")


# numtheory verbs that need no sympy, each with what it prints
NUMTHEORY = {
    "outer-bound": _outer_bound_leg(100000),
    "outer-bound at 997^2": _outer_bound_leg(994009),
    "diophantine": (["numtheory", "diophantine", "--part", "A"],
                    "part A, bound 1000000: q in {3, 5, 17}\n"
                    "  q = 3: q-1 = 2^1, q+1 = 2^2 3^0\n"
                    "  q = 5: q-1 = 2^2, q+1 = 2^1 3^1\n"
                    "  q = 17: q-1 = 2^4, q+1 = 2^1 3^2\n"),
    "zsigmondy": (["numtheory", "zsigmondy", "2", "4"],
                  "least primitive prime divisor of 2^4 - 1: 5\n"),
    "zsigmondy by the order search": (["numtheory", "zsigmondy", "1000003", "60"],
                                      "least primitive prime divisor of 1000003^60 - 1: 61\n"),
    "zsigmondy by rho": (["numtheory", "zsigmondy", "13", "19"],
                         "least primitive prime divisor of 13^19 - 1: 12865927\n"),
    "zsigmondy by elliptic curves": (["numtheory", "zsigmondy", "43", "23"],
                                     "least primitive prime divisor of 43^23 - 1: "
                                     "11264087821629961\n"),
    "torus": (["numtheory", "torus", "A", "1", "7"],
              "family A, n = 1, q = 7:\n"
              "  T1: order 8, l(2) exception (N2_QPLUS1_POW2)\n"
              "  T2: order 6, l(1) not applicable\n"),
}
# every TORUS_STRIDE-th pinned torus digest, in sorted key order
TORUS_STRIDE = 8

# Runs `charzeros.cli.main` on each argv of the JSON list sys.argv[1] in this
# process; prints each op's exit code and stdout SHA-256, and whether sympy
# was loaded at the end.
CHILD = """
import contextlib, hashlib, io, json, sys
from charzeros.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    out.append({"rc": rc, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()})
print(json.dumps({"outputs": out, "sympy": "sympy" in sys.modules}))
"""


# Usage errors and help at each depth, missing, unknown and extra words, bad
# choices and ints, `--`, abbreviations and negative numbers, and valid argv
# whose commands are cheap.
DISPATCH = (
    [], ["-h"], ["--help"], ["--"], ["--version"], ["bogus"], ["tab", "C6"],
    ["table"], ["table", "-h"], ["table", "C6", "--h"], ["table", "A5", "extra"],
    ["table", "C6", "--bogus"], ["table", "C6", "--seed", "x"], ["table", "--", "C6"],
    ["zeros", "C6", "--format", "xml"], ["zeros", "C6", "--form", "json"],
    ["zeros", "C6", "--row", "-1"], ["classify", "C6", "--format=json"],
    ["verify", "/no/such/file"], ["suite", "--dir"],
    ["numtheory"], ["numtheory", "-h"], ["numtheory", "bogus"],
    ["numtheory", "zsig", "2", "4"], ["numtheory", "--", "zsigmondy", "2", "4"],
    ["numtheory", "zsigmondy"], ["numtheory", "zsigmondy", "2"],
    ["numtheory", "zsigmondy", "2", "4"], ["numtheory", "zsigmondy", "2", "4", "extra"],
    ["numtheory", "zsigmondy", "2", "4", "-x"], ["numtheory", "zsigmondy", "x", "4"],
    ["numtheory", "zsigmondy", "--help"], ["numtheory", "zsigmondy", "2", "-h"],
    ["numtheory", "zsigmondy", "2", "4", "--form", "json"],
    ["numtheory", "zsigmondy", "2", "4", "--format", "yaml"],
    ["numtheory", "zsigmondy", "-5", "4"], ["numtheory", "zsigmondy", "--", "-5", "4"],
    ["numtheory", "diophantine", "--part", "a"], ["numtheory", "diophantine"],
    ["numtheory", "diophantine", "--part", "D"],
    ["numtheory", "torus", "A", "1", "x", "extra"], ["numtheory", "torus", "A", "1", "7"],
)

# Runs each argv of the JSON list sys.argv[1] through `main` twice: as it is,
# and with its table of command parsers emptied, so that it parses from the
# top of the tree; prints both (exit code, stdout, stderr) of each.
DISPATCH_CHILD = """
import contextlib, io, json, sys
from charzeros import cli
cli._build_parser()
commands = cli._COMMANDS

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return [rc, out.getvalue(), err.getvalue()]

pairs = []
for argv in json.loads(sys.argv[1]):
    cli._COMMANDS = commands
    fast = run(argv)
    cli._COMMANDS = {}
    pairs.append([fast, run(argv)])
print(json.dumps(pairs))
"""


def _version(python: str) -> str | None:
    """The interpreter's version, or None when it does not start."""
    try:
        proc = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _on_path(name: str) -> str | None:
    """The first `name` on PATH that starts: a version manager's shim for a
    version that is not selected exits at once, and is passed over."""
    for d in os.environ.get("PATH", "").split(os.pathsep):
        exe = shutil.which(name, path=d or ".")
        if exe and _version(exe):
            return exe
    return None


def _run(python: str, argvs: list[list[str]], hashseed: str, child: str = CHILD) -> dict | list:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hashseed}
    proc = subprocess.run([python, "-c", child, json.dumps(argvs)], capture_output=True,
                          text=True, timeout=600, env=env, cwd=ROOT)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()
        raise RuntimeError(tail[-1] if tail else f"exit {proc.returncode}")
    return json.loads(proc.stdout)


def check(python: str) -> list[str]:
    """The mismatches of one interpreter against the pinned files."""
    problems = []
    want = {p.name: p.read_bytes() for p in TABLES.iterdir()}
    for hashseed in ("0", "1"):
        with tempfile.TemporaryDirectory() as d:
            res = _run(python, [["suite", "--seed", "0", "--dir", d]], hashseed)
            got = {p.name: p.read_bytes() for p in Path(d).iterdir()}
        if res["outputs"][0]["rc"] != 0:
            problems.append(f"suite exit {res['outputs'][0]['rc']} (PYTHONHASHSEED={hashseed})")
        differ = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        if differ:
            problems.append(f"suite files differ (PYTHONHASHSEED={hashseed}): {', '.join(differ)}")
        if res["sympy"]:
            problems.append("suite loaded sympy")
    digests = json.loads((PINNED / "digests.json").read_text())["outputs"]
    keys = [f"{verb}/{f}" for f in sorted(n for n in want if n.endswith(".tbl")) for verb in VERBS]
    res = _run(python, [[k.split("/")[0], str(TABLES / k.split("/")[1])] for k in keys], "0")
    problems += [f"{k}: exit {got['rc']}, stdout {got['sha256'][:12]}; pinned exit "
                 f"{digests[k]['rc']}, stdout {digests[k]['sha256'][:12]}"
                 for k, got in zip(keys, res["outputs"]) if got != digests[k]]
    if res["sympy"]:
        problems.append("read verbs loaded sympy")
    for verb, (argv, out) in NUMTHEORY.items():
        res = _run(python, [argv], "0")
        got, want_sha = res["outputs"][0], hashlib.sha256(out.encode()).hexdigest()
        if got != {"rc": 0, "sha256": want_sha}:
            problems.append(f"{verb}: exit {got['rc']}, stdout {got['sha256'][:12]}; "
                            f"want exit 0, stdout {want_sha[:12]}")
        if res["sympy"]:
            problems.append(f"{verb} loaded sympy")
    keys = sorted(k for k in digests if k.startswith("torus/"))[::TORUS_STRIDE]
    res = _run(python, [["numtheory", "torus", *k.split("/")[1].split(), "--format", "json"]
                        for k in keys], "0")
    problems += [f"{k}: exit {got['rc']}, stdout {got['sha256'][:12]}; pinned exit "
                 f"{digests[k]['rc']}, stdout {digests[k]['sha256'][:12]}"
                 for k, got in zip(keys, res["outputs"]) if got != digests[k]]
    if res["sympy"]:
        problems.append("torus loaded sympy")
    pairs = _run(python, list(DISPATCH), "0", DISPATCH_CHILD)
    problems += [f"dispatch {' '.join(argv) or '(no words)'}: exit {fast[0]}, "
                 f"{len(fast[1])}/{len(fast[2])} chars on stdout/stderr; from the top, "
                 f"exit {full[0]}, {len(full[1])}/{len(full[2])}"
                 for argv, (fast, full) in zip(DISPATCH, pairs) if fast != full]
    return problems


def main(argv: list[str]) -> int:
    pythons = argv or [exe for exe in map(_on_path, NAMES) if exe]
    failed = checked = 0
    for python in pythons:
        version = _version(python)
        if version is None:
            print(f"{python}: does not start")
            failed += 1
            continue
        checked += 1
        try:
            problems = check(python)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems = [f"run failed: {exc}"]
        failed += bool(problems)
        verdict = "ok" if not problems else f"{len(problems)} mismatches"
        print(f"{python} ({version}): {verdict}")
        for p in problems:
            print(f"  {p}")
    if not checked:
        print("no interpreter could be started", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
