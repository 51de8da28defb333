"""Check that other Python interpreters give the pinned outputs.

    python3 tools/check_interpreters.py [PYTHON ...]
    python3 tools/check_interpreters.py --script CHARZEROS

Each PYTHON is an interpreter to check; with none, the first working
`python3.10` ... `python3.13` on PATH for each version.  Each runs
`charzeros` from `src/` of this checkout (PYTHONPATH=src, no installed
package) under `-X warn_default_encoding -W error::EncodingWarning`, so that
a file opened without its encoding named fails, and must give:

- for each leg of LEGS, its exit code, stdout and stderr.  A leg is one run
  of the command line in a directory that holds the files of FILES its
  words name.  The legs are the README's examples; answers that need a
  prime test, rho or the elliptic curves; refusals at each limit, in
  bounded time; usage errors and help; and tables computed from group
  files, or read from table files, pinned or changed;
- for `suite --seed 0 --dir D` under PYTHONHASHSEED 0 and 1, the files of
  `perfbench/pinned/tables` byte for byte; for the read verbs on each
  pinned table and every TORUS_STRIDE-th torus key, the exit code and
  stdout SHA-256 of `perfbench/pinned/digests.json`;
- neither sympy nor dataclasses loaded by any of these.  They run in one
  child program (CHILD), which imports charzeros and then runs words through
  `cli.main`, and reports which of the two are loaded after the import and
  after each run; tests/test_startup.py reads the same child;
- the sweep's points (SWEEP_CHILD), the modules each statement of IMPORTS
  loads, the public names (NAMES_CHILD) and the parse of each argv of
  DISPATCH: where a change between versions of memoryview slicing, of
  module attributes (PEP 562) or of argparse would show.

With --script, each leg runs instead through the installed console script
CHARZEROS, in a fresh directory, within the leg's timeout: CI's install
smoke test.  A leg whose words start with `-c` runs that Python statement
in the interpreter running this tool.

The pinned files are only read.  Exit 0 when all passes, 1 on a mismatch
or a named interpreter that does not start, 2 when none starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "perfbench" / "pinned"
TABLES = PINNED / "tables"
NAMES = tuple(f"python3.{v}" for v in range(10, 14))
# every file the program opens names its encoding (UTF-8): one that does not
# warns, and the warning is an error
ENCODING_GUARD = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
# argparse wraps usage and help to the terminal's width
ENV = {"COLUMNS": "80"}


class Leg(NamedTuple):
    """One run of the command line, and what it must give."""
    argv: str  # split as a shell splits it; a word naming a file of FILES reads it
    rc: int
    out: str  # the exact stdout, or "sha256:" and its digest
    why: str
    err: str = ""  # the exact stderr
    timeout: int | None = None  # CI's limit, in seconds, on the console script
    name: str | None = None  # where the words are too long to name the leg

    def words(self) -> tuple[str, ...]:
        return tuple(shlex.split(self.argv))

    def outcome(self, rc: int, out: str, err: str) -> tuple[int, str, str]:
        """A run's exit code, stdout and stderr in the form the leg pins."""
        if self.out.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        return rc, out, err

    def pinned(self) -> tuple[int, str, str]:
        return self.rc, self.out, self.err


def _cycles(f, n: int) -> str:
    """The permutation x -> f(x) of range(n) in canonical cycle notation on
    the points 1..n."""
    seen, out = set(), ""
    for x in range(n):
        if x not in seen and f(x) != x:
            c = [x]
            while f(c[-1]) != x:
                c.append(f(c[-1]))
            seen.update(c)
            out += "(" + " ".join(str(y + 1) for y in c) + ")"
    return out


def frobenius_file(p: int, k: int) -> str:
    """The group file of the Frobenius group p:k, generated by x -> x + 1 and
    x -> a x on Z/p, a of order k mod p."""
    a = next(a for a in range(2, p) if pow(a, k, p) == 1)
    return f"degree {p}\n{_cycles(lambda x: (x + 1) % p, p)}\n{_cycles(lambda x: a * x % p, p)}\n"


def _psl2_73() -> str:
    """PSL(2,73) on the projective line, the point at infinity last:
    x -> x + 1, x -> a^2 x for a primitive root a, and x -> -1/x."""
    p = 73
    a = next(a for a in range(2, p) if pow(a, 36, p) != 1 and pow(a, 24, p) != 1)
    gens = (lambda x: x if x == p else (x + 1) % p, lambda x: x if x == p else a * a * x % p,
            lambda x: p if x == 0 else 0 if x == p else -pow(x, -1, p) % p)
    return f"degree {p + 1}\n" + "".join(_cycles(g, p + 1) + "\n" for g in gens)


def _c2_group(n: int) -> str:
    """The group file of C2^n, by n disjoint transpositions."""
    return f"degree {2 * n}\n" + "".join(f"({2 * i + 1} {2 * i + 2})\n" for i in range(n))


def _c2_table(n: int) -> str:
    """The table file of C2^n, by hand: class x is the product of the
    transpositions (2i+1 2i+2) over the bits i of x, and row y is
    x -> (-1)^|x & y|."""
    size = 1 << n
    classes = [{"size": 1, "order": 2 if x else 1, "centralizer": size,
                "rep": "".join(f"({2 * i + 1} {2 * i + 2})" for i in range(n) if x >> i & 1)
                or "()", "powers": [0, x] if x else [0]} for x in range(size)]
    rows = [[{"m": 2, "c": [[0, (-1) ** (x & y).bit_count(), 1]]} for x in range(size)]
            for y in range(size)]
    return json.dumps({"format": "chartab/1", "group": f"C2^{n}", "order": size,
                       "exponent": 2, "seed": 0, "classes": classes, "rows": rows})


def _edited(name: str, edit) -> str:
    """The pinned table file `name`, its JSON object changed by edit."""
    obj = json.loads((TABLES / name).read_text(encoding="utf-8"))
    edit(obj)
    return json.dumps(obj)


# The files the legs read, by name: a function that writes the text, or the
# words of a run in the same directory that writes it (by its --out, or else
# as its stdout).
FILES = {
    "A5.tbl": lambda: (TABLES / "A5.tbl").read_text(encoding="utf-8"),
    "c60.txt": lambda: "degree 12\nname A5\n(1 2 3 4 5)(6 7 8)(9 10 11 12)\n",
    "c60.tbl": "table c60.txt --out c60.tbl",
    "c5.txt": lambda: "degree 5\nname A5\n(1 2 3 4 5)\n",
    "c2_16.txt": lambda: _c2_group(16),
    "c2_6.txt": lambda: _c2_group(6),
    "c2_6.tbl": "table c2_6.txt",
    "c2_7.tbl": lambda: _c2_table(7),
    # both named frob, after the file's stem
    "251/frob.txt": lambda: frobenius_file(251, 5),
    "251/frob.tbl": "table 251/frob.txt",
    "229/frob.txt": lambda: frobenius_file(229, 4),
    "229/frob.tbl": "table 229/frob.txt",
    "psl.txt": _psl2_73,
    "psl.tbl": "table psl.txt",
    "den2.tbl": lambda: _edited("PSU_3_4_.tbl",
                                lambda t: t["rows"][1][1]["c"][0].__setitem__(2, 2)),
    # A5's involution (2 3)(4 5), spelled as `table` never writes it
    "rep.tbl": lambda: _edited("A5.tbl", lambda t: t["classes"][1].update(rep="(4 5)(2 3)")),
    "a5swap.tbl": lambda: _edited("A5.tbl", lambda t: (
        t["classes"][3].update(powers=[0, 3, 3, 3, 3]),
        t["classes"][4].update(powers=[0, 4, 4, 4, 4]))),
    # A5's rows 1 and 4 swapped: the same table, out of canonical row order
    "a5rows.tbl": lambda: _edited("A5.tbl", lambda t: t["rows"].__setitem__(
        slice(1, 5, 3), [t["rows"][4], t["rows"][1]])),
}


def write_files(d: Path) -> None:
    """Write into d each file of FILES that a function writes."""
    for name, source in FILES.items():
        if callable(source):
            (d / name).parent.mkdir(exist_ok=True)
            (d / name).write_text(source(), encoding="utf-8")


README = "the README's example"


def _readme_legs() -> list[Leg]:
    """A leg for each `$ charzeros ...` example in README.md, inside a fence:
    its output runs to the next `$` line or the end of the fence."""
    examples, argv, in_fence = [], None, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence, argv = not in_fence, None
        elif in_fence and line.startswith("$ charzeros "):
            argv, out = line[len("$ charzeros "):], []
            examples.append((argv, out))
        elif argv:
            out.append(line)
    return [Leg(argv, 0, "\n".join(out).rstrip("\n") + "\n", README) for argv, out in examples]


TOP_USAGE = ("usage: charzeros [-h]\n"
             "                 {build,table,verify,zeros,star,classify,suite,numtheory} ...\n")
ZSIGMONDY_USAGE = "usage: charzeros numtheory zsigmondy [-h] [--format {text,json}] q n\n"
NO_PPD = ("error: no primitive prime divisor of 2^100000 - 1 is at most 13107200001, "
          "and Phi_100000(2) is over the 1024-bit cap\n")
OVER_CEILING = "malformed table file: 128 classes exceed the class ceiling 64\n"
ROW_ORDER = "malformed table file: row 1: not in canonical order\n"
GALOIS = [f"galois 7: class {c} -> {c}: rows 1, 2 break chi(g^7) = sigma_7(chi(g))" for c in (3, 4)]
UNBOUNDED = "once factored all of Phi_n(q) and never finished"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"  # as the CLI writes JSON


def _outer_bound(bound: int, timeout: int | None = None, why: str = "") -> Leg:
    return Leg(f"numtheory outer-bound --bound {bound} --format json", 0,
               _json({"bound": bound, "ok": True, "violations": []}), why, timeout=timeout)


def _zsigmondy(q: int, n: int, p: int, why: str, timeout: int) -> Leg:
    return Leg(f"numtheory zsigmondy {q} {n}", 0,
               f"least primitive prime divisor of {q}^{n} - 1: {p}\n", why, timeout=timeout)


def _verified(name: str, group: str, classes: int) -> Leg:
    return Leg(f"verify {name}", 0, f"{group}: table ok ({classes} classes, orthogonality "
               "exact)\n", "the computed table verifies")


def _named_a5(name: str, why: str, star: str) -> tuple[Leg, ...]:
    """classify and star on the file `name` of a group that calls itself A5
    and is not: A5's facts need every one of them met."""
    why = f"not the registry's A5: {why}"
    return (Leg(f"classify {name}", 0, "A5: faithful single-vanishing-class degrees [] (no "
                f"expected entry)\n  {why}\n  group has no expected entry; no comparison "
                "performed\n", "a group named A5 gets none of A5's facts: classify compares "
                "nothing"),
            Leg(f"star {name}", 2, "", "nor A5's outer-order bound", err="error: no "
                f"outer-order bound known for 'A5' ({why}); pass out_order explicitly\n"),
            Leg(f"star {name} --out-order 2", 0, star, "with the bound given, star answers"))


# Every leg, by its name, or else its words.  The README's examples come
# first, as README.md prints them.
LEGS = {leg.name or leg.argv: leg for leg in (
    *_readme_legs(),
    Leg("build 3.A6", 0, "sha256:f0cfba00dbcc33e9b8eb58a429d41e6cd63ba053d1f63ac9459938a08e11e115",
        "the registry's data, read from the installed package"),
    Leg("classify 3.A6:2_3", 0,
        "sha256:0e1c2c363391b45682aebc2749ad118de8ee7691b0aa8b2cff6dee58b0bb1891",
        "the registry's data, read from the installed package"),
    Leg("table c60.txt --out c60.tbl", 0, "wrote c60.tbl (A5: order 60, 60 classes)\n",
        "a group file may name a C60 A5"),
    *_named_a5("c60.txt", "expected a simple group",
               "sha256:8a478aeab383673538f16647e49160274dde0c3bcc646c5b4d0f7213a9395346"),
    *_named_a5("c60.tbl", "expected a simple group",
               "sha256:8a478aeab383673538f16647e49160274dde0c3bcc646c5b4d0f7213a9395346"),
    *_named_a5("c5.txt", "order 5 != expected 60",
               "sha256:e95440509eeb83b456a20bf03dd94681d508cc49f28c8e588976882bbccbb663"),
    Leg("numtheory outer-bound --format json", 0,
        _json({"bound": 10**6, "ok": True, "violations": []}), "the default bound of 10^6"),
    Leg("numtheory outer-bound --bound 500", 0, "both inequalities hold for every prime power "
        "q <= 500 in their domains (A: q > 11; B: odd q >= 7)\n", "the text form"),
    _outer_bound(500, why="the JSON form"),
    _outer_bound(100000, why="below the sweep's run of squares"),
    _outer_bound(994009, why="the powers of 997 join the sweep's run of squares"),
    _outer_bound(10**7, 5, "the ceiling of 10^7, swept in bounded time"),
    *(Leg(f"numtheory outer-bound --bound {b}{f}", 2, "", 'an error, not a vacuous "holds"',
          err=f"error: bound must be >= 2, got {b}\n")
      for b in ("-5", "0", "1") for f in ("", " --format json")),
    Leg("numtheory diophantine --part A", 0, "part A, bound 1000000: q in {3, 5, 17}\n"
        "  q = 3: q-1 = 2^1, q+1 = 2^2 3^0\n  q = 5: q-1 = 2^2, q+1 = 2^1 3^1\n"
        "  q = 17: q-1 = 2^4, q+1 = 2^1 3^2\n", "part A to its default bound"),
    Leg(f"numtheory diophantine --part C --bound {10**4000} --format json", 0,
        "sha256:454fbd8157db2a1c2ed2417e0489856901b7e6da30c55c8ea0289cb24bea1af4",
        "only q of the right shape reach the prime-power test", timeout=10,
        name="numtheory diophantine --part C --bound 10^4000 --format json"),
    _zsigmondy(1000003, 60, 61, UNBOUNDED, 5),
    _zsigmondy(10000000019, 97, 3299, UNBOUNDED, 5),
    _zsigmondy(13, 19, 12865927, "none is below 10^7: rho finds it", 5),
    _zsigmondy(43, 23, 11264087821629961, "a 54-bit prime beside a 67-bit one, which the "
               "elliptic curves split after rho", 10),
    Leg("numtheory zsigmondy 2 100000", 1, "", "past the search limit and the size cap",
        err=NO_PPD, timeout=5),
    Leg("numtheory zsigmondy 2 100000 --format json", 1, "", "one line in either format",
        err=NO_PPD),
    Leg("numtheory torus E8 8 1000003 --format json", 0,
        "sha256:80854421c704fc6c632ad1bdc5fcfd6843470c03d955468fc385dae6097bc02c", UNBOUNDED,
        timeout=5),
    Leg("numtheory torus A 1000 2 --format json", 0,
        "sha256:7d2642e95380f814e43b59ddb5eb18b2b4c0386954841cd5714ea3aaf781c411", UNBOUNDED,
        timeout=5),
    Leg("numtheory torus A 100000 2", 1, "", "a torus order over the 1024-bit cap",
        err="error: family A at n = 100000, q = 2 has a torus order of more than 1024 bits\n"),
    Leg("numtheory zsigmondy 2 4 extra", 2, "", "words the command's parser leaves over go to "
        "the top parser", err=TOP_USAGE + "charzeros: error: unrecognized arguments: extra\n"),
    Leg("numtheory zsigmondy --help", 0, ZSIGMONDY_USAGE + "\npositional arguments:\n  q\n  n\n"
        "\noptions:\n  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n", "help is the command's own"),
    Leg("table c2_16.txt", 1, "", "C2^16, 65536 classes: the scan stops at the ceiling",
        err="error: more than 64 conjugacy classes exceed the budget 64\n", timeout=5),
    Leg("table c2_6.txt", 0,
        "sha256:b0d987a773143ed500ae5e714a6e11be967d6160d92ffa86244025b066289a69",
        "C2^6, 64 classes: the split starts from one 64-dimensional block", timeout=10),
    _verified("c2_6.tbl", "c2_6", 64),
    Leg("verify c2_7.tbl", 1, "", "C2^7, over the ceiling: refused on load, before verify's "
        "cubic work", err="c2_7.tbl: " + OVER_CEILING, timeout=5),
    *(Leg(f"{verb} c2_7.tbl", 1, "", "refused by every read verb", err="error: " + OVER_CEILING)
      for verb in ("zeros", "star", "classify")),
    Leg("table 251/frob.txt", 0,
        "sha256:a776e06720aa70ff7db06ed444776b9d216ea33815205bc7ae3bbc126e7b8b92",
        "251:5, 55 classes: a first split of 51 roots, one 5-dimensional eigenspace",
        timeout=5),
    _verified("251/frob.tbl", "frob", 55),
    Leg("table 229/frob.txt", 0,
        "sha256:32e0f8cb37f9f1053ab57cc0d840878acd97d44ae0a7fbc61cebee97ecaf597b",
        "229:4, 61 classes: 57 rows of one Galois orbit, one lifted, 56 permuted", timeout=5),
    _verified("229/frob.tbl", "frob", 61),
    Leg("table psl.txt", 0,
        "sha256:f60b0907d74afd2e28b5cd8315541d59daee3cbfda700e025f9bf21c320765af",
        "PSL(2,73): order 194,472, near the order budget; 39 classes", timeout=5),
    _verified("psl.tbl", "psl", 39),
    Leg("verify --format json den2.tbl", 1, "", "entries are cyclotomic integers",
        err="den2.tbl: malformed table file: a coefficient must be an integer: denominator 1\n"),
    *(Leg(f"{verb} C6 --row {row}", 2, "", "a row outside the table is a usage error",
          err=f"error: row {row} out of range 0..5\n")
      for verb in ("zeros", "star") for row in ("99", "6", "-1")),
    *(Leg(f"star PSL(2,5){row} --out-order {bound}", 2, "", "|Out| >= 1, with or without --row",
          err=f"error: out_order must be >= 1, got {bound}\n")
      for bound in ("0", "-1") for row in (" --row 1", "")),
    Leg("table A5.tbl --seed 5", 0,
        "sha256:409b47cdb2c876f81ba7230edaa31f16ad456547c9bfb4cfa5f63406b850e5dd",
        "`table` records the --seed it is given, for a table file too"),
    Leg("verify --format json rep.tbl", 1, "", "a representative loads only in canonical form",
        err="rep.tbl: malformed table file: not in canonical cycle notation: '(4 5)(2 3)'\n"),
    # 5A and 5B each sent to itself by every unit: rows and columns are
    # orthonormal, but sigma_7 swaps 5A's and 5B's values
    *(Leg(f"verify{f} a5swap.tbl", 1, _json({"group": "A5", "ok": False, "violations": GALOIS})
          if f else "", "the Galois law breaks", err="".join(f"A5: {v}\n" for v in GALOIS))
      for f in ("", " --format json")),
    *(Leg(f"{verb} a5swap.tbl", 1, "", "refused by every read verb",
          err=f"error: malformed table file: {GALOIS[0]}\n")
      for verb in ("zeros", "star", "classify")),
    *(Leg(f"verify{f} a5rows.tbl", 1, "", "rows out of canonical order: zeros would number "
          "the degree-5 row as row 1", err="a5rows.tbl: " + ROW_ORDER)
      for f in ("", " --format json")),
    *(Leg(f"{verb} a5rows.tbl", 1, "", "refused by every read verb", err="error: " + ROW_ORDER)
      for verb in ("zeros", "star", "classify")),
    Leg("suite --format json --dir suite", 0,
        "sha256:9740d80ad672dd069b3d4121fb3173bde5b0b413f1fc74a2c656bd629e9fca8d",
        "each report record is a JSON object of its fields"),
    Leg("-c 'from charzeros.fields import gf; gf(2, 10)'", 0, "",
        "the largest allowed field builds in bounded time", timeout=10, name="F_1024"),
)}


def plan(runs) -> dict[tuple[str, ...], str | None]:
    """The words of each of the runs, and of each run that writes a file of
    FILES they read, in an order that writes each file before a run reads
    it; each with the file its stdout is saved as, if any."""
    steps: dict[tuple[str, ...], str | None] = {}

    def add(words, makes=None):
        for word in words:
            if word != makes and isinstance(FILES.get(word), str):
                add(tuple(shlex.split(FILES[word])), word)
        save = None if makes in words else makes
        if save or words not in steps:
            steps[words] = save

    for words in runs:
        add(words)
    return steps


def mismatches(runs: dict[tuple[str, ...], tuple[int, str, str] | None]) -> list[str]:
    """The legs whose run, in runs by its words, is not what the leg pins;
    None is a run that did not finish within the leg's timeout."""
    problems = []
    for name, leg in LEGS.items():
        got = runs[leg.words()]
        if got is None:
            problems.append(f"{name}: no answer within {leg.timeout} s")
        elif leg.outcome(*got) != leg.pinned():
            problems.append(f"{name}: {leg.outcome(*got)!r:.200}; pinned {leg.pinned()!r:.200}")
    return problems


# The SHA-256 of the JSON list of sorted [q, f], one for each prime power
# q = p^f <= 100000 (9700 of them), as sympy's primes give them.
SWEEP_SHA256 = "ecde43549e5c7cc9add642d6732469ae595c91e2c070f9baaf75aba292018674"
# Runs `outer_bound_sweep(100000)` with a stand-in for `_outer_bound_failures`
# that records (q, f) for every q it is handed; prints the SHA-256 above.
SWEEP_CHILD = """
import hashlib, json
from charzeros import numtheory
calls = []
numtheory._outer_bound_failures = lambda qs, f: calls.extend((q, f) for q in qs) or []
numtheory.outer_bound_sweep(100000)
print(json.dumps(hashlib.sha256(json.dumps(sorted(calls)).encode()).hexdigest()))
"""
# every TORUS_STRIDE-th pinned torus digest, in sorted key order
TORUS_STRIDE = 8

# The `charzeros` modules that each statement leaves loaded in a fresh
# interpreter: a process imports only the modules its caller uses.
IMPORTS = {
    "import charzeros": ["charzeros"],
    "import charzeros; charzeros.registry_names()": [
        "charzeros", "charzeros.constructions", "charzeros.constructions.builders",
        "charzeros.constructions.registry", "charzeros.fields", "charzeros.fpoly",
        "charzeros.groupcore", "charzeros.numtheory"],
    "from charzeros.numtheory import zsigmondy": ["charzeros", "charzeros.numtheory"],
    "import charzeros.cli": [
        "charzeros", "charzeros.chartab", "charzeros.cli", "charzeros.constructions",
        "charzeros.constructions.builders", "charzeros.constructions.registry",
        "charzeros.cyclo", "charzeros.fields", "charzeros.fpoly", "charzeros.groupcore",
        "charzeros.numtheory", "charzeros.vanishing"],
}
# Appended to a statement of IMPORTS: prints the `charzeros` modules loaded.
LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "charzeros")))
"""
# Prints each name of `charzeros.__all__` that `dir(charzeros)` leaves out
# before any name is read, or that reads as other than the attribute of the
# module that defines it.
NAMES_CHILD = """
import importlib, json
import charzeros
listed = dir(charzeros)
print(json.dumps([name for name in charzeros.__all__ if name not in listed
                  or getattr(charzeros, name) is not getattr(
                      importlib.import_module(getattr(charzeros, name).__module__), name)]))
"""

# Imports charzeros, then runs each [words, file] of the JSON list sys.argv[1]
# in this process, in order: `charzeros.cli.main` on the words, or the Python
# statement after "-c"; saves stdout as the file, if one is named.  Prints
# each run's exit code, stdout and stderr, and which of dataclasses and sympy
# were loaded after the import and after each run.
CHILD = """
import contextlib, io, json, sys
import charzeros
loaded = lambda: [m for m in ("dataclasses", "sympy") if m in sys.modules]
report = [loaded()]
from charzeros.cli import main
out = []
for argv, save in json.loads(sys.argv[1]):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        if argv[0] == "-c":
            exec(argv[1], {})
        rc = 0 if argv[0] == "-c" else main(argv)
    if save:
        with open(save, "w", encoding="utf-8") as f:
            f.write(buf.getvalue())
    out.append([rc, buf.getvalue(), err.getvalue()])
    report.append(loaded())
print(json.dumps({"outputs": out, "loaded": report}))
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


def _run(python: str, steps: list, hashseed: str, child: str = CHILD,
         cwd: Path = ROOT) -> dict | list:
    env = {**os.environ, **ENV, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hashseed}
    proc = subprocess.run([python, *ENCODING_GUARD, "-c", child, json.dumps(steps)],
                          capture_output=True, text=True, encoding="utf-8", timeout=600,
                          env=env, cwd=cwd)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()
        raise RuntimeError(tail[-1] if tail else f"exit {proc.returncode}")
    return json.loads(proc.stdout)


def _unwanted(res: dict, runs: str) -> list[str]:
    """A problem if dataclasses or sympy was loaded by the end of a CHILD run."""
    return [f"{runs} loaded {' and '.join(res['loaded'][-1])}"] if res["loaded"][-1] else []


def loaded(python: str, statement: str) -> list[str]:
    """The `charzeros` modules loaded after statement, run alone in a fresh
    interpreter."""
    return _run(python, [], "0", statement + LOADED)


def misread_names(python: str) -> list[str]:
    """The names of `charzeros.__all__` that a fresh interpreter leaves out of
    `dir(charzeros)` or reads as other than their module's attribute."""
    return _run(python, [], "0", NAMES_CHILD)


def _digests(python: str) -> list[str]:
    """The read verbs on the pinned tables, and every TORUS_STRIDE-th torus
    op, whose exit code or stdout SHA-256 differ from `digests.json`."""
    digests = json.loads((PINNED / "digests.json").read_text(encoding="utf-8"))["outputs"]
    torus = sorted(k for k in digests if k.startswith("torus/"))
    keys = sorted(digests.keys() - set(torus)) + torus[::TORUS_STRIDE]
    res = _run(python, [[["numtheory", "torus", *arg.split(), "--format", "json"]
                         if verb == "torus" else [verb, str(TABLES / arg)], None]
                        for verb, arg in (k.split("/", 1) for k in keys)], "0")
    problems = _unwanted(res, "the pinned read verbs and torus ops")
    for k, (rc, out, _) in zip(keys, res["outputs"]):
        sha = hashlib.sha256(out.encode()).hexdigest()
        if {"rc": rc, "sha256": sha} != digests[k]:
            problems.append(f"{k}: exit {rc}, stdout {sha[:12]}; pinned exit "
                            f"{digests[k]['rc']}, stdout {digests[k]['sha256'][:12]}")
    return problems


def check(python: str) -> list[str]:
    """The mismatches of one interpreter against the pinned files."""
    problems = []
    want = {p.name: p.read_bytes() for p in TABLES.iterdir()}
    for hashseed in ("0", "1"):
        with tempfile.TemporaryDirectory() as d:
            res = _run(python, [[["suite", "--seed", "0", "--dir", d], None]], hashseed)
            got = {p.name: p.read_bytes() for p in Path(d).iterdir()}
        if res["outputs"][0][0] != 0:
            problems.append(f"suite exit {res['outputs'][0][0]} (PYTHONHASHSEED={hashseed})")
        differ = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        if differ:
            problems.append(f"suite files differ (PYTHONHASHSEED={hashseed}): {', '.join(differ)}")
        problems += _unwanted(res, f"suite (PYTHONHASHSEED={hashseed})")
    problems += _digests(python)
    steps = plan(leg.words() for leg in LEGS.values())
    with tempfile.TemporaryDirectory() as d:
        write_files(Path(d))
        res = _run(python, [[list(words), save] for words, save in steps.items()], "0", cwd=d)
    problems += mismatches(dict(zip(steps, map(tuple, res["outputs"]))))
    problems += _unwanted(res, "the legs")
    got = _run(python, [], "0", SWEEP_CHILD)
    if got != SWEEP_SHA256:
        problems.append(f"outer-bound sweep to 100000 hands over points {got[:12]}; "
                        f"want {SWEEP_SHA256[:12]}")
    for statement, want in IMPORTS.items():
        got = loaded(python, statement)
        if got != want:
            problems.append(f"{statement}: loads {sorted(set(got) - set(want))} more, "
                            f"{sorted(set(want) - set(got))} fewer")
    problems += [f"charzeros.{name}: missing from dir() or not its module's attribute"
                 for name in misread_names(python)]
    pairs = _run(python, list(DISPATCH), "0", DISPATCH_CHILD)
    problems += [f"dispatch {' '.join(argv) or '(no words)'}: exit {fast[0]}, "
                 f"{len(fast[1])}/{len(fast[2])} chars on stdout/stderr; from the top, "
                 f"exit {full[0]}, {len(full[1])}/{len(full[2])}"
                 for argv, (fast, full) in zip(DISPATCH, pairs) if fast != full]
    return problems


def smoke(script: str) -> list[str]:
    """The legs that the console script `script` does not pass, each run
    within its timeout in a fresh directory."""
    runs = {}
    timeouts = {leg.words(): leg.timeout for leg in LEGS.values()}
    with tempfile.TemporaryDirectory() as d:
        write_files(Path(d))
        for words, save in plan(leg.words() for leg in LEGS.values()).items():
            cmd = [sys.executable, *words] if words[0] == "-c" else [script, *words]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, encoding="utf-8",
                                      timeout=timeouts.get(words) or 600, cwd=d,
                                      env={**os.environ, **ENV})
            except subprocess.TimeoutExpired:
                runs[words] = None
                continue
            runs[words] = proc.returncode, proc.stdout, proc.stderr
            if save:
                (Path(d) / save).write_text(proc.stdout, encoding="utf-8")
    return mismatches(runs)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--script"]:
        problems = smoke(argv[1])
        print(f"{argv[1]}: {len(LEGS)} legs, " + (f"{len(problems)} mismatches" if problems
                                                   else "ok"))
        print("".join(f"  {p}\n" for p in problems), end="")
        return 1 if problems else 0
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
