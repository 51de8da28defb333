"""The four benchmark workloads: seeded rounds of `charzeros.cli.main` ops and
an oracle for every op.

A round is a workload's fixed work: the same multiset of op kinds every time,
with seeded arguments and a seeded order.  Each op carries the check that
turns its exit code and output into an outcome:

  "ok"              the expected verdict, exit code and output;
  "known:<defect>"  the wrong verdict a defect recorded in ROADMAP.md gives
                    today (kept visible in fail_frac, never hidden);
  "fail:<reason>"   anything else.

Reference outputs are pinned under pinned/ from the seed commit, so the
read-side inputs and the expected bytes do not depend on the commit under
test.  pin.py wrote them.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import sympy

PINNED = Path(__file__).resolve().parent / "pinned"
TABLES = PINNED / "tables"
DIGESTS = PINNED / "digests.json"

# Groups up to this order make the small-tables workload: every registry group
# but Sz(8), PSU(3,4) and Sz(8):3.
SMALL_ORDER = 4080

TABLE_VERBS = ("verify", "zeros", "star", "classify")

# Seeded mutations applied to table-files `verify` ops, each must be rejected
# with exit 1.  "coef" is rejected today; verify accepts the other two (the
# class-metadata gap of ROADMAP item 2), which the oracle reports as known.
MUTATIONS = ("coef", "powermap", "relabel")
MUTATED_PER_KIND = 3
# An entry whose order m has two large prime factors stalls cyclo's trial
# division; the probe runs once per run, outside the timed rounds.
HUGE_M = 1000000007 * 998244353
PROBE_DEADLINE_S = 2.0

# numtheory: per round, one outer-bound and one diophantine op in each of these
# log10 strata of [1e5, 1e6], each at its own bound; plus cheap ops so that a
# run has well over 100 ops and the sweeps are the slowest tenth.
SWEEP_STRATA = (5.25, 5.75)
SWEEP_JITTER = 0.04
ZSIGMONDY_PER_ROUND = 24
TORUS_PER_ROUND = 6
DIOPHANTINE_VALUES = {"A": (3, 5, 17), "B": (3, 9), "C": (3,)}

ZSIGMONDY_GRID = tuple((q, n) for q in range(2, 51) if len(sympy.primefactors(q)) == 1
                       for n in range(2, 13))
TORUS_QS = (2, 3, 4, 5, 7, 8, 9)
TORUS_RANKS = {"A": range(1, 7), "2A": range(2, 7), "B": range(2, 7),
               "C": range(2, 7), "D": range(4, 8), "2D": range(4, 8),
               "F4": (4,), "E6": (6,), "2E6": (6,), "E7": (7,), "E8": (8,)}
TORUS_GRID = tuple((fam, n, q) for fam, ranks in TORUS_RANKS.items()
                   for n in ranks for q in TORUS_QS)

OK = "ok"


@dataclass
class Result:
    latency_s: float
    rc: int | None
    out: str
    err: str
    error: str | None  # "deadline" or "exception: ..." when cli.main did not return
    inner: list[float]  # host-speed probes taken while the op ran
    speed: float = 1.0  # reference seconds per measured second


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Result], str]
    deadline_s: float = 60.0
    units: int = 0  # work the benchmark counts itself: prime powers swept
    before: Callable[[], None] | None = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_file_name(group: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in group) + ".tbl"


def with_seed(pinned_text: str, seed: int) -> str:
    """A table file of seed 0 as the program writes it for another split seed:
    rows are sorted canonically, so only the recorded seed differs."""
    return pinned_text.replace('"seed":0', f'"seed":{seed}', 1)


class Pins:
    """The pinned seed-commit outputs, checked against their digests on load."""

    def __init__(self):
        self.digests = json.loads(DIGESTS.read_text())
        self.texts: dict[str, str] = {}
        for name, want in self.digests["files"].items():
            text = (TABLES / name).read_text()
            if sha256(text) != want:
                raise RuntimeError(f"pinned file {name} does not match its digest")
            self.texts[name] = text
        self.tables = {n: json.loads(t) for n, t in self.texts.items() if n.endswith(".tbl")}

    def outputs(self, key: str) -> dict:
        return self.digests["outputs"][key]


def _expect(rc: int, out: str | None = None, out_sha: str | None = None):
    def check(res: Result) -> str:
        if res.error:
            return f"fail:{res.error}"
        if res.rc != rc:
            return f"fail:exit {res.rc}, expected {rc}: {res.err.strip()[:200]}"
        if out is not None and res.out != out:
            return "fail:output differs from the reference"
        if out_sha is not None and sha256(res.out) != out_sha:
            return "fail:output differs from the reference"
        return OK
    return check


def _rejected(defect: str | None):
    """Check for a mutated table file: exit 1 with nothing on stdout.  When verify
    accepts it or runs past the deadline, the outcome is the known defect."""
    def check(res: Result) -> str:
        if res.error is None and res.rc == 1 and res.out == "":
            return OK
        if defect and res.error is None and res.rc == 0 and " table ok " in res.out:
            return f"known:{defect}"
        if defect and res.error == "deadline":
            return f"known:{defect}"
        return f"fail:mutated file not rejected (exit {res.rc}, {res.error})"
    return check


class Workload:
    name = ""
    round_s = 1.0  # one round's time on the seed commit, in reference seconds

    def __init__(self, seed: int, work: Path, pins: Pins):
        self.seed = seed
        self.work = work
        self.pins = pins

    def rng(self, *tags) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + tags)))

    def prechecks(self) -> list[Op]:
        return []

    def probes(self) -> list[Op]:
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class Corpus(Workload):
    """One `suite` over the whole registry, checked file by file."""

    name = "corpus"
    round_s = 40.0

    def round(self, r):
        split_seed = self.rng(r).randrange(2**31)
        out_dir = self.work / f"suite-{r}"
        report = self.pins.texts["report.txt"]

        def check(res: Result) -> str:
            try:
                verdict = _expect(0, out=report)(res)
                if verdict != OK:
                    return verdict
                if not res.out.endswith("all checks passed\n"):
                    return "fail:suite did not report all checks passed"
                written = sorted(p.name for p in out_dir.iterdir())
                if written != sorted(self.pins.texts):
                    return f"fail:suite wrote {len(written)} files, expected {len(self.pins.texts)}"
                for name, text in self.pins.texts.items():
                    want = text if name == "report.txt" else with_seed(text, split_seed)
                    if sha256((out_dir / name).read_text()) != sha256(want):
                        return f"fail:{name} differs from the pinned digest"
                return OK
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return [Op("suite", ["suite", "--seed", str(split_seed), "--dir", str(out_dir)],
                   check, deadline_s=170.0)]


class SmallTables(Workload):
    """`table NAME --seed s` for every registry group of order <= 4080."""

    name = "small-tables"
    round_s = 2.0

    def __init__(self, *a):
        super().__init__(*a)
        self.groups = sorted(t["group"] for t in self.pins.tables.values()
                             if t["order"] <= SMALL_ORDER)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for group in self.groups:
            s = rng.randrange(2**31)
            want = with_seed(self.pins.texts[table_file_name(group)], s)
            ops.append(Op("table", ["table", group, "--seed", str(s)], _expect(0, out=want)))
        rng.shuffle(ops)
        return ops


def _mutate(obj: dict, kind: str, rng: random.Random) -> dict:
    obj = json.loads(json.dumps(obj))
    classes = obj["classes"]
    nontrivial = [j for j, c in enumerate(classes) if c["order"] > 1]
    if kind == "coef":
        i = rng.randrange(1, len(obj["rows"]))
        entry = obj["rows"][i][rng.randrange(len(classes))]
        if entry["c"]:
            term = rng.choice(entry["c"])
            term[1] += 1 if term[1] > 0 else -1
        else:
            entry["c"] = [[0, 1, 1]]
    elif kind == "powermap":
        involutions = [j for j in nontrivial if classes[j]["order"] == 2]
        c = classes[rng.choice(involutions or nontrivial)]
        c["powers"][1] = 99
    elif kind == "relabel":
        c = classes[rng.choice(nontrivial)]
        o = c["order"]
        others = sorted({k["order"] for k in classes} - {1, o}) or [o + 1]
        new = rng.choice(others)
        c["order"] = new
        c["powers"] = [c["powers"][k % o] for k in range(new)]
    else:
        raise ValueError(kind)
    return obj


class TableFiles(Workload):
    """verify/zeros/star/classify on the 35 pinned corpus table files."""

    name = "table-files"
    round_s = 1.4

    def __init__(self, *a):
        super().__init__(*a)
        self.files = sorted(self.pins.tables)
        self.mutable = [f for f in self.files if len(self.pins.tables[f]["classes"]) > 1]

    def _ref(self, verb: str, name: str):
        ref = self.pins.outputs(f"{verb}/{name}")
        return _expect(ref["rc"], out_sha=ref["sha256"])

    def _write(self, name: str, obj: dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        return str(path)

    def prechecks(self):
        return [Op("verify", ["verify", str(TABLES / f)], self._ref("verify", f))
                for f in self.files]

    def probes(self):
        rng = self.rng("probe")
        name = rng.choice(self.mutable)
        obj = json.loads(self.pins.texts[name])
        obj["rows"][1][1] = {"m": HUGE_M, "c": [[0, 1, 1]]}
        path = self._write(f"probe-huge-m-{name}", obj)
        return [Op("verify", ["verify", path], _rejected("huge_m"),
                   deadline_s=PROBE_DEADLINE_S)]

    def round(self, r):
        rng = self.rng(r)
        picked = rng.sample(self.mutable, MUTATED_PER_KIND * len(MUTATIONS))
        mutated = {f: MUTATIONS[k // MUTATED_PER_KIND] for k, f in enumerate(picked)}
        ops = []
        for f in self.files:
            for verb in TABLE_VERBS:
                if verb == "verify" and f in mutated:
                    kind = mutated[f]
                    path = self._write(f"r{r}-{kind}-{f}",
                                       _mutate(self.pins.tables[f], kind, rng))
                    defect = None if kind == "coef" else kind
                    ops.append(Op("verify", ["verify", path], _rejected(defect)))
                else:
                    ops.append(Op(verb, [verb, str(TABLES / f)], self._ref(verb, f)))
        rng.shuffle(ops)
        return ops


def _strip(x: int, p: int) -> tuple[int, int]:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


def diophantine_expected(part: str) -> list[dict]:
    """The criterion-1 solutions with exponents worked out here, not by the program."""
    sols = []
    for q in DIOPHANTINE_VALUES[part]:
        if part == "A":
            c, _ = _strip(q - 1, 2)
            a, rest = _strip(q + 1, 2)
            b, _ = _strip(rest, 3)
        elif part == "B":
            a, _ = _strip(q - 1, 2)
            b, rest = _strip(q + 1, 2)
            c, _ = _strip(rest, 5)
        else:
            a, rest = _strip(q - 1, 2)
            b, _ = _strip(rest, 5)
            c, _ = _strip(q + 1, 2)
        sols.append({"q": q, "a": a, "b": b, "c": c})
    return sols


def brute_zsigmondy(q: int, n: int) -> int | None:
    """Least prime dividing q^n - 1 but no q^i - 1 for i < n, by direct scan."""
    for p in sorted(sympy.primefactors(q**n - 1)):
        if all((q**i - 1) % p for i in range(1, n)):
            return p
    return None


def prime_powers_upto(bound: int) -> list[int]:
    """Ascending prime powers <= bound."""
    out = []
    for p in sympy.primerange(2, bound + 1):
        q = p
        while q <= bound:
            out.append(q)
            q *= p
    return sorted(out)


def _json_equal(want) -> Callable[[Result], str]:
    def check(res: Result) -> str:
        verdict = _expect(0)(res)
        if verdict != OK:
            return verdict
        try:
            got = json.loads(res.out)
        except json.JSONDecodeError:
            return "fail:output is not JSON"
        return OK if got == want else f"fail:{got} != {want}"
    return check


def _cold_sieve():
    # Each op pays for sympy's prime sieve as a fresh `charzeros numtheory`
    # command does, instead of reusing the one an earlier op extended.
    sympy.sieve._reset()


class NumTheory(Workload):
    """outer-bound and diophantine sweeps, zsigmondy and torus reports."""

    name = "numtheory"
    round_s = 2.5

    def __init__(self, *a):
        super().__init__(*a)
        self.used_bounds: set[int] = set()
        top = max(int(10**s * (1 + SWEEP_JITTER)) for s in SWEEP_STRATA) + 1
        self.prime_powers = prime_powers_upto(top)
        self.zsig = {}
        for q, n in ZSIGMONDY_GRID:
            p = brute_zsigmondy(q, n)
            reason = None
            if p is None:
                reason = "Q2N6" if (q, n) == (2, 6) else "N2_QPLUS1_POW2"
            self.zsig[q, n] = {"q": q, "n": n, "prime": p, "exception_reason": reason}

    def _bound(self, rng, stratum: float) -> int:
        b = int(10**stratum * (1 + SWEEP_JITTER * (rng.random() - 0.5)))
        while b in self.used_bounds:
            b += 1
        self.used_bounds.add(b)
        return b

    def _sweep(self, argv, bound, check):
        return Op(argv[1], argv, check, before=_cold_sieve,
                  units=bisect.bisect_right(self.prime_powers, bound))

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for stratum in SWEEP_STRATA:
            b = self._bound(rng, stratum)
            ops.append(self._sweep(
                ["numtheory", "outer-bound", "--bound", str(b), "--format", "json"], b,
                _json_equal({"bound": b, "ok": True, "violations": []})))
            b = self._bound(rng, stratum)
            part = rng.choice(sorted(DIOPHANTINE_VALUES))
            ops.append(self._sweep(
                ["numtheory", "diophantine", "--part", part, "--bound", str(b),
                 "--format", "json"], b,
                _json_equal({"part": part, "bound": b,
                             "values": list(DIOPHANTINE_VALUES[part]),
                             "solutions": diophantine_expected(part)})))
        for _ in range(ZSIGMONDY_PER_ROUND):
            q, n = rng.choice(ZSIGMONDY_GRID)
            ops.append(Op("zsigmondy", ["numtheory", "zsigmondy", str(q), str(n),
                                        "--format", "json"],
                          _json_equal(self.zsig[q, n]), before=_cold_sieve))
        for _ in range(TORUS_PER_ROUND):
            fam, n, q = rng.choice(TORUS_GRID)
            ref = self.pins.outputs(f"torus/{fam} {n} {q}")
            ops.append(Op("torus", ["numtheory", "torus", fam, str(n), str(q),
                                    "--format", "json"],
                          _expect(ref["rc"], out_sha=ref["sha256"]), before=_cold_sieve))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Corpus, SmallTables, TableFiles, NumTheory)}
