"""Command-line front end.

Verbs: build, table, verify, zeros, star, classify, suite, numtheory.
Exit codes: 0 when everything succeeds or passes, 1 when a computation or
check fails (details on the error stream), 2 on usage errors.  All output is
deterministic; reruns are byte-identical.

The argparse tree is built once per process.  `main` parses argv with the
parser of the command that its leading words name (the verb, and for
numtheory the subverb): a parse from the top of the tree would hand those
words to that same parser, so usage errors and help are unchanged.  Argv that
names no command, or that leaves words over, gets the full parse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .chartab import (
    CharacterTable,
    Degenerate,
    TableFileError,
    _load,
    character_table,
    is_simple,
    table_from_text,
    table_to_text,
)
from .constructions import (
    RegistryError,
    ValidationFailed,
    build,
    find_recipe,
    registry_names,
)
from .groupcore import (
    DEFAULT_ORDER_BUDGET,
    BudgetExceeded,
    format_group_file,
    parse_group_file,
)
from .numtheory import (
    Unresolved,
    diophantine_solutions,
    outer_bound_sweep,
    torus_orders,
    zsigmondy,
)
from .vanishing import (
    SurveyReport,
    burnside_check,
    classify_one_class,
    simple_one_class_survey,
    star_check,
    star_survey,
    two_prime_degree_check,
    vanishing_classes,
)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None, summary: str | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8")
    if summary:
        print(f"wrote {out} ({summary})")


def _obtain_table(target: str, max_order: int) -> CharacterTable:
    """Registry name: the table `build` validated.  File: a table file if it
    starts with '{', which loads only if it passes verify, else a group file to
    compute from, named after the file stem if it has no name line (a stem
    such as A5 gets A5's facts only if the table meets them, as any name)."""
    if target in registry_names():
        return build(target, max_order=max_order)[1]
    p = Path(target)
    if not p.is_file():
        raise RegistryError(
            f"{target!r} is neither a registry group nor a readable file; "
            f"known groups: {', '.join(sorted(registry_names()))}")
    text = p.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return table_from_text(text)
    g = parse_group_file(text, max_order=max_order)
    if g.name is None:
        g.name = p.stem
    return character_table(g)


# -- verb handlers ---------------------------------------------------------------


def _cmd_build(args) -> int:
    g, _ = build(args.group)
    _emit(format_group_file(g), args.out,
          f"{g.name}: order {g.order}, degree {g.degree}")
    return 0


def _cmd_table(args) -> int:
    t = _obtain_table(args.target, args.max_order)
    _emit(table_to_text(t, args.seed), args.out,
          f"{t.group}: order {t.order}, {len(t.classes)} classes")
    return 0


def _cmd_verify(args) -> int:
    try:
        t, rep = _load(Path(args.file).read_text(encoding="utf-8"))
    except (TableFileError, UnicodeDecodeError) as exc:
        print(f"{args.file}: malformed table file: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(_json({"group": t.group, "ok": rep.ok,
                                "violations": list(rep.violations)}))
    elif rep.ok:
        print(f"{t.group}: table ok ({len(t.classes)} classes, "
              f"orthogonality exact)")
    if not rep.ok:
        for v in rep.violations:
            print(f"{t.group}: {v}", file=sys.stderr)
        return 1
    return 0


def _check_row(t: CharacterTable, row: int | None) -> None:
    """A --row outside the table is a usage error (exit 2)."""
    if row is not None and not 0 <= row < len(t.rows):
        raise ValueError(f"row {row} out of range 0..{len(t.rows) - 1}")


def _cmd_zeros(args) -> int:
    t = _obtain_table(args.target, args.max_order)
    _check_row(t, args.row)
    rows = range(len(t.rows)) if args.row is None else [args.row]
    entries = []
    for i in rows:
        zs = vanishing_classes(t, i)
        entries.append((i, t.degree(i),
                        [(j, t.classes[j].element_order) for j in zs]))
    if args.format == "json":
        sys.stdout.write(_json({
            "group": t.group, "order": t.order,
            "rows": [{"row": i, "degree": d,
                      "zeros": [list(z) for z in zs]}
                     for i, d, zs in entries]}))
        return 0
    print(f"{t.group}: order {t.order}, {len(t.classes)} classes")
    for i, d, zs in entries:
        where = (", ".join(f"{j} (order {o})" for j, o in zs)
                 if zs else "none")
        print(f"row {i} degree {d}: zeros on classes: {where}")
    return 0


def _cmd_star(args) -> int:
    t = _obtain_table(args.target, args.max_order)
    _check_row(t, args.row)
    if args.row is not None:
        reports = [star_check(t, args.row, out_order=args.out_order)]
    else:
        reports = list(star_survey(t, out_order=args.out_order))
    if args.format == "json":
        sys.stdout.write(_json([r._asdict() for r in reports]))
    else:
        sys.stdout.write("\n\n".join(r.text() for r in reports) + "\n")
    return 0


def _cmd_classify(args) -> int:
    t = _obtain_table(args.target, args.max_order)
    rep = classify_one_class(t)
    if args.format == "json":
        sys.stdout.write(_json(rep._asdict()))
    else:
        print(rep.text())
    return 1 if rep.match is False else 0


def _suite_group(name: str, max_order: int, seed: int):
    """A suite worker's work on one group, as plain values: its report row,
    failure lines, table file text and simple-group survey entries."""
    try:
        t = build(name, max_order=max_order)[1]
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{name}: {exc}") from None
    burn = burnside_check(t)
    two = two_prime_degree_check(t)
    cls = classify_one_class(t)
    failures = [f"{name}: degree-{t.degree(i)} row {i} never vanishes"
                for i in burn.violations]
    if not two.ok:
        failures.append(f"{name}: unexcused two-prime-degree row with a single vanishing class")
    if cls.match is False:
        failures.append(f"{name}: one-class degrees {list(cls.observed)} != "
                        f"expected {list(cls.expected)}")
    simple = is_simple(t) and any(t.degree(i) > 1 for i in range(len(t.rows)))
    row = {"group": name, "order": t.order, "classes": len(t.classes),
           "table_ok": True, "burnside_ok": burn.ok, "two_prime_ok": two.ok,
           "classify": cls.match,
           "star_degrees": sorted({r.degree for r in star_survey(t) if r.holds})}
    return (row, failures, table_to_text(t, seed),
            simple_one_class_survey([t]).entries if simple else ())


def _suite_rows(args, failures: list[str]):
    """The suite's report rows, group by group in name order.  Each group is
    built and reported in a worker process, one per usable CPU, the largest
    group first so that the long builds start at once; the parent writes the
    files and collects the results in name order.  The first failing group in
    name order raises, as in a serial run; a worker that dies raises
    ChildProcessError instead of leaving the suite waiting for it."""
    import multiprocessing  # only the suite starts processes
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    names = sorted(registry_names())
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    start = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    pool = ProcessPoolExecutor(min(cpus, len(names)),
                               mp_context=multiprocessing.get_context(start))
    try:
        pending = {name: pool.submit(_suite_group, name, args.max_order, args.seed)
                   for name in sorted(names, key=lambda n: -find_recipe(n).order)}
        rows = []
        entries = []
        for name in names:
            try:
                row, lines, text, survey = pending[name].result()
            except BrokenProcessPool:
                raise ChildProcessError(
                    f"a worker process died; the table of {name} was not built") from None
            rows.append(row)
            failures.extend(lines)
            entries.extend(survey)
            if args.dir:
                fname = "".join(c if c.isalnum() else "_" for c in name) + ".tbl"
                (Path(args.dir) / fname).write_text(text, encoding="utf-8")
    finally:
        pool.shutdown(cancel_futures=True)
    survey = SurveyReport(tuple(entries))
    for e in survey.entries:
        if not e.ok:
            failures.append(f"{e.group}: survey violation: one-class degrees "
                            f"{[d for _, d in e.one_class_rows]} not in "
                            f"{list(e.allowed)}")
    return rows, survey


def _cmd_suite(args) -> int:
    if args.dir:
        Path(args.dir).mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    rows, survey = _suite_rows(args, failures)
    if args.format == "json":
        report = _json({"seed": args.seed, "groups": rows,
                        "survey": {"entries": [e._asdict() for e in survey.entries],
                                   "ok": survey.ok},
                        "ok": not failures})
    else:
        flag = {True: "ok", False: "FAIL", None: "--"}
        lines = [f"{'group':<12} {'order':>6} {'cls':>3} {'table':<5} "
                 f"{'burnside':<8} {'twoprime':<8} {'classify':<8} star-degrees"]
        for r in rows:
            stars = ",".join(map(str, r["star_degrees"])) or "--"
            lines.append(
                f"{r['group']:<12} {r['order']:>6} {r['classes']:>3} "
                f"{flag[r['table_ok']]:<5} {flag[r['burnside_ok']]:<8} "
                f"{flag[r['two_prime_ok']]:<8} "
                f"{flag[r['classify']] if r['classify'] is not None else 'none':<8} "
                f"{stars}")
        lines.append(f"simple-group survey over {len(survey.entries)} groups: "
                     + ("ok" if survey.ok else "FAILED"))
        lines.append(f"suite: {len(rows)} groups, "
                     + ("all checks passed" if not failures
                        else f"{len(failures)} failures"))
        report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.dir:
        (Path(args.dir) / "report.txt").write_text(report, encoding="utf-8")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


_DIOPHANTINE_SHAPES = {
    "A": lambda s: f"q = {s.q}: q-1 = 2^{s.c}, q+1 = 2^{s.a} 3^{s.b}",
    "B": lambda s: f"q = {s.q}: q-1 = 2^{s.a}, q+1 = 2^{s.b} 5^{s.c}",
    "C": lambda s: f"q = {s.q}: q-1 = 2^{s.a} 5^{s.b}, q+1 = 2^{s.c}",
}


def _cmd_diophantine(args) -> int:
    res = diophantine_solutions(args.part, args.bound)
    if args.format == "json":
        sys.stdout.write(_json({
            "part": res.part, "bound": res.bound,
            "values": list(res.values),
            "solutions": [{"q": s.q, "a": s.a, "b": s.b, "c": s.c}
                          for s in res.solutions]}))
        return 0
    shown = "{" + ", ".join(map(str, res.values)) + "}"
    print(f"part {res.part}, bound {res.bound}: q in {shown}")
    for s in res.solutions:
        print("  " + _DIOPHANTINE_SHAPES[res.part](s))
    return 0


def _cmd_outer_bound(args) -> int:
    bad = outer_bound_sweep(args.bound)
    if args.format == "json":
        sys.stdout.write(_json({
            "bound": args.bound, "ok": not bad,
            "violations": [{"p": p, "f": f, "part": part}
                           for p, f, part in bad]}))
    else:
        if not bad:
            print(f"both inequalities hold for every prime power q <= "
                  f"{args.bound} in their domains (A: q > 11; B: odd q >= 7)")
    if bad:
        for p, f, part in bad:
            print(f"part {part} fails at q = {p}^{f}", file=sys.stderr)
        return 1
    return 0


def _cmd_zsigmondy(args) -> int:
    out = zsigmondy(args.q, args.n)
    if args.format == "json":
        sys.stdout.write(_json({"q": out.q, "n": out.n, "prime": out.prime,
                                "exception_reason": out.exception_reason}))
        return 0
    if out.prime is not None:
        print(f"least primitive prime divisor of {out.q}^{out.n} - 1: "
              f"{out.prime}")
    elif out.exception_reason == "Q2N6":
        print("no primitive prime divisor: (q, n) = (2, 6)")
    else:
        print(f"no primitive prime divisor: n = 2 and q + 1 = {out.q + 1} "
              f"is a power of two")
    return 0


def _cmd_torus(args) -> int:
    rows = torus_orders(args.family, args.n, args.q)
    if args.format == "json":
        sys.stdout.write(_json([
            {"label": r.label, "order": r.order, "zsig_n": r.zsig_n,
             "zsig_prime": None if r.zsig is None else r.zsig.prime,
             "zsig_exception": None if r.zsig is None
             else r.zsig.exception_reason}
            for r in rows]))
        return 0
    print(f"family {args.family}, n = {args.n}, q = {args.q}:")
    for r in rows:
        if r.zsig is None:
            tail = f"l({r.zsig_n}) not applicable"
        elif r.zsig.prime is not None:
            tail = f"l({r.zsig_n}) = {r.zsig.prime}"
        else:
            tail = f"l({r.zsig_n}) exception ({r.zsig.exception_reason})"
        print(f"  {r.label}: order {r.order}, {tail}")
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_table_options(p, seed: bool = False) -> None:
    """--max-order, and --seed on the verbs that write a table file."""
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the table file; the split is "
                            "deterministic (default 0)")
    p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_BUDGET,
                   help=f"largest allowed group order "
                        f"(default {DEFAULT_ORDER_BUDGET})")


# the parser of each command, keyed by its words: ("table",), ("numtheory",),
# ("numtheory", "zsigmondy"), ...; filled once by _build_parser
_COMMANDS: dict[tuple[str, ...], argparse.ArgumentParser] = {}


def _command(sub, *words: str, **kwargs) -> argparse.ArgumentParser:
    """Add the parser of the command `words` to `sub`, and record it."""
    p = _COMMANDS[words] = sub.add_parser(words[-1], **kwargs)
    return p


@cache  # one tree per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charzeros",
        description="Exact character tables and vanishing-class analysis")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = _command(sub, "build", help="construct a registry group file")
    p.add_argument("group")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = _command(sub, "table", help="compute a character table")
    p.add_argument("target", help="registry group name or group file path")
    p.add_argument("--out")
    _add_table_options(p, seed=True)
    p.set_defaults(func=_cmd_table)

    p = _command(sub, "verify", help="check a table file's orthogonality")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = _command(sub, "zeros", help="list each row's vanishing classes")
    p.add_argument("target", help="registry group, group file, or table file")
    p.add_argument("--row", type=int)
    _add_format(p)
    _add_table_options(p)
    p.set_defaults(func=_cmd_zeros)

    p = _command(sub, "star", help="vanishing-pattern reports per row")
    p.add_argument("target", help="registry group, group file, or table file")
    p.add_argument("--row", type=int)
    p.add_argument("--out-order", type=int,
                   help="outer-automorphism bound override")
    _add_format(p)
    _add_table_options(p)
    p.set_defaults(func=_cmd_star)

    p = _command(sub, "classify",
                 help="faithful single-vanishing-class degrees")
    p.add_argument("target", help="registry group, group file, or table file")
    _add_format(p)
    _add_table_options(p)
    p.set_defaults(func=_cmd_classify)

    p = _command(sub, "suite", help="run every registry group through "
                                    "table, verification, and checks")
    p.add_argument("--dir", help="directory for table files and report.txt")
    _add_format(p)
    _add_table_options(p, seed=True)
    p.set_defaults(func=_cmd_suite)

    p = _command(sub, "numtheory", help="integer-arithmetic reports")
    nsub = p.add_subparsers(dest="subverb", required=True)

    q = _command(nsub, "numtheory", "diophantine",
                 help="prime powers with constrained q-1/q+1 factorizations")
    q.add_argument("--part", type=str.upper, choices=("A", "B", "C"),
                   required=True)
    q.add_argument("--bound", type=int, default=1_000_000)
    _add_format(q)
    q.set_defaults(func=_cmd_diophantine)

    q = _command(nsub, "numtheory", "outer-bound",
                 help="sweep both automorphism-count inequalities")
    q.add_argument("--bound", type=int, default=1_000_000)
    _add_format(q)
    q.set_defaults(func=_cmd_outer_bound)

    q = _command(nsub, "numtheory", "zsigmondy", help="least primitive prime divisor")
    q.add_argument("q", type=int)
    q.add_argument("n", type=int)
    _add_format(q)
    q.set_defaults(func=_cmd_zsigmondy)

    q = _command(nsub, "numtheory", "torus", help="maximal-torus orders for a family")
    q.add_argument("family")
    q.add_argument("n", type=int)
    q.add_argument("q", type=int)
    _add_format(q)
    q.set_defaults(func=_cmd_torus)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """What `_build_parser().parse_args(argv)` gives, parsing only with the
    parser of argv's command when its leading words name one exactly: a
    top-down parse hands that parser the same words and copies its Namespace
    up, with `verb` and `subverb` set.  Words it leaves over, and argv that
    names no command, get the full parse, which reports them."""
    parser = _build_parser()  # the first call fills _COMMANDS
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        command = _COMMANDS.get(words)
        if command is None:
            continue
        args, rest = command.parse_known_args(argv[len(words):])
        if rest:
            break
        args.verb = words[0]
        if len(words) == 2:
            args.subverb = words[1]
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TableFileError as exc:
        print(f"error: malformed table file: {exc}", file=sys.stderr)
        return 1
    except (ValidationFailed, Degenerate, BudgetExceeded, ChildProcessError, Unresolved) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
