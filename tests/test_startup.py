"""Cold start: no verb imports sympy, which is a test oracle only: not
`import charzeros`, the read verbs on a table file, the verbs that compute a
table, nor any `numtheory` verb.  Nor does the program import `dataclasses`
(its records are named tuples), which would pull in `inspect` and `ast`.
Nor does a process import a module of the package that its caller does not
use: `import charzeros` loads no submodule, and the registry no table code.
Each run-time check runs in a fresh interpreter, since this one has all of
them loaded already; a static check reads every module's imports."""
import ast
import importlib
import sys
import typing
from pathlib import Path

import pytest

import charzeros
import check_interpreters
from charzeros.cli import main

SRC = str(Path(charzeros.__file__).parents[1])
ROOT = Path(__file__).resolve().parents[1]
TABLES = ROOT / "perfbench" / "pinned" / "tables"


def _fresh(argvs, child=check_interpreters.CHILD):
    """The tool's child run on argvs: each run's [exit code, stdout, stderr],
    and which of dataclasses and sympy were loaded after `import charzeros`
    and after each run."""
    return check_interpreters._run(sys.executable, [[argv, None] for argv in argvs], "0", child)


def _here(capsys, argvs):
    out = []
    for argv in argvs:
        rc = main(argv)
        out.append([rc, *capsys.readouterr()])
    return out


def test_read_verbs_start_without_sympy(capsys):
    # reading a table needs no computer algebra: neither `import charzeros`
    # nor a read verb on a table file loads sympy
    argvs = [[verb, str(TABLES / name)]
             for name in ("PSU_3_4_.tbl", "3_A6_2_3.tbl")
             for verb in ("verify", "zeros", "star", "classify")]
    child = _fresh(argvs)
    assert child["loaded"] == [[]] * (1 + len(argvs))
    assert child["outputs"] == _here(capsys, argvs)
    assert all(rc == 0 for rc, _, _ in child["outputs"])


def test_no_verb_loads_sympy(tmp_path, capsys):
    # a table, a build and the whole suite compute over F_l with `fpoly` and
    # trial division, `outer-bound` sieves its own primes, and `diophantine`,
    # `zsigmondy` and `torus` test primes by Miller-Rabin and BPSW.  Each
    # verb starts from the state the one before it left.
    out = tmp_path / "suite"
    argvs = [["table", "A5"], ["build", "A5"], ["suite", "--dir", str(out)],
             ["numtheory", "outer-bound", "--bound", "1000"],
             ["numtheory", "diophantine", "--part", "A"],
             ["numtheory", "zsigmondy", "2", "10"],
             ["numtheory", "torus", "E8", "8", "2"]]
    child = _fresh(argvs)
    assert child["loaded"] == [[]] * 8
    assert child["outputs"][0] == [0, (TABLES / "A5.tbl").read_text(), ""]
    assert child["outputs"][1] == _here(capsys, argvs[1:2])[0]
    assert child["outputs"][2] == [0, (TABLES / "report.txt").read_text(), ""]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == \
        {p.name: p.read_bytes() for p in TABLES.iterdir()}
    assert child["outputs"][3:] == [
        [0, "both inequalities hold for every prime power q <= 1000 in their "
            "domains (A: q > 11; B: odd q >= 7)\n", ""],
        list(check_interpreters.LEGS["numtheory diophantine --part A"].pinned()),
        [0, "least primitive prime divisor of 2^10 - 1: 11\n", ""],
        _here(capsys, argvs[6:])[0]]


def test_numtheory_examples_with_sympy_blocked():
    # README's zsigmondy and torus examples, in a process that cannot import
    # sympy at all
    legs = [check_interpreters.LEGS[f"numtheory {example}"]
            for example in ("zsigmondy 2 4", "torus A 1 7")]
    blocked = "import sys; sys.modules['sympy'] = None\n" + check_interpreters.CHILD
    child = _fresh([leg.words() for leg in legs], blocked)
    assert child["outputs"] == [list(leg.pinned()) for leg in legs]


def _imports(path: Path) -> set[str]:
    """The full name of every module that the module at path imports, at any
    depth.  A relative import is read against the module's package, and
    `from . import x` names the submodule x."""
    package = path.relative_to(SRC).parent.parts
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level else ()
            if node.module:
                names.add(".".join(base + (node.module,)))
            else:
                names.update(".".join(base + (a.name,)) for a in node.names)
    return names


def _top(names: set[str]) -> set[str]:
    return {n.split(".")[0] for n in names}


def test_no_module_imports_sympy():
    # the table side factors by trial division alone (`numtheory.trial_factor`)
    # and numtheory by Miller-Rabin, BPSW and rho: no module may import sympy,
    # even inside a function.
    package = Path(SRC) / "charzeros"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    assert [p.relative_to(package).as_posix() for p in modules
            if "sympy" in _top(_imports(p))] == []


def test_no_module_imports_dataclasses():
    # every record is a typing.NamedTuple: a frozen dataclass costs its
    # exec-generated methods at import, and the module pulls in inspect
    package = Path(SRC) / "charzeros"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    assert [p.relative_to(package).as_posix() for p in modules
            if "dataclasses" in _top(_imports(p))] == []


def test_numtheory_is_the_leaf_of_the_import_graph():
    # integer arithmetic lives in numtheory, which imports no module of the
    # package; fpoly, the one F_l[x], imports numtheory alone; and no other
    # module defines its own trial division or root-of-unity search
    package = Path(SRC) / "charzeros"

    def ours(name):
        return sorted(n for n in _imports(package / name) if n.startswith("charzeros."))

    assert ours("numtheory.py") == []
    assert ours("fpoly.py") == ["charzeros.numtheory"]
    defined = sorted(f"{p.relative_to(package).as_posix()}:{node.name}"
                     for p in package.rglob("*.py")
                     for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
                     if isinstance(node, ast.FunctionDef)
                     and node.name.lstrip("_") in ("trial_factor", "root_of_unity"))
    assert defined == ["numtheory.py:root_of_unity", "numtheory.py:trial_factor"]


def test_verify_and_table_start_without_dataclasses(capsys):
    # every record is a named tuple: neither verify nor table loads
    # dataclasses, which would pull in inspect and ast
    argvs = [["verify", str(TABLES / "PSU_3_4_.tbl")], ["table", "A5"]]
    child = _fresh(argvs)
    assert child["loaded"] == [[], [], []]
    assert child["outputs"] == _here(capsys, argvs)
    assert [rc for rc, _, _ in child["outputs"]] == [0, 0]


@pytest.mark.parametrize("statement", check_interpreters.IMPORTS)
def test_each_import_loads_only_the_modules_it_uses(statement):
    # the package reads each public name from its module on first use, the
    # registry imports the table code only to compute or check a table, and
    # numtheory imports no other module; the CLI loads every module
    assert check_interpreters.loaded(sys.executable, statement) == \
        check_interpreters.IMPORTS[statement]


def test_public_names_resolve_on_first_use():
    # in a fresh interpreter, dir() lists every public name before it is
    # read, and each reads as its module's own attribute; any other name is
    # an AttributeError, as hasattr() needs
    assert check_interpreters.misread_names(sys.executable) == []
    with pytest.raises(AttributeError, match="has no attribute 'chartab_'"):
        charzeros.chartab_


def test_record_fields_hold_types_not_forward_references():
    # no module defers its annotations, so each named-tuple field is
    # annotated with its type: a string annotation is compiled to a
    # typing.ForwardRef at import, one per field
    package = Path(SRC) / "charzeros"
    records = []
    for p in sorted(package.rglob("*.py")):
        name = ".".join(("charzeros",) + p.relative_to(package).with_suffix("").parts)
        module = importlib.import_module(name.removesuffix(".__init__"))
        records += [x for x in vars(module).values() if isinstance(x, type)
                    and issubclass(x, tuple) and hasattr(x, "_fields")
                    and x.__module__ == module.__name__]
    assert len(records) >= 15
    assert [(r.__name__, f) for r in records for f, a in r.__annotations__.items()
            if isinstance(a, (str, typing.ForwardRef))] == []
