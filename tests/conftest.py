import pytest

from charzeros import cli
from charzeros.constructions import build, registry, registry_names
from check_interpreters import LEGS, plan, write_files


@pytest.fixture(scope="session")
def built():
    """(group, validated table) of each registry group, built once."""
    cache = {}

    def _get(name: str):
        if name not in cache:
            cache[name] = build(name)
        return cache[name]

    return _get


@pytest.fixture(scope="session")
def get_group(built):
    return lambda name: built(name)[0]


@pytest.fixture(scope="session")
def get_table(built):
    return lambda name: built(name)[1]


@pytest.fixture(scope="session")
def corpus():
    return sorted(registry_names())


@pytest.fixture
def add_recipe(monkeypatch):
    """Put a recipe in front of the registry table for one test."""
    def _add(recipe):
        monkeypatch.setattr(registry, "RECIPES", (recipe,) + registry.RECIPES)

    return _add


@pytest.fixture(scope="session")
def _leg_runs(tmp_path_factory):
    """A directory holding the files of FILES, and the runs made in it so
    far, by their words: each run is made once a session."""
    d = tmp_path_factory.mktemp("legs")
    write_files(d)
    return d, {}


@pytest.fixture
def run_words(_leg_runs, capsys, monkeypatch):
    """Run the words through `cli.main` in process, in a directory holding
    the files of FILES, once a session; give its exit code, stdout and
    stderr."""
    d, runs = _leg_runs
    monkeypatch.chdir(d)
    monkeypatch.setenv("COLUMNS", "80")

    def _run(words):
        for step, save in plan([tuple(words)]).items():
            if step not in runs:
                capsys.readouterr()
                if step[0] == "-c":
                    exec(step[1], {})
                rc = 0 if step[0] == "-c" else cli.main(list(step))
                runs[step] = rc, *capsys.readouterr()
            if save:
                (d / save).write_text(runs[step][1], encoding="utf-8")
        return runs[tuple(words)]

    return _run


@pytest.fixture
def check_legs(run_words):
    """Check that each named leg of LEGS gives its pinned exit code, stdout
    and stderr."""
    def _check(*names):
        for name in names:
            leg = LEGS[name]
            assert leg.outcome(*run_words(leg.words())) == leg.pinned(), name

    return _check
