"""Every `$ charzeros ...` example in README.md reproduces its printed output."""
import shlex
from pathlib import Path

import pytest

from charzeros.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each `$ charzeros` line inside a fence;
    the output runs to the next `$` line or the end of the fence."""
    out: list[tuple[list[str], list[str]]] = []
    in_fence = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_fence, current = not in_fence, None
        elif in_fence and line.startswith("$ charzeros "):
            current = []
            out.append((shlex.split(line[len("$ charzeros "):]), current))
        elif current is not None:
            current.append(line)
    return [(argv, "\n".join(lines).rstrip("\n") + "\n") for argv, lines in out]


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(argv, expected, capsys):
    rc = main(argv)
    assert (rc, capsys.readouterr().out) == (0, expected)
