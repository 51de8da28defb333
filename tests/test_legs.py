"""Every leg of the command-line table `check_interpreters.LEGS`, run in this
process through `cli.main`; and what the table must hold."""
import pytest

from check_interpreters import LEGS
from charzeros import cli

# The legs that CI times on the installed console script, with their limits
# in seconds: none may be dropped or given longer.
TIMED = {
    "numtheory outer-bound --bound 10000000 --format json": 5,
    "numtheory zsigmondy 1000003 60": 5, "numtheory zsigmondy 10000000019 97": 5,
    "numtheory torus E8 8 1000003 --format json": 5, "numtheory torus A 1000 2 --format json": 5,
    "numtheory zsigmondy 2 100000": 5, "numtheory zsigmondy 13 19": 5, "table c2_16.txt": 5,
    "table 251/frob.txt": 5, "table 229/frob.txt": 5, "table psl.txt": 5, "verify c2_7.tbl": 5,
    "numtheory diophantine --part C --bound 10^4000 --format json": 10,
    "numtheory zsigmondy 43 23": 10, "table c2_6.txt": 10, "F_1024": 10,
}


@pytest.mark.parametrize("name", LEGS)
def test_leg(name, check_legs):
    check_legs(name)


def test_the_table_covers_each_command_exit_code_and_timed_leg():
    cli._build_parser()  # fills cli._COMMANDS
    assert len(cli._COMMANDS) == 12
    answered = [leg.words() for leg in LEGS.values() if leg.rc == 0]
    assert [words for words in cli._COMMANDS
            if not any(w[:len(words)] == words for w in answered)] == []
    assert {1, 2} <= {leg.rc for leg in LEGS.values()}
    assert {name: LEGS[name].timeout for name in TIMED if name in LEGS} == TIMED
