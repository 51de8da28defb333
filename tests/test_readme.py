"""Every `$ charzeros ...` example in README.md reproduces its printed output:
each is a leg of `check_interpreters.LEGS`, read from README.md."""
import pytest

from check_interpreters import LEGS, README

EXAMPLES = [name for name, leg in LEGS.items() if leg.why == README]


def test_readme_has_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("name", EXAMPLES,
                         ids=[" ".join(LEGS[name].words()) for name in EXAMPLES])
def test_readme_example(name, check_legs):
    check_legs(name)
