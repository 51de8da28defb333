"""Exact character-table computation and vanishing-class analysis for finite groups.

The usual entry points:

    build(name)            a registry group and its validated character table
    character_table(g)     exact complex character table, rows of cyclotomics
    verify_table(t)        exact degree, Galois-law and orthogonality audit
    star_check(t, row)     vanishing-pattern test on one row
    classify_one_class(t)  faithful single-vanishing-class degrees vs expected

plus the integer-arithmetic side (zsigmondy, diophantine_solutions,
outer_bound_sweep, torus_orders) in charzeros.numtheory.

`import charzeros` loads no submodule: each public name imports its module
on first use (a module `__getattr__`, PEP 562) and is then kept here, so a
caller loads only the code it reaches.  `registry_names()` loads the
registry without the table code, and `charzeros.numtheory` imports without
it too, as it imports no other module of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that each public name is read from
_HOME = {name: module for module, names in {
    "chartab": ("CharacterTable", "character_table", "table_from_text", "table_to_text",
                "verify_table"),
    "constructions": ("build", "registry_names"),
    "groupcore": ("Group", "format_group_file", "parse_group_file"),
    "numtheory": ("diophantine_solutions", "outer_bound_sweep", "torus_orders", "zsigmondy"),
    "vanishing": ("burnside_check", "classify_one_class", "simple_one_class_survey",
                  "star_check", "star_survey", "two_prime_degree_check", "vanishing_classes"),
}.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, read from its module on first use and then kept here,
    so that each later use is a plain attribute read."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
