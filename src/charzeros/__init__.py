"""Exact character-table computation and vanishing-class analysis for finite groups.

The usual entry points:

    build(name)            a registry group and its validated character table
    character_table(g)     exact complex character table, rows of cyclotomics
    verify_table(t)        exact degree, Galois-law and orthogonality audit
    star_check(t, row)     vanishing-pattern test on one row
    classify_one_class(t)  faithful single-vanishing-class degrees vs expected

plus the integer-arithmetic side (zsigmondy, diophantine_solutions,
outer_bound_sweep, torus_orders) in charzeros.numtheory.
"""

from .chartab import CharacterTable, character_table, table_from_text, table_to_text, verify_table
from .constructions import build, registry_names
from .groupcore import Group, format_group_file, parse_group_file
from .numtheory import diophantine_solutions, outer_bound_sweep, torus_orders, zsigmondy
from .vanishing import (
    burnside_check,
    classify_one_class,
    simple_one_class_survey,
    star_check,
    star_survey,
    two_prime_degree_check,
    vanishing_classes,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "Group",
    "build",
    "burnside_check",
    "character_table",
    "classify_one_class",
    "diophantine_solutions",
    "format_group_file",
    "outer_bound_sweep",
    "parse_group_file",
    "registry_names",
    "simple_one_class_survey",
    "star_check",
    "star_survey",
    "table_from_text",
    "table_to_text",
    "torus_orders",
    "two_prime_degree_check",
    "vanishing_classes",
    "verify_table",
    "zsigmondy",
]
