import random
from math import lcm

import pytest

from charzeros.constructions import build
from charzeros.groupcore import (
    Group,
    GroupFileError,
    NotBijection,
    OrderBudgetExceeded,
    format_cycles,
    format_group_file,
    identity_perm,
    parse_cycles,
    parse_group_file,
    perm_order,
    pinv,
    pmul,
    ppow,
)
from helpers import brute_normal_class_sets


def test_perm_primitives():
    a = parse_cycles("(1 2 3)", 4)
    b = parse_cycles("(3 4)", 4)
    assert a == (1, 2, 0, 3)
    assert pmul(a, pinv(a)) == identity_perm(4)
    assert perm_order(a) == 3 and perm_order(b) == 2
    assert perm_order(pmul(a, b)) == 4
    assert ppow(a, 3) == identity_perm(4)
    assert ppow(a, -1) == pinv(a)
    assert format_cycles(a) == "(1 2 3)"
    assert format_cycles(identity_perm(5)) == "()"


def test_pmul_convention():
    # pmul(a, b) applies b first: (a*b)(x) = a(b(x))
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    ab = pmul(a, b)
    assert ab[2 - 1] == 3 - 1  # b sends 2 to 3, a fixes 3


def test_parse_cycles_rejections():
    with pytest.raises(NotBijection):
        parse_cycles("(1 1 2)", 3)
    with pytest.raises(GroupFileError):
        parse_cycles("(1 5)", 3)
    with pytest.raises(GroupFileError):
        parse_cycles("(1 2", 3)
    with pytest.raises(GroupFileError):
        parse_cycles("(0 1)", 3)


def test_group_file_round_trip():
    g = build("PSL(2,7)")
    text = format_group_file(g)
    h = parse_group_file(text)
    assert h.order == g.order and h.name == g.name and h.degree == g.degree


def test_group_file_rejections():
    with pytest.raises(GroupFileError):
        parse_group_file("degree 3\ndegree 3\n(1 2)\n")
    with pytest.raises(GroupFileError):
        parse_group_file("(1 2)\ndegree 3\n")
    with pytest.raises(GroupFileError):
        parse_group_file("")
    with pytest.raises(NotBijection):
        parse_group_file("degree 3\n(1 1 2)\n")


def test_class_equation(corpus, get_group):
    for name in ["C6", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)"]:
        g = get_group(name)
        sizes = [c.size for c in g.classes]
        assert sum(sizes) == g.order
        for c in g.classes:
            assert g.order % c.size == 0
            assert len(c.members) == c.size and c.members[0] == c.rep


def test_class_canon_ordering(get_group):
    for name in ["A5", "SL(2,5)", "PSL(2,7)", "C12"]:
        g = get_group(name)
        keys = [(c.element_order, c.size, c.rep) for c in g.classes]
        assert keys == sorted(keys)
        assert g.classes[0].element_order == 1 and g.classes[0].size == 1


def test_conjugation_invariance(get_group):
    g = get_group("A5")
    rng = random.Random(11)
    elems = sorted(g.elements)
    for _ in range(100):
        x, h = rng.choice(elems), rng.choice(elems)
        assert g.class_index[x] == g.class_index[pmul(pmul(h, x), pinv(h))]


def test_power_map(get_group):
    g = get_group("A5")
    rng = random.Random(13)
    elems = sorted(g.elements)
    for _ in range(60):
        x = rng.choice(elems)
        i = g.class_index[x]
        for k in range(5):
            assert g.power_class(i, k) == g.class_index[ppow(x, k)]
    for i in range(g.num_classes):
        assert g.power_class(i, 1) == i
        assert g.power_class(i, g.exponent) == 0
        assert g.inverse_class(g.inverse_class(i)) == i


def test_exponent():
    g = build("A5")
    assert g.exponent == lcm(*(c.element_order for c in g.classes)) == 30


def test_derived_and_perfect(get_group):
    assert get_group("A5").is_perfect
    assert get_group("SL(2,5)").is_perfect
    c6 = get_group("C6")
    assert not c6.is_perfect
    assert c6.class_set_order(c6.derived_classes) == 1
    pgl = get_group("PGL(2,5)")
    assert pgl.class_set_order(pgl.derived_classes) == 60


def test_center(get_group):
    a5 = get_group("A5")
    assert len(a5.class_set_elements(a5.center_classes)) == 1
    sl = get_group("SL(2,5)")
    assert len(sl.class_set_elements(sl.center_classes)) == 2
    assert len(sl.center_classes) == 2 and 0 in sl.center_classes
    assert all(sl.classes[i].size == 1 for i in sl.center_classes)
    assert {sl.classes[i].element_order for i in sl.center_classes} == {1, 2}
    assert get_group("C6").is_abelian


def test_normal_subgroups_match_brute(get_group):
    for name in ["C1", "C4", "C6", "C12", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)"]:
        g = get_group(name)
        got = set(g.normal_subgroups())
        assert got == brute_normal_class_sets(g), name


def test_is_simple(get_group):
    assert get_group("A5").is_simple
    assert get_group("C5").is_simple
    assert not get_group("C6").is_simple
    assert not get_group("C1").is_simple
    assert not get_group("SL(2,5)").is_simple
    assert not get_group("PGL(2,5)").is_simple


def test_is_quasisimple(get_group):
    assert get_group("SL(2,5)").is_quasisimple
    assert get_group("A5").is_quasisimple
    assert not get_group("C6").is_quasisimple
    assert not get_group("PGL(2,5)").is_quasisimple


def test_quotient(get_group):
    sl = get_group("SL(2,5)")
    q = sl.quotient(sl.center_classes)
    assert q.order == 60 and q.is_simple
    # cosets of the centre, numbered in order of their lex-least members
    elems = sorted(sl.elements)
    centre = sl.class_set_elements(sl.center_classes)
    coset_of: dict[tuple, int] = {}
    reps: list[tuple] = []
    for g in elems:
        if g not in coset_of:
            for x in centre:
                coset_of[pmul(g, x)] = len(reps)
            reps.append(g)
    # the coset partition is a congruence
    rng = random.Random(17)
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert coset_of[pmul(a, b)] == coset_of[pmul(reps[coset_of[a]], reps[coset_of[b]])]
    # each quotient generator is the induced action on those cosets
    for a, image in zip(sl.generators, q.generators):
        assert image == tuple(coset_of[pmul(a, r)] for r in reps)


def test_quotient_rejects_non_normal():
    g = build("A5")
    with pytest.raises(ValueError):
        g.quotient({0, 1})


def test_order_budget():
    gens = [parse_cycles("(1 2 3 4 5 6 7)", 10), parse_cycles("(8 9 10)", 10)]
    with pytest.raises(OrderBudgetExceeded):
        _ = Group(gens, degree=10, max_order=10).order


def test_closed_class_set(get_group):
    g = get_group("SL(2,5)")
    z = next(i for i in range(1, g.num_classes) if g.classes[i].size == 1)
    assert g.class_set_order(g.closed_class_set([z])) == 2
    a5 = get_group("A5")
    for i in range(1, a5.num_classes):
        assert a5.class_set_order(a5.closed_class_set([i])) == 60
