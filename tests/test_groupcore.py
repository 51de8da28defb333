import itertools
import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from helpers import brute_normal_class_sets


def test_perm_primitives():
    a = parse_cycles("(1 2 3)", 4)
    b = parse_cycles("(3 4)", 4)
    assert a == bytes([1, 2, 0, 3])
    assert pmul(a, pinv(a)) == identity_perm(4)
    assert perm_order(a) == 3 and perm_order(b) == 2
    assert perm_order(pmul(a, b)) == 4
    assert pmul(a, pmul(a, a)) == identity_perm(4)
    assert pmul(a, a) == pinv(a)
    assert format_cycles(a) == "(1 2 3)"
    assert format_cycles(identity_perm(5)) == "()"


def test_bytes_perms_match_tuple_definitions():
    # products, inverses, orders and cycle notation on bytes agree with the
    # same maps on image tuples, at every degree the representation allows
    rng = random.Random(17)
    for n in range(1, 257):
        ts = [tuple(rng.sample(range(n), n)) for _ in range(3)]
        ts.append(tuple(range(1, n)) + (0,))  # an n-cycle
        ps = [bytes(t) for t in ts]
        for a, pa in zip(ts, ps):
            inv = [0] * n
            for i, x in enumerate(a):
                inv[x] = i
            assert pinv(pa) == bytes(inv)
            assert format_cycles(pa) == format_cycles(a)
            assert perm_order(pa) == perm_order(a)
            for b, pb in zip(ts, ps):
                assert pmul(pa, pb) == bytes(a[i] for i in b), n
        # class reps are lex-least members, so the orders must agree
        order = sorted(range(len(ts)), key=ts.__getitem__)
        assert sorted(range(len(ps)), key=ps.__getitem__) == order, n
    for n in range(1, 7):
        ts = sorted(itertools.permutations(range(n)))
        assert sorted(bytes(t) for t in reversed(ts)) == [bytes(t) for t in ts]


def test_degree_is_at_most_256():
    cycle = "(" + " ".join(str(p) for p in range(1, 257)) + ")"
    g = parse_group_file(f"degree 256\n{cycle}\n")
    assert g.order == 256 and g.num_classes == 256
    assert list(g.elements) == sorted(g.elements)
    assert g.elements[0] == identity_perm(256) and perm_order(g.elements[1]) == 256
    with pytest.raises(GroupFileError, match="exceeds the largest degree 256"):
        parse_group_file(f"degree 257\n{cycle}\n")
    with pytest.raises(ValueError, match="degree 300 exceeds 256"):
        Group([tuple(range(300))], degree=300)


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


# names the format can carry: one line, no comment sign, no outer blanks
_NAMES = st.text(st.sampled_from("AZaz09.:_,()+-* "), min_size=1, max_size=12).map(
    str.strip).filter(bool)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4),
    st.none() | _NAMES)))
@settings(max_examples=200, deadline=None)
def test_group_file_round_trip_random_generators(case):
    degree, gens, name = case
    g = Group(gens, degree=degree, name=name)
    h = parse_group_file(format_group_file(g))
    assert (h.degree, h.name, h.generators) == (degree, name, g.generators)


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
    for name in ["A5", "PSL(2,7)", "C12"]:
        g = get_group(name)
        rng = random.Random(13)
        elems = sorted(g.elements)
        for _ in range(60):
            x = rng.choice(elems)
            row = g.power_maps[g.class_index[x]]
            assert len(row) == perm_order(x)
            xk = identity_perm(g.degree)  # x^k by repeated products
            for k in range(2 * len(row)):
                assert row[k % len(row)] == g.class_index[xk], (name, k)
                xk = pmul(xk, x)
        for i, row in enumerate(g.power_maps):
            assert row[0] == 0 and row[1 % len(row)] == i
            assert g.power_maps[row[-1]][-1] == i  # the inverse of the inverse


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
    assert a5.class_set_order(a5.center_classes) == 1
    sl = get_group("SL(2,5)")
    assert sl.class_set_order(sl.center_classes) == 2
    assert len(sl.center_classes) == 2 and 0 in sl.center_classes
    assert all(sl.classes[i].size == 1 for i in sl.center_classes)
    assert {sl.classes[i].element_order for i in sl.center_classes} == {1, 2}
    assert get_group("C6").is_abelian


def test_normal_subgroups_match_brute(get_group):
    # the closure of one class is the least normal subgroup containing it
    for name in ["C1", "C4", "C6", "C12", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)"]:
        g = get_group(name)
        brute = brute_normal_class_sets(g)
        for c in range(g.num_classes):
            least = min((s for s in brute if c in s), key=g.class_set_order)
            assert g.closed_class_set({c}) == least, (name, c)


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
    assert not get_group("C1").is_quasisimple
    assert not get_group("PGL(2,5)").is_quasisimple


def test_is_quasisimple_builds_no_group(get_group, monkeypatch):
    # fresh groups, since building a registry group already asks the question
    fresh = [Group(g.generators, degree=g.degree) for g in
             map(get_group, ["A5", "SL(2,5)", "3.A6", "PSL(2,16)"])]

    def no_group(*args, **kwargs):
        raise AssertionError("a new Group was constructed")

    monkeypatch.setattr(Group, "__init__", no_group)
    assert all(g.is_quasisimple for g in fresh)


def test_perfect_direct_square_is_not_quasisimple():
    # A5 x A5 on 10 points: perfect with trivial centre, but each factor is
    # a proper nontrivial normal subgroup
    gens = [parse_cycles(c, 10) for c in
            ("(1 2 3 4 5)", "(1 2 3)", "(6 7 8 9 10)", "(6 7 8)")]
    g = Group(gens, degree=10)
    assert g.order == 3600 and g.center_classes == frozenset([0])
    assert g.is_perfect
    assert not g.is_quasisimple and not g.is_simple
    for x in gens:
        assert g.class_set_order(g.closed_class_set({g.class_index[x]})) == 60


def test_class_members_share_element_objects(get_group):
    for name in ["A5", "PSL(2,7)", "SL(2,5)"]:
        g = get_group(name)
        stored = {id(x) for x in g.elements}
        assert all(id(x) in stored for c in g.classes for x in c.members), name
        assert all(id(x) in stored for x in g.class_index), name


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
