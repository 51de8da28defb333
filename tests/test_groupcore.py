import itertools
import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charzeros
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
from helpers import brute_classes, brute_normal_class_sets


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
    elems = sorted(g.elements)  # the 256 shifts, the k-th power k-th in lex order
    assert elems == [bytes((i + k) % 256 for i in range(256)) for k in range(256)]
    assert elems[0] == identity_perm(256) and perm_order(elems[1]) == 256
    assert [c.rep for c in g.classes] == [elems[0], *sorted(elems[1:], key=perm_order)]
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
_SAFE = "AZaz09.:_,()+-* "
_NAMES = st.text(st.sampled_from(_SAFE), min_size=1, max_size=12).map(
    str.strip).filter(bool)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4),
    st.none() | _NAMES | st.text(max_size=12))))
@settings(max_examples=300, deadline=None)
def test_group_file_round_trip_random_generators(case):
    # every name reads back the same or is refused, and only a name outside
    # the alphabet above (or empty, or padded) is refused
    degree, gens, name = case
    g = Group(gens, degree=degree, name=name)
    try:
        text = format_group_file(g)
    except GroupFileError:
        assert not name or name != name.strip() or not set(name) <= set(_SAFE), name
        return
    h = parse_group_file(text)
    assert (h.degree, h.name, h.generators) == (degree, name, g.generators)


@pytest.mark.parametrize("name", ["a#b", " pad ", "a\x85b"])
def test_group_file_refuses_names_it_cannot_carry(name):
    # written verbatim, these read back as "a", "pad" and a parse error
    g = Group([(1, 0)], degree=2, name=name)
    with pytest.raises(GroupFileError, match="cannot carry the name"):
        format_group_file(g)


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
            assert c.rep == min(c.members) and c.members[0] is c.rep


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


def test_order_budget_boundary(get_group):
    # the budget is exact, and the store stops short of it: the check runs
    # before a coset is filled (the store is read off the raising frame)
    for name in ["C1", "C12", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)", "3.A6"]:
        g = get_group(name)
        assert Group(g.generators, degree=g.degree, max_order=g.order).order == g.order
        with pytest.raises(OrderBudgetExceeded,
                           match=f"^group exceeds order budget {g.order - 1}$") as info:
            Group(g.generators, degree=g.degree, max_order=g.order - 1).elements
        tb = info.tb
        while tb.tb_next:
            tb = tb.tb_next
        held = tb.tb_frame.f_locals.get("store", ())  # C1 raises before making one
        assert len(held) <= g.order - 1, name


def test_redundant_generators_change_nothing(get_group):
    a5 = get_group("A5")
    s, t = a5.generators
    gens = (s, t, pmul(s, t), identity_perm(5), t)
    g = Group(gens, degree=5)
    assert g.generators == gens  # kept as given, so a group file lists all five
    assert [(c.rep, c.size, c.element_order) for c in g.classes] == [
        (c.rep, c.size, c.element_order) for c in a5.classes]
    assert g.class_index == a5.class_index


def test_classes_match_brute_scan(corpus, get_group):
    for name in corpus:
        g = get_group(name)
        assert [(c.element_order, c.size, c.rep) for c in g.classes] == brute_classes(g), name


def test_classes_do_not_depend_on_hash_order():
    # dict and set order of bytes keys could follow the per-process hash seed
    script = ("from charzeros.constructions import build\n"
              "for name in ('PSL(2,7)', 'SL(2,5)', '3.A6'):\n"
              "    for c in build(name).classes:\n"
              "        print(name, c.size, c.rep.hex(), *(x.hex() for x in c.members))\n")
    src = str(Path(charzeros.__file__).parents[1])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": src,
                                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1] and outs[0].count("\n") == 6 + 9 + 17


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
