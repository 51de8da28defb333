import itertools
import os
import random
import re
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charzeros
from charzeros import groupcore
from charzeros.chartab import (
    central_classes,
    character_table,
    derived_classes,
    is_quasisimple,
    is_simple,
    kernel_of,
)
from charzeros.constructions import build
from charzeros.groupcore import (
    Group,
    GroupFileError,
    BudgetExceeded,
    canonical_cycle_points,
    format_cycles,
    format_group_file,
    identity_perm,
    parse_cycles,
    parse_group_file,
    perm_cycles,
    perm_order,
    pinv,
)
from helpers import brute_classes, brute_normal_class_sets, pmul


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
    assert g.order == 256
    elems = sorted(g.elements)  # the 256 shifts, the k-th power k-th in lex order
    assert elems == [bytes((i + k) % 256 for i in range(256)) for k in range(256)]
    assert elems[0] == identity_perm(256) and perm_order(elems[1]) == 256
    # 256 classes pass the class ceiling; the aborted scan leaves no class numbers
    with pytest.raises(BudgetExceeded, match="^more than 64 conjugacy classes"):
        g.classes
    assert set(g.elements.values()) == {-1}
    # the 4th power of the cycle: degree 256 and 64 classes, at the ceiling
    h = Group([elems[4]], degree=256)
    assert h.order == 64 and h.num_classes == 64
    assert [c.rep for c in h.classes] == [elems[0], *sorted(elems[4::4], key=perm_order)]
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
    with pytest.raises(GroupFileError, match="point 1 repeated"):
        parse_cycles("(1 1 2)", 3)
    with pytest.raises(GroupFileError):
        parse_cycles("(1 5)", 3)
    with pytest.raises(GroupFileError):
        parse_cycles("(1 2", 3)
    with pytest.raises(GroupFileError):
        parse_cycles("(0 1)", 3)


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
def test_canonical_cycles_read_back_what_format_cycles_writes(images):
    a = bytes(images)
    assert canonical_cycle_points(format_cycles(a)) == list(map(list, perm_cycles(a)))


def test_group_file_round_trip():
    g, _ = build("PSL(2,7)")
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
    else:
        h = parse_group_file(text)
        assert (h.degree, h.name, h.generators) == (degree, name, g.generators)
    # a file that spells the name out as it is (None: a bare `name` line)
    # loads only as a group whose file reads back the same
    spelled = "\n".join([f"degree {degree}", f"name {name or ''}",
                         *map(format_cycles, g.generators)])
    try:
        h = parse_group_file(spelled)
    except GroupFileError:
        return
    again = parse_group_file(format_group_file(h))
    assert (again.degree, again.name, again.generators) == (h.degree, h.name, h.generators)


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
    with pytest.raises(GroupFileError, match="point 1 repeated"):
        parse_group_file("degree 3\n(1 1 2)\n")


@pytest.mark.parametrize("text, why", [
    ("degree 0\n", "degree must be >= 1"),
    ("name X\ndegree 3\n", "degree must come first"),
    ("degree 3\nname X\nname Y\n", "duplicate name directive"),
    ("degree 3\nname   # none\n", "empty name directive"),
    ("degree x\n", "bad degree directive: 'degree x'"),
    ("degree 2000\n", "degree 2000 exceeds the order budget 1000"),
    ("degree 257\n", "degree 257 exceeds the largest degree 256"),
    ("# no directive\n\n", "missing degree directive"),
])
def test_group_file_refusals_name_the_fault(text, why):
    with pytest.raises(GroupFileError, match=f"^{re.escape(why)}$"):
        parse_group_file(text, max_order=1000)


def test_group_refuses_generators_that_are_not_bijections():
    with pytest.raises(ValueError, match=r"^image list is not a bijection on 0\.\.1$"):
        Group([(0, 0)], degree=2)


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
    g, _ = build("A5")
    assert g.exponent == lcm(*(c.element_order for c in g.classes)) == 30


def _order(t, classes) -> int:
    return sum(t.classes[j].size for j in classes)


def _kernel_intersections(t) -> set[frozenset[int]]:
    """Every intersection of row kernels, as a set of class indices."""
    out = {frozenset(range(len(t.classes)))}
    for i in range(len(t.rows)):
        k = frozenset(kernel_of(t, i))
        out |= {s & k for s in out}
    return out


def _normal_closure(t, c: int) -> frozenset[int]:
    """The least normal subgroup containing class c: the intersection of the
    kernels that contain it."""
    return frozenset.intersection(*(s for s in _kernel_intersections(t) if c in s))


def test_derived_and_perfect(get_table):
    for name in ["A5", "SL(2,5)"]:  # perfect
        t = get_table(name)
        assert derived_classes(t) == tuple(range(len(t.classes))), name
    c6 = get_table("C6")
    assert derived_classes(c6) == (0,) and _order(c6, derived_classes(c6)) == 1
    pgl = get_table("PGL(2,5)")
    assert _order(pgl, derived_classes(pgl)) == 60


def test_center(get_table):
    a5 = get_table("A5")
    assert _order(a5, central_classes(a5)) == 1
    sl = get_table("SL(2,5)")
    z = central_classes(sl)
    assert _order(sl, z) == 2
    assert len(z) == 2 and 0 in z
    assert {sl.classes[i].element_order for i in z} == {1, 2}
    c6 = get_table("C6")  # abelian: every class central, every row linear
    assert central_classes(c6) == tuple(range(6))
    assert all(c6.degree(i) == 1 for i in range(6))


def test_normal_subgroups_match_brute(get_group, get_table):
    # the normal subgroups are exactly the intersections of row kernels
    for name in ["C1", "C4", "C6", "C12", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)"]:
        brute = brute_normal_class_sets(get_group(name))
        t = get_table(name)
        assert _kernel_intersections(t) == brute, name
        for c in range(len(t.classes)):
            least = min((s for s in brute if c in s), key=lambda s: _order(t, s))
            assert _normal_closure(t, c) == least, (name, c)


def test_is_simple(get_table):
    assert is_simple(get_table("A5"))
    assert is_simple(get_table("C5"))
    assert not is_simple(get_table("C6"))
    assert not is_simple(get_table("C1"))
    assert not is_simple(get_table("SL(2,5)"))
    assert not is_simple(get_table("PGL(2,5)"))


def test_is_quasisimple(get_table):
    assert is_quasisimple(get_table("SL(2,5)"))
    assert is_quasisimple(get_table("A5"))
    assert not is_quasisimple(get_table("C6"))
    assert not is_quasisimple(get_table("C1"))
    assert not is_quasisimple(get_table("PGL(2,5)"))


def test_trivial_group_is_not_quasisimple(get_table):
    # C1 has one linear row and no nontrivial kernel to leave Z(G): only
    # Z(G) = G, one class out of one, keeps it from counting as quasisimple
    t = get_table("C1")
    assert len(t.rows) == len(central_classes(t)) == 1 and t.degree(0) == 1
    assert not is_quasisimple(t) and not is_simple(t)


def test_is_quasisimple_builds_no_group(get_group, monkeypatch):
    # fresh groups, so that the tables are computed here and not reused
    fresh = [Group(g.generators, degree=g.degree) for g in
             map(get_group, ["A5", "SL(2,5)", "3.A6", "PSL(2,16)"])]

    def no_group(*args, **kwargs):
        raise AssertionError("a new Group was constructed")

    monkeypatch.setattr(Group, "__init__", no_group)
    assert all(is_quasisimple(character_table(g)) for g in fresh)


def test_perfect_direct_square_is_not_quasisimple():
    # A5 x A5 on 10 points: perfect with trivial centre, but each factor is
    # a proper nontrivial normal subgroup
    gens = [parse_cycles(c, 10) for c in
            ("(1 2 3 4 5)", "(1 2 3)", "(6 7 8 9 10)", "(6 7 8)")]
    g = Group(gens, degree=10)
    t = character_table(g)
    assert g.order == 3600 and central_classes(t) == (0,)
    assert derived_classes(t) == tuple(range(len(t.classes)))
    assert not is_quasisimple(t) and not is_simple(t)
    for x in gens:
        assert _order(t, _normal_closure(t, g.class_index[x])) == 60


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
        with pytest.raises(BudgetExceeded,
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


def _power(z: bytes, k: int) -> bytes:
    y = identity_perm(len(z))
    for _ in range(k):
        y = pmul(z, y)
    return y


def test_galois_fill(get_group, monkeypatch):
    # a class found by the scan fills each Galois conjugate class
    # {z^k : z in C} with no scan of its own; S is the k with x^k in C
    filled = []

    def spy(store, x, o):
        new = real(store, x, o)
        filled.extend((x, k, xk) for k, xk in new)
        return new

    real = groupcore._new_conjugates
    monkeypatch.setattr(groupcore, "_new_conjugates", spy)
    for name, o, stab, ks in (
            ("PSL(2,7)", 7, {1, 2, 4}, [3]),  # 7A/7B, a non-real pair
            ("Sz(8)", 13, {1, 5, 8, 12}, [2, 4]),  # 13A/B/C, S a proper subgroup
            ("3.A6", 3, {1}, [2])):  # the two non-identity central classes
        src = get_group(name)
        g = Group(src.generators, degree=src.degree)
        filled.clear()
        classes, store = g.classes, {id(x) for x in g.elements}
        cases = [(x, k, xk) for x, k, xk in filled if perm_order(x) == o
                 and (o != 3 or classes[g.class_index[x]].size == 1)]
        assert [k for _, k, _ in cases] == ks, name
        for x, k, xk in cases:
            i = g.class_index[x]
            assert {j for j in range(o) if g.power_maps[i][j] == i} == stab, name
            source, c = classes[i], classes[g.class_index[xk]]
            assert set(c.members) == {_power(z, k) for z in source.members}, (name, k)
            assert len(c.members) == c.size == source.size
            assert c.rep == min(c.members) and c.members[0] is c.rep
            assert all(id(y) in store for y in c.members), (name, k)


def test_classes_match_brute_scan(corpus, get_group):
    for name in corpus:
        g = get_group(name)
        assert [(c.element_order, c.size, c.rep) for c in g.classes] == brute_classes(g), name


def test_classes_do_not_depend_on_hash_order():
    # dict and set order of bytes keys could follow the per-process hash seed
    script = ("from charzeros.constructions import build\n"
              "for name in ('PSL(2,7)', 'SL(2,5)', '3.A6'):\n"
              "    for c in build(name)[0].classes:\n"
              "        print(name, c.size, c.rep.hex(), *(x.hex() for x in c.members))\n")
    src = str(Path(charzeros.__file__).parents[1])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": src,
                                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1] and outs[0].count("\n") == 6 + 9 + 17


def test_order_budget():
    gens = [parse_cycles("(1 2 3 4 5 6 7)", 10), parse_cycles("(8 9 10)", 10)]
    with pytest.raises(BudgetExceeded):
        _ = Group(gens, degree=10, max_order=10).order


def test_closed_class_set(get_table):
    t = get_table("SL(2,5)")
    z = next(i for i in range(1, len(t.classes)) if t.classes[i].size == 1)
    assert _order(t, _normal_closure(t, z)) == 2
    a5 = get_table("A5")
    for i in range(1, len(a5.classes)):
        assert _order(a5, _normal_closure(a5, i)) == 60
