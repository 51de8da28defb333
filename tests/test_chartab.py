import dataclasses
import json
import math
import random

import pytest

from charzeros.chartab import (
    BudgetExceeded,
    TableFileError,
    _min_poly,
    character_table,
    is_faithful,
    kernel_of,
    table_from_text,
    table_to_text,
    verify_table,
)
from charzeros.constructions import build
from charzeros.cyclo import CycloNum
from charzeros.groupcore import pmul
from helpers import brute_min_poly_degree

SMALL = ["C1", "C2", "C5", "C6", "C12", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)"]


def brute_tensor(group):
    counts = {}
    cls = group.class_index
    reps = [c.rep for c in group.classes]
    rep_pos = {r: k for k, r in enumerate(reps)}
    for x in sorted(group.elements):
        for y in sorted(group.elements):
            z = pmul(x, y)
            if z in rep_pos:
                key = (cls[x], cls[y], rep_pos[z])
                counts[key] = counts.get(key, 0) + 1
    return counts


def test_class_tensor_matches_brute():
    # PSL(2,7) has the non-real classes 7A/7B, where C_i and its inverse differ
    for name in ["C6", "A5", "PSL(2,7)"]:
        g = build(name)
        brute = brute_tensor(g)
        r = g.num_classes
        for i in range(r):
            a = g.class_matrix(i)
            for j in range(r):
                for k in range(r):
                    assert a[j][k] == brute.get((i, j, k), 0), (name, i, j, k)


def test_class_tensor_cyclic3():
    g = build("C3")
    # classes are ordered identity, shift, shift^2, so indices add mod 3
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert g.class_matrix(i)[j][k] == (1 if (i + j) % 3 == k else 0)


def test_class_matrix_columns_sum_to_class_size(corpus, get_group):
    # each x in C_i meets exactly one y with x*y = rep_k
    for name in corpus:
        g = get_group(name)
        if g.order > 200:
            continue
        for i, c in enumerate(g.classes):
            a = g.class_matrix(i)
            assert all(sum(row[k] for row in a) == c.size
                       for k in range(g.num_classes)), (name, i)


def _sample_matrices(rng, l):
    """Seeded matrices up to 8x8 over F_l: dense random ones, whose minimal
    polynomial is usually the characteristic one, and structured ones
    (repeated diagonal values, repeated blocks, rank one, scalars) whose
    minimal polynomial is a proper lcm of the Krylov annihilators."""
    for d in range(1, 9):
        yield [[rng.randrange(l) for _ in range(d)] for _ in range(d)]
        vals = [rng.randrange(3) for _ in range(d)]
        yield [[vals[i] if i == j else 0 for j in range(d)] for i in range(d)]
        u = [rng.randrange(l) for _ in range(d)]
        v = [rng.randrange(l) for _ in range(d)]
        yield [[x * y % l for y in v] for x in u]
        yield [[7 * (i == j) for j in range(d)] for i in range(d)]
        if d % 2 == 0:
            h = d // 2
            blk = [[rng.randrange(l) for _ in range(h)] for _ in range(h)]
            yield [[blk[i % h][j % h] if i // h == j // h else 0
                    for j in range(d)] for i in range(d)]


def test_min_poly_matches_brute():
    l = 101
    rng = random.Random(7)
    for b in _sample_matrices(rng, l):
        d = len(b)
        mp = _min_poly(b, l)
        assert mp[0] == 1  # monic, descending coefficients
        assert len(mp) - 1 == brute_min_poly_degree(b, l), b
        acc = [[0] * d for _ in range(d)]  # Horner: acc = acc*B + c*I
        for c in mp:
            acc = [[(sum(acc[i][t] * b[t][j] for t in range(d)) + c * (i == j)) % l
                    for j in range(d)] for i in range(d)]
        assert not any(any(row) for row in acc), b


def _degrees(t):
    return [t.degree(i) for i in range(len(t.rows))]


def test_cyclic_tables_are_root_powers(get_table, get_group):
    for n in (2, 3, 4, 6, 12):
        t = get_table(f"C{n}")
        g = get_group(f"C{n}")
        exps = [c.rep[0] for c in g.classes]  # image of point 0 is the power
        want = set()
        for row_pow in range(n):
            want.add(tuple(CycloNum.root_of_unity(n, (row_pow * e) % n).embed(t.exponent)
                           for e in exps))
        assert set(tuple(r) for r in t.rows) == want
        assert _degrees(t) == [1] * n


def test_degree_pins(get_table):
    assert _degrees(get_table("A5")) == [1, 3, 3, 4, 5]
    assert _degrees(get_table("PSL(2,7)")) == [1, 3, 3, 6, 7, 8]
    assert _degrees(get_table("SL(2,5)")) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    # q even: q/2 characters of degree q-1 and (q-2)/2 of degree q+1
    assert _degrees(get_table("PSL(2,8)")) == [1, 7, 7, 7, 7, 8, 9, 9, 9]
    assert _degrees(get_table("A6")) == [1, 5, 5, 8, 8, 9, 10]


def test_degrees_divide_order(get_table):
    for name in SMALL + ["PSL(2,8)", "PGL(2,9)", "A6"]:
        t = get_table(name)
        for d in _degrees(t):
            assert t.order % d == 0, name


def test_row_canon(get_table):
    for name in SMALL:
        t = get_table(name)
        assert all(v == 1 for v in t.rows[0])
        assert _degrees(t) == sorted(_degrees(t))


def test_verify_table_passes(get_table):
    for name in SMALL:
        rep = verify_table(get_table(name))
        assert rep.ok and rep.violations == ()


def test_verify_table_catches_tampered_entry(get_table):
    t = get_table("PSL(2,7)")
    rows = [list(r) for r in t.rows]
    rows[2][1], rows[2][2] = rows[2][2], rows[2][1]
    bad = dataclasses.replace(t, rows=tuple(tuple(r) for r in rows))
    rep = verify_table(bad)
    assert not rep.ok
    assert any(v.startswith(("row-orth", "col-orth")) for v in rep.violations)


def test_verify_table_catches_degree_tamper(get_table):
    t = get_table("C5")
    rows = [list(r) for r in t.rows]
    rows[1][0] = rows[1][0] * 2
    bad = dataclasses.replace(t, rows=tuple(tuple(r) for r in rows))
    rep = verify_table(bad)
    assert not rep.ok
    assert any(v.startswith("degree-sum") for v in rep.violations)
    assert any(v.startswith("row-orth") for v in rep.violations)


def test_verify_table_catches_non_integral(get_table):
    from fractions import Fraction

    t = get_table("C2")
    rows = [list(r) for r in t.rows]
    rows[1][1] = rows[1][1] * Fraction(1, 2)
    bad = dataclasses.replace(t, rows=tuple(tuple(r) for r in rows))
    rep = verify_table(bad)
    assert any(v.startswith("integrality") for v in rep.violations)


def test_kernels(get_table):
    a5 = get_table("A5")
    assert kernel_of(a5, 0) == tuple(range(5))
    assert all(is_faithful(a5, i) for i in range(1, 5))
    sl = get_table("SL(2,5)")
    faithful = [i for i in range(9) if is_faithful(sl, i)]
    assert [sl.degree(i) for i in faithful] == [2, 2, 4, 6]
    c6 = get_table("C6")
    assert sum(is_faithful(c6, i) for i in range(6)) == 2


def test_galois_stability(get_table):
    for name in ["C12", "A5", "SL(2,5)", "PSL(2,7)", "PSL(2,8)"]:
        t = get_table(name)
        m = t.exponent
        rows = set(tuple(r) for r in t.rows)
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                continue
            for row in t.rows:
                assert tuple(v.galois(k) for v in row) in rows, (name, k)


def test_table_class_powers(get_table, get_group):
    for name in ["A5", "SL(2,5)"]:
        t = get_table(name)
        g = get_group(name)
        for j, c in enumerate(t.classes):
            assert c.powers == tuple(g.power_class(j, k) for k in range(c.element_order))
            assert c.power(c.element_order) == c.powers[0] == 0
            assert c.power(-1) == g.inverse_class(j)


def test_second_orthogonality_with_inverse_classes(get_table):
    # sum over rows of chi(g) chi(h) is zero unless h is conjugate to g^-1
    t = get_table("PSL(2,7)")
    r = len(t.classes)
    for k in range(r):
        for kk in range(r):
            acc = CycloNum.zero(1)
            for row in t.rows:
                acc = acc + row[k] * row[kk]
            want = t.order // t.classes[k].size if t.classes[k].power(-1) == kk else 0
            assert acc == want


def test_determinism_and_seed_field(get_group):
    g = build("PSL(2,7)")
    t0 = character_table(g, seed=0)
    t0b = character_table(g, seed=0)
    assert table_to_text(t0) == table_to_text(t0b)
    t1 = character_table(g, seed=1)
    assert t1.seed == 1
    assert t0.rows == t1.rows  # canonical order hides the split path


def test_budget():
    g = build("C12")
    with pytest.raises(BudgetExceeded):
        character_table(g, class_budget=5)


def test_file_round_trip(get_table):
    for name in ["C6", "PSL(2,7)", "SL(2,5)"]:
        t = get_table(name)
        text = table_to_text(t)
        again = table_from_text(text)
        assert table_to_text(again) == text
        assert again == t


def test_file_rejections(get_table):
    t = get_table("C6")
    good = json.loads(table_to_text(t))

    def broken(**changes):
        obj = json.loads(table_to_text(t))
        obj.update(changes)
        return json.dumps(obj)

    with pytest.raises(TableFileError):
        table_from_text("not json at all")
    with pytest.raises(TableFileError):
        table_from_text(broken(format="chartab/999"))
    with pytest.raises(TableFileError):
        table_from_text(broken(order=good["order"] + 1))
    obj = json.loads(table_to_text(t))
    obj["rows"][1] = obj["rows"][1][:-1]
    with pytest.raises(TableFileError):
        table_from_text(json.dumps(obj))
    obj = json.loads(table_to_text(t))
    obj["rows"][1][1]["c"][0][1] += 1  # still parses, not canonical any more?
    # a coefficient change keeps canonical form; it must fail verification
    tampered = table_from_text(json.dumps(obj))
    assert not verify_table(tampered).ok
    obj = json.loads(table_to_text(t))
    obj["rows"][1][1]["m"] = 5  # wrong level for the table exponent
    with pytest.raises(TableFileError):
        table_from_text(json.dumps(obj))
    obj = json.loads(table_to_text(t))
    obj["classes"][1]["size"] = 2  # breaks size * centralizer == order
    with pytest.raises(TableFileError):
        table_from_text(json.dumps(obj))


def test_file_rejects_inconsistent_class_data(get_table):
    text = table_to_text(get_table("A5"))

    def rejected(edit):
        obj = json.loads(text)
        edit(obj["classes"], obj)
        with pytest.raises(TableFileError):
            table_from_text(json.dumps(obj))

    def relabel_3a_as_order_2(cls, obj):
        # the power map [0, 2] stays consistent; only the rep's order is wrong
        cls[2].update(order=2, powers=cls[2]["powers"][:2])

    rejected(relabel_3a_as_order_2)
    rejected(lambda cls, obj: cls[1].update(powers=[1, 1]))
    rejected(lambda cls, obj: cls[3].update(powers=[0, 3, 4, 4, 2]))  # 5A^4 of order 3
    rejected(lambda cls, obj: cls[1].update(rep="(1 2 3)"))
    rejected(lambda cls, obj: cls[1].update(rep="(1 2)(2 3)"))
    rejected(lambda cls, obj: cls[1].update(rep="(0 1)(2 3)"))
    rejected(lambda cls, obj: cls[1].update(rep="(1 2)(3 4"))
    rejected(lambda cls, obj: obj.update(exponent=60))
    rejected(lambda cls, obj: obj.update(order=0, exponent=1, classes=[], rows=[]))
    rejected(lambda cls, obj: obj.update(
        exponent=1000000007 * 998244353,
        rows=[[dict(v, m=obj["exponent"]) for v in row] for row in obj["rows"]]))
    # a huge point costs what its digits cost, not a list that long
    obj = json.loads(text)
    obj["classes"][1]["rep"] = "(1 99999999999999999)(2 3)"
    assert table_from_text(json.dumps(obj)).classes[1].rep == "(1 99999999999999999)(2 3)"
