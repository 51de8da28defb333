import json
import math
import operator
import random
import re
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import charzeros
from charzeros import chartab, cyclo, groupcore
from charzeros.chartab import (
    TableFileError,
    _check_classes,
    _krylov,
    _load,
    _rep_order,
    character_table,
    is_faithful,
    kernel_of,
    table_from_text,
    table_to_text,
    verify_table,
)
from charzeros.constructions import build
from charzeros.cyclo import CycloNum
from charzeros.groupcore import BudgetExceeded, format_group_file, parse_group_file, pinv
from check_interpreters import FILES, GALOIS, frobenius_file
from helpers import brute_galois_law, brute_min_poly_degree, brute_orth_violations, pmul

SMALL = ["C1", "C2", "C5", "C6", "C12", "A5", "SL(2,5)", "PGL(2,5)", "PSL(2,7)"]
PINNED_TABLES = Path(__file__).resolve().parents[1] / "perfbench" / "pinned" / "tables"


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
    # PSL(2,7) has the non-real classes 7A/7B, where C_i and its inverse
    # differ; every (i, p) and (p, i) is read, so both branches of the
    # smaller-class rule run on every pair of classes of different sizes
    for name in ["C6", "A5", "PSL(2,7)", "SL(2,5)"]:
        g, _ = build(name)
        brute = brute_tensor(g)
        r = g.num_classes
        for i in range(r):
            for p in range(r):
                row = g.class_row(i, p)
                for k in range(r):
                    assert row[k] == brute.get((i, p, k), 0), (name, i, p, k)
        # every column read is that of the smaller class
        assert all((g.classes[i].size, i) <= (g.classes[p].size, p)
                   for i, p in g._columns), name


def test_class_tensor_cyclic3():
    g, _ = build("C3")
    # classes are ordered identity, shift, shift^2, so indices add mod 3
    for i in range(3):
        for p in range(3):
            for k in range(3):
                assert g.class_row(i, p)[k] == (1 if (i + p) % 3 == k else 0)


def test_class_matrix_columns_sum_to_class_size(corpus, get_group):
    # each x in C_i meets exactly one y with x*y = rep_k
    for name in corpus:
        g = get_group(name)
        if g.order > 200:
            continue
        r = g.num_classes
        for i, c in enumerate(g.classes):
            rows = [g.class_row(i, p) for p in range(r)]
            assert all(sum(row[k] for row in rows) == c.size
                       for k in range(r)), (name, i)


def test_table_reads_few_class_columns():
    # read back from a group file, since `build` has already computed the
    # table: every column held afterwards was asked for by this split, which
    # pays for each column it reads, and its table is the pinned one.
    # PSU(3,4) and 3.A6:2_3 have 22 classes each, the largest first blocks
    # the split meets.
    for name, share in (("Sz(8):3", 0.05), ("PSU(3,4)", 0.20), ("3.A6:2_3", None)):
        g = parse_group_file(format_group_file(build(name)[0]))
        pinned = PINNED_TABLES / (re.sub(r"[^0-9A-Za-z]", "_", name) + ".tbl")
        assert table_to_text(character_table(g)) == pinned.read_text(), name
        held = sum(g.classes[i].size for i, _ in g._columns)
        assert share is None or held < share * g.num_classes * g.order, (name, held)


def test_split_reads_few_class_columns_in_total(corpus):
    # a scalar block reads no class row, since the first pivot of every
    # block is the identity class; the split then computes 481 columns for
    # the whole registry, where reading the rows of every block took 764
    total = 0
    for name in corpus:
        g, _ = build(name)
        total += len(g._columns)
    assert total <= 481, total


def _sample_matrices(rng, l):
    """Seeded diagonalisable matrices up to 8x8 over F_l, the kind the split
    restricts a class matrix to: b = S D S^-1 with repeated values in D, so
    the minimal polynomial is often of lower degree than the characteristic
    one.  The columns of S are b's eigenvectors, each nonzero at coordinate 0.
    Each comes as (b, S, the diagonal of D)."""
    for d in range(1, 9):
        for spread in (2, 3, d):
            while True:
                s = [[rng.randrange(1 if i == 0 else 0, l) for _ in range(d)]
                     for i in range(d)]
                if sympy.Matrix(s).det() % l:
                    break
            s_inv = sympy.Matrix(s).inv_mod(l).tolist()
            vals = [rng.randrange(spread) for _ in range(d)]
            yield [[sum(s[i][t] * vals[t] * s_inv[t][j] for t in range(d)) % l
                    for j in range(d)] for i in range(d)], s, vals


def _full_start(s, l):
    """S times the all-ones vector: a vector with the nonzero component 1 on
    every eigenvector of b = S D S^-1, the columns of S."""
    return [sum(row) % l for row in s]


def test_min_poly_matches_brute():
    # the split's one Krylov pass gives b's minimal polynomial from a start
    # vector with a component on every eigenvector; eigenvalues collide often
    # mod a small prime, so the pass meets its first dependence well before
    # the size of b
    for l in (3, 7, 101):
        rng = random.Random(7)
        for b, s, _ in _sample_matrices(rng, l):
            d = len(b)
            mp, krylov, _ = _krylov(b, _full_start(s, l), l)
            assert len(krylov) == len(mp) - 1
            assert mp[-1] == 1  # monic, ascending coefficients
            assert len(mp) - 1 == brute_min_poly_degree(b, l), (l, b)
            acc = [[0] * d for _ in range(d)]  # Horner: acc = acc*B + c*I
            for c in reversed(mp):
                acc = [[(sum(acc[i][t] * b[t][j] for t in range(d)) + c * (i == j)) % l
                        for j in range(d)] for i in range(d)]
            assert not any(any(row) for row in acc), (l, b)


def _assert_eigenspaces(b, c, roots, l):
    """`_eigenspaces` on the whole space (identity basis) gives, for each of
    b's eigenvalues `roots` (ascending), the e-eigenspace of b in reduced
    row-echelon form, with a start vector in it; dimensions and ranks come
    from sympy over GF(l)."""
    d = len(b)
    field = sympy.GF(l)

    def rank(m):
        return DomainMatrix([[field(x) for x in row] for row in m], (len(m), d), field).rank()

    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    blocks = chartab._eigenspaces(b, c, identity, l)
    assert len(blocks) == len(roots)
    for e, (basis, pivots, start) in zip(roots, blocks):
        shifted = [[(x - e * (i == j)) % l for j, x in enumerate(row)] for i, row in enumerate(b)]
        assert len(basis) == d - rank(shifted) == rank(basis), (b, c, e)
        for v in basis + [start]:
            assert not any(sum(x * y for x, y in zip(row, v)) % l for row in shifted), (b, c, e)
        assert any(start)
        for v, pc in zip(basis, pivots):
            assert v[pc] == 1 and not any(v[:pc]) and all(w[pc] == 0 for w in basis if w is not v)
        assert pivots == sorted(pivots)


def test_eigenspaces_are_the_kernels_of_b_minus_e():
    # the start vector decides the path, not the result: S times the
    # all-ones vector, and S times random nonzero weights, each with a
    # component on every eigenvector; with repeated values in D many
    # eigenspaces are not lines and are read from the quotient V/K
    for l in (7, 101):
        rng = random.Random(5)
        for b, s, vals in _sample_matrices(rng, l):
            d = len(b)
            weights = [rng.randrange(1, l) for _ in range(d)]
            for c in (_full_start(s, l),
                      [sum(s[i][k] * w for k, w in enumerate(weights)) % l for i in range(d)]):
                _assert_eigenspaces(b, c, sorted({v % l for v in vals}), l)


def test_each_former_eigenspace_fallback_raises_degenerate():
    # the kernel of b - e once answered each of these; none arises at a prime
    # that splits the class algebra, so each now stops the computation.  A c
    # with no component on one eigenvalue (where u_e = 0, or a p that missed
    # it so that p(b) c != 0, came from): its eigenspace is left in V/K.  A b
    # that is not diagonalisable: the quotient's eigenvector for 1 lifts to
    # no eigenvector (g(1) != 0).  A p with a repeated root: no split at all
    l = 7
    for b, c, why in (
            ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 1, 0], "eigenspaces of a class matrix "
                                                           "do not fill its block$"),
            ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [0, 0, 1], "eigenspaces of a class matrix "
                                                           "do not fill its block$"),
            ([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [1, 0, 1], "eigenspaces of a class matrix "
                                                           "do not fill its block$"),
            ([[1, 1], [0, 1]], [0, 1], "eigenvalue outside the working prime field$")):
        with pytest.raises(chartab.Degenerate, match="^" + why):
            chartab._eigenspaces(b, c, [[int(i == j) for j in range(len(b))]
                                        for i in range(len(b))], l)
    # the same b with a c on every eigenvector splits
    _assert_eigenspaces([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 1, 1], [1, 2, 3], l)


def _degrees(t):
    return [t.degree(i) for i in range(len(t.rows))]


def _cyclic_from_file(n):
    """C_n read from a group file: one n-cycle, so the classes come from the
    file and not from a registry build."""
    g = parse_group_file(f"degree {n}\n(" + " ".join(map(str, range(1, n + 1))) + ")\n")
    return character_table(g), g


def test_cyclic_tables_are_root_powers(get_table, get_group):
    # C60 has 12 Galois families of classes and composite element orders up
    # to 60, so most of its entries are lifted as images of an earlier class
    cases = [(n, get_table(f"C{n}"), get_group(f"C{n}")) for n in (2, 3, 4, 6, 12)]
    cases.append((60, *_cyclic_from_file(60)))
    for n, t, g in cases:
        exps = [c.rep[0] for c in g.classes]  # image of point 0 is the power
        want = set()
        for row_pow in range(n):
            want.add(tuple(CycloNum(t.exponent, {row_pow * e * (t.exponent // n): 1})
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
    bad = t._replace(rows=tuple(tuple(r) for r in rows))
    rep = verify_table(bad)
    assert not rep.ok
    assert any(v.startswith(("row-orth", "col-orth")) for v in rep.violations)


def test_verify_table_catches_degree_tamper(get_table):
    t = get_table("C5")
    rows = [list(r) for r in t.rows]
    v = rows[1][0]
    rows[1][0] = CycloNum(v.order, {e: 2 * c for e, c in v.coeffs.items()})
    bad = t._replace(rows=tuple(tuple(r) for r in rows))
    rep = verify_table(bad)
    assert not rep.ok
    assert any(v.startswith("degree-sum") for v in rep.violations)
    assert any(v.startswith("row-orth") for v in rep.violations)


def test_verify_table_catches_non_integral(get_table):
    # entries are cyclotomic integers: a denominator is refused when the file
    # is read, before verify_table could see it
    obj = json.loads(table_to_text(get_table("C2")))
    assert obj["rows"][1][1]["c"] == [[0, -1, 1]]
    for den in (2, 0, -1):
        obj["rows"][1][1]["c"] = [[0, -1, den]]
        with pytest.raises(TableFileError, match="denominator 1"):
            table_from_text(json.dumps(obj))


def _other_values(v, rng):
    """Canonical values different from v: shifted, negated, zeroed, Galois
    images and random ones."""
    m = v.order
    out = [CycloNum(m, {**v.coeffs, 0: v.coeffs.get(0, 0) + 1}),
           CycloNum(m, {e: -c for e, c in v.coeffs.items()}),
           CycloNum(m, {})]
    out += [CycloNum(m, {k * e: c for e, c in v.coeffs.items()})
            for k in range(2, m) if math.gcd(k, m) == 1]
    out += [CycloNum(m, {rng.randrange(m): rng.randrange(-3, 4) for _ in range(3)})
            for _ in range(3)]
    return [w for w in out if w != v]


def test_verify_table_catches_any_single_entry_change(get_table):
    # a changed entry in row i > 0 moves <chi_0, chi_i> by |C_j| times the
    # change; a changed trivial-row entry breaks the all-ones row.  The
    # orthogonality lines must be those of both relations summed in full.
    rng = random.Random(12)
    for name in ["A5", "PSL(2,7)", "SL(2,5)", "C6", "C8"]:
        t = get_table(name)
        assert brute_orth_violations(t) == []
        for i, row in enumerate(t.rows):
            for j, v in enumerate(row):
                for w in _other_values(v, rng):
                    rows = [list(r) for r in t.rows]
                    rows[i][j] = w
                    bad = t._replace(rows=tuple(tuple(r) for r in rows))
                    rep = verify_table(bad)
                    assert not rep.ok, (name, i, j, w)
                    assert [x for x in rep.violations if "-orth " in x] == \
                        brute_orth_violations(bad), (name, i, j, w)
                    # the law at the unit generators fails exactly when it
                    # fails at some unit
                    assert any(x.startswith("galois ") for x in rep.violations) == \
                        (not brute_galois_law(bad)), (name, i, j, w)


def _pinned(name: str) -> dict:
    return json.loads((PINNED_TABLES / f"{re.sub(r'[^0-9A-Za-z]', '_', name)}.tbl").read_text())


def _power_map_mutations(obj: dict):
    """Table files with power maps edited while every class order stays
    consistent: one entry set to another class of the same order, and the
    classes of one Galois family, or of all, each sent to itself by every
    unit."""
    classes = obj["classes"]
    for j, c in enumerate(classes):
        for k in range(2, c["order"]):
            o = classes[c["powers"][k]]["order"]
            for p, d in enumerate(classes):
                if d["order"] == o and p != c["powers"][k]:
                    bad = json.loads(json.dumps(obj))
                    bad["classes"][j]["powers"][k] = p
                    yield bad
    families = {frozenset(p for k, p in enumerate(c["powers"]) if math.gcd(k, c["order"]) == 1)
                for c in classes}
    for family in [f for f in families if len(f) > 1] + [range(len(classes))]:
        bad = json.loads(json.dumps(obj))
        for j in family:
            c = bad["classes"][j]
            c["powers"] = [j if math.gcd(k, c["order"]) == 1 else p
                           for k, p in enumerate(c["powers"])]
        yield bad


def test_unit_generators_generate_the_units():
    for m in range(1, 600):
        gens, reached, grow = chartab._unit_generators(m), {1 % m}, [1 % m]
        for x in grow:
            for k in gens:
                if x * k % m not in reached:
                    reached.add(x * k % m)
                    grow.append(x * k % m)
        assert reached == {u for u in range(m) if math.gcd(u, m) == 1}, m
    # 5 is the least primitive root mod 40487 but not one mod 40487^2
    m, phi = 40487**2, 40487 * 40486
    assert pow(5, 40486, m) == 1
    (k,) = chartab._unit_generators(m)
    assert all(pow(k, phi // q, m) != 1 for q in (2, 31, 653, 40487))


def test_a5_power_maps_breaking_the_galois_law_are_rejected():
    # 5A and 5B sent to themselves by every unit: the power maps compose and
    # every order check passes, but sigma_2 swaps the values at 5A and 5B
    obj = _pinned("A5")
    assert [c["powers"] for c in obj["classes"][3:]] == [[0, 3, 4, 4, 3], [0, 4, 3, 3, 4]]
    obj["classes"][3]["powers"] = [0, 3, 3, 3, 3]
    obj["classes"][4]["powers"] = [0, 4, 4, 4, 4]
    rep = _load(json.dumps(obj))[1]
    assert rep == chartab.TableReport(False, (
        "galois 7: class 3 -> 3: rows 1, 2 break chi(g^7) = sigma_7(chi(g))",
        "galois 7: class 4 -> 4: rows 1, 2 break chi(g^7) = sigma_7(chi(g))"))


def test_verify_agrees_with_the_brute_law_on_power_map_mutations():
    # every mutation that loads is accepted exactly when the Galois law holds
    # at every unit and both orthogonality relations hold in full
    outcomes = []
    for name in ["C4", "C5", "C12", "A5", "A6", "SL(2,5)", "PGL(2,5)", "PSL(2,7)", "PGL(2,7)",
                 "PSL(2,11)", "PSL(2,13)"]:
        for obj in _power_map_mutations(_pinned(name)):
            try:
                t, rep = _load(json.dumps(obj))
            except TableFileError:
                continue
            ok = rep.ok
            assert ok == (brute_galois_law(t) and brute_orth_violations(t) == []), name
            outcomes.append(ok)
    assert outcomes.count(False) >= 10 and outcomes.count(True) >= 3, outcomes


def test_modular_relations_use_a_prime_above_their_size(get_table):
    # C2 with row 1 = (1, x) obeys the Galois law for every x, so its row
    # relations are decided mod l; x = 2 gives <chi_0, chi_1> = 3 and
    # |chi_1|^2 = 5, which a prime l <= 5 would confuse with 0 and 2
    t = get_table("C2")
    for x in range(-40, 41):
        rows = (t.rows[0], (t.rows[1][0], CycloNum(2, {0: x})))
        bad = t._replace(rows=rows)
        assert verify_table(bad).ok == (x == -1) == (brute_orth_violations(bad) == []), x


def test_pinned_tables_pass_without_exact_sums(monkeypatch):
    # an accepted table has its row relations decided mod one prime
    def refused(*args):
        raise AssertionError("hermitian_sum called")

    monkeypatch.setattr(chartab, "hermitian_sum", refused)
    files = sorted(PINNED_TABLES.glob("*.tbl"))
    assert len(files) == 35
    for f in files:
        assert verify_table(table_from_text(f.read_text())).ok, f.name


def test_pinned_tables_pass_with_exact_sums(monkeypatch):
    # with no bound small enough for the modular path, every row relation is
    # summed as cyclotomic integers, and every pinned table still passes
    calls = []

    def counted(*args):
        calls.append(1)
        return cyclo.hermitian_sum(*args)

    monkeypatch.setattr(chartab, "hermitian_sum", counted)
    monkeypatch.setattr(chartab, "_MODULAR_CEILING", 0)
    for f in sorted(PINNED_TABLES.glob("*.tbl")):
        before = len(calls)
        assert verify_table(table_from_text(f.read_text())).ok, f.name
        assert len(calls) > before, f.name


def test_exact_sums_name_the_same_violations(get_table, monkeypatch):
    # a single-entry change is named alike whether or not the modular path
    # was open to the table
    rng = random.Random(24)
    for name in ["A5", "C6"]:
        bad = list(_single_entry_mutations(get_table(name), rng))
        modular = [verify_table(b) for b in bad]
        with monkeypatch.context() as mp:
            mp.setattr(chartab, "_MODULAR_CEILING", 0)
            assert [verify_table(b) for b in bad] == modular, name
        assert not any(rep.ok for rep in modular), name


def _single_entry_mutations(t, rng):
    """t with one entry replaced by another canonical value, in every way
    `_other_values` gives: a Galois image is a new object equal in value to
    entries elsewhere in the table."""
    for i, row in enumerate(t.rows):
        for j, v in enumerate(row):
            for w in _other_values(v, rng):
                rows = [list(r) for r in t.rows]
                rows[i][j] = w
                yield t._replace(rows=tuple(tuple(r) for r in rows))


def test_distinct_entries_index_by_value_as_well_as_identity(get_table):
    # a loaded table shares one object per distinct entry (466 among the
    # 3,904 entries of the pinned tables), and verify indexes entries by
    # identity first; a table whose every entry is its own object, with its
    # coefficients in another order, must get the same report
    def rebuilt(t):
        return t._replace(rows=tuple(
            tuple(CycloNum(v.order, dict(reversed(v.coeffs.items())), reduced=True)
                  for v in row) for row in t.rows))

    tables = [table_from_text(f.read_text()) for f in sorted(PINNED_TABLES.glob("*.tbl"))]
    objects = sum(len({id(v) for row in t.rows for v in row}) for t in tables)
    entries = sum(len(row) for t in tables for row in t.rows)
    assert (len(tables), objects, entries) == (35, 466, 3904)
    rng = random.Random(25)
    for name in ["A5", "C6"]:
        tables += _single_entry_mutations(get_table(name), rng)
    assert len(tables) > 400
    for t in tables:
        again = rebuilt(t)
        assert chartab._distinct_entries(again) == chartab._distinct_entries(t), t.group
        assert verify_table(again) == verify_table(t), t.group


def test_verify_rejects_a_class_map_that_is_not_a_size_preserving_permutation(get_table):
    t = get_table("A5")
    c = list(t.classes)
    assert [x.powers for x in c[3:]] == [(0, 3, 4, 4, 3), (0, 4, 3, 3, 4)]
    line = "galois 7: g -> g^7 is not a size-preserving permutation of the classes"
    # g -> g^7, which is g -> g^2 on 5-elements, sends 5A and 5B to 5B
    merged = c[:4] + [c[4]._replace(powers=(0, 4, 4, 3, 4))]
    rep = verify_table(t._replace(classes=tuple(merged)))
    assert rep == chartab.TableReport(False, (line,))
    # 5A and 5B swapped by g -> g^7 but given sizes 11 and 13
    resized = c[:3] + [c[3]._replace(size=11), c[4]._replace(size=13)]
    rep = verify_table(t._replace(classes=tuple(resized)))
    assert not rep.ok
    assert rep.violations[-1] == line
    assert all(not x.startswith("galois") for x in rep.violations[:-1])


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
                image = tuple(CycloNum(m, {k * e: c for e, c in v.coeffs.items()})
                              for v in row)
                assert image in rows, (name, k)


def test_computed_tables_obey_galois_law(corpus, get_table):
    # chi(g^k) = sigma_k(chi(g)) for k prime to o(g), entry by entry: this
    # pins the direction of the lift's family permutation (t -> t*k)
    for name in corpus:
        t = get_table(name)
        m = t.exponent
        for j, c in enumerate(t.classes):
            o = c.element_order
            for k in range(1, o):
                if math.gcd(k, o) != 1:
                    continue
                for i, row in enumerate(t.rows):
                    image = CycloNum(m, {e * k % m: v for e, v in row[j].coeffs.items()})
                    assert row[c.powers[k]] == image, (name, i, j, k)


def test_split_factors_only_blocks_that_split(corpus, get_group, get_table, monkeypatch):
    # a block on which A_i is a scalar cannot split, so its minimal
    # polynomial (degree 1) is never computed; on every other block the
    # Krylov vectors of the block's part of e_0 alone give the whole minimal
    # polynomial
    degrees = []

    def recording(b, c, l):
        mp, krylov, reduced = _krylov(b, c, l)
        assert len(mp) - 1 == brute_min_poly_degree(b, l), b
        degrees.append(len(mp) - 1)
        return mp, krylov, reduced

    monkeypatch.setattr(chartab, "_krylov", recording)
    for name in corpus:
        assert table_to_text(character_table(get_group(name))) == \
            table_to_text(get_table(name)), name
    assert degrees and min(degrees) >= 2, sorted(degrees)[:5]


def test_a_split_solves_kernels_only_on_its_quotient(corpus, get_group, monkeypatch):
    # a line's eigenvector comes from the Krylov vectors of the block's start
    # vector, so no kernel of a d x d restriction b - e is solved, not even
    # for a line: every kernel is of the (d - s)-dimensional quotient by their
    # span, and the kernels of one split hold its d - s missing dimensions.
    # Solving one kernel of b - e per root would fail both.
    splits = []  # per split: d - s, then (rows, vectors) of each kernel
    real_krylov, real_kernel = chartab._krylov, chartab._kernel_basis

    def krylov(b, c, l):
        p, vectors, reduced = real_krylov(b, c, l)
        splits.append((len(b) - len(p) + 1, []))
        return p, vectors, reduced

    def kernel(m, l):
        basis = real_kernel(m, l)
        splits[-1][1].append((len(m), len(basis)))
        return basis

    monkeypatch.setattr(chartab, "_krylov", krylov)
    monkeypatch.setattr(chartab, "_kernel_basis", kernel)
    files = ["degree 7\n(1 2 3 4 5 6 7)\n(2 7)(3 6)(4 5)\n",  # D7
             "degree 12\n(1 2 3 4)(5 6 7)(8 9 10 11 12)\n"]  # C60
    for g in [get_group(name) for name in corpus] + list(map(parse_group_file, files)):
        character_table(g)
    assert sum(len(kernels) for _, kernels in splits) >= 100
    for missing, kernels in splits:
        assert all(rows == missing for rows, _ in kernels), (missing, kernels)
        assert sum(n for _, n in kernels) == missing, (missing, kernels)


@pytest.mark.parametrize("power", ["m - 1", "least unit above 1"])
def test_any_primitive_root_lifts_the_same_table(power, corpus, get_group, monkeypatch):
    # the lift embeds zeta_m at w^k instead of w: each row is conjugated by
    # sigma_k, which permutes the characters, and the rows are sorted, so no
    # byte changes (verify, which reads the same helper, decides with any root)
    extra = [parse_group_file("degree 7\n(1 2 3 4 5 6 7)\n(2 7)(3 6)(4 5)\n"),  # D7
             parse_group_file("degree 12\n(1 2 3 4)(5 6 7)(8 9 10 11 12)\n")]  # C60
    want = [table_to_text(character_table(g)) for g in extra]
    real = chartab.root_of_unity

    def other_root(l, m):
        k = m - 1 if power == "m - 1" else \
            next(k for k in range(2, m + 2) if math.gcd(k, m) == 1)
        return pow(real(l, m), k, l)

    monkeypatch.setattr(chartab, "root_of_unity", other_root)
    for name in corpus:
        pinned = PINNED_TABLES / (re.sub(r"[^0-9A-Za-z]", "_", name) + ".tbl")
        assert table_to_text(character_table(get_group(name))) == pinned.read_text(), name
    assert [table_to_text(character_table(g)) for g in extra] == want


def _force_dixon_prime(monkeypatch, l):
    """Make l the prime of the next table computation.  Only the first
    `_prime_above` call is forced: verify's own prime must stay above its
    bound B + |G|."""
    real, calls = chartab._prime_above, []

    def forced(bound, step):
        calls.append(bound)
        return l if len(calls) == 1 else real(bound, step)

    monkeypatch.setattr(chartab, "_prime_above", forced)


def test_forced_prime_outside_the_splitting_field_is_refused(get_group, monkeypatch):
    # A5's central characters take values in Q(sqrt 5), and 5 is not a square
    # mod 7, so a class matrix's minimal polynomial does not split over F_7.
    # At l = 11 for A5 and l = 7 for PGL(2,5), not 1 mod the exponent, the
    # split goes through, but the lift gives a table that verify refuses.
    for name, l, why in (
            ("A5", 7, "eigenvalue outside the working prime field$"),
            ("A5", 11, "computed table failed exact verification: trivial-row: "),
            ("PGL(2,5)", 7, "computed table failed exact verification: degree-sum: ")):
        _force_dixon_prime(monkeypatch, l)
        with pytest.raises(chartab.Degenerate, match="^" + why):
            character_table(get_group(name))


def test_a_short_eigenvector_list_fails_the_shape_check(get_group, monkeypatch):
    # too few central characters give too few rows, which verify refuses
    real = chartab._separate
    monkeypatch.setattr(chartab, "_separate", lambda group, l: real(group, l)[:-1])
    with pytest.raises(chartab.Degenerate, match="^computed table failed exact verification: "
                                                 "shape: 4 rows for 5 classes$"):
        character_table(get_group("A5"))


def test_a_degree_square_without_a_root_is_refused(get_group, monkeypatch):
    # u = e_0 gives d^2 = |G| = 60 = 29 mod 31, and 29 is no square of
    # 1..7 mod 31: the degree cannot be read, so the computation stops
    monkeypatch.setattr(chartab, "_separate",
                        lambda group, l: [[int(j == 0) for j in range(len(group.classes))]] * 5)
    with pytest.raises(chartab.Degenerate, match="^degree square has no root mod l$"):
        character_table(get_group("A5"))


def test_every_forced_prime_gives_a_verified_table_or_a_refusal(get_group, get_table,
                                                                 monkeypatch):
    # every prime l < 400 as A5's Dixon prime: the computation ends in the
    # pinned table or in `Degenerate`, never in another exception
    verified = []
    for l in sympy.primerange(2, 400):
        _force_dixon_prime(monkeypatch, l)
        try:
            t = character_table(get_group("A5"))
        except chartab.Degenerate:
            continue
        assert t == get_table("A5"), l
        verified.append(l)
    assert verified == [31, 61, 151, 181, 211, 241, 271, 331]  # the l = 1 (mod 30)


def test_tables_match_pinned_files(corpus, get_table):
    for name in corpus:
        pinned = PINNED_TABLES / (re.sub(r"[^0-9A-Za-z]", "_", name) + ".tbl")
        assert table_to_text(get_table(name)) == pinned.read_text(), name


def test_work_once_per_entry_object_is_only_a_cache(corpus, get_table):
    # table_to_text and the row sort do their work once per distinct entry
    # object and reuse it for the cells that share it: a table whose every
    # cell is an object of its own, equal to the shared value, must give the
    # same bytes, and its rows, in any order, must sort to the pinned order
    rng = random.Random(37)
    for name in corpus:
        t = get_table(name)
        rows = [tuple(CycloNum(v.order, dict(v.coeffs)) for v in row) for row in t.rows]
        assert len({id(v) for row in rows for v in row}) == sum(map(len, rows)), name
        pinned = PINNED_TABLES / (re.sub(r"[^0-9A-Za-z]", "_", name) + ".tbl")
        assert table_to_text(t._replace(rows=tuple(rows))) == pinned.read_text(), name
        rng.shuffle(rows)
        assert chartab._sorted_rows(rows) == list(t.rows), name


def test_frobenius_251_5_table_is_pinned(check_legs):
    # x -> x + 1 and x -> a x on Z/251, a of order 5: the first split meets
    # the whole 55-dimensional space with 51 roots, where the 5-dimensional
    # eigenspace of the linear characters is read from a 4-dimensional
    # quotient, and every other eigenspace is a line.  `table` on the file
    # prints the same bytes as before the split used Krylov vectors
    check_legs("table 251/frob.txt")


def test_frobenius_229_4_table_is_pinned(check_legs):
    # order 916 and 61 classes, near the class ceiling: the 57 classes of
    # order 229 form one Galois family, and the 57 rows of degree 4 one Galois
    # orbit, so 4 rows are lifted by transforms, one per orbit, and 57 are
    # permuted.  `table` prints the same bytes as when every row was lifted
    check_legs("table 229/frob.txt")


def _reference_lift(group):
    """The table of `group` with every row lifted by discrete Fourier
    transforms, at the least class of each Galois family of classes, from the
    same split: rational classes and conjugate rows take no shortcut."""
    classes, n, m = group.classes, group.order, group.exponent
    r = len(classes)
    l = chartab._prime_above(math.isqrt(4 * n), m)
    orders = [c.element_order for c in classes]
    powers = group.power_maps
    size_inv = [pow(s, -1, l) for s in group.class_sizes]
    w = chartab.root_of_unity(l, m)
    dft = {}  # dft[o][t][s] = w^(ts m/o) / o
    for o in set(orders):
        scaled = [pow(w, m // o * e, l) * pow(o, -1, l) % l for e in range(o)]
        dft[o] = [[scaled[t * s % o] for s in range(o)] for t in range(o)]
    family = {}
    for j0, o in enumerate(orders):
        for k in range(1, o + 1):
            if math.gcd(k, o) == 1:
                family.setdefault(powers[j0][k % o], (j0, k))
    rows = []
    for u in chartab._separate(group, l):
        s = sum(u[j] * u[powers[j][-1]] * size_inv[j] for j in range(r)) % l
        d = next(x for x in range(1, math.isqrt(n) + 1) if x * x * s % l == n % l)
        xval = [d * u[j] * size_inv[j] % l for j in range(r)]
        mults, row = {}, []
        for j, o in enumerate(orders):
            j0, k = family[j]
            if j0 == j:
                xs = [xval[p] for p in powers[j]]
                mults[j] = [sum(map(operator.mul, xs, f)) % l for f in dft[o]]
            else:
                mults[j] = [mults[j0][pow(k, -1, o) * t % o] for t in range(o)]
            row.append(CycloNum(m, {t * (m // o): c for t, c in enumerate(mults[j]) if c}))
        rows.append(tuple(row))
    return rows


def _lift_groups(corpus, get_group):
    """The registry groups and D7, C60, C2^6, 251:5 and 229:4 from group files."""
    files = {"D7": "degree 7\n(1 2 3 4 5 6 7)\n(2 7)(3 6)(4 5)\n",
             "C60": "degree 12\n(1 2 3 4)(5 6 7)(8 9 10 11 12)\n",
             "C2^6": "degree 12\n" + "".join(f"({2 * i + 1} {2 * i + 2})\n" for i in range(6)),
             "251:5": frobenius_file(251, 5), "229:4": frobenius_file(229, 4)}
    return [(name, get_group(name)) for name in corpus] + \
        [(name, parse_group_file(text)) for name, text in files.items()]


def test_lift_equals_a_transform_at_every_family(corpus, get_group, get_table):
    # integers read as symmetric residues and rows permuted from a Galois
    # conjugate give the values of the transform, cell for cell, and so the
    # same file
    for name, g in _lift_groups(corpus, get_group):
        t = get_table(name) if name in corpus else character_table(g)
        want = t._replace(rows=tuple(chartab._sorted_rows(_reference_lift(g))))
        assert t.rows == want.rows, name
        assert table_to_text(t) == table_to_text(want), name


def test_transforms_run_once_per_galois_orbit_of_rows(corpus, get_group, monkeypatch):
    # a rational class takes no transform, and only one row of each Galois
    # orbit is lifted: the transforms see one row per orbit, none at all
    # when every class is rational (C2^6)
    lifted = []
    real = chartab._dft

    def recording(xval, powers, mat, l):
        lifted.append(tuple(xval))
        return real(xval, powers, mat, l)

    monkeypatch.setattr(chartab, "_dft", recording)
    for name, g in _lift_groups(corpus, get_group):
        lifted.clear()
        t = character_table(g)
        m, r = t.exponent, len(t.classes)
        l = chartab._prime_above(math.isqrt(4 * t.order), m)
        w_inv = pow(chartab.root_of_unity(l, m), -1, l)  # the lift's image of zeta_m
        residues = {tuple(sum(c * pow(w_inv, e, l) for e, c in v.coeffs.items()) % l
                          for v in row): i for i, row in enumerate(t.rows)}
        rows = {residues[x] for x in lifted}
        # the orbits of the rows, from the verified table's power maps
        images = {tuple(c.powers[k % c.element_order] for c in t.classes)
                  for k in range(1, m + 1) if math.gcd(k, m) == 1}
        index = {row: i for i, row in enumerate(t.rows)}
        orbits = {frozenset(index[tuple(row[p] for p in image)] for image in images)
                  for row in t.rows}
        irrational = any(len({c.powers[k] for k in range(c.element_order)
                              if math.gcd(k, c.element_order) == 1}) > 1 for c in t.classes)
        if not irrational:
            assert lifted == [], name
            continue
        assert len(set(lifted)) == len(rows) == len(orbits), name
        assert all(len(rows & orbit) == 1 for orbit in orbits), name
        assert r == sum(map(len, orbits)), name


def test_table_class_powers(get_table, get_group):
    for name in ["A5", "SL(2,5)"]:
        t = get_table(name)
        g = get_group(name)
        for c, gc in zip(t.classes, g.classes):
            x = gc.rep  # rep^k by repeated products
            for k in range(1, c.element_order + 1):
                assert c.powers[k % c.element_order] == g.class_index[x], (name, k)
                x = pmul(x, gc.rep)
            assert c.powers[-1] == g.class_index[pinv(gc.rep)]


def test_second_orthogonality_with_inverse_classes(get_table):
    # sum over rows of chi(g) chi(h) is zero unless h is conjugate to g^-1
    t = get_table("PSL(2,7)")
    r, m = len(t.classes), t.exponent
    for k in range(r):
        for kk in range(r):
            raw = {}  # the products summed in the group ring Z[C_m]
            for row in t.rows:
                for e1, c1 in row[k].coeffs.items():
                    for e2, c2 in row[kk].coeffs.items():
                        raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
            acc = CycloNum(m, raw)
            want = t.order // t.classes[k].size if t.classes[k].powers[-1] == kk else 0
            assert acc == want


def test_budget():
    # C3^4 has 81 classes, over the fixed ceiling of 64
    g = parse_group_file("degree 12\n(1 2 3)\n(4 5 6)\n(7 8 9)\n(10 11 12)\n")
    n = groupcore.MAX_CLASSES
    with pytest.raises(BudgetExceeded, match=f"^more than {n} conjugacy classes exceed the budget {n}$"):
        character_table(g)


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
    tampered = _load(json.dumps(obj))[1]
    assert not tampered.ok
    obj = json.loads(table_to_text(t))
    obj["rows"][1][1]["c"][0][2] = 0  # a zero denominator
    with pytest.raises(TableFileError):
        table_from_text(json.dumps(obj))
    obj = json.loads(table_to_text(t))
    obj["rows"][1][1]["m"] = 5  # wrong level for the table exponent
    with pytest.raises(TableFileError):
        table_from_text(json.dumps(obj))
    obj = json.loads(table_to_text(t))
    obj["classes"][1]["size"] = 2  # breaks size * centralizer == order
    with pytest.raises(TableFileError):
        table_from_text(json.dumps(obj))


def test_loaded_tables_have_passed_verify():
    # the library loader refuses what `verify` refuses: a5swap.tbl parses and
    # its rows and columns are orthonormal, but it breaks the Galois law, and
    # a5rows.tbl passes every check of verify_table with two rows swapped
    for name, error in (("a5swap.tbl", GALOIS[0]), ("a5rows.tbl", "row 1: not in canonical order"),
                        ("den2.tbl", "a coefficient must be an integer: denominator 1"),
                        ("rep.tbl", "not in canonical cycle notation: '(4 5)(2 3)'")):
        with pytest.raises(TableFileError) as exc:
            charzeros.table_from_text(FILES[name]())
        assert str(exc.value) == error, name


def test_file_fields_need_the_written_json_types(get_table):
    # each edit loaded and passed verify_table while fields were coerced
    # with int() and str(); table_to_text never writes any of them
    text = table_to_text(get_table("A5"))
    spaced = json.dumps(json.loads(text), indent=1)  # other spacing still loads
    assert table_to_text(table_from_text(spaced)) == text
    edits = [(("seed",), 1.5), (("group",), {}), (("order",), "60"),
             (("classes", 0, "size"), True), (("classes", 1, "powers", 0), False),
             (("classes", 0, "rep"), ["()"]), (("classes", 0, "powers"), {"0": 0}),
             (("rows", 0, 0, "m"), 60.0), (("rows", 0, 0, "c", 0, 1), True),
             (("rows", 0, 0, "c", 0), [0, 2, 2]),  # 2/2: not in lowest terms
             (("note",), ""), (("classes", 0, "note"), "")]  # fields never written
    for (*head, last), value in edits:
        obj = json.loads(text)
        parent = obj
        for k in head:
            parent = parent[k]
        parent[last] = value
        with pytest.raises(TableFileError):
            table_from_text(json.dumps(obj))
            pytest.fail(f"{head + [last]} = {value!r} loaded")
    obj = json.loads(text)
    del obj["classes"][0]["centralizer"]
    with pytest.raises(TableFileError, match="fields"):
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
    # a rep lies on points 1..256: a huge point, point 257 and a rep on 260
    # points are refused
    rejected(lambda cls, obj: cls[1].update(rep="(1 99999999999999999)(2 3)"))
    rejected(lambda cls, obj: cls[1].update(rep="(1 257)(2 3)"))
    five_cycles = "".join("(" + " ".join(str(5 * i + j) for j in range(1, 6)) + ")"
                          for i in range(52))
    rejected(lambda cls, obj: cls[3].update(rep=five_cycles))  # 260 points, order 5
    assert _rep_order("(" + " ".join(map(str, range(1, 257))) + ")") == 256
    assert _rep_order("(1 2)(254 255 256)") == 6
    assert _rep_order("()") == 1
    for rep in ("(1 257)", "(7)", "(2 1)", "(3 4)(1 2)", "(1  2)", " (1 2)", "(1 2)()"):
        with pytest.raises(ValueError):
            _rep_order(rep)


def _composes(classes) -> bool:
    """(g^a)^b = g^(ab) for every a and b, by full scan."""
    return all(c.powers[a * b % c.element_order] == classes[p].powers[b]
               for c in classes for a, p in enumerate(c.powers)
               for b in range(len(classes[p].powers)))


def test_power_map_composition_check_matches_full_scan(get_table):
    # each single power-map entry swapped for a class of the same order keeps
    # every order check passing; the load check must agree with the full law
    # (C12 exercises a unit group with two generators, 5 and 7)
    rejected = 0
    for name in ["A5", "PSL(2,7)", "PGL(2,7)", "PSL(2,11)", "C12"]:
        t = get_table(name)
        for j, c in enumerate(t.classes):
            for k in range(2, c.element_order):
                o = t.classes[c.powers[k]].element_order
                for p in (p for p, d in enumerate(t.classes) if d.element_order == o):
                    powers = c.powers[:k] + (p,) + c.powers[k + 1:]
                    classes = list(t.classes)
                    classes[j] = c._replace(powers=powers)
                    try:
                        _check_classes(tuple(classes), t.order, t.exponent)
                        ok = True
                    except TableFileError:
                        ok, rejected = False, rejected + 1
                    assert ok == _composes(classes), (name, j, k, p)
    assert rejected > 0
