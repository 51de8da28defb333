"""Exact character tables by modular eigenvector separation.

The table of a finite permutation group is computed from its class
multiplication constants, one matrix per class from `Group.class_matrix`
(Dixon's method).  Over a prime field F_l with l = 1 (mod exp(G))
the central characters are the simultaneous eigenvectors of the class
matrices; once those are separated, each character degree follows from
the orthogonality relations and every entry lifts uniquely to an exact
cyclotomic number through its root-of-unity multiplicities.  A table is
released only after the full first and second orthogonality relations
have been re-checked with exact arithmetic.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import gcd, lcm

from sympy import isprime, primitive_root
from sympy.ntheory.residue_ntheory import sqrt_mod
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_lcm

from .cyclo import CycloNum
from .groupcore import Group, format_cycles, parse_cycles, perm_order

DEFAULT_CLASS_BUDGET = 64
SPLIT_BUDGET = 32


class Degenerate(RuntimeError):
    """The modular eigenvector separation or lift could not complete."""


class BudgetExceeded(RuntimeError):
    """The group has more conjugacy classes than the configured budget."""


class TableFileError(ValueError):
    """A serialized table was malformed or not in canonical form."""


# -- table container ----------------------------------------------------------------

@dataclass(frozen=True)
class TableClass:
    """Per-class summary carried with a table so that verification and the
    Galois/power-map checks work on a loaded file without the group."""
    size: int
    element_order: int
    centralizer: int
    rep: str
    powers: tuple[int, ...]  # class of rep^k for k = 0 .. element_order-1

    def power(self, k: int) -> int:
        return self.powers[k % self.element_order]


@dataclass(frozen=True)
class CharacterTable:
    group: str
    order: int
    exponent: int
    seed: int
    classes: tuple[TableClass, ...]
    rows: tuple[tuple[CycloNum, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def degree(self, row: int) -> int:
        v = self.rows[row][0].rational_value()
        if v.denominator != 1:
            raise TableFileError(f"row {row} has non-integral degree {v}")
        return int(v)


def _entry_key(v: CycloNum):
    # nonnegative coefficients sort before negative ones so that the
    # all-ones row precedes every other linear character
    return tuple((e, 0 if num >= 0 else 1, abs(num), den)
                 for e, num, den in v.to_obj()["c"])


def _row_key(degree: int, row) -> tuple:
    return (degree, tuple(_entry_key(v) for v in row))


# -- linear algebra mod l ------------------------------------------------------------

def _mat_vec(a, v, l):
    return [sum(x * y for x, y in zip(row, v)) % l for row in a]


def _rref(mat, l):
    """In-place reduced row echelon form; returns pivot column list."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], l - 2, l)
        mat[rank] = [x * inv % l for x in mat[rank]]
        for i in range(rows):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % l for x, y in zip(mat[i], mat[rank])]
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return pivots


def _kernel_basis(mat, l):
    m = [row[:] for row in mat]
    cols = len(m[0])
    pivots = _rref(m, l)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r][free]) % l
        basis.append(v)
    return basis


def _restrict(a, basis, l):
    """Matrix of x -> a.x on span(basis), coordinates in that basis."""
    d = len(basis)
    n = len(basis[0])
    images = [_mat_vec(a, b, l) for b in basis]
    aug = [[basis[j][i] for j in range(d)] + [images[t][i] for t in range(d)]
           for i in range(n)]
    pivots = _rref(aug, l)
    if pivots[:d] != list(range(d)):
        raise Degenerate("subspace basis lost rank during restriction")
    return [[aug[s][d + t] for t in range(d)] for s in range(d)]


def _min_poly(b, l):
    """Minimal polynomial (descending, monic) via Krylov annihilators of the
    standard basis vectors; their lcm is the minimal polynomial."""
    d = len(b)
    mp = [1]
    for t in range(d):
        if len(mp) == d + 1:
            break
        v = [0] * d
        v[t] = 1
        # rows: echelonized Krylov vectors with tracked combinations
        rows: list[tuple[list[int], list[int]]] = []
        w, power = v, 0
        while True:
            vec = w[:]
            combo = [0] * (len(rows) + 1)
            combo[-1] = 1  # coefficient of B^power * v
            for rv, rc in rows:
                lead = next((i for i in range(d) if rv[i]), None)
                if lead is not None and vec[lead]:
                    f = vec[lead] * pow(rv[lead], l - 2, l) % l
                    vec = [(x - f * y) % l for x, y in zip(vec, rv)]
                    combo = [(x - f * y) % l for x, y in
                             zip(combo, rc + [0] * (len(combo) - len(rc)))]
            if not any(vec):
                ann = combo  # ascending coefficients of the annihilator
                break
            rows.append((vec, combo))
            w = _mat_vec(b, w, l)
            power += 1
        mp = gf_lcm(mp, ann[::-1], l, ZZ)
    return mp


def _poly_roots(p, l):
    """Roots in F_l of a squarefree polynomial (descending coefficients) that
    splits into linear factors; ascending order."""
    _, factors = gf_factor_sqf(p, l, ZZ)
    roots = []
    for f in factors:
        if len(f) != 2:
            raise Degenerate("eigenvalue outside the working prime field")
        roots.append(int(-int(f[1])) % l)
    return sorted(roots)


def _separate(mats, l, rng):
    """Common eigenvectors of the commuting matrices mats over F_l, found by
    refining invariant subspaces along random linear combinations."""
    r = len(mats)
    spaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for _ in range(SPLIT_BUDGET):
        if all(len(s) == 1 for s in spaces):
            break
        lam = [rng.randrange(l) for _ in range(r)]
        a = [[sum(lam[i] * mats[i][j][k] for i in range(r)) % l
              for k in range(r)] for j in range(r)]
        refined = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                refined.append(basis)
                continue
            b = _restrict(a, basis, l)
            roots = _poly_roots(_min_poly(b, l), l)
            if len(roots) <= 1:
                refined.append(basis)
                continue
            found = 0
            for e in roots:
                shifted = [[(b[i][j] - (e if i == j else 0)) % l
                            for j in range(d)] for i in range(d)]
                sub = [[sum(kv[t] * basis[t][i] for t in range(d)) % l
                        for i in range(r)]
                       for kv in _kernel_basis(shifted, l)]
                refined.append(sub)
                found += len(sub)
            if found != d:
                raise Degenerate("eigenspaces did not fill the subspace")
        spaces = refined
    if any(len(s) > 1 for s in spaces):
        raise Degenerate("random combinations failed to separate the "
                         "central characters within the retry budget")
    return [s[0] for s in spaces]


# -- the table computation -----------------------------------------------------------

def _dixon_prime(order: int, exponent: int) -> int:
    l = exponent + 1
    while l * l <= 4 * order or not isprime(l):
        l += exponent
    return l


def character_table(group: Group, *, seed: int = 0,
                    class_budget: int = DEFAULT_CLASS_BUDGET) -> CharacterTable:
    classes = group.classes
    r = len(classes)
    if r > class_budget:
        raise BudgetExceeded(f"{r} conjugacy classes exceed the budget {class_budget}")
    n = group.order
    m = group.exponent
    l = _dixon_prime(n, m)

    mats = [group.class_matrix(i) for i in range(r)]
    rng = random.Random(seed)
    vecs = _separate(mats, l, rng)

    sizes = [c.size for c in classes]
    size_inv = [pow(s, l - 2, l) for s in sizes]
    inv_class = [group.inverse_class(j) for j in range(r)]

    chars = []
    for v in vecs:
        if v[0] == 0:
            raise Degenerate("eigenvector vanishes at the identity class")
        v0 = pow(v[0], l - 2, l)
        u = [x * v0 % l for x in v]
        s = sum(u[j] * u[inv_class[j]] % l * size_inv[j] for j in range(r)) % l
        if s == 0:
            raise Degenerate("orthogonality sum vanished mod l")
        dd = n * pow(s, l - 2, l) % l
        roots = sqrt_mod(dd, l, all_roots=True)
        if not roots:
            raise Degenerate("degree square has no root mod l")
        d = min(roots)
        chars.append((d, u))
    if sum(d * d for d, _ in chars) != n:
        raise Degenerate("degree squares do not sum to the group order")

    g0 = primitive_root(l)
    w = pow(g0, (l - 1) // m, l)
    powers = [tuple(group.power_class(j, k) for k in range(classes[j].element_order))
              for j in range(r)]

    rows = []
    for d, u in chars:
        xval = [d * u[j] % l * size_inv[j] % l for j in range(r)]
        row = []
        for j in range(r):
            o = classes[j].element_order
            if o == 1:
                row.append(CycloNum.rational(d).embed(m))
                continue
            w_inv = pow(pow(w, m // o, l), l - 2, l)
            o_inv = pow(o, l - 2, l)
            xs = [xval[powers[j][s]] for s in range(o)]
            total = 0
            val = CycloNum.zero(1)
            for t in range(o):
                wt = pow(w_inv, t, l)
                acc, term = 0, 1
                for s in range(o):
                    acc = (acc + xs[s] * term) % l
                    term = term * wt % l
                mt = acc * o_inv % l
                total += mt
                if mt:
                    val = val + mt * CycloNum.root_of_unity(o, t)
            if total != d:
                raise Degenerate("root-of-unity multiplicities do not sum "
                                 "to the degree")
            row.append(val.embed(m))
        rows.append((d, tuple(row)))

    rows.sort(key=lambda pair: _row_key(pair[0], pair[1]))
    table = CharacterTable(
        group=group.name or "",
        order=n,
        exponent=m,
        seed=seed,
        classes=tuple(TableClass(size=c.size, element_order=c.element_order,
                                 centralizer=n // c.size, rep=format_cycles(c.rep),
                                 powers=powers[j])
                      for j, c in enumerate(classes)),
        rows=tuple(row for _, row in rows),
    )
    report = verify_table(table)
    if not report.ok:
        raise Degenerate("computed table failed exact verification: "
                         + "; ".join(report.violations[:4]))
    return table


# -- verification --------------------------------------------------------------------

@dataclass(frozen=True)
class TableReport:
    ok: bool
    violations: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return "table verified: all orthogonality and integrality checks pass"
        lines = [f"table verification failed ({len(self.violations)} violations)"]
        lines.extend("  " + v for v in self.violations)
        return "\n".join(lines)


def verify_table(t: CharacterTable) -> TableReport:
    """Exact checks: row orthonormality weighted by class sizes, column
    orthogonality against centralizer orders, degree integrality and the
    degree-square sum, syntactic algebraic integrality of every entry."""
    bad: list[str] = []
    r = len(t.classes)
    if len(t.rows) != r:
        return TableReport(False, (f"shape: {len(t.rows)} rows for {r} classes",))

    degrees = []
    for i, row in enumerate(t.rows):
        v = row[0]
        if not v.is_rational() or v.rational_value().denominator != 1 or v.rational_value() <= 0:
            bad.append(f"degree {i}: first column is "
                       f"{v.rational_value() if v.is_rational() else 'irrational'}")
            degrees.append(None)
        else:
            degrees.append(int(v.rational_value()))
    if all(d is not None for d in degrees) and sum(d * d for d in degrees) != t.order:
        bad.append(f"degree-sum: sum of squares {sum(d * d for d in degrees)} != {t.order}")
    if any(row_v != 1 for row_v in t.rows[0]):
        bad.append("trivial-row: row 0 is not the all-ones character")

    for i, row in enumerate(t.rows):
        for j, v in enumerate(row):
            if not v.is_integral():
                bad.append(f"integrality {i},{j}: entry has a denominator")

    sizes = [c.size for c in t.classes]
    for i in range(r):
        for j in range(i, r):
            acc = CycloNum.zero(1)
            for k in range(r):
                acc = acc + sizes[k] * (t.rows[i][k] * t.rows[j][k].conjugate())
            want = t.order if i == j else 0
            if acc != want:
                bad.append(f"row-orth {i},{j}: inner product != {want}")
    for k in range(r):
        for kk in range(k, r):
            acc = CycloNum.zero(1)
            for i in range(r):
                acc = acc + t.rows[i][k] * t.rows[i][kk].conjugate()
            want = t.order // sizes[k] if k == kk else 0
            if acc != want:
                bad.append(f"col-orth {k},{kk}: inner product != {want}")
    return TableReport(not bad, tuple(bad))


def kernel_of(t: CharacterTable, row: int) -> tuple[int, ...]:
    """Classes on which the row equals its degree; always a union of classes
    forming a normal subgroup."""
    deg = t.rows[row][0]
    return tuple(j for j in range(len(t.classes)) if t.rows[row][j] == deg)


def is_faithful(t: CharacterTable, row: int) -> bool:
    return kernel_of(t, row) == (0,)


# -- table files ---------------------------------------------------------------------

FORMAT_TAG = "chartab/1"


def table_to_text(t: CharacterTable) -> str:
    obj = {
        "format": FORMAT_TAG,
        "group": t.group,
        "order": t.order,
        "exponent": t.exponent,
        "seed": t.seed,
        "classes": [
            {"size": c.size, "order": c.element_order, "centralizer": c.centralizer,
             "rep": c.rep, "powers": list(c.powers)}
            for c in t.classes
        ],
        "rows": [[v.to_obj() for v in row] for row in t.rows],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _rep_order(rep: str) -> int:
    """Order of a representative in cycle notation.  Points are renumbered by
    rank first (0 stays 0, so parse_cycles still rejects it), which keeps the
    cycle type and keeps the parse linear in the string however large a
    point is."""
    rank = {p: i for i, p in enumerate(sorted({0, *map(int, re.findall(r"\d+", rep))}))}
    return perm_order(parse_cycles(re.sub(r"\d+", lambda d: str(rank[int(d[0])]), rep),
                                   len(rank) - 1))


def _check_classes(classes: tuple[TableClass, ...], order: int, exponent: int) -> None:
    """Class data that every vanishing verdict reads, checked before any entry
    is parsed; the exponent it pins down bounds what parsing an entry costs."""
    r = len(classes)
    for j, c in enumerate(classes):
        o, powers = c.element_order, c.powers
        if len(powers) != o or c.size * c.centralizer != order:
            raise TableFileError(f"class {j}: inconsistent class summary")
        if not all(0 <= p < r for p in powers) or powers[0] != 0 or powers[1 % o] != j:
            raise TableFileError(f"class {j}: power map out of range or not "
                                 f"anchored at the identity and the class itself")
        if any(classes[p].element_order != o // gcd(o, k) for k, p in enumerate(powers)):
            raise TableFileError(f"class {j}: power map disagrees with the class orders")
        if _rep_order(c.rep) != o:
            raise TableFileError(f"class {j}: representative does not have order {o}")
    if order < 1 or sum(c.size for c in classes) != order:
        raise TableFileError("class sizes do not sum to a positive group order")
    if exponent != lcm(*(c.element_order for c in classes)) or order % exponent:
        raise TableFileError("exponent is not the lcm of the class orders")


def table_from_text(text: str) -> CharacterTable:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableFileError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_TAG:
        raise TableFileError(f"missing or unsupported format tag (want {FORMAT_TAG})")
    try:
        order = int(obj["order"])
        exponent = int(obj["exponent"])
        seed = int(obj["seed"])
        group = str(obj["group"])
        classes = tuple(TableClass(size=int(c["size"]), element_order=int(c["order"]),
                                   centralizer=int(c["centralizer"]), rep=str(c["rep"]),
                                   powers=tuple(int(x) for x in c["powers"]))
                        for c in obj["classes"])
        _check_classes(classes, order, exponent)
        rows = []
        for row in obj["rows"]:
            if len(row) != len(classes):
                raise TableFileError("row length does not match the class count")
            if any(v["m"] != exponent for v in row):
                raise TableFileError("entry not embedded at the table exponent")
            rows.append(tuple(CycloNum.from_obj(v) for v in row))
    except (LookupError, TypeError, ValueError) as exc:
        if isinstance(exc, TableFileError):
            raise
        raise TableFileError(f"malformed table file: {exc}") from None
    return CharacterTable(group=group, order=order, exponent=exponent, seed=seed,
                          classes=classes, rows=tuple(rows))
