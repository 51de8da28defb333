"""Independent brute-force oracles backing the fast implementations.

Everything here deliberately avoids the code paths under test: the character
oracle works through the regular representation with floating-point
eigenvectors (snapped to exact cyclotomic integers and re-verified exactly),
the normal-subgroup oracle does literal closure testing on element sets, the
class oracle closes the generators breadth-first and scans the sorted
elements, the
primitive-divisor oracle scans prime factors directly, the diophantine
oracle scans every prime power up to the bound, and the Galois-law oracle
compares table values as complex numbers for every unit.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt

import numpy as np
import sympy

from charzeros.cyclo import CycloNum
from charzeros.groupcore import Group, pinv
from charzeros.numtheory import DiophantineSolution, DiophantineSolutionSet


_FIXED = bytes(range(256))  # the identity on every byte, sliced as padding


def pmul(a: bytes, b: bytes) -> bytes:
    """Composition a after b: (a*b)(i) = a(b(i))."""
    return b.translate(a + _FIXED[len(a):])


def brute_zsigmondy(q: int, n: int) -> int | None:
    """Least prime dividing q^n - 1 but no q^i - 1 for i < n, by full scan."""
    for l in sorted(sympy.primefactors(q**n - 1)):
        if all((q**i - 1) % l for i in range(1, n)):
            return l
    return None


def _two_exponent(x: int) -> int | None:
    """e with x = 2^e, or None."""
    return x.bit_length() - 1 if x >= 1 and x & (x - 1) == 0 else None


def _p_part(x: int, p: int) -> tuple[int, int]:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


def brute_diophantine(part: str, bound: int) -> DiophantineSolutionSet:
    """The diophantine solution set by testing every prime power q <= bound."""
    qs = []
    for p in sympy.sieve.primerange(2, bound + 1):
        q = p
        while q <= bound:
            qs.append(q)
            q *= p
    sols = []
    for q in sorted(qs):
        if part == "A":
            c = _two_exponent(q - 1)
            a, rest = _p_part(q + 1, 2)
            b, rest = _p_part(rest, 3)
            if c is not None and rest == 1 and a >= 1:
                sols.append(DiophantineSolution(q, a, b, c))
        elif part == "B":
            a = _two_exponent(q - 1)
            b, rest = _p_part(q + 1, 2)
            c, rest = _p_part(rest, 5)
            if a is not None and a >= 1 and rest == 1:
                sols.append(DiophantineSolution(q, a, b, c))
        else:
            a, rest = _p_part(q - 1, 2)
            b, rest = _p_part(rest, 5)
            c = _two_exponent(q + 1)
            if rest == 1 and a >= 1 and c is not None:
                sols.append(DiophantineSolution(q, a, b, c))
    return DiophantineSolutionSet(part, bound, tuple(sols))


def field_element_order(F, a: int) -> int:
    """Multiplicative order of a nonzero field element, by repeated products."""
    o, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        o += 1
    return o


def brute_normal_class_sets(group: Group) -> set[frozenset[int]]:
    """Identity-containing class unions that are subgroups, by literal closure.

    Exponential in the class count; intended for small groups only.
    """
    r = group.num_classes
    out = set()
    for mask in itertools.product((0, 1), repeat=r - 1):
        s = frozenset({0} | {i + 1 for i, b in enumerate(mask) if b})
        total = sum(group.classes[i].size for i in s)
        if group.order % total:
            continue
        elems = frozenset(x for i in s for x in group.classes[i].members)
        if all(pmul(a, b) in elems for a in elems for b in elems):
            out.add(s)
    return out


def brute_classes(group: Group) -> list[tuple[int, int, bytes]]:
    """(element order, size, representative) of every class, sorted.

    The elements come from a breadth-first closure under all the given
    generators and are scanned in lex order, so each class is found from its
    least member, as the conjugation orbit under all the generators.
    Element orders come from repeated products.
    """
    gens = group.generators
    e = bytes(range(group.degree))
    elems, frontier = {e}, [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(g, x)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    pairs = [(g, pinv(g)) for g in gens]
    seen, out = set(), []
    for x in sorted(elems):
        if x in seen:
            continue
        orbit, work = {x}, [x]
        while work:
            z = work.pop()
            for g, gi in pairs:
                y = pmul(gi, pmul(z, g))
                if y not in orbit:
                    orbit.add(y)
                    work.append(y)
        seen |= orbit
        o, y = 1, x
        while y != e:
            y, o = pmul(y, x), o + 1
        out.append((o, len(orbit), x))
    return sorted(out)


def brute_min_poly_degree(b: list[list[int]], l: int) -> int:
    """Least k such that I, B, ..., B^k are linearly dependent over F_l,
    by row-reducing the flattened powers one at a time."""
    d = len(b)
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    rows: list[list[int]] = []  # reduced flattened powers, pivot first
    for k in range(d + 1):
        v = [x % l for row in power for x in row]
        for r in rows:
            lead = next(i for i, x in enumerate(r) if x)
            if v[lead]:
                f = v[lead] * pow(r[lead], -1, l)
                v = [(x - f * y) % l for x, y in zip(v, r)]
        if not any(v):
            return k
        rows.append(v)
        power = [[sum(power[i][t] * b[t][j] for t in range(d)) % l
                  for j in range(d)] for i in range(d)]
    raise AssertionError("Cayley-Hamilton bounds the degree by the size")


class OracleFailure(RuntimeError):
    pass


def _regular_class_sums(group: Group) -> list[np.ndarray]:
    elems = sorted(group.elements)
    idx = {g: i for i, g in enumerate(elems)}
    n = group.order
    sums = []
    for j in range(group.num_classes):
        mat = np.zeros((n, n))
        for g in group.classes[j].members:
            for col, x in enumerate(elems):
                mat[idx[pmul(g, x)], col] += 1.0
        sums.append(mat)
    return sums


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    groups: list[list[int]] = []
    centers: list[complex] = []
    for i, w in enumerate(values):
        for k, c in enumerate(centers):
            if abs(w - c) < tol:
                groups[k].append(i)
                break
        else:
            groups.append([i])
            centers.append(w)
    return groups


def _snap_row(group: Group, vals: list[complex], degree: int, m: int):
    """Exact row from numeric values: the restriction of a character to each
    cyclic group <g> has nonnegative integer root-of-unity multiplicities,
    recovered by rounding discrete Fourier coefficients."""
    row = []
    for j in range(group.num_classes):
        o = group.classes[j].element_order
        cycle = [vals[p] for p in group.power_maps[j]]
        raw = {}
        for t in range(o):
            acc = sum(cycle[s] * np.exp(-2j * np.pi * s * t / o)
                      for s in range(o)) / o
            c = round(acc.real)
            if abs(acc - c) > 1e-6 or c < 0:
                raise OracleFailure(f"non-integral multiplicity {acc}")
            raw[t * (m // o)] = c
        if sum(raw.values()) != degree:
            raise OracleFailure("multiplicities do not sum to the degree")
        row.append(CycloNum(m, raw))
    return tuple(row)


def _inner(m: int, xs, ys, weights) -> CycloNum:
    """sum w * x * conj(y), summed in the group ring Z[C_m]
    (zeta^a * conj(zeta^b) = zeta^(a-b)) and reduced by the constructor."""
    raw = {}
    for x, y, w in zip(xs, ys, weights):
        for e1, c1 in x.coeffs.items():
            for e2, c2 in y.coeffs.items():
                e = (e1 - e2) % m
                raw[e] = raw.get(e, 0) + w * c1 * c2
    return CycloNum(m, raw)


def _verify_exact(group: Group, rows) -> None:
    sizes = [c.size for c in group.classes]
    n, m = group.order, group.exponent
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            if _inner(m, ra, rb, sizes) != (n if a == b else 0):
                raise OracleFailure(f"rows {a},{b} not orthonormal")


def brute_orth_violations(t) -> list[str]:
    """The row-orth and col-orth lines of verify_table, with both relations
    summed in full for every pair."""
    r, m, n = len(t.classes), t.exponent, t.order
    sizes = [c.size for c in t.classes]
    out = []
    for i in range(r):
        for j in range(i, r):
            want = n if i == j else 0
            if _inner(m, t.rows[i], t.rows[j], sizes) != want:
                out.append(f"row-orth {i},{j}: inner product != {want}")
    cols = [[row[k] for row in t.rows] for k in range(r)]
    for k in range(r):
        for kk in range(k, r):
            want = n // sizes[k] if k == kk else 0
            if _inner(m, cols[k], cols[kk], [1] * r) != want:
                out.append(f"col-orth {k},{kk}: inner product != {want}")
    return out


def brute_galois_law(t) -> bool:
    """Whether chi(g^k) = sigma_k(chi(g)) for every unit k mod the exponent
    m, every row and every class, with the class of g^k read from the power
    maps.  Both sides are compared in every complex embedding
    zeta_m -> exp(2 pi i u / m): their difference is a cyclotomic integer, and
    a nonzero one has a norm of absolute value >= 1, so some embedding moves
    it by at least 1."""
    m, r = t.exponent, len(t.classes)
    units = [u for u in range(m) if gcd(u, m) == 1]
    coeffs = np.zeros((r, r, m))
    for i, row in enumerate(t.rows):
        for j, v in enumerate(row):
            for e, c in v.coeffs.items():
                coeffs[i, j, e] = c
    # at[n, i, j] = chi_i(g_j) in the embedding zeta_m -> exp(2 pi i units[n] / m)
    at = np.stack([coeffs @ np.exp(2j * np.pi * u * np.arange(m) / m) for u in units])
    where = {u: n for n, u in enumerate(units)}
    for k in units:
        image = [c.powers[k % c.element_order] for c in t.classes]
        # sigma_k(x) in the embedding u is x in the embedding k u
        moved = at[[where[k * u % m] for u in units]]
        if np.abs(moved - at[:, :, image]).max() >= 0.5:
            return False
    return True


def brute_table_rows(group: Group, *, tries: int = 6):
    """The set of character rows, via the regular representation.

    A random real combination of the class sums is normal, and its
    eigenspaces are the isotypic blocks (dimension degree^2); each class sum
    acts on a block by a scalar that determines the character value.  The
    numeric values are snapped to exact cyclotomics and the resulting rows
    must pass exact orthogonality, so floating error cannot leak through.
    """
    sums = _regular_class_sums(group)
    n, r, m = group.order, group.num_classes, group.exponent
    sizes = [c.size for c in group.classes]
    last: Exception | None = None
    for attempt in range(tries):
        rng = np.random.default_rng(101 + attempt)
        combo = sum(c * mat for c, mat in zip(rng.uniform(-1, 1, r), sums))
        w, vecs = np.linalg.eig(combo)
        try:
            clusters = _cluster(w, 1e-6)
            if len(clusters) != r:
                raise OracleFailure(f"{len(clusters)} clusters for {r} classes")
            rows = []
            for members in clusters:
                d = isqrt(len(members))
                if d * d != len(members):
                    raise OracleFailure("non-square eigenvalue multiplicity")
                v = vecs[:, members[0]]
                t = int(np.argmax(np.abs(v)))
                vals = [complex((mat @ v)[t] / v[t]) * d / sz
                        for mat, sz in zip(sums, sizes)]
                rows.append(_snap_row(group, vals, d, m))
            if sum(len(c) for c in clusters) != n:
                raise OracleFailure("eigenvalue count mismatch")
            _verify_exact(group, rows)
            return set(rows)
        except OracleFailure as exc:
            last = exc
    raise OracleFailure(f"no separating combination found: {last}")
