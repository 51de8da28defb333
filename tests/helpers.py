"""Independent brute-force oracles backing the fast implementations.

Everything here deliberately avoids the code paths under test: the character
oracle works through the regular representation with floating-point
eigenvectors (snapped to exact cyclotomic integers and re-verified exactly),
the normal-subgroup oracle does literal closure testing on element sets, and
the primitive-divisor oracle scans prime factors directly.
"""

from __future__ import annotations

import itertools
from math import isqrt

import numpy as np
import sympy

from charzeros.cyclo import CycloNum
from charzeros.groupcore import Group, pmul


def brute_zsigmondy(q: int, n: int) -> int | None:
    """Least prime dividing q^n - 1 but no q^i - 1 for i < n, by full scan."""
    for l in sorted(sympy.primefactors(q**n - 1)):
        if all((q**i - 1) % l for i in range(1, n)):
            return l
    return None


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
        elems = frozenset(group.class_set_elements(s))
        if all(pmul(a, b) in elems for a in elems for b in elems):
            out.add(s)
    return out


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
        for g in group.class_set_elements({j}):
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
        cycle = [vals[group.power_class(j, s)] for s in range(o)]
        ent = CycloNum.zero(m)
        total = 0
        for t in range(o):
            acc = sum(cycle[s] * np.exp(-2j * np.pi * s * t / o)
                      for s in range(o)) / o
            c = round(acc.real)
            if abs(acc - c) > 1e-6 or c < 0:
                raise OracleFailure(f"non-integral multiplicity {acc}")
            total += c
            if c:
                ent = ent + CycloNum.root_of_unity(o, t, c)
        if total != degree:
            raise OracleFailure("multiplicities do not sum to the degree")
        row.append(ent.embed(m))
    return tuple(row)


def _verify_exact(group: Group, rows) -> None:
    sizes = [c.size for c in group.classes]
    n = group.order
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            acc = CycloNum.zero(1)
            for j, sz in enumerate(sizes):
                acc = acc + ra[j] * rb[j].conjugate() * sz
            if acc != (n if a == b else 0):
                raise OracleFailure(f"rows {a},{b} not orthonormal")


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
