"""Finite permutation groups: enumeration, conjugacy classes, class algebra.

Elements are `bytes` of images on points 0..n-1, so the degree is at most
256; the product a*b acts as "apply b, then a", and is computed as
`b.translate(a_tab)`, where a_tab is a padded out to a 256-byte translation
table.  Same-length `bytes` sort like the tuples of their values, so every
lex order below is the lex order of the image tuples.  Everything is
enumerated explicitly under an order budget, which keeps every downstream
computation exact and deterministic.

As text, a permutation is written in cycle notation on 1-based points.  A
group file may spell its generators as any disjoint cycles (`cycle_points`);
`format_cycles` writes the one canonical spelling, the only one that
`canonical_cycle_points` reads back (a table file's class representatives).

Enumeration is Dimino's (Butler, *Fundamental Algorithms for Permutation
Groups*, LNCS 559, 1991): a generator already in the subgroup H built so far
is skipped; each other one is kept and grows H by left cosets r*H, each
filled with one product per element and no membership test, after the order
budget is checked.  The result, `elements`, is the one element store: an
insertion-ordered dict from each element to its class number.  The class
scan walks it in order and conjugates by the kept generators only, which
generate the group; each representative is its orbit's lex-least member,
classes are sorted by (element order, class size, representative), and the
class numbers go into the same dict, which becomes `class_index`.  Class
members are the store's own keys, so each permutation is stored once.

Classes come in Galois families: for k prime to o(x), z -> z^k maps the
class C of x onto the class of x^k.  Once the scan has found C, the k with
x^k in C form a subgroup S of the units mod o(x), and each other coset kS
whose class is not numbered yet is a new class {z^k : z in C}.  All of them
are filled, not scanned, in one walk over C that takes each z to the largest
power needed, one product per power; each keeps only its least member.

All class algebra goes through one primitive with one cache: the class
column (i, k), which counts the classes of u*rep_k over u in C_i at the cost
of |C_i| products.  u*rep_k is conjugate (by u) to rep_k*u, which is
`u.translate(rep_tab)`, so one padded table serves the whole column.
`class_row(i, p)` is row p of Dixon's class matrix A_i, read from the
column of the smaller of the two classes against the other's representative
and scaled by class sizes.  Columns are computed only when asked for, and
the character table asks for rows at a few pivots only, so it pays for a
small share of the r*|G| products that the full matrices cost.
`power_maps` walks rep^k once per class.

Normal structure is read from the verified character table (`chartab`).
"""

import re
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

Perm = bytes

DEFAULT_ORDER_BUDGET = 200_000
# Largest class count `Group.classes` accepts.  The scan checks it after each
# class (and its Galois family) and stops as soon as it is passed.
# The exact verify grows as r^3 in the class count r: at r = 64 a table takes
# 0.047 s (C2^6, Python 3.11.7, 2-vCPU host), and the registry needs at most 22.
# A fixed limit, not a setting.
MAX_CLASSES = 64
MAX_DEGREE = 256  # points are byte values


class BudgetExceeded(RuntimeError):
    """The group exceeds a size limit: the order budget or the class
    ceiling `MAX_CLASSES`."""


class GroupFileError(ValueError):
    pass


# -- raw permutation helpers --------------------------------------------------

_IDENTITY_TABLE = bytes(range(MAX_DEGREE))


def _table(a: Perm) -> bytes:
    """a as a `translate` table: x.translate(_table(a)) is a*x."""
    return a + _IDENTITY_TABLE[len(a):]


def pinv(a: Perm) -> Perm:
    n = len(a)  # the table that sends a[i] to i, cut back to n points
    return bytes.maketrans(a, _IDENTITY_TABLE[:n])[:n]


def identity_perm(n: int) -> Perm:
    return bytes(range(n))


def perm_order(a: Perm) -> int:
    return lcm(1, *map(len, perm_cycles(a)))


def perm_cycles(a: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles of length >= 2, each rotated to start at its least point."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = a[j]
        out.append(tuple(cyc))
    return out


def _cycle_text(cycles) -> str:
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles) or "()"


def format_cycles(a: Perm) -> str:
    """Canonical cycle notation on 1-based points: no 1-cycles, each cycle
    from its least point, cycles in order of that point, one space between
    points; the identity prints as ()."""
    return _cycle_text(perm_cycles(a))


def cycle_points(line: str, degree: int) -> list[list[int]]:
    """The nonempty cycles of one permutation in cycle notation, as lists of
    0-based points; the points are 1-based in the line and lie in [1, degree].

    A point repeated anywhere in the line would make the map non-injective,
    so it is rejected.  Each point is range-checked as it is read, so a line
    is refused at its first point outside the degree.
    """
    s = line.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", s):
        raise GroupFileError(f"malformed cycle notation: {line!r}")
    return _bodies_points(re.findall(r"\(([^()]*)\)", s), degree)


def _bodies_points(bodies: list[str], degree: int) -> list[list[int]]:
    """The points of each nonempty cycle body, checked as `cycle_points` says."""
    cycles = []
    used: set[int] = set()
    for body in bodies:
        pts = []
        for t in body.split():
            p = int(t) - 1
            if not 0 <= p < degree:
                raise GroupFileError(f"point {p + 1} outside degree {degree}")
            if p in used:
                raise GroupFileError(f"point {p + 1} repeated: map is not a bijection")
            used.add(p)
            pts.append(p)
        if pts:
            cycles.append(pts)
    return cycles


# The shape of what `format_cycles` writes: () or cycles of two or more points,
# each a decimal without leading zeros, one space between points.  It is
# compiled on first use, like every pattern here, so importing costs nothing.
_CANONICAL_SHAPE = r"\(\)|(?:\([1-9][0-9]*(?: [1-9][0-9]*)+\))+"


def canonical_cycle_points(line: str) -> list[list[int]]:
    """The cycles of a line that is exactly what `format_cycles` writes, on
    at most MAX_DEGREE points, as `cycle_points` gives them; any other
    spelling of a permutation is refused.  A line of the canonical shape
    needs its points in range and distinct, each cycle led by its least
    point and the cycles in order of that point.  A line of another shape is
    read by `cycle_points` only to name a fault that it finds first."""
    if re.fullmatch(_CANONICAL_SHAPE, line):
        cycles = _bodies_points(line[1:-1].split(")("), MAX_DEGREE)
        firsts = [c[0] for c in cycles]
        if firsts == sorted(firsts) and all(c[0] == min(c) for c in cycles):
            return cycles
    else:
        cycle_points(line, MAX_DEGREE)
    raise GroupFileError(f"not in canonical cycle notation: {line!r}")


def parse_cycles(line: str, degree: int) -> Perm:
    """One permutation in cycle notation (see `cycle_points`); degree <= 256."""
    images = bytearray(identity_perm(degree))
    for pts in cycle_points(line, degree):
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return bytes(images)


def check_perm(images, degree: int) -> Perm:
    t = tuple(images)
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise ValueError(f"image list is not a bijection on 0..{degree - 1}")
    return bytes(t)


# -- group definition files ----------------------------------------------------
#
# Grammar (one directive per line; blank lines and '#' comments ignored):
#   degree N          exactly once, first; one integer, 1 <= N <= the order
#                     budget and N <= 256
#   name STRING       optional, at most once, nonempty
#   (c1 c2 ...)...    one generator per line, disjoint cycles, 1-based points

def parse_group_file(text: str, max_order: int = DEFAULT_ORDER_BUDGET) -> "Group":
    degree = None
    name = None
    gens: list[Perm] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "degree":
            if degree is not None:
                raise GroupFileError("duplicate degree directive")
            try:
                (degree,) = map(int, words[1:])
            except ValueError:
                raise GroupFileError(f"bad degree directive: {line!r}") from None
            if degree < 1:
                raise GroupFileError("degree must be >= 1")
            if degree > max_order:
                raise GroupFileError(f"degree {degree} exceeds the order budget {max_order}")
            if degree > MAX_DEGREE:
                raise GroupFileError(f"degree {degree} exceeds the largest degree {MAX_DEGREE}")
        elif words[0] == "name":
            if degree is None:
                raise GroupFileError("degree must come first")
            if name is not None:
                raise GroupFileError("duplicate name directive")
            name = line[4:].strip()
            if not name:
                raise GroupFileError("empty name directive")
        else:
            if degree is None:
                raise GroupFileError("degree must come first")
            gens.append(parse_cycles(line, degree))
    if degree is None:
        raise GroupFileError("missing degree directive")
    return Group(gens, degree=degree, name=name, max_order=max_order)


def format_group_file(group: "Group") -> str:
    lines, name = [f"degree {group.degree}"], group.name
    if name is not None:  # empty, padded, '#' or a line break: would not read back
        if name != name.strip() or "#" in name or name.splitlines() != [name]:
            raise GroupFileError(f"a group file cannot carry the name {name!r}")
        lines.append(f"name {name}")
    lines.extend(format_cycles(g) for g in group.generators)
    return "\n".join(lines) + "\n"


# -- conjugacy classes ----------------------------------------------------------

def _new_conjugates(store: dict[Perm, int], x: Perm, o: int) -> list[tuple[int, Perm]]:
    """(k, x^k) for the least k of each coset kS of the units mod o whose
    class is not numbered yet, k ascending; o is the order of x, and S the
    k with x^k in the class of x."""
    xt, xs = _table(x), [None, x]
    while len(xs) < o:
        xs.append(xs[-1].translate(xt))  # xs[k] = x^k
    units = [k for k in range(1, o) if gcd(k, o) == 1]
    stab = [k for k in units if store[xs[k]] == store[x]]
    seen, new = set(), []
    for k in units:
        if k not in seen:
            seen.update(k * s % o for s in stab)
            if store[xs[k]] < 0:
                new.append((k, xs[k]))
    return new


class ConjugacyClass(NamedTuple):
    rep: Perm
    size: int
    element_order: int
    members: tuple[Perm, ...]


class Group:
    """A finite permutation group, fully enumerated on demand."""

    def __init__(self, generators, *, degree: int,
                 name: str | None = None, max_order: int = DEFAULT_ORDER_BUDGET):
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} exceeds {MAX_DEGREE}: "
                             f"points are stored as bytes")
        self.generators: tuple[Perm, ...] = tuple(check_perm(g, degree)
                                                  for g in generators)
        self.degree = degree
        self.name = name
        self.max_order = max_order
        self._columns: dict[tuple[int, int], tuple[int, ...]] = {}

    # -- enumeration ------------------------------------------------------

    @cached_property
    def elements(self) -> dict[Perm, int]:
        """Every element, in the order found, mapped to its class number
        (-1 until `classes` has run).  Only the candidates s*r for a new
        coset representative are looked up, never the coset's elements."""
        e, kept, limit = identity_perm(self.degree), [], self.max_order
        if limit < 1:  # not even the identity fits
            raise BudgetExceeded(f"group exceeds order budget {limit}")
        store = {e: -1}
        for g in self.generators:
            if g in store:
                continue
            kept.append(g)
            tables, sub, reps = [_table(s) for s in kept], list(store), [e]
            for r in reps:
                for t in tables:
                    y = r.translate(t)  # s*r: its coset is (s*r)*H
                    if y in store:
                        continue
                    if len(store) + len(sub) > limit:
                        raise BudgetExceeded(f"group exceeds order budget {limit}")
                    yt = _table(y)
                    for h in sub:
                        store[h.translate(yt)] = -1
                    reps.append(y)
        self._kept = tuple(kept)
        return store

    @cached_property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"Group(degree={self.degree}{nm})"

    # -- conjugacy classes --------------------------------------------------

    @cached_property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        store = self.elements
        pairs = [(g.translate, _table(pinv(g))) for g in self._kept]
        found: list[tuple[int, int, Perm]] = []  # the sort key of each orbit
        for x, n in store.items():
            if n >= 0:
                continue
            n = store[x] = len(found)
            orbit = [x]
            for z in orbit:
                zt = _table(z)
                for g_translate, gi in pairs:
                    y = g_translate(zt).translate(gi)  # g^-1 * z * g
                    if store[y] < 0:
                        store[y] = n  # the stored key object stays
                        orbit.append(y)
            o = perm_order(x)
            found.append((o, len(orbit), min(orbit)))
            # Galois conjugates, all filled by one power walk per member
            least = dict(_new_conjugates(store, x, o))  # k -> least member
            number = {k: len(found) + i for i, k in enumerate(least)}
            top = max(least, default=1)
            for z in orbit if least else ():
                zt, y = _table(z), z
                for k in range(2, top + 1):
                    y = y.translate(zt)  # z^k
                    m = number.get(k)
                    if m is not None:
                        store[y] = m
                        if y < least[k]:
                            least[k] = y
            found.extend((o, len(orbit), y) for y in least.values())
            if len(found) > MAX_CLASSES:
                store.update(dict.fromkeys(store, -1))  # so a rescan starts afresh
                raise BudgetExceeded(f"more than {MAX_CLASSES} conjugacy classes "
                                     f"exceed the budget {MAX_CLASSES}")
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = sorted(range(len(order)), key=order.__getitem__)  # inverse of order
        members: list[list[Perm]] = [[] for _ in found]
        for x, n in store.items():
            store[x] = i = rank[n]
            members[i].append(x)
        classes = []
        for mem, n in zip(members, order):
            eo, size, rep = found[n]
            j = mem.index(rep)  # the representative leads its members
            mem[0], mem[j] = mem[j], mem[0]
            classes.append(ConjugacyClass(mem[0], size, eo, tuple(mem)))
        return tuple(classes)

    @property
    def class_index(self) -> dict[Perm, int]:
        """Class number of every element: `elements`, once `classes` has run."""
        self.classes
        return self.elements

    @cached_property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)

    @cached_property
    def exponent(self) -> int:
        return lcm(*(c.element_order for c in self.classes))

    @cached_property
    def power_maps(self) -> tuple[tuple[int, ...], ...]:
        """power_maps[j][k] is the class of rep_j^k for 0 <= k < its order, so
        power_maps[j][-1] is the class of rep_j^-1."""
        ci = self.class_index
        maps = []
        for c in self.classes:
            x, row, t = identity_perm(self.degree), [], _table(c.rep)
            for _ in range(c.element_order):
                row.append(ci[x])
                x = x.translate(t)
            maps.append(tuple(row))
        return tuple(maps)

    # -- class algebra --------------------------------------------------------

    def class_column(self, i: int, k: int) -> tuple[int, ...]:
        """Entry j counts the u in C_i with u*rep_k in C_j; cached.  u*rep_k
        is conjugate by u to rep_k*u, whose class is counted instead."""
        key = (i, k)
        got = self._columns.get(key)
        if got is None:
            ci = self.class_index
            t = _table(self.classes[k].rep)
            counts = [0] * self.num_classes
            for u in self.classes[i].members:
                counts[ci[u.translate(t)]] += 1
            got = self._columns[key] = tuple(counts)
        return got

    def class_row(self, i: int, p: int) -> list[int]:
        """Row p of Dixon's class matrix A_i: entry k is c_ipk, the number
        of (x, y) in C_i x C_p with x*y = rep_k.

        The pairs in C_i x C_p with product in C_k number c_ipk*|C_k| when
        counted by the product, and column(i, p)[k]*|C_p| when counted by
        the second factor.  Class sums commute, so c_ipk = c_pik and the
        column is read from the smaller class (the lower index on a tie).
        """
        sizes = self.class_sizes
        if (sizes[i], i) > (sizes[p], p):
            i, p = p, i
        size_p = sizes[p]
        return [n * size_p // s for n, s in zip(self.class_column(i, p), sizes)]
