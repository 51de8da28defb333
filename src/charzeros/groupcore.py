"""Finite permutation groups: enumeration, conjugacy classes, normal structure.

Elements are image tuples on points 0..n-1; the product a*b acts as "apply b,
then a".  Everything is enumerated explicitly under an order budget, which
keeps every downstream computation exact and deterministic.  The group keeps
one element store, `elements`, a tuple in lex order.  Classes are discovered
by scanning it, each class representative is its lex-least member, and the
class list is sorted by (element order, class size, representative); the
same scan fills `class_index`, the class number of every element.

`class_matrix(i)` gives the class multiplication constants of one class,
A_i[j][k] = #{(x, y) in C_i x C_j : x*y = rep_k}, from which the character
table is computed.  It walks the inverse class once: for x in C_i the partner
y = x^-1 * rep_k is fixed, so |C_i| * r products fill the matrix.

Normal-subgroup machinery works on sets of class indices rather than element
sets.  A union of classes containing the identity is a subgroup iff it is
closed under class multiplication, and the support of a class product
K_i * K_j is read off from |C_i| products against a fixed representative of
C_j, so normal closures cost a few class-support sweeps instead of a fresh
element enumeration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import lcm

Perm = tuple[int, ...]

DEFAULT_ORDER_BUDGET = 200_000


class OrderBudgetExceeded(RuntimeError):
    pass


class NotBijection(ValueError):
    pass


class GroupFileError(ValueError):
    pass


# -- raw permutation helpers --------------------------------------------------

def pmul(a: Perm, b: Perm) -> Perm:
    """Composition a after b: (a*b)(i) = a(b(i))."""
    return tuple(map(a.__getitem__, b))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def perm_order(a: Perm) -> int:
    seen = [False] * len(a)
    o = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            ln += 1
        o = lcm(o, ln)
    return o


def ppow(a: Perm, k: int) -> Perm:
    n = len(a)
    if k < 0:
        a, k = pinv(a), -k
    r = identity_perm(n)
    while k:
        if k & 1:
            r = pmul(r, a)
        a = pmul(a, a)
        k >>= 1
    return r


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


def format_cycles(a: Perm) -> str:
    """Cycle notation on 1-based points; the identity prints as ()."""
    cycs = perm_cycles(a)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)


def parse_cycles(line: str, degree: int) -> Perm:
    """One permutation as disjoint cycles on 1-based points in [1, degree].

    A point repeated anywhere in the line would make the map non-injective,
    so it is rejected.
    """
    s = line.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", s):
        raise GroupFileError(f"malformed cycle notation: {line!r}")
    images = list(range(degree))
    used: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", s):
        pts = [int(t) - 1 for t in body.split()]
        for p in pts:
            if not 0 <= p < degree:
                raise GroupFileError(f"point {p + 1} outside degree {degree}")
            if p in used:
                raise NotBijection(f"point {p + 1} repeated: map is not a bijection")
            used.add(p)
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def check_perm(images, degree: int) -> Perm:
    t = tuple(images)
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise NotBijection(f"image list is not a bijection on 0..{degree - 1}")
    return t


# -- group definition files ----------------------------------------------------
#
# Grammar (one directive per line; blank lines and '#' comments ignored):
#   degree N          exactly once, first
#   name STRING       optional, at most once
#   (c1 c2 ...)...    one generator per line, disjoint cycles, 1-based points

def parse_group_file(text: str, max_order: int = DEFAULT_ORDER_BUDGET) -> "Group":
    degree = None
    name = None
    gens: list[Perm] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree"):
            if degree is not None:
                raise GroupFileError("duplicate degree directive")
            if gens or name is not None:
                raise GroupFileError("degree must come first")
            try:
                degree = int(line.split()[1])
            except (IndexError, ValueError):
                raise GroupFileError(f"bad degree directive: {line!r}") from None
            if degree < 1:
                raise GroupFileError("degree must be >= 1")
        elif line.startswith("name"):
            if degree is None:
                raise GroupFileError("degree must come first")
            if name is not None:
                raise GroupFileError("duplicate name directive")
            name = line[4:].strip()
        else:
            if degree is None:
                raise GroupFileError("degree must come first")
            gens.append(parse_cycles(line, degree))
    if degree is None:
        raise GroupFileError("missing degree directive")
    return Group(gens, degree=degree, name=name, max_order=max_order)


def format_group_file(group: "Group") -> str:
    lines = [f"degree {group.degree}"]
    if group.name:
        lines.append(f"name {group.name}")
    lines.extend(format_cycles(g) for g in group.generators)
    return "\n".join(lines) + "\n"


# -- conjugacy classes ----------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyClass:
    index: int
    rep: Perm
    size: int
    element_order: int
    members: tuple[Perm, ...]


class Group:
    """A finite permutation group, fully enumerated on demand."""

    def __init__(self, generators, *, degree: int | None = None,
                 name: str | None = None, max_order: int = DEFAULT_ORDER_BUDGET):
        gens = [tuple(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree is required for a generator-free group")
            degree = len(gens[0])
        gens = [check_perm(g, degree) for g in gens]
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.degree = degree
        self.name = name
        self.max_order = max_order
        self._support_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._power_cache: dict[tuple[int, int], int] = {}
        self._matrix_cache: dict[int, list[list[int]]] = {}

    # -- enumeration ------------------------------------------------------

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """Every element, in lex order."""
        e = identity_perm(self.degree)
        elems = {e}
        frontier = [e]
        limit = self.max_order
        gens = self.generators
        while frontier:
            nxt = []
            for x in frontier:
                xg = x.__getitem__
                for g in gens:
                    y = tuple(map(xg, g))
                    if y not in elems:
                        elems.add(y)
                        if len(elems) > limit:
                            raise OrderBudgetExceeded(
                                f"group exceeds order budget {limit}")
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(elems))

    @cached_property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"Group(degree={self.degree}{nm})"

    # -- conjugacy classes --------------------------------------------------

    @cached_property
    def classes(self) -> tuple[ConjugacyClass, ...]:
        gens = self.generators
        ginv = [pinv(g) for g in gens]
        pairs = list(zip(gens, ginv))
        index: dict[Perm, int] = {}  # element -> orbit number, in discovery order
        found: list[tuple[Perm, tuple[Perm, ...]]] = []
        for x in self.elements:
            if x in index:
                continue
            n = len(found)
            orbit = [x]
            index[x] = n
            i = 0
            while i < len(orbit):
                z = orbit[i]
                i += 1
                zg = z.__getitem__
                for g, gi in pairs:
                    y = tuple(map(gi.__getitem__, map(zg, g)))
                    if y not in index:
                        index[y] = n
                        orbit.append(y)
            found.append((x, tuple(orbit)))
        found.sort(key=lambda t: (perm_order(t[0]), len(t[1]), t[0]))
        renumber = {index[rep]: i for i, (rep, _) in enumerate(found)}
        for x, n in index.items():
            index[x] = renumber[n]
        self.class_index = index
        return tuple(
            ConjugacyClass(i, rep, len(mem), perm_order(rep), mem)
            for i, (rep, mem) in enumerate(found))

    @cached_property
    def class_index(self) -> dict[Perm, int]:
        """Class number of every element; filled in by the `classes` scan."""
        self.classes
        return self.__dict__["class_index"]

    @cached_property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def exponent(self) -> int:
        return lcm(*(c.element_order for c in self.classes))

    def power_class(self, i: int, k: int) -> int:
        """Index of the class containing rep_i^k."""
        o = self.classes[i].element_order
        k %= o
        key = (i, k)
        got = self._power_cache.get(key)
        if got is None:
            got = self.class_index[ppow(self.classes[i].rep, k)]
            self._power_cache[key] = got
        return got

    def inverse_class(self, i: int) -> int:
        return self.power_class(i, -1)

    def class_matrix(self, i: int) -> list[list[int]]:
        """A_i[j][k] = c_ijk = #{(x, y) in C_i x C_j : x*y = rep_k}, cached.

        x*y = rep_k forces y = x^-1 * rep_k, and x^-1 runs over the inverse
        class, so each (x^-1, k) adds one to A_i[class of x^-1 * rep_k][k].
        """
        got = self._matrix_cache.get(i)
        if got is None:
            ci = self.class_index
            reps = [c.rep for c in self.classes]
            got = [[0] * len(reps) for _ in reps]
            for u in self.classes[self.inverse_class(i)].members:
                ug = u.__getitem__
                for k, z in enumerate(reps):
                    got[ci[tuple(map(ug, z))]][k] += 1
            self._matrix_cache[i] = got
        return got

    # -- class multiplication support ---------------------------------------

    def class_support(self, i: int, j: int) -> frozenset[int]:
        """Classes meeting the product set C_i * C_j.

        Class sums commute, so the support is symmetric in (i, j); it is
        scanned from the smaller class against a fixed representative of the
        larger, since every product pair is conjugate to one of that form.
        """
        if self.classes[i].size > self.classes[j].size:
            i, j = j, i
        key = (i, j)
        got = self._support_cache.get(key)
        if got is None:
            ci = self.class_index
            rep = self.classes[j].rep
            got = frozenset(ci[tuple(map(x.__getitem__, rep))]
                            for x in self.classes[i].members)
            self._support_cache[key] = got
        return got

    def class_set_order(self, s) -> int:
        return sum(self.classes[i].size for i in s)

    def closed_class_set(self, seed) -> frozenset[int]:
        """Smallest union of classes containing the seed classes and the
        identity that is closed under multiplication, i.e. the normal closure
        of the seed classes as a set of class indices."""
        s = {0} | set(seed)
        total = self.class_set_order(s)
        work = sorted(s)
        done: set[int] = set()
        while work:
            if total == self.order:
                return frozenset(range(self.num_classes))
            i = work.pop()
            for j in sorted(s):
                if (i, j) in done:
                    continue
                done.add((i, j))
                done.add((j, i))
                for k in self.class_support(i, j):
                    if k not in s:
                        s.add(k)
                        total += self.class_set_order([k])
                        work.append(k)
        return frozenset(s)

    def class_set_elements(self, s) -> set[Perm]:
        out: set[Perm] = set()
        for i in s:
            out.update(self.classes[i].members)
        return out

    # -- normal structure ----------------------------------------------------

    @cached_property
    def derived_classes(self) -> frozenset[int]:
        """Class indices forming the derived subgroup."""
        comms = set()
        gens = self.generators
        for a in gens:
            ai = pinv(a)
            for b in gens:
                comms.add(pmul(pmul(ai, pinv(b)), pmul(a, b)))
        return self.closed_class_set({self.class_index[x] for x in comms})

    @cached_property
    def is_perfect(self) -> bool:
        return len(self.derived_classes) == self.num_classes

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(pmul(a, b) == pmul(b, a) for a in gens for b in gens)

    @cached_property
    def center_classes(self) -> frozenset[int]:
        return frozenset(c.index for c in self.classes if c.size == 1)

    @cached_property
    def is_simple(self) -> bool:
        """No proper nontrivial normal subgroup (trivial group: not simple)."""
        if self.order == 1:
            return False
        for c in self.classes[1:]:
            if len(self.closed_class_set([c.index])) != self.num_classes:
                return False
        return True

    def normal_subgroups(self) -> list[frozenset[int]]:
        """All normal subgroups as class-index sets, ascending by order.

        Joins of the per-class minimal normal closures exhaust the lattice:
        every normal subgroup is the closure of the classes it contains.
        """
        minimal = {self.closed_class_set([c.index]) for c in self.classes}
        lattice = {frozenset([0])} | minimal
        frontier = list(lattice)
        while frontier:
            s = frontier.pop()
            for m in minimal:
                j = self.closed_class_set(s | m)
                if j not in lattice:
                    lattice.add(j)
                    frontier.append(j)
        return sorted(lattice, key=lambda s: (self.class_set_order(s), sorted(s)))

    @cached_property
    def is_quasisimple(self) -> bool:
        if not self.is_perfect:
            return False
        return self.quotient(self.center_classes).is_simple

    def quotient(self, class_set) -> "Group":
        """Quotient by the normal subgroup formed by the given classes,
        realized by the action on cosets (ordered by lex-least member)."""
        s = frozenset(class_set)
        for i in s:
            if not self.class_support(i, i) <= s or 0 not in s:
                raise ValueError("class set is not a normal subgroup")
        n_elems = sorted(self.class_set_elements(s))
        coset_of: dict[Perm, int] = {}
        reps: list[Perm] = []
        for g in self.elements:
            if g in coset_of:
                continue
            idx = len(reps)
            reps.append(g)
            gg = g.__getitem__
            for x in n_elems:
                coset_of[tuple(map(gg, x))] = idx
        gen_images = []
        for a in self.generators:
            ag = a.__getitem__
            gen_images.append(tuple(coset_of[tuple(map(ag, r))] for r in reps))
        nm = f"{self.name}/N{len(n_elems)}" if self.name else None
        return Group(gen_images, degree=len(reps), name=nm, max_order=self.max_order)
