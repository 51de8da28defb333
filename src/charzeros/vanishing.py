"""Vanishing-class predicates on exact character tables.

Everything here works on verified tables, as `table_from_text` loads them:
which classes a row vanishes on, whether a faithful row vanishes only on
elements of one fixed prime-power order within the outer-automorphism bound
and with a compatible centre, whether every nonlinear row vanishes somewhere,
which single-vanishing-class rows carry degrees with two distinct prime
factors, and how the observed single-vanishing-class rows compare against the
registry's expected results.  A report reads a registry entry only through
`constructions.bind`, once per call, which gives none to a table that fails
the entry's facts.  Every report is a named tuple; `_asdict()` gives its
fields as a dict, but not recursively: a survey's entries stay named tuples.
"""
from math import lcm
from typing import NamedTuple

from .chartab import CharacterTable, central_classes, is_faithful
from .constructions import bind
from .numtheory import prime_power

PRIMITIVITY_NOTE = "primitivity of the flagged row is assumed, not computed"


def vanishing_classes(t: CharacterTable, row: int) -> tuple[int, ...]:
    """Class indices on which the row is exactly zero."""
    return tuple(j for j, v in enumerate(t.rows[row]) if v.is_zero())


# -- property star -------------------------------------------------------------------

class StarReport(NamedTuple):
    group: str
    row: int
    degree: int
    out_order: int
    vanishing: tuple[tuple[int, int], ...]  # (class index, element order)
    faithful: bool
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    p: int | None
    holds: bool
    notes: tuple[str, ...]

    def text(self) -> str:
        verdict = "holds" if self.holds else "fails"
        head = (f"{self.group} row {self.row} (degree {self.degree}): "
                f"star {verdict}" + (f" with p = {self.p}" if self.p else ""))
        body = [f"  vanishing classes: "
                + (", ".join(f"{j} (order {o})" for j, o in self.vanishing) or "none")]
        body.extend(f"  {n}" for n in self.notes)
        return "\n".join([head] + body)


def _out_order(t: CharacterTable, out_order: int | None) -> int:
    """out_order, or the bound of the table's recipe; |Out| >= 1, so below 1,
    or none for a table with no recipe, raises ValueError."""
    if out_order is None:
        recipe, why = bind(t)
        if recipe is None:
            raise ValueError(f"no outer-order bound known for {t.group!r}"
                             + (f" ({why})" if why else "") + "; pass out_order explicitly")
        return recipe.out
    if out_order < 1:
        raise ValueError(f"out_order must be >= 1, got {out_order}")
    return out_order


def star_check(t: CharacterTable, row: int, *,
               out_order: int | None = None) -> StarReport:
    """Evaluate, on one row, the three-part vanishing condition: all zeros at
    one common prime-power element order, at most out_order vanishing
    classes, and a centre that is cyclic of order a power of the same prime.
    A non-faithful row never satisfies it.  See `_out_order` for the bound."""
    out_order = _out_order(t, out_order)

    vc = vanishing_classes(t, row)
    vanishing = tuple((j, t.classes[j].element_order) for j in vc)
    faithful = is_faithful(t, row)
    notes = []
    if not faithful:
        notes.append("row is not faithful")

    orders = sorted({o for _, o in vanishing})
    p: int | None = None
    if not vanishing:
        cond_i = True
        notes.append("no vanishing classes; order condition is vacuous")
    elif len(orders) > 1:
        cond_i = False
        notes.append("vanishing elements have distinct orders "
                     + "{" + ", ".join(map(str, orders)) + "}")
    else:
        pk = prime_power(orders[0])
        if pk is None:
            cond_i = False
            notes.append(f"common vanishing order {orders[0]} is not a prime power")
        else:
            cond_i = True
            p = pk[0]
            notes.append(f"all vanishing elements have order {orders[0]}"
                         f" = {pk[0]}^{pk[1]}")

    cond_ii = len(vanishing) <= out_order
    notes.append(f"{len(vanishing)} vanishing classes "
                 f"{'<=' if cond_ii else '>'} outer bound {out_order}")

    central = central_classes(t)
    z = sum(t.classes[j].size for j in central)
    z_exp = lcm(*(t.classes[j].element_order for j in central))
    if z == 1:
        cond_iii = True
        notes.append("centre is trivial")
    else:
        zpk = prime_power(z)
        cyclic = z_exp == z
        if not cyclic or zpk is None:
            cond_iii = False
            notes.append(f"centre of order {z} is "
                         + ("not cyclic" if not cyclic else "not of prime-power order"))
        elif p is not None and zpk[0] != p:
            cond_iii = False
            notes.append(f"centre order {z} is a power of {zpk[0]}, not of {p}")
        else:
            cond_iii = True
            if p is None:
                p = zpk[0]
            notes.append(f"centre is cyclic of order {z} = {zpk[0]}^{zpk[1]}")

    holds = faithful and cond_i and cond_ii and cond_iii
    return StarReport(group=t.group, row=row, degree=t.degree(row),
                      out_order=out_order, vanishing=vanishing,
                      faithful=faithful, cond_i=cond_i, cond_ii=cond_ii,
                      cond_iii=cond_iii, p=p, holds=holds,
                      notes=tuple(notes))


def star_survey(t: CharacterTable, *, out_order: int | None = None) -> tuple[StarReport, ...]:
    out_order = _out_order(t, out_order)  # once, not once per row
    return tuple(star_check(t, i, out_order=out_order)
                 for i in range(len(t.rows)))


# -- Burnside ------------------------------------------------------------------------

class BurnsideReport(NamedTuple):
    group: str
    checked_rows: int
    violations: tuple[int, ...]  # nonlinear rows with no vanishing class

    @property
    def ok(self) -> bool:
        return not self.violations


def burnside_check(t: CharacterTable) -> BurnsideReport:
    """Every row of degree > 1 must vanish on at least one class."""
    bad = []
    checked = 0
    for i in range(len(t.rows)):
        if t.degree(i) == 1:
            continue
        checked += 1
        if not vanishing_classes(t, i):
            bad.append(i)
    return BurnsideReport(group=t.group, checked_rows=checked,
                          violations=tuple(bad))


# -- two distinct prime factors in one-class degrees ----------------------------------

class TwoPrimeReport(NamedTuple):
    group: str
    flagged: tuple[tuple[int, int], ...]  # (row, degree) with >= 2 prime factors
    excused: bool  # group is on the exception list
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flagged or self.excused


def two_prime_degree_check(t: CharacterTable) -> TwoPrimeReport:
    """Flag rows with exactly one vanishing class whose degree has at least
    two distinct prime factors; such rows should occur only in the known
    exceptional groups: a degree above 1 that is not a prime power.  `suite`
    runs this on the registry tables only."""
    flagged = []
    for i in range(len(t.rows)):
        d = t.degree(i)
        if d > 1 and prime_power(d) is None and len(vanishing_classes(t, i)) == 1:
            flagged.append((i, d))
    notes = (PRIMITIVITY_NOTE,) if flagged else ()
    recipe = bind(t)[0]
    return TwoPrimeReport(group=t.group, flagged=tuple(flagged),
                          excused=recipe is not None and recipe.two_prime_excused,
                          notes=notes)


# -- expected results for single-vanishing-class rows ---------------------------------

class OneClassReport(NamedTuple):
    group: str
    rows: tuple[tuple[int, int, int, bool], ...]  # (row, degree, #vanishing, faithful)
    one_class_rows: tuple[tuple[int, int, bool], ...]  # (row, degree, faithful)
    observed: tuple[int, ...]  # degrees of faithful one-class rows, sorted
    expected: tuple[int, ...] | None
    match: bool | None
    notes: tuple[str, ...] = ()

    def text(self) -> str:
        if self.expected is None:
            verdict = "no expected entry"
        else:
            verdict = "match" if self.match else "MISMATCH"
        head = (f"{self.group}: faithful single-vanishing-class degrees "
                f"{list(self.observed)}"
                + (f", expected {list(self.expected)}" if self.expected is not None else "")
                + f" ({verdict})")
        body = [f"  row {r} degree {d}" + ("" if f else " (not faithful)")
                for r, d, f in self.one_class_rows]
        body.extend(f"  {n}" for n in self.notes)
        return "\n".join([head] + body)


def classify_one_class(t: CharacterTable) -> OneClassReport:
    """Collect the faithful rows with exactly one vanishing class and compare
    their degree multiset with the registry's expected entry for the group."""
    rows = []
    one_class = []
    observed = []
    for i in range(len(t.rows)):
        nv = len(vanishing_classes(t, i))
        f = is_faithful(t, i)
        rows.append((i, t.degree(i), nv, f))
        if nv == 1:
            one_class.append((i, t.degree(i), f))
            if f:
                observed.append(t.degree(i))
    observed.sort()

    recipe, why = bind(t)
    expected = recipe.one_class if recipe else None
    notes = [n for n in (why, recipe and recipe.note) if n]
    if expected is None:
        match = None
        notes.append("group has no expected entry; no comparison performed")
    else:
        match = observed == list(expected)
    return OneClassReport(group=t.group, rows=tuple(rows),
                          one_class_rows=tuple(one_class),
                          observed=tuple(observed),
                          expected=expected,
                          match=match, notes=tuple(notes))


# -- survey over the simple corpus ----------------------------------------------------

class SurveyEntry(NamedTuple):
    group: str
    one_class_rows: tuple[tuple[int, int], ...]  # (row, degree)
    allowed: tuple[int, ...]
    ok: bool


class SurveyReport(NamedTuple):
    entries: tuple[SurveyEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def simple_one_class_survey(tables) -> SurveyReport:
    """Check that in each simple-group table every row with exactly one
    vanishing class has one of the degrees permitted for that group (and
    that groups without a permitted entry have no such rows)."""
    entries = []
    for t in sorted(tables, key=lambda t: t.group):
        recipe = bind(t)[0]
        allowed = recipe.simple_allowed if recipe else ()
        found = tuple((i, t.degree(i)) for i in range(len(t.rows))
                      if len(vanishing_classes(t, i)) == 1)
        ok = all(d in allowed for _, d in found)
        entries.append(SurveyEntry(group=t.group, one_class_rows=found,
                                   allowed=allowed, ok=ok))
    return SurveyReport(entries=tuple(entries))
