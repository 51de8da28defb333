"""The registry of buildable groups: one ordered table of recipes.

RECIPES holds every per-group fact the program knows: how to construct the
group, the facts its table must meet, |Out(M/Z(M))|, and the expected
results the vanishing reports compare with.  `_mismatch` alone reads those
facts from a verified table: `build` raises when its table fails one (the
construction or the shipped generator data is wrong), and `bind` gives a
report the recipe of a table named after it only when the table meets them
all.  center_cyclic holds when some central class has element order |Z(G)|.
A recipe is an immutable named tuple, so `recipe._replace(...)` derives an
edited copy.

Only `_mismatch` and `build` use the table code, and each imports `chartab`
when it runs, so reading the registry (`registry_names`, `find_recipe`)
loads none of it.

Out orders are |Out(M/Z(M))| per entry, the bound consumed by the
vanishing-class count condition: gcd(2,q-1)*f for PSL2(q); 1 for complete
groups (PGL2(q) with prime q, the full automorphism extensions PSL(2,8):3
and Sz(8):3, and abelian M where M/Z(M) is trivial); standard constants
otherwise (A5: 2, A6 family: 4, A7: 2, M10: 2, PGL2(9): 2, PSU3(4): 4,
Sz(8): 3).

The three index-2 extensions of A6 are told apart by element orders:
orders 6 appear only in the symmetric-group extension, orders 10 only in
the projective one, and neither occurs in the remaining extension.
"""

from functools import partial
from typing import Callable, NamedTuple

from ..groupcore import DEFAULT_ORDER_BUDGET, Group, parse_group_file
from . import builders


class RegistryError(ValueError):
    pass


class ValidationFailed(RuntimeError):
    pass


class GroupRecipe(NamedTuple):
    name: str
    make: Callable[[], Group]
    order: int
    out: int
    # validation facts beyond the order
    center: int | None = None
    simple: bool = False
    quasisimple: bool = False
    center_cyclic: bool = False
    derived: int | None = None
    orders: tuple[int, ...] = ()
    # expected results: sorted degrees of the faithful single-vanishing-class
    # rows, the one-class degrees a simple group may have, a note for the
    # classify report, and whether two-prime one-class degrees are excused
    one_class: tuple[int, ...] | None = None
    simple_allowed: tuple[int, ...] = ()
    note: str | None = None
    two_prime_excused: bool = False


def _shipped(filename: str) -> Group:
    from importlib import resources  # only the two 3.A6 recipes read shipped data

    data = resources.files("charzeros") / "data" / filename
    return parse_group_file(data.read_text(encoding="utf-8"))


RECIPES: tuple[GroupRecipe, ...] = (
    *(GroupRecipe(f"C{n}", partial(builders.cyclic, n), order=n, out=1)
      for n in range(1, 13)),
    GroupRecipe("A5", partial(builders.alternating, 5), order=60, out=2,
                simple=True, one_class=(3, 3, 4), simple_allowed=(3, 4)),
    GroupRecipe("A6", partial(builders.alternating, 6), order=360, out=4,
                simple=True,
                note="no faithful row vanishes on exactly one class; degree-9 "
                     "single-class rows occur only in the index-2 extensions "
                     "A6:2_2 and A6:2_3"),
    GroupRecipe("A7", partial(builders.alternating, 7), order=2520, out=2,
                simple=True),
    GroupRecipe("PSL(2,5)", partial(builders.psl2, 5), order=60, out=2,
                simple=True, one_class=(3, 3, 4), simple_allowed=(3, 4)),
    GroupRecipe("PSL(2,7)", partial(builders.psl2, 7), order=168, out=2,
                simple=True, one_class=(3, 3), simple_allowed=(3,)),
    GroupRecipe("PSL(2,8)", partial(builders.psl2, 8), order=504, out=3,
                simple=True, simple_allowed=(8,)),
    GroupRecipe("PSL(2,9)", partial(builders.psl2, 9), order=360, out=4,
                simple=True),
    GroupRecipe("PSL(2,11)", partial(builders.psl2, 11), order=660, out=2,
                simple=True),
    GroupRecipe("PSL(2,13)", partial(builders.psl2, 13), order=1092, out=2,
                simple=True),
    GroupRecipe("PSL(2,16)", partial(builders.psl2, 16), order=4080, out=4,
                simple=True, simple_allowed=(16,)),
    GroupRecipe("SL(2,5)", partial(builders.sl2, 5), order=120, out=2,
                center=2, quasisimple=True, center_cyclic=True,
                one_class=(2, 2, 4)),
    GroupRecipe("PGL(2,5)", partial(builders.pgl2, 5), order=120, out=1,
                derived=60, one_class=(5, 5)),
    GroupRecipe("PGL(2,7)", partial(builders.pgl2, 7), order=336, out=1,
                derived=168, one_class=(7, 7)),
    GroupRecipe("PGL(2,9)", partial(builders.pgl2, 9), order=720, out=2,
                derived=360, orders=(1, 2, 3, 4, 5, 8, 10), one_class=(9, 9)),
    GroupRecipe("PGL(2,11)", partial(builders.pgl2, 11), order=1320, out=1,
                derived=660, one_class=(11, 11)),
    GroupRecipe("A6:2_2", partial(builders.pgl2, 9), order=720, out=2,
                derived=360, orders=(1, 2, 3, 4, 5, 8, 10), one_class=(9, 9)),
    GroupRecipe("A6:2_3", builders.twisted_m10, order=720, out=2,
                derived=360, orders=(1, 2, 3, 4, 5, 8), one_class=(9, 9)),
    GroupRecipe("PSL(2,8):3", partial(builders.psl2_semilinear, 8), order=1512,
                out=1, derived=504, orders=(1, 2, 3, 6, 7, 9),
                one_class=(7, 7, 7)),
    GroupRecipe("PSU(3,4)", builders.unitary3, order=62400, out=4, simple=True),
    GroupRecipe("Sz(8)", builders.suzuki, order=29120, out=3, simple=True),
    GroupRecipe("Sz(8):3", builders.suzuki_semilinear, order=87360,
                out=1, derived=29120, one_class=(14,) * 6,
                two_prime_excused=True),
    GroupRecipe("3.A6", partial(_shipped, "cover_3a6.txt"), order=1080, out=4,
                center=3, quasisimple=True, center_cyclic=True),
    GroupRecipe("3.A6:2_3", partial(_shipped, "cover_3a6_ext.txt"), order=2160,
                out=2, center=3, derived=1080, center_cyclic=True,
                one_class=(9,) * 4),
)


def registry_names() -> list[str]:
    return [r.name for r in RECIPES]


def find_recipe(name: str) -> GroupRecipe:
    for recipe in RECIPES:
        if recipe.name == name:
            return recipe
    raise RegistryError(f"unknown group {name!r}; known: {', '.join(registry_names())}")


def _mismatch(recipe: GroupRecipe, t: "CharacterTable") -> str | None:
    """The first of the recipe's facts that the verified table fails (the
    order, the element orders, then the normal structure), or None."""
    from ..chartab import central_classes, derived_classes, is_quasisimple, is_simple

    if t.order != recipe.order:
        return f"order {t.order} != expected {recipe.order}"
    got = sorted({c.element_order for c in t.classes})
    if recipe.orders and got != sorted(recipe.orders):
        return f"element orders {got} != expected {sorted(recipe.orders)}"
    z = central_classes(t)
    if recipe.center is not None and len(z) != recipe.center:
        return f"center size {len(z)} != expected {recipe.center}"
    if recipe.simple and not is_simple(t):
        return "expected a simple group"
    if recipe.quasisimple and not is_quasisimple(t):
        return "expected a quasisimple group"
    if recipe.center_cyclic and not any(t.classes[i].element_order == len(z) for i in z):
        return "center is not cyclic"
    if recipe.derived is not None:
        got = sum(t.classes[j].size for j in derived_classes(t))
        if got != recipe.derived:
            return f"derived subgroup order {got} != expected {recipe.derived}"


def bind(t: "CharacterTable") -> tuple[GroupRecipe | None, str | None]:
    """(recipe, None) when a verified table's group is named after a recipe
    and meets its facts, as a file may name its group at will; otherwise
    (None, why), why naming the failing fact, or None for an unknown name."""
    try:
        recipe = find_recipe(t.group)
    except RegistryError:
        return None, None
    why = _mismatch(recipe, t)
    return (None, f"not the registry's {recipe.name}: {why}") if why else (recipe, None)


def build(name: str, max_order: int = DEFAULT_ORDER_BUDGET) -> tuple[Group, "CharacterTable"]:
    """A registry group and its character table, which must meet the recipe's
    facts; over max_order elements or MAX_CLASSES classes raise BudgetExceeded."""
    from ..chartab import character_table

    recipe = find_recipe(name)
    g = recipe.make()
    g = Group(g.generators, degree=g.degree, name=recipe.name, max_order=max_order)
    t = character_table(g)
    if why := _mismatch(recipe, t):
        raise ValidationFailed(f"{recipe.name}: {why}")
    return g, t
