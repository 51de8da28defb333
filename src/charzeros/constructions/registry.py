"""The registry of buildable groups: recipes, validation hooks, Out orders.

Registry entries live in data/registry.txt (grammar in its header).  Each build is
followed by its validation hooks; a hook failure means the construction or
the shipped generator data is wrong, so it raises instead of returning a
questionable group.

Out orders are |Out(M/Z(M))| per entry, the bound consumed by the
vanishing-class count condition.  They are registry data: formula-driven
gcd(2,q-1)*f for PSL2(q), standard constants for the rest, and 1 for any M
whose M/Z(M) is complete (e.g. extensions that already realize the full
automorphism group) or trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from ..groupcore import DEFAULT_ORDER_BUDGET, Group, parse_group_file
from . import builders


class RegistryError(ValueError):
    pass


class ValidationFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class GroupRecipe:
    name: str
    params: dict = field(default_factory=dict)
    data_file: str | None = None
    expected_order: int = 0
    expected_out_order: int = 1
    expected_center: int | None = None
    checks: tuple[tuple, ...] = ()


def _data_text(filename: str) -> str:
    return (resources.files("charzeros") / "data" / filename).read_text()


def _parse_registry(text: str) -> dict[str, GroupRecipe]:
    out: dict[str, GroupRecipe] = {}
    cur: dict | None = None

    def flush():
        nonlocal cur
        if cur is None:
            return
        name = cur["name"]
        if name in out:
            raise RegistryError(f"duplicate group {name!r}")
        if cur["data"] is None and "family" not in cur["params"]:
            raise RegistryError(f"{name}: needs a data file or a param family")
        if not cur["order"]:
            raise RegistryError(f"{name}: missing order")
        out[name] = GroupRecipe(
            name=name, params=cur["params"], data_file=cur["data"],
            expected_order=cur["order"], expected_out_order=cur["out"],
            expected_center=cur["center"], checks=tuple(cur["checks"]))
        cur = None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            flush()
            cur = {"name": rest, "params": {}, "data": None, "order": 0,
                   "out": 1, "center": None, "checks": []}
            continue
        if cur is None:
            raise RegistryError(f"directive outside a group block: {line!r}")
        if key == "param":
            k, _, v = rest.partition(" ")
            cur["params"][k] = int(v) if v.strip().isdigit() else v.strip()
        elif key == "data":
            cur["data"] = rest
        elif key == "order":
            cur["order"] = int(rest)
        elif key == "out":
            cur["out"] = int(rest)
        elif key == "center":
            cur["center"] = int(rest)
        elif key == "check":
            parts = rest.split()
            cur["checks"].append((parts[0], *map(int, parts[1:])))
        else:
            raise RegistryError(f"unknown directive {key!r}")
    flush()
    return out


_REGISTRY: dict[str, GroupRecipe] | None = None


def _registry() -> dict[str, GroupRecipe]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _parse_registry(_data_text("registry.txt"))
    return _REGISTRY


def registry_names() -> list[str]:
    return list(_registry())


def find_recipe(name: str) -> GroupRecipe:
    reg = _registry()
    if name not in reg:
        raise RegistryError(f"unknown group {name!r}; known: {', '.join(reg)}")
    return reg[name]


def out_order(name_or_recipe) -> int:
    recipe = (name_or_recipe if isinstance(name_or_recipe, GroupRecipe)
              else find_recipe(name_or_recipe))
    return recipe.expected_out_order


_FAMILIES = {
    "cyclic": lambda p: builders.cyclic(p["n"]),
    "alternating": lambda p: builders.alternating(p["n"]),
    "psl2": lambda p: builders.psl2(p["q"]),
    "pgl2": lambda p: builders.pgl2(p["q"]),
    "sl2": lambda p: builders.sl2(p["q"]),
    "psl2_semilinear": lambda p: builders.psl2_semilinear(p["q"]),
    "twisted_m10": lambda p: builders.twisted_m10(),
    "suzuki": lambda p: builders.suzuki(p["q"]),
    "suzuki_semilinear": lambda p: builders.suzuki_semilinear(p["q"]),
    "unitary3": lambda p: builders.unitary3(p["q"]),
}


def _construct(recipe: GroupRecipe, max_order: int) -> Group:
    if recipe.data_file:
        g = parse_group_file(_data_text(recipe.data_file))
    else:
        fam = recipe.params.get("family")
        if fam not in _FAMILIES:
            raise RegistryError(f"{recipe.name}: unknown family {fam!r}")
        g = _FAMILIES[fam](recipe.params)
    return Group(g.generators, degree=g.degree, name=recipe.name, max_order=max_order)


def _validate(recipe: GroupRecipe, g: Group):
    def fail(msg):
        raise ValidationFailed(f"{recipe.name}: {msg}")

    if g.order != recipe.expected_order:
        fail(f"order {g.order} != expected {recipe.expected_order}")
    if recipe.expected_center is not None:
        z = len(g.center_classes)
        if z != recipe.expected_center:
            fail(f"center size {z} != expected {recipe.expected_center}")
    for check in recipe.checks:
        kind, *args = check
        if kind == "simple":
            if not g.is_simple:
                fail("expected a simple group")
        elif kind == "quasisimple":
            if not g.is_quasisimple:
                fail("expected a quasisimple group")
        elif kind == "derived":
            got = g.class_set_order(g.derived_classes)
            if got != args[0]:
                fail(f"derived subgroup order {got} != expected {args[0]}")
        elif kind == "orders":
            got = sorted({c.element_order for c in g.classes})
            if got != sorted(args):
                fail(f"element orders {got} != expected {sorted(args)}")
        elif kind == "center_cyclic":
            z = g.center_classes
            if not any(g.classes[i].element_order == len(z) for i in z):
                fail("center is not cyclic")
        else:
            fail(f"unknown check {kind!r}")


def build(name_or_recipe, max_order: int = DEFAULT_ORDER_BUDGET) -> Group:
    """Construct a registry group and run its validation hooks; enumerating
    more than max_order elements raises OrderBudgetExceeded."""
    recipe = (name_or_recipe if isinstance(name_or_recipe, GroupRecipe)
              else find_recipe(name_or_recipe))
    g = _construct(recipe, max_order)
    _validate(recipe, g)
    return g
