from functools import partial
from math import gcd

import pytest

from charzeros.chartab import (
    central_classes,
    character_table,
    derived_classes,
    is_quasisimple,
    is_simple,
)
from charzeros.constructions import (
    GroupRecipe,
    RegistryError,
    Unsupported,
    ValidationFailed,
    alternating,
    build,
    cyclic,
    find_recipe,
    out_order,
    pgl2,
    psl2,
    psl2_semilinear,
    registry_names,
    sl2,
    suzuki,
    suzuki_semilinear,
    twisted_m10,
    unitary3,
)
from charzeros.constructions.registry import RECIPES
from charzeros.groupcore import Group
from charzeros.numtheory import NotPrimePower


def test_registry_contents():
    names = registry_names()
    assert len(names) == len(set(names)) == 35
    for n in range(1, 13):
        assert f"C{n}" in names
    for want in ["A5", "A6", "A7", "PSL(2,5)", "PSL(2,16)", "SL(2,5)",
                 "PGL(2,11)", "A6:2_2", "A6:2_3", "3.A6", "3.A6:2_3",
                 "PSL(2,8):3", "PSU(3,4)", "Sz(8)", "Sz(8):3"]:
        assert want in names
    # the error lists the known names in registry order
    with pytest.raises(RegistryError, match="known: C1, C2, C3, "):
        find_recipe("M11")


def test_recipe_table_integrity():
    names = [r.name for r in RECIPES]
    assert len(names) == len(set(names)) == 35
    assert all(r.simple for r in RECIPES if r.simple_allowed)
    assert [r.name for r in RECIPES if r.two_prime_excused] == ["Sz(8):3"]


def test_projective_line_orders():
    for q in (4, 5, 7, 8, 9, 11, 13, 16):
        g = psl2(q)
        assert g.order == q * (q * q - 1) // gcd(2, q - 1)
        assert g.degree == q + 1
    for q in (5, 7, 9, 11):
        g = pgl2(q)
        assert g.order == q * (q * q - 1)
        assert g.degree == q + 1


def _order(t, classes) -> int:
    return sum(t.classes[j].size for j in classes)


def test_small_case_pins():
    g = psl2(5)
    assert g.order == 60 and g.num_classes == 5 and is_simple(character_table(g))
    assert pgl2(5).order == 120 and pgl2(5).degree == 6
    assert cyclic(5).order == 5 and cyclic(5).num_classes == 5


def test_sl2():
    g = sl2(5)
    assert g.order == 120
    assert g.degree == 24  # nonzero vectors of F25
    t = character_table(g)
    assert is_quasisimple(t) and not is_simple(t)
    assert len(central_classes(t)) == 2


def test_alternating():
    assert alternating(5).order == 60
    assert alternating(6).order == 360
    assert alternating(7).order == 2520
    assert is_simple(character_table(alternating(7)))


def test_triple_cover():
    g, t = build("3.A6")
    assert g.order == 1080
    assert is_quasisimple(t)
    z = central_classes(t)
    assert len(z) == 3
    assert any(g.classes[i].element_order == 3 for i in z)
    assert g.order // _order(t, z) == 360


def test_twisted_m10():
    g = twisted_m10()
    assert g.order == 720
    t = character_table(g)
    assert _order(t, derived_classes(t)) == 360
    assert {c.element_order for c in g.classes} == {1, 2, 3, 4, 5, 8}


def test_cover_extension():
    g, t = build("3.A6:2_3")
    assert g.order == 2160
    z = central_classes(t)
    assert len(z) == 3
    assert _order(t, derived_classes(t)) == 1080
    assert g.order // _order(t, z) == 720
    # element orders of G/Z: the least k >= 1 with g^k central
    orders = {next(k for k in range(1, len(row) + 1) if row[k % len(row)] in z)
              for row in g.power_maps}
    assert orders == {1, 2, 3, 4, 5, 8}


def test_suzuki():
    g = suzuki(8)
    assert g.order == 29120 and is_simple(character_table(g))
    assert {c.element_order for c in g.classes} == {1, 2, 4, 5, 7, 13}
    h = suzuki_semilinear(8)
    assert h.order == 87360
    t = character_table(h)
    assert _order(t, derived_classes(t)) == 29120


def test_unitary():
    g = unitary3(4)
    assert g.order == 62400 and is_simple(character_table(g))


def test_semilinear_psl28():
    g = psl2_semilinear(8)
    assert g.order == 1512
    t = character_table(g)
    assert _order(t, derived_classes(t)) == 504


def test_out_orders():
    assert out_order("PSL(2,5)") == 2
    assert out_order("PSL(2,7)") == 2
    assert out_order("PSL(2,8)") == 3
    assert out_order("PSL(2,9)") == 4
    assert out_order("PSL(2,16)") == 4
    assert out_order("SL(2,5)") == 2
    assert out_order("Sz(8)") == 3
    assert out_order("PSU(3,4)") == 4
    assert out_order("3.A6") == 4
    for q in (5, 7, 9, 11, 13):
        f = 2 if q == 9 else 1
        assert out_order(f"PSL(2,{q})") == gcd(2, q - 1) * f


def test_builder_rejections():
    with pytest.raises(NotPrimePower):
        psl2(6)
    with pytest.raises(Unsupported):
        psl2(64)
    with pytest.raises(Unsupported):
        psl2(3)
    with pytest.raises(Unsupported):
        sl2(4)
    with pytest.raises(Unsupported, match="288 points"):
        sl2(17)  # points are bytes: degree at most 256
    with pytest.raises(Unsupported):
        alternating(4)


def test_validation_hooks(add_recipe):
    def bogus(make=partial(psl2, 5), order=60, **facts):
        return GroupRecipe("bogus", make, order=order, out=2, **facts)

    four_group = partial(Group, [(1, 0, 2, 3), (0, 1, 3, 2)], degree=4)
    for recipe in (bogus(order=61), bogus(center=2), bogus(orders=(1, 2)),
                   bogus(derived=30), bogus(make=partial(pgl2, 5), order=120, simple=True),
                   bogus(make=partial(pgl2, 5), order=120, quasisimple=True),
                   bogus(make=four_group, order=4, center_cyclic=True)):
        add_recipe(recipe)
        with pytest.raises(ValidationFailed, match="^bogus: "):
            build("bogus")
    add_recipe(bogus(simple=True, quasisimple=True, center_cyclic=True,
                     derived=60, orders=(1, 2, 3, 5)))
    g, t = build("bogus")
    assert g.name == t.group == "bogus"
    # each fact is a typed field; there is no free-form check kind
    with pytest.raises(TypeError):
        bogus(normal=60)


def test_build_validates_whole_registry(corpus, get_group):
    # constructing every entry runs its hooks; a hook failure raises.  The
    # session fixture builds through `build`, so each group is built once.
    for name in corpus:
        g = get_group(name)
        assert g.name == name
