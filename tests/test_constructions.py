from math import gcd

import pytest

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
from charzeros.constructions.registry import _parse_registry
from charzeros.groupcore import perm_order
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
    with pytest.raises(RegistryError):
        find_recipe("M11")


def test_registry_grammar_rejections():
    block = "group X\nparam family cyclic\nparam n 5\norder 5\n"
    assert list(_parse_registry(block)) == ["X"]
    with pytest.raises(RegistryError):
        _parse_registry(block + block)
    with pytest.raises(RegistryError):
        _parse_registry("param family cyclic\n")
    with pytest.raises(RegistryError):
        _parse_registry("group X\norder 5\n")
    with pytest.raises(RegistryError):
        _parse_registry("group X\nparam family cyclic\nparam n 5\n")
    with pytest.raises(RegistryError):
        _parse_registry(block + "bogus 1\n")


def test_projective_line_orders():
    for q in (4, 5, 7, 8, 9, 11, 13, 16):
        g = psl2(q)
        assert g.order == q * (q * q - 1) // gcd(2, q - 1)
        assert g.degree == q + 1
    for q in (5, 7, 9, 11):
        g = pgl2(q)
        assert g.order == q * (q * q - 1)
        assert g.degree == q + 1


def test_small_case_pins():
    g = psl2(5)
    assert g.order == 60 and g.num_classes == 5 and g.is_simple
    assert pgl2(5).order == 120 and pgl2(5).degree == 6
    assert cyclic(5).order == 5 and cyclic(5).num_classes == 5


def test_sl2():
    g = sl2(5)
    assert g.order == 120
    assert g.degree == 24  # nonzero vectors of F25
    assert g.is_quasisimple and not g.is_simple
    assert len(g.class_set_elements(g.center_classes)) == 2


def test_alternating():
    assert alternating(5).order == 60
    assert alternating(6).order == 360
    assert alternating(7).order == 2520
    assert alternating(7).is_simple


def test_triple_cover():
    g = build("3.A6")
    assert g.order == 1080
    assert g.is_quasisimple
    z = g.class_set_elements(g.center_classes)
    assert len(z) == 3
    assert any(perm_order(x) == 3 for x in z)
    q = g.quotient(g.center_classes)
    assert q.order == 360 and q.is_simple


def test_twisted_m10():
    g = twisted_m10()
    assert g.order == 720
    assert g.class_set_order(g.derived_classes) == 360
    assert {c.element_order for c in g.classes} == {1, 2, 3, 4, 5, 8}


def test_cover_extension():
    g = build("3.A6:2_3")
    assert g.order == 2160
    assert len(g.class_set_elements(g.center_classes)) == 3
    assert g.class_set_order(g.derived_classes) == 1080
    q = g.quotient(g.center_classes)
    assert q.order == 720
    assert {c.element_order for c in q.classes} == {1, 2, 3, 4, 5, 8}


def test_suzuki():
    g = suzuki(8)
    assert g.order == 29120 and g.is_simple
    assert {c.element_order for c in g.classes} == {1, 2, 4, 5, 7, 13}
    h = suzuki_semilinear(8)
    assert h.order == 87360
    assert h.class_set_order(h.derived_classes) == 29120


def test_unitary():
    g = unitary3(4)
    assert g.order == 62400 and g.is_simple


def test_semilinear_psl28():
    g = psl2_semilinear(8)
    assert g.order == 1512
    assert g.class_set_order(g.derived_classes) == 504


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
    with pytest.raises(Unsupported):
        alternating(4)


def test_validation_hooks():
    recipe = GroupRecipe(name="bogus", params={"family": "psl2", "q": 5},
                         expected_order=61)
    with pytest.raises(ValidationFailed):
        build(recipe)
    recipe = GroupRecipe(name="bogus", params={"family": "psl2", "q": 5},
                         expected_order=60, expected_center=2)
    with pytest.raises(ValidationFailed):
        build(recipe)
    recipe = GroupRecipe(name="bogus", params={"family": "psl2", "q": 5},
                         expected_order=60, checks=(("orders", 1, 2),))
    with pytest.raises(ValidationFailed):
        build(recipe)


def test_build_validates_whole_registry(corpus):
    # constructing every entry runs its hooks; a hook failure raises
    for name in corpus:
        g = build(name)
        assert g.name == name
