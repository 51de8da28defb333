import hashlib
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
    ValidationFailed,
    alternating,
    bind,
    build,
    cyclic,
    find_recipe,
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
from charzeros.groupcore import Group, format_group_file

# sha256 of the group file `build` writes for each registry group; the
# tables pin the character data, these pin the generators themselves
GROUP_FILE_SHA256 = {
    "C1": "c4746e1f242fa9c8bae95500ce69f48ed5c3088d99e21ae20f08da58a43edfe7",
    "C2": "8725003e660f1497547322ba40a10ae7dfcfac078b42a4ced091639f053cf4fe",
    "C3": "2325d5473f06f28bba01a22dabc6584ff6506589f9c4b747356160f319aa168c",
    "C4": "7904d6e81afd3c85b51cb5bb5092f91e21130a339827e6be9ca059805e4314d8",
    "C5": "5a691d6df3044b8cf1eebfff1026859ef9d395cf14f8667ee01c7309b6328d8b",
    "C6": "da472b70c9180c8a37c9a835085d1834c9505d30fcf66bbf136d6641876d9f15",
    "C7": "2e7448c0b6db1fc5a26a7074ddd5d9885bc13653e97867915266bc103b608c7d",
    "C8": "2d67c5e129752af082498db2f784e6e0b788783ab556d5de921f669fbca35e23",
    "C9": "292464a742483310f336e1f598fa92372f5fbc3a5e9861d4dc42ea626ca397a1",
    "C10": "6290fa255419a245863302bd68909e92ad4d85a3f4bce6a429c0cb2a46b9af9c",
    "C11": "77fe9402fc07f0593f2006d504fb8732c6038a76dd45d9b26449386a203fe578",
    "C12": "db8776f134f7f7fb9473505d9da1a8291beb81114fc30c64ce5e0d5e23d8e1ff",
    "A5": "d53bea833d7b209b68aa967b6e87db788dc4ee27e5cb60bf81651ce844f41f99",
    "A6": "75fbc0a2f03852b1bec6b18a1b68717703367e5a8ad6f738e0d8ef61e8a66724",
    "A7": "49630bf898c59e5f1debcab1d266a29595316fdd1b9f63f01b637bd186d96f10",
    "PSL(2,5)": "a6421d006926a5e7c114c448b83a1034d557ad251c195bb9905973f429930e88",
    "PSL(2,7)": "e50901cb19d62850ad2ea35acdf8b87d162429dbc9ff708fc1f47dac1c3830f7",
    "PSL(2,8)": "0171e4666f29df1283d40c7de7f88e989f1666d384fde037d237fcd5f1e936a3",
    "PSL(2,9)": "c26820f5dcaa81fdff0a0a5665ce9f179fdf0844dcbb1b5df89294de89a91104",
    "PSL(2,11)": "6f338633db04fa39f1c6754d6228488868764cc795801ecc8cdb7542b82fe1e9",
    "PSL(2,13)": "4883cae7160a42df677b1e201212178cb6c34da6a272d9c1f9e5fe28a47c0c06",
    "PSL(2,16)": "95ac19a31c47fb31ffbab03e57013891286b6a0012ea8dab16fcbe8bc6f4ba1d",
    "SL(2,5)": "f1d6f64bdf505f0bb4428eec9348ffd6cc1c6390ef985e5b3bcb6d3ad953afb3",
    "PGL(2,5)": "be31bc15c784168a3fed141f4f437ce5e9e288153d62380417ac19b1852abb98",
    "PGL(2,7)": "4cfd4025037bb28ef1b8d522192cb2c3e08e81ed56c7fd6742cc9df30926e871",
    "PGL(2,9)": "4bfb27017a4628af5e5cbc02b2da4410a63d18aa8c8e0f81cb43221b368d215e",
    "PGL(2,11)": "6fd723607854abbb1f28f41e448abf6a70895c3faa3e114d8e072e73473f1c99",
    "A6:2_2": "8203711cef460c854ac7961249a0256b51be0bbb7db4d3a82ea2c5d8eb6aeed6",
    "A6:2_3": "6d3b3a4fbd2fbacf2112a610aaae13361d3d3c6cb6af5f07be1f97e3c109f026",
    "PSL(2,8):3": "1092caa2d314df27921f9e0d72d9515f36cd84714186e51486ae630c002ea3c3",
    "PSU(3,4)": "9f3146b6a87f7df22e515ce73b2d0a1c487233fc698be5ddcc1a9c736edd0ee2",
    "Sz(8)": "89933c3790888f231f2eb3b4dc3de1a64ba5009b2a4100eaa2c943c98757938f",
    "Sz(8):3": "2ae80b441f28832340c99851f010b886f9fafe136519b2a48b148a8dcae9fda5",
    "3.A6": "f0cfba00dbcc33e9b8eb58a429d41e6cd63ba053d1f63ac9459938a08e11e115",
    "3.A6:2_3": "896f3ee3adf38fb9c392cec30d25bdedb5645f66861f7479244b1f189d6427e8",
}


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
    g = suzuki()
    assert g.order == 29120 and is_simple(character_table(g))
    assert {c.element_order for c in g.classes} == {1, 2, 4, 5, 7, 13}
    h = suzuki_semilinear()
    assert h.order == 87360
    t = character_table(h)
    assert _order(t, derived_classes(t)) == 29120


def test_unitary():
    g = unitary3()
    assert g.order == 62400 and is_simple(character_table(g))


def test_semilinear_psl28():
    g = psl2_semilinear(8)
    assert g.order == 1512
    t = character_table(g)
    assert _order(t, derived_classes(t)) == 504


def test_out_orders():
    def out(name):
        return find_recipe(name).out

    assert out("PSL(2,5)") == 2
    assert out("PSL(2,7)") == 2
    assert out("PSL(2,8)") == 3
    assert out("PSL(2,9)") == 4
    assert out("PSL(2,16)") == 4
    assert out("SL(2,5)") == 2
    assert out("Sz(8)") == 3
    assert out("PSU(3,4)") == 4
    assert out("3.A6") == 4
    for q in (5, 7, 9, 11, 13):
        f = 2 if q == 9 else 1
        assert out(f"PSL(2,{q})") == gcd(2, q - 1) * f


def test_builder_rejections():
    with pytest.raises(ValueError, match="6 is not a prime power"):
        psl2(6)
    with pytest.raises(ValueError, match="q = 64 outside the supported range"):
        psl2(64)
    with pytest.raises(ValueError, match="q = 3 outside the supported range"):
        psl2(3)
    with pytest.raises(ValueError, match="sl2 requires odd q"):
        sl2(4)
    with pytest.raises(ValueError, match="288 points"):
        sl2(17)  # points are bytes: degree at most 256
    with pytest.raises(ValueError, match=r"alternating\(n\) supports 5 <= n <= 9, got 4"):
        alternating(4)


def test_validation_hooks(add_recipe, get_table):
    # build and bind read a recipe's facts through one function: a recipe
    # that fails its own build also leaves psl2(5)'s table, named after it,
    # unbound, and with the same fact
    def bogus(make=partial(psl2, 5), order=60, **facts):
        return GroupRecipe("bogus", make, order=order, out=2, **facts)

    psl25 = get_table("PSL(2,5)")._replace(group="bogus")
    four_group = partial(Group, [(1, 0, 2, 3), (0, 1, 3, 2)], degree=4)
    for recipe in (bogus(order=61), bogus(center=2), bogus(orders=(1, 2)),
                   bogus(derived=30), bogus(make=partial(pgl2, 5), order=120, simple=True),
                   bogus(make=partial(pgl2, 5), order=120, quasisimple=True),
                   bogus(make=four_group, order=4, center_cyclic=True)):
        add_recipe(recipe)
        with pytest.raises(ValidationFailed, match="^bogus: ") as exc:
            build("bogus")
        recipe_psl25, why = bind(psl25)
        assert recipe_psl25 is None and why.startswith("not the registry's bogus: ")
        if recipe.make.func is psl2:
            assert why == f"not the registry's {exc.value}"
    recipe = bogus(simple=True, quasisimple=True, center_cyclic=True,
                   derived=60, orders=(1, 2, 3, 5))
    add_recipe(recipe)
    g, t = build("bogus")
    assert g.name == t.group == "bogus"
    assert bind(t) == bind(psl25) == (recipe, None)
    # each fact is a typed field; there is no free-form check kind
    with pytest.raises(TypeError):
        bogus(normal=60)


def test_build_validates_whole_registry(corpus, get_group):
    # constructing every entry runs its hooks; a hook failure raises.  The
    # session fixture builds through `build`, so each group is built once.
    for name in corpus:
        g = get_group(name)
        assert g.name == name


def test_every_registry_table_binds_to_its_recipe(corpus, get_table):
    assert len(corpus) == 35
    for name in corpus:
        assert bind(get_table(name)) == (find_recipe(name), None), name
    # a name outside the registry binds to nothing, with nothing to say
    assert bind(get_table("A5")._replace(group="A5 ")) == (None, None)


def test_group_files_are_pinned(get_group):
    assert list(GROUP_FILE_SHA256) == registry_names()
    for name, want in GROUP_FILE_SHA256.items():
        text = format_group_file(get_group(name))
        assert hashlib.sha256(text.encode()).hexdigest() == want, name
