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


# sha256 of the group file of each builder call below, outside the registry
# too: every prime power q in [4, 32] for the projective-line builders, every
# q within sl2's degree limit, and every n alternating takes
BUILDER_FILE_SHA256 = {
    "psl2(4)": "bd91d58603610b03455cd91f56fda0f7a39a9294468d21a539eef7e62dfa03ac",
    "psl2(5)": "a6421d006926a5e7c114c448b83a1034d557ad251c195bb9905973f429930e88",
    "psl2(7)": "e50901cb19d62850ad2ea35acdf8b87d162429dbc9ff708fc1f47dac1c3830f7",
    "psl2(8)": "0171e4666f29df1283d40c7de7f88e989f1666d384fde037d237fcd5f1e936a3",
    "psl2(9)": "c26820f5dcaa81fdff0a0a5665ce9f179fdf0844dcbb1b5df89294de89a91104",
    "psl2(11)": "6f338633db04fa39f1c6754d6228488868764cc795801ecc8cdb7542b82fe1e9",
    "psl2(13)": "4883cae7160a42df677b1e201212178cb6c34da6a272d9c1f9e5fe28a47c0c06",
    "psl2(16)": "95ac19a31c47fb31ffbab03e57013891286b6a0012ea8dab16fcbe8bc6f4ba1d",
    "psl2(17)": "411bfd3f9d2673fb4fc57bf8692e5737dd403abb250e5202a576327c7beb42f2",
    "psl2(19)": "4367a972613c402090b23a95c033c10d7b8c8529d1fba46ba941e1c30d8c4c76",
    "psl2(23)": "fce0e91d52af620f2d5d46e69c64c27dd4a0bb0565e0b7dfe23918c8e9c86944",
    "psl2(25)": "42b2e211474d3c0ff26abf6fc5f57090f3592d6e1b0d4b1f6185570f13db5ef4",
    "psl2(27)": "7ce6e791be7ed75b8fb3f622f6d5e5e467e89c4c8e7e8db827c8065ad59766a9",
    "psl2(29)": "7c3bbb3e74df37a84a688cec58b67e3b34af86e282ca68d40fe4be9cebabb72b",
    "psl2(31)": "e82d9ff3f36edd34f16af2d1bb1c6f9f20cbb9fa9efa608adcb282fa3006d2f8",
    "psl2(32)": "673bc35b1e55502e867ede02750f124b8ee4c60793f0835b4e84374e637d31c9",
    "pgl2(4)": "94f1e4ffbc0323879f2a04af9554ed08a14147c8014b5b65030209e70681149f",
    "pgl2(5)": "be31bc15c784168a3fed141f4f437ce5e9e288153d62380417ac19b1852abb98",
    "pgl2(7)": "4cfd4025037bb28ef1b8d522192cb2c3e08e81ed56c7fd6742cc9df30926e871",
    "pgl2(8)": "b17c9f5c5e3a4dd15883c5be576abd704fd56534592db66924bb50a0352f56b9",
    "pgl2(9)": "4bfb27017a4628af5e5cbc02b2da4410a63d18aa8c8e0f81cb43221b368d215e",
    "pgl2(11)": "6fd723607854abbb1f28f41e448abf6a70895c3faa3e114d8e072e73473f1c99",
    "pgl2(13)": "8df277f9e0526e6ca3f1a0cda0a7b9436fddc27334c5da7809abe123c595de79",
    "pgl2(16)": "167bb7505d01004def9dfb1bd37e4188f9b3ba1983e2af7c34921ca183e2fe4f",
    "pgl2(17)": "6b3e6cf131bceb41d74ea54e9401033e1fff6b664ad578c1ccf454122b2e8d8c",
    "pgl2(19)": "8bcbf8b8912cb4fd9ce5fbbbb5ecd5f69ff535cbea0a4c5dfee18c8775eb99bc",
    "pgl2(23)": "9097a3fe55ee6c6aa09045dee81d3f7568a1692102e9745cf8253ef6bd36dd40",
    "pgl2(25)": "8f5ea7e88a5ab0c86570771ff28c4fa401aefb3b345a7843a9fc6ef2623ff0af",
    "pgl2(27)": "fa0ce0cd764388e85d6a3dc882cfbed831457a7457ea77b27ad39bd98a29d522",
    "pgl2(29)": "eae6c3f6782dda1e48e9dccb2260f45b4cb45db82946f6dbf9339b8f5465858d",
    "pgl2(31)": "aa5b4afe5bcdff6dc2531e1e2489fd415832a09167be27914c0d81c07a9cb1cd",
    "pgl2(32)": "9e4330db45d1f8a7b88d60276ee8104c935aa0621e31b1b56db089d0c7701e48",
    "psl2_semilinear(4)": "b3e984b04ea6744bd69c765caaf9cab128af45cddf8a1d31a72be9be403d072c",
    "psl2_semilinear(5)": "67af343633570d5431052268ccea079e76a99afca1ad004c3b700c9c2ef6d251",
    "psl2_semilinear(7)": "0f125fbee0698f46560107d7830e10fb1d3b36236272304725a2c0035de08644",
    "psl2_semilinear(8)": "1092caa2d314df27921f9e0d72d9515f36cd84714186e51486ae630c002ea3c3",
    "psl2_semilinear(9)": "1a016988a726035e69f1e1dfec391a2531a4738e7c93065be266feaac4f99fb0",
    "psl2_semilinear(11)": "34500291f0049ff5e728d6b441b90b48e11fed4117558963639bc867f7c85f64",
    "psl2_semilinear(13)": "b40b3ca1ab6224abe3a849f25b99c4b6c0e13e5db24bf1d78d938b2f9cdce5aa",
    "psl2_semilinear(16)": "b85934f0f471d7e40e75dc6711fda654f9a393c12db62c21da5941af40efd049",
    "psl2_semilinear(17)": "56c2dac0073190b67576a933378c93c8a60c42f41a42167c0172a567c0c893fc",
    "psl2_semilinear(19)": "e9ee01c1dc362ea87e18df7ca23e8a93727abf80fdaba0af0fd44f6970b0ead9",
    "psl2_semilinear(23)": "071bc3f095214b289b0e66d8bb067605810ba9d1ff4e3813e2be877d8bf51ec1",
    "psl2_semilinear(25)": "ac013dc0aed2c8515308ca97f1b0f778722d804482db8435059fb30c56088481",
    "psl2_semilinear(27)": "52ae785e859dc50b6fc97a559c386f8da6608a32c8e73a0794e21b5c58e996e8",
    "psl2_semilinear(29)": "e368938dab2cb94b12e8971a5e6bba046611a68583941e7d763f138789517018",
    "psl2_semilinear(31)": "c35bfcae44616975090770b00c8142d63bf5109b25310856ee9c38be9aadac55",
    "psl2_semilinear(32)": "af4d7bdabe0e19f21474e28975810fe300ee65fdf4ce5dc0dc85e7a311efca58",
    "sl2(5)": "f1d6f64bdf505f0bb4428eec9348ffd6cc1c6390ef985e5b3bcb6d3ad953afb3",
    "sl2(7)": "e9aa06ac5796f34f62f1d49ad50c29a5dcd3905a3fb8e5bd137f4d98309e74a2",
    "sl2(9)": "e47f98b3c4efd23668a555ece1120eaff55cb2d2231158421aa25c20ef5f9e7e",
    "sl2(11)": "5af5b9e5477ea890dcaa7a2ebf2c6252dd51306d397946fedeebea30ea0a2ef8",
    "sl2(13)": "18a453bb3f38e0a6ade50ff27f0063772385631e03892205544b59807e7ed426",
    "alternating(5)": "d53bea833d7b209b68aa967b6e87db788dc4ee27e5cb60bf81651ce844f41f99",
    "alternating(6)": "75fbc0a2f03852b1bec6b18a1b68717703367e5a8ad6f738e0d8ef61e8a66724",
    "alternating(7)": "49630bf898c59e5f1debcab1d266a29595316fdd1b9f63f01b637bd186d96f10",
    "alternating(8)": "83d86712d6086c3db78c936b0f60ba18c8abae70c313c0fcd4354ea48092ce86",
    "alternating(9)": "a84065a8bd91067cc8d311686de5336f2c6f44f26a2fe072a36ec777bd137963",
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


def test_builder_files_are_pinned():
    prime_powers = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    calls = [(f, q) for f in (psl2, pgl2, psl2_semilinear) for q in prime_powers]
    calls += [(sl2, q) for q in (5, 7, 9, 11, 13)] + [(alternating, n) for n in range(5, 10)]
    got = {f"{f.__name__}({x})": hashlib.sha256(format_group_file(f(x)).encode()).hexdigest()
           for f, x in calls}
    assert got == BUILDER_FILE_SHA256
