import json
from functools import partial

import pytest
import sympy

from charzeros import vanishing
from charzeros.chartab import character_table, is_faithful
from charzeros.constructions import GroupRecipe, alternating, bind, build, psl2, suzuki_semilinear
from charzeros.cyclo import CycloNum
from charzeros.groupcore import Group
from charzeros.vanishing import (
    PRIMITIVITY_NOTE,
    burnside_check,
    classify_one_class,
    simple_one_class_survey,
    star_check,
    star_survey,
    two_prime_degree_check,
    vanishing_classes,
)


def test_vanishing_classes_exact(get_table):
    t = get_table("PSL(2,7)")
    # the two degree-3 rows vanish exactly on the order-3 class
    for i in (1, 2):
        assert t.degree(i) == 3
        (j,) = vanishing_classes(t, i)
        assert t.classes[j].element_order == 3
    assert vanishing_classes(t, 0) == ()


def test_star_a5_rows(get_table):
    t = get_table("PSL(2,5)")
    by_degree = {t.degree(i): star_check(t, i) for i in range(1, 5)}
    assert by_degree[3].holds and by_degree[3].p == 3
    assert by_degree[4].holds and by_degree[4].p == 2
    assert by_degree[5].holds and by_degree[5].p == 5
    assert len(by_degree[5].vanishing) == 2
    assert all(o == 5 for _, o in by_degree[5].vanishing)


def test_star_sl25(get_table):
    t = get_table("SL(2,5)")
    deg2 = [i for i in range(9) if t.degree(i) == 2]
    for i in deg2:
        rep = star_check(t, i)
        assert rep.holds and rep.p == 2 and rep.faithful
        assert all(o == 4 for _, o in rep.vanishing)
        assert rep.cond_iii  # centre of order 2 matches p = 2
    # degree-3 rows factor through the simple quotient: not faithful
    deg3 = [i for i in range(9) if t.degree(i) == 3]
    for i in deg3:
        rep = star_check(t, i)
        assert not rep.faithful and not rep.holds


def test_star_strict_single_order(get_table):
    t = get_table("Sz(8)")
    deg35 = [i for i in range(11) if t.degree(i) == 35]
    for i in deg35:
        rep = star_check(t, i)
        assert not rep.cond_i and not rep.holds
        orders = {o for _, o in rep.vanishing}
        assert len(orders) > 1


def test_star_prime_power_order_not_just_prime(get_table):
    # vanishing on order-4 elements is allowed: 4 is a prime power
    t = get_table("SL(2,5)")
    i = next(i for i in range(9) if t.degree(i) == 2)
    rep = star_check(t, i)
    assert rep.p == 2 and rep.holds


def test_star_out_order_monotone(get_table):
    for name in ["PSL(2,5)", "SL(2,5)", "Sz(8)", "A6"]:
        t = get_table(name)
        for i in range(len(t.rows)):
            base = star_check(t, i)
            wide = star_check(t, i, out_order=10**9)
            if base.holds:
                assert wide.holds
            tight = star_check(t, i, out_order=1)
            if tight.holds:
                assert base.holds


def test_star_out_order_bound(get_table):
    t = get_table("PSL(2,5)")
    i = next(i for i in range(5) if t.degree(i) == 5)
    assert star_check(t, i, out_order=2).holds
    assert not star_check(t, i, out_order=1).holds


def test_star_requires_out_order_for_unknown_groups():
    g, _ = build("C4")
    anon = Group(g.generators, degree=g.degree, name="mystery")
    t = character_table(anon)
    with pytest.raises(ValueError):
        star_check(t, 1)
    rep = star_check(t, 1, out_order=1)
    assert rep.out_order == 1


@pytest.mark.parametrize("kept, cond_i, cond_iii, p, note", [
    (6, False, True, 2, "common vanishing order 6 is not a prime power"),
    (2, True, False, 3, "centre order 2 is a power of 2, not of 3"),
])
def test_star_branches_on_hand_built_tables(get_table, kept, cond_i, cond_iii, p, note):
    # no registry row reaches these notes, so SL(2,5)'s faithful degree-6 row,
    # which vanishes on classes 2, 3 and 6 (orders 3, 4 and 6), is edited to
    # keep one zero: order 6, or order 3 against the centre of order 2
    t = get_table("SL(2,5)")
    assert (t.degree(8), vanishing_classes(t, 8)) == (6, (2, 3, 6))
    one = CycloNum(t.exponent, {0: 1})
    row = tuple(one if v.is_zero() and j != kept else v for j, v in enumerate(t.rows[8]))
    rep = star_check(t._replace(rows=t.rows[:8] + (row,)), 8)
    assert rep.vanishing == ((kept, t.classes[kept].element_order),)
    assert (rep.faithful, rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, cond_i, True, cond_iii)
    assert (rep.p, rep.holds) == (p, False)
    assert note in rep.notes


def test_star_survey_and_report_forms(get_table):
    t = get_table("Sz(8)")
    reps = star_survey(t)
    assert len(reps) == len(t.rows)
    holding = {r.degree for r in reps if r.holds}
    assert holding == {14}
    for r in reps:
        obj = r._asdict()
        json.dumps(obj)
        assert obj["group"] == "Sz(8)"
        text = r.text()
        assert "star holds" in text or "star fails" in text


def test_burnside(get_table):
    for name in ["C6", "A5", "SL(2,5)", "PSL(2,7)", "A6"]:
        rep = burnside_check(get_table(name))
        assert rep.ok and rep.violations == ()
    c6 = burnside_check(get_table("C6"))
    assert c6.checked_rows == 0  # all characters linear
    a5 = burnside_check(get_table("A5"))
    assert a5.checked_rows == 4


def test_burnside_violation_on_a_hand_built_table(get_table):
    # no group's table breaks Burnside's theorem, so a row of A5's is edited:
    # each zero of row 1 (degree 3) becomes 1, and only that row is flagged
    t = get_table("A5")
    one = CycloNum(t.exponent, {0: 1})
    edited = tuple(one if v.is_zero() else v for v in t.rows[1])
    assert edited != t.rows[1]
    rep = burnside_check(t._replace(rows=(t.rows[0], edited) + t.rows[2:]))
    assert (rep.ok, rep.checked_rows, rep.violations) == (False, 4, (1,))


def test_two_prime(get_table):
    rep = two_prime_degree_check(get_table("PSL(2,5)"))
    assert rep.ok and rep.flagged == ()
    rep = two_prime_degree_check(get_table("Sz(8):3"))
    assert rep.ok and rep.excused
    assert len(rep.flagged) == 6
    assert all(d == 14 for _, d in rep.flagged)
    assert PRIMITIVITY_NOTE in rep.notes
    # the excuse is by group name: the same rows under another name fail
    renamed = get_table("Sz(8):3")._replace(group="Sz(8):3 renamed")
    strict = two_prime_degree_check(renamed)
    assert strict.flagged == rep.flagged and not strict.excused and not strict.ok


def test_two_prime_degree_outside_the_exponent(get_table):
    # A degree with primes that do not divide the exponent (no genuine table
    # has one) is still factored by trial division, with the verdict that
    # sympy's prime factors give.
    t = get_table("A5")  # exponent 30, largest class order 5
    one_class = [i for i in range(len(t.rows)) if len(vanishing_classes(t, i)) == 1]
    assert one_class
    for d in (2 * 7 * 11, 11**2, 3 * 7**3, 14):
        rows = tuple((CycloNum(t.exponent, {0: d}),) + row[1:] if i in one_class else row
                     for i, row in enumerate(t.rows))
        rep = two_prime_degree_check(t._replace(rows=rows))
        flagged = [i for i in one_class if len(sympy.primefactors(d)) >= 2]
        assert rep.flagged == tuple((i, d) for i in flagged), d


def test_classify_matches(get_table):
    rep = classify_one_class(get_table("PSL(2,5)"))
    assert rep.match is True
    assert rep.observed == (3, 3, 4)
    rep = classify_one_class(get_table("PGL(2,7)"))
    assert rep.match is True and rep.observed == (7, 7)


def test_classify_unlisted_group_notes(get_table):
    rep = classify_one_class(get_table("A6"))
    assert rep.match is None and rep.expected is None
    assert rep.observed == ()
    assert any("A6:2_2" in n for n in rep.notes)
    assert "no comparison performed" in rep.text()


def test_classify_mismatch_path(add_recipe):
    add_recipe(GroupRecipe("bogus", partial(psl2, 5), order=60, out=2,
                           one_class=(3,), note="bogus expectation"))
    rep = classify_one_class(build("bogus")[1])
    assert rep.match is False and rep.observed == (3, 3, 4)
    assert rep.expected == (3,) and rep.notes == ("bogus expectation",)
    assert "MISMATCH" in rep.text()


def test_one_class_rows_are_faithful_flagged(get_table):
    t = get_table("SL(2,5)")
    rep = classify_one_class(t)
    for i, d, nv, faithful in rep.rows:
        assert t.degree(i) == d
        assert len(vanishing_classes(t, i)) == nv
        assert is_faithful(t, i) == faithful


def test_survey(get_table, add_recipe):
    tables = [get_table(n) for n in ["A5", "A6", "PSL(2,7)", "PSL(2,8)"]]
    rep = simple_one_class_survey(tables)
    assert rep.ok
    assert [e.group for e in rep.entries] == ["A5", "A6", "PSL(2,7)", "PSL(2,8)"]
    a5 = rep.entries[0]
    assert sorted(d for _, d in a5.one_class_rows) == [3, 3, 4]
    add_recipe(GroupRecipe("bogus", partial(alternating, 5), order=60, out=2,
                           simple=True, simple_allowed=(4,)))
    rep = simple_one_class_survey([build("bogus")[1]])
    assert not rep.ok and not rep.entries[0].ok
    assert rep.entries[0].allowed == (4,)


@pytest.mark.parametrize("center", [None, 2])
def test_reports_use_a_recipe_only_when_the_table_meets_it(get_table, add_recipe,
                                                          monkeypatch, center):
    # Sz(8):3's table named after a recipe that promises it everything; with
    # center=2 the table fails a fact, and every report treats it as unknown
    add_recipe(GroupRecipe("bogus", suzuki_semilinear, order=87360, out=5, derived=29120,
                           center=center, one_class=(14,) * 6, simple_allowed=(14,),
                           two_prime_excused=True, note="bogus note"))
    t = get_table("Sz(8):3")._replace(group="bogus")
    calls = []
    monkeypatch.setattr(vanishing, "bind", lambda t: calls.append(t) or bind(t))
    two = two_prime_degree_check(t)
    cls = classify_one_class(t)
    survey = simple_one_class_survey([t])
    if center is None:
        assert two.excused and two.ok
        assert cls.match is True and cls.notes == ("bogus note",)
        assert survey.ok and survey.entries[0].allowed == (14,)
        assert {r.out_order for r in star_survey(t)} == {5}
        assert star_check(t, 1).out_order == 5
    else:
        why = "not the registry's bogus: center size 1 != expected 2"
        assert not two.excused and not two.ok
        assert (cls.expected, cls.match) == (None, None)
        assert cls.notes == (why, "group has no expected entry; no comparison performed")
        assert not survey.ok and survey.entries[0].allowed == ()
        for report in (star_survey, partial(star_check, row=1)):
            with pytest.raises(ValueError, match=rf"^no outer-order bound known for "
                                                 rf"'bogus' \({why}\); pass"):
                report(t)
    # one binding per report call: star_survey does not bind once per row
    assert len(calls) == 5 and all(c is t for c in calls)
    assert len(star_survey(t, out_order=1)) == len(t.rows) and len(calls) == 5


def test_report_objects_serialize(get_table):
    t = get_table("A5")
    for rep in (burnside_check(t), two_prime_degree_check(t),
                classify_one_class(t), simple_one_class_survey([t])):
        json.dumps(rep._asdict())
