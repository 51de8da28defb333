import itertools

import pytest

from charzeros.fields import FqField, NotPrime, TooLarge, conway_polynomial, gf
from helpers import field_element_order


def test_prime_field_matches_int_arithmetic():
    F = gf(5)
    for a in range(5):
        for b in range(5):
            assert F.add(a, b) == (a + b) % 5
            assert F.mul(a, b) == (a * b) % 5
            assert F.add(a, F.neg(b)) == (a - b) % 5
            if b:
                assert F.mul(F.div(a, b), b) == a


def test_f8_canonical_modulus():
    # x^3 + x + 1, ascending coefficients
    assert conway_polynomial(2, 3) == (1, 1, 0, 1)
    F = gf(2, 3)
    assert F.q == 8
    x = 2  # the label encoding the generator polynomial x
    assert F.mul(F.mul(x, x), x) == F.add(x, 1)  # x^3 = x + 1


def test_field_axioms_small_extensions():
    for p, f in ((2, 2), (3, 2), (2, 3)):
        F = gf(p, f)
        els = list(F.elements())
        assert len(els) == p**f
        for a, b in itertools.product(els[:6], els[:6]):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a, b, c in itertools.product(els[:4], els[:4], els[:4]):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_multiplicative_group_cyclic():
    for p, f in ((2, 3), (3, 2), (2, 4), (5, 1)):
        F = gf(p, f)
        g = F.generator
        assert field_element_order(F, g) == F.q - 1
        seen = {1}
        cur = g
        while cur != 1:
            seen.add(cur)
            cur = F.mul(cur, g)
        assert len(seen) == F.q - 1


def test_frobenius_is_field_automorphism():
    F = gf(2, 3)
    for a in F.elements():
        assert F.frobenius(a) == F.pow(a, 2)
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    # a^q = a for every a
    for a in F.elements():
        assert F.pow(a, F.q) == a


def test_pow_and_orders():
    F = gf(3, 2)
    for a in F.elements():
        if a == 0:
            continue
        o = field_element_order(F, a)
        assert (F.q - 1) % o == 0
        assert F.pow(a, o) == 1
        assert all(F.pow(a, k) != 1 for k in range(1, o))
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0


def test_zero_division():
    F = gf(2, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_conway_tower_compatibility():
    # the degree-1 subfield norm condition: modulus of F4 evaluated at
    # x^(q-1)/(p-1) must vanish, which test_f8 indirectly covers; here just
    # pin the small classical polynomials
    assert conway_polynomial(2, 1) == (1, 1)
    assert conway_polynomial(3, 1) == (1, 1)
    assert conway_polynomial(5, 1) == (3, 1)
    assert conway_polynomial(2, 2) == (1, 1, 1)
    assert conway_polynomial(3, 2) == (2, 2, 1)
    # every other field a builder constructs or a test touches
    assert conway_polynomial(2, 4) == (1, 1, 0, 0, 1)
    assert conway_polynomial(2, 5) == (1, 0, 1, 0, 0, 1)
    assert conway_polynomial(3, 3) == (1, 2, 0, 1)
    assert conway_polynomial(5, 2) == (2, 4, 1)
    assert conway_polynomial(7, 2) == (3, 6, 1)
    assert conway_polynomial(31, 1) == (28, 1)


def test_gf_rejections():
    with pytest.raises(NotPrime):
        gf(4)
    with pytest.raises(NotPrime):
        conway_polynomial(6, 2)
    with pytest.raises(TooLarge):
        gf(2, 20)
    with pytest.raises(ValueError):
        conway_polynomial(2, 0)


def test_fqfield_class_alias():
    assert isinstance(gf(7), FqField)
