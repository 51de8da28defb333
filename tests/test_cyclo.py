import json
import random
from cmath import exp, pi
from fractions import Fraction

import pytest

from charzeros.cyclo import CycloNum


def zeta(n, e=1, c=1):
    return CycloNum(n, {e: c})


def rand_cyclo(rng, m):
    coeffs = {rng.randrange(m): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(rng.randrange(4))}
    return CycloNum(m, coeffs)


def test_constructors():
    assert CycloNum.zero().is_zero()
    assert CycloNum.rational(3) == 3
    assert CycloNum.rational(Fraction(2, 3)).rational_value() == Fraction(2, 3)
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert zeta(4) * zeta(4) == -1


def test_roots_of_unity_relations():
    for n in range(2, 13):
        total = CycloNum.zero()
        for t in range(n):
            total = total + zeta(n, t)
        assert total.is_zero(), n
        prod = zeta(n, 1)
        for _ in range(n - 1):
            prod = prod * zeta(n, 1)
        assert prod == 1, n


def test_primitive_root_sums():
    assert zeta(3, 1) + zeta(3, 2) == -1
    assert zeta(5, 1) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4) == -1
    assert zeta(6, 1) + zeta(6, 5) == 1
    assert zeta(8, 1) + zeta(8, 7) not in (0, 1)


def test_field_axioms_random():
    rng = random.Random(5)
    for m in (4, 6, 12, 15):
        for _ in range(40):
            a, b, c = (rand_cyclo(rng, m) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + 0 == a and a * 1 == a
            assert a - a == 0


def test_mixed_order_arithmetic():
    a = zeta(3)
    b = zeta(4)
    s = a + b
    assert s.order == 12
    assert s - b == a.embed(12)
    assert (a * b) == zeta(12, 7)


def test_embed():
    a = zeta(5, 2) + 3
    b = a.embed(30)
    assert b.order == 30 and b.coeffs == {6 * e: c for e, c in a.coeffs.items()}
    assert b.approx() == pytest.approx(a.approx())
    with pytest.raises(ValueError):
        a.embed(7)


def test_conjugate_and_galois():
    for n in (5, 7, 8, 12):
        z = zeta(n)
        assert z * z.conjugate() == 1
        assert z.conjugate() == z.galois(n - 1)
        assert (z + z.conjugate()).approx().imag == pytest.approx(0, abs=1e-12)
    a = zeta(5, 2) + zeta(5, 3)
    assert a.galois(2) == zeta(5, 4) + zeta(5, 1)
    assert a.galois(3).galois(2) == a.galois(6 % 5)
    assert CycloNum.rational(7, 5).galois(2) == 7
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_galois_permutes_exponents():
    rng = random.Random(9)
    for _ in range(25):
        a = rand_cyclo(rng, 12)
        for k in (1, 5, 7, 11):
            img = a.galois(k)
            back = img.galois(pow(k, -1, 12))
            assert back == a


def test_approx_guard():
    for n in range(1, 16):
        got = zeta(n).approx()
        assert abs(got - exp(2j * pi / n)) < 1e-9


def test_rationality_and_integrality():
    assert CycloNum.rational(4).is_integral()
    assert not CycloNum.rational(Fraction(1, 2)).is_integral()
    assert (zeta(3) + zeta(3, 2)).is_rational()
    assert not zeta(5).is_rational()
    assert (zeta(8) + zeta(8, 7)).is_integral()
    assert not zeta(8, 1, Fraction(1, 3)).is_integral()
    with pytest.raises(ValueError):
        zeta(5).rational_value()


def test_serialization_round_trip():
    rng = random.Random(3)
    for m in (1, 2, 6, 12, 20):
        for _ in range(20):
            a = rand_cyclo(rng, m)
            obj = a.to_obj()
            json.dumps(obj)
            assert CycloNum.from_obj(obj) == a


def test_from_obj_rejects_non_canonical():
    with pytest.raises(ValueError):
        CycloNum.from_obj({"m": 2, "c": [[1, 1, 1]]})
    with pytest.raises(ValueError):
        CycloNum.from_obj({"m": 4, "c": [[2, 1, 1], [1, 1, 1]]})
    with pytest.raises(ValueError):
        CycloNum.from_obj({"m": 4, "c": [[5, 1, 1]]})


def test_hash_consistent_across_orders():
    a = zeta(3, 1)
    b = a.embed(12)
    assert a == b and hash(a) == hash(b)
    r = CycloNum.rational(5, 1)
    s = CycloNum.rational(5, 60)
    assert r == s and hash(r) == hash(s)
    assert hash(CycloNum.rational(5)) == hash(5)

