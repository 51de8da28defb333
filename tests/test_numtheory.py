from fractions import Fraction

import pytest
import sympy

from charzeros.numtheory import (
    DiophantineSolutionSet,
    NotCoprime,
    NotPrimePower,
    PreconditionViolated,
    UnsupportedFamily,
    cyclotomic_poly_value,
    diophantine_solutions,
    mult_order,
    outer_bound_holds,
    outer_bound_sweep,
    prime_power,
    torus_orders,
    zsigmondy,
)
from helpers import brute_zsigmondy

PRIME_POWERS_50 = [q for q in range(2, 51) if prime_power(q) is not None]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_cyclotomic_poly_value_matches_sympy():
    for n in range(1, 37):
        for q in (2, 3, 5, 7, 10):
            assert cyclotomic_poly_value(n, q) == sympy.cyclotomic_poly(n, q)


def test_cyclotomic_product_identity():
    for n in range(1, 25):
        for q in (2, 3, 4, 9):
            prod = 1
            for d in sympy.divisors(n):
                prod *= cyclotomic_poly_value(d, q)
            assert prod == q**n - 1


def test_cyclotomic_examples():
    assert cyclotomic_poly_value(1, 7) == 6
    assert cyclotomic_poly_value(5, 2) == 31
    assert cyclotomic_poly_value(12, 3) == 73


def test_mult_order():
    assert mult_order(2, 5) == 4
    assert mult_order(3, 13) == 3
    assert mult_order(4, 7) == 3
    for l in (3, 5, 7, 11, 13, 17):
        for q in range(2, 20):
            if q % l == 0:
                continue
            d = mult_order(q, l)
            assert d == sympy.n_order(q, l)
            assert (l - 1) % d == 0


def test_mult_order_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        mult_order(10, 5)


def test_zsigmondy_matches_brute():
    for q in PRIME_POWERS_50[:8]:
        for n in range(2, 9):
            out = zsigmondy(q, n)
            assert out.prime == brute_zsigmondy(q, n), (q, n)
            assert (out.prime is None) == (out.exception_reason is not None)


def test_zsigmondy_exceptions():
    assert zsigmondy(2, 6).exception_reason == "Q2N6"
    assert zsigmondy(7, 2).exception_reason == "N2_QPLUS1_POW2"
    assert zsigmondy(3, 2).exception_reason == "N2_QPLUS1_POW2"
    assert zsigmondy(2, 4).prime == 5


def test_zsigmondy_prime_properties():
    for q in (2, 3, 5, 9, 16):
        for n in range(2, 11):
            out = zsigmondy(q, n)
            if out.prime is None:
                continue
            l = out.prime
            assert (q**n - 1) % l == 0
            assert all((q**i - 1) % l for i in range(1, n))
            assert mult_order(q, l) == n


def test_zsigmondy_rejects():
    with pytest.raises(NotPrimePower):
        zsigmondy(6, 3)
    with pytest.raises(ValueError):
        zsigmondy(4, 1)


def test_outer_bound_truth_by_fractions():
    for q in PRIME_POWERS_50:
        p, f = prime_power(q)
        if q > 11:
            want = 6 * f + 1 < Fraction(q * q - q - 2, 9)
            assert outer_bound_holds(p, f, "A") == want
        if q >= 7 and q % 2 == 1:
            want = 4 * f + 1 < Fraction(q * q - 1, 8)
            assert outer_bound_holds(p, f, "B") == want


def test_outer_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        outer_bound_holds(11, 1, "A")
    with pytest.raises(PreconditionViolated):
        outer_bound_holds(2, 3, "B")
    with pytest.raises(PreconditionViolated):
        outer_bound_holds(5, 1, "B")
    with pytest.raises(ValueError):
        outer_bound_holds(4, 1, "A")
    with pytest.raises(ValueError):
        outer_bound_holds(7, 1, "X")


def test_outer_bound_sweep_small():
    assert outer_bound_sweep(10**4) == []


def test_diophantine_known_solutions():
    assert diophantine_solutions("A", 100).values == (3, 5, 17)
    assert diophantine_solutions("B", 100).values == (3, 9)
    assert diophantine_solutions("C", 100).values == (3,)


def test_diophantine_witnesses():
    for part in "ABC":
        res = diophantine_solutions(part, 10**4)
        assert isinstance(res, DiophantineSolutionSet)
        assert list(res.values) == sorted(set(res.values))
        for s in res.solutions:
            assert prime_power(s.q) is not None
            if part == "A":
                assert s.q - 1 == 2**s.c
                assert s.q + 1 == 2**s.a * 3**s.b and s.a >= 1
            elif part == "B":
                assert s.q - 1 == 2**s.a and s.a >= 1
                assert s.q + 1 == 2**s.b * 5**s.c
            else:
                assert s.q - 1 == 2**s.a * 5**s.b and s.a >= 1
                assert s.q + 1 == 2**s.c


def test_diophantine_monotone_prefix():
    for part in "ABC":
        small = diophantine_solutions(part, 200).solutions
        large = diophantine_solutions(part, 5000).solutions
        assert large[: len(small)] == small


def test_diophantine_rejects():
    with pytest.raises(ValueError):
        diophantine_solutions("D", 100)
    with pytest.raises(ValueError):
        diophantine_solutions("A", 2)


def test_torus_linear_family():
    rows = torus_orders("A", 1, 5)
    assert [r.order for r in rows] == [6, 4]
    assert rows[0].zsig is not None and rows[0].zsig.prime == 3
    assert rows[1].zsig is None
    rows = torus_orders("A", 1, 7)
    assert [r.order for r in rows] == [8, 6]
    assert rows[0].zsig.exception_reason == "N2_QPLUS1_POW2"
    rows = torus_orders("A", 2, 4)
    assert [r.order for r in rows] == [21, 15]
    assert rows[0].zsig.prime == 7
    assert rows[1].zsig.prime == 5


def test_torus_classical_families():
    q = 3
    assert [r.order for r in torus_orders("2A", 3, q)] == [(q**4 - 1) // (q + 1), q**3 + 1]
    assert [r.order for r in torus_orders("B", 3, q)] == [q**3 + 1, q**3 - 1]
    assert [r.order for r in torus_orders("C", 4, q)] == [q**4 + 1, (q**3 + 1) * (q + 1)]
    assert [r.order for r in torus_orders("D", 4, q)] == [(q**3 - 1) * (q - 1), (q**3 + 1) * (q + 1)]
    assert [r.order for r in torus_orders("D", 5, q)] == [q**5 - 1, (q**4 + 1) * (q + 1)]
    assert [r.order for r in torus_orders("2D", 4, q)] == [q**4 + 1, (q**3 + 1) * (q - 1)]


def test_torus_zsigmondy_divides_order():
    for family, n in (("A", 3), ("2A", 3), ("B", 3), ("C", 4), ("D", 4), ("2D", 4)):
        for q in (2, 3, 4, 5):
            for r in torus_orders(family, n, q):
                if r.zsig is not None and r.zsig.prime is not None:
                    assert r.order % r.zsig.prime == 0, (family, n, q, r)


def test_torus_exceptional_families():
    phi = cyclotomic_poly_value
    assert [r.order for r in torus_orders("F4", 4, 2)] == [phi(12, 2), phi(8, 2)]
    assert [r.order for r in torus_orders("E6", 6, 2)] == [
        phi(12, 2) * phi(3, 2), phi(9, 2), phi(8, 2) * phi(2, 2) * phi(1, 2)]
    assert [r.order for r in torus_orders("E8", 8, 2)] == [
        phi(30, 2), phi(24, 2), phi(20, 2)]
    assert torus_orders("E8", 8, 2)[0].order == 331


def test_torus_rejects():
    with pytest.raises(UnsupportedFamily):
        torus_orders("Z", 3, 5)
    with pytest.raises(UnsupportedFamily):
        torus_orders("D", 3, 5)
    with pytest.raises(NotPrimePower):
        torus_orders("A", 2, 6)
