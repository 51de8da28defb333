import json
import random
import signal
import time
from cmath import exp, pi
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charzeros import cyclo
from charzeros.chartab import table_from_text, verify_table
from charzeros.cyclo import CycloNum, hermitian_sum, serial_terms
from charzeros.vanishing import classify_one_class, star_survey, two_prime_degree_check

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def from_obj(obj) -> CycloNum:
    """The value `to_obj` wrote, read back as a table file's entries are."""
    return CycloNum.from_terms(*serial_terms(obj))


def zeta(n, e=1, c=1):
    return CycloNum(n, {e: c})


def value(m, coeffs):
    """Complex value of sum c * zeta_m^e, evaluated here, not by the module."""
    return sum((complex(c) * exp(2j * pi * e / m) for e, c in coeffs.items()), 0j)


def galois(v, k):
    """The Galois image zeta -> zeta^k: an exponent map, then the constructor."""
    return CycloNum(v.order, {k * e: c for e, c in v.coeffs.items()})


def rand_cyclo(rng, m):
    coeffs = {rng.randrange(m): rng.randrange(-4, 5) for _ in range(rng.randrange(4))}
    return CycloNum(m, coeffs)


orders = st.integers(1, 72)
coefficients = st.integers(-5, 5)


@st.composite
def raw_terms(draw, m):
    # exponents outside [0, m) and repeated residues must be summed, not dropped
    return draw(st.dictionaries(st.integers(-2 * m, 3 * m), coefficients, max_size=6))


@st.composite
def order_and_raw(draw):
    m = draw(orders)
    return m, draw(raw_terms(m))


@st.composite
def hermitian_args(draw):
    m = draw(orders)
    n = draw(st.integers(1, 5))
    xs = [CycloNum(m, draw(raw_terms(m))) for _ in range(n)]
    ys = [CycloNum(m, draw(raw_terms(m))) for _ in range(n)]
    ws = draw(st.lists(st.integers(-3, 60), min_size=n, max_size=n))
    return m, xs, ys, ws


@PROPERTY
@given(order_and_raw())
def test_constructor_keeps_the_complex_value(case):
    m, raw = case
    v = CycloNum(m, raw)
    scale = 1 + sum(abs(c) for c in raw.values())
    assert abs(value(m, v.coeffs) - value(m, raw)) < 1e-9 * scale * m


@PROPERTY
@given(order_and_raw())
def test_constructor_output_is_canonical(case):
    m, raw = case
    v = CycloNum(m, raw)
    assert all(0 <= e < m and c != 0 for e, c in v.coeffs.items())
    assert CycloNum(m, dict(v.coeffs)).coeffs == v.coeffs
    back = from_obj(json.loads(json.dumps(v.to_obj())))
    assert back == v and back.coeffs == v.coeffs and back.to_obj() == v.to_obj()


@PROPERTY
@given(hermitian_args())
def test_hermitian_sum_matches_brute(case):
    m, xs, ys, ws = case
    # one reduction per product, added canonical map by canonical map
    brute: dict[int, int] = {}
    for x, y, w in zip(xs, ys, ws):
        for a, c in x.coeffs.items():
            for b, d in y.coeffs.items():
                brute = _add(brute, CycloNum(m, {a - b: w * c * d}).coeffs)
    got = hermitian_sum(xs, ys, ws)
    assert got.order == m and got.coeffs == brute
    want = sum((w * value(m, x.coeffs) * value(m, y.coeffs).conjugate()
                for x, y, w in zip(xs, ys, ws)), 0j)
    scale = 1 + sum(abs(w) * sum(map(abs, x.coeffs.values())) * sum(map(abs, y.coeffs.values()))
                    for x, y, w in zip(xs, ys, ws))
    assert abs(value(m, got.coeffs) - want) < 1e-9 * scale * m


def _add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def test_constructors():
    assert CycloNum(1, {}).is_zero()
    assert CycloNum(1, {0: 3}) == 3
    assert CycloNum(1, {0: -7}).rational_value() == -7
    assert CycloNum(6, {0: 1, 6: 1}).coeffs == {0: 2}
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert zeta(4, 2) == -1
    assert zeta(4, 1) == zeta(4, 5) == zeta(4, -3)
    assert CycloNum(4, {1: 1, 5: 1}) == zeta(4, 1, 2)


def test_roots_of_unity_relations():
    for n in range(2, 13):
        assert CycloNum(n, {t: 1 for t in range(n)}).is_zero(), n
        assert zeta(n, n) == 1, n


def test_primitive_root_sums():
    assert CycloNum(3, {1: 1, 2: 1}) == -1
    assert CycloNum(5, {1: 1, 2: 1, 3: 1, 4: 1}) == -1
    assert CycloNum(6, {1: 1, 5: 1}) == 1
    assert CycloNum(8, {1: 1, 7: 1}) not in (0, 1)


def test_embed():
    # the canonical basis at o maps into the one at m = k*o: scaling the
    # exponents of a canonical value gives a canonical value, unreduced
    rng = random.Random(4)
    for o, k in ((5, 6), (3, 4), (4, 3), (12, 5), (9, 2)):
        for _ in range(20):
            a = rand_cyclo(rng, o)
            b = CycloNum(o * k, {e * k: c for e, c in a.coeffs.items()})
            assert b.coeffs == {e * k: c for e, c in a.coeffs.items()}


def test_conjugate_and_galois():
    for n in (5, 7, 8, 12):
        z = zeta(n)
        assert hermitian_sum([z], [z], [1]) == 1
        assert galois(z, n - 1) == zeta(n, -1)
        one = zeta(n, 0)
        assert hermitian_sum([z, one], [one, z], [1, 1]) == CycloNum(n, {1: 1, -1: 1})
    a = CycloNum(5, {2: 1, 3: 1})
    assert galois(a, 2) == CycloNum(5, {4: 1, 1: 1})
    assert galois(galois(a, 3), 2) == galois(a, 6 % 5)
    assert galois(CycloNum(5, {0: 7}), 2) == 7


def test_galois_permutes_exponents():
    rng = random.Random(9)
    for _ in range(25):
        a = rand_cyclo(rng, 12)
        for k in (1, 5, 7, 11):
            assert galois(galois(a, k), pow(k, -1, 12)) == a


def test_mixed_orders_fail_loudly():
    a = zeta(3)
    b = CycloNum(12, {4: 1})  # the same complex number at order 12
    with pytest.raises(ValueError):
        _ = a == b
    with pytest.raises(ValueError):
        _ = a != b
    with pytest.raises(ValueError):
        hermitian_sum([a], [b], [1])
    with pytest.raises(ValueError):
        hermitian_sum([a, a], [a], [1, 1])


def test_rationality_and_integrality():
    assert CycloNum(1, {0: 4}).rational_value() == 4
    assert CycloNum(3, {1: 1, 2: 1}).is_rational()
    assert CycloNum(3, {1: 1, 2: 1}) == -1
    assert not zeta(5).is_rational()
    # reduction onto the integral basis keeps every coefficient an int
    for v in (CycloNum(8, {1: 1, 7: 1}), CycloNum(12, {e: e - 5 for e in range(12)})):
        assert v.coeffs and all(type(c) is int for c in v.coeffs.values())
    with pytest.raises(ValueError):
        zeta(5).rational_value()


def test_serialization_round_trip():
    rng = random.Random(3)
    for m in (1, 2, 6, 12, 20):
        for _ in range(20):
            a = rand_cyclo(rng, m)
            obj = a.to_obj()
            json.dumps(obj)
            assert all(den == 1 for _, _, den in obj["c"])
            assert from_obj(obj) == a


def test_from_obj_rejects_non_canonical():
    with pytest.raises(ValueError):
        from_obj({"m": 2, "c": [[1, 1, 1]]})
    with pytest.raises(ValueError):
        from_obj({"m": 4, "c": [[2, 1, 1], [1, 1, 1]]})
    with pytest.raises(ValueError):
        from_obj({"m": 4, "c": [[5, 1, 1]]})
    # what to_obj never writes: a denominator other than 1, other JSON
    # types, other fields
    for obj in ({"m": 4, "c": [[1, 1, 2]]}, {"m": 4, "c": [[1, 2, 2]]},
                {"m": 4, "c": [[1, 1, 0]]}, {"m": 4, "c": [[1, -1, -1]]},
                {"m": 4, "c": [[1, True, 1]]}, {"m": 4, "c": [[1.0, 1, 1]]},
                {"m": True, "c": []}, {"m": 4, "c": [[1, 1, 1]], "x": 0}, [4, []],
                {"m": 0, "c": []}, {"m": -6, "c": []}):
        with pytest.raises(ValueError):
            from_obj(obj)


def test_hash_consistent_across_orders():
    # a rational value hashes like the int it equals, at every order
    for m in (1, 6, 60):
        assert hash(CycloNum(m, {0: 5})) == hash(5)
        assert hash(CycloNum(m, {0: -3})) == hash(-3)
    rng = random.Random(11)
    for m in (5, 12, 30):
        for _ in range(20):
            a = rand_cyclo(rng, m)
            b = from_obj(a.to_obj())
            assert a == b and hash(a) == hash(b)


PINNED_TABLES = Path(__file__).resolve().parents[1] / "perfbench" / "pinned" / "tables"


def test_order_with_two_large_primes_is_refused():
    # no table has an order outside lcm(1..256): it is refused, not factored
    cyclo._locals.cache_clear()
    for m in (40009 * 40013, 257, 289, 512):
        for make in (cyclo._locals, lambda m: CycloNum(m, {1: 1})):
            with pytest.raises(ValueError, match=rf"^order {m} does not divide lcm\(1..256\)$"):
                make(m)
    for m in (1, 251 * 256, 243 * 125 * 49, cyclo._ORDER_LCM):
        assert prod(q for _, q, *_ in cyclo._locals(m)) == m
    assert CycloNum(cyclo._ORDER_LCM, {0: 1}) == 1
    cyclo._locals.cache_clear()


def test_large_order_refused_in_bounded_time():
    # two primes near 10^9: the order was once trial-divided until killed
    def expired(signum, frame):
        raise TimeoutError("CycloNum ran past 2 s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(2)
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not divide lcm"):
            CycloNum(1000000007 * 998244353, {1: 1})
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert elapsed < 1


def test_read_path_factors_pinned_tables_without_sympy():
    # the read path, cold, runs every verdict on the pinned tables (the
    # numbers it factors there are checked against sympy in test_numtheory)
    cyclo._locals.cache_clear()
    for f in sorted(PINNED_TABLES.glob("*.tbl")):
        t = table_from_text(f.read_text())
        assert verify_table(t).ok
        star_survey(t)
        classify_one_class(t)
        assert two_prime_degree_check(t).ok, t.group
    cyclo._locals.cache_clear()
