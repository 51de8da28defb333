"""F_l[x] arithmetic and the eigenvalue root finder, with sympy's galoistools
as the oracle (sympy serves the tests here, not the table computation)."""
import itertools
import json
import random
import signal
from math import isqrt
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

from charzeros import fpoly
from charzeros.chartab import _MODULAR_CEILING, _prime_above

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
TABLES = Path(__file__).resolve().parents[1] / "perfbench" / "pinned" / "tables"
# (order, exponent) of every registry group, read from its pinned table
SHAPES = sorted({(t["order"], t["exponent"])
                 for t in map(json.loads, map(Path.read_text, TABLES.glob("*.tbl")))})
REGISTRY_PRIMES = sorted({_prime_above(isqrt(4 * n), m) for n, m in SHAPES})


def desc(a):
    """An ascending fpoly list as galoistools' descending one."""
    return a[::-1]


def polys(l, max_degree=8):
    return st.lists(st.integers(0, l - 1), max_size=max_degree + 1).map(fpoly._strip)


def field_and_polys(n):
    return st.sampled_from((2, 3, 7, 31, 16381)).flatmap(
        lambda l: st.tuples(st.just(l), *(polys(l) for _ in range(n))))


@PROPERTY
@given(field_and_polys(3), st.integers(0, 40))
def test_arithmetic_matches_galoistools(args, e):
    l, a, b, m = args
    assert desc(fpoly.mul(a, b, l)) == gt.gf_mul(desc(a), desc(b), l, ZZ)
    assert desc(fpoly.plus(a, 5, l)) == gt.gf_add_ground(desc(a), 5, l, ZZ)
    assert desc(fpoly.gcd(a, b, l)) == gt.gf_gcd(desc(a), desc(b), l, ZZ)
    if m:
        q, r = fpoly.divmod_(a, m, l)
        assert (desc(q), desc(r)) == tuple(gt.gf_div(desc(a), desc(m), l, ZZ))
        assert desc(fpoly.rem(a, m, l)) == gt.gf_rem(desc(a), desc(m), l, ZZ)
    if len(m) > 1:  # galoistools leaves 1 unreduced modulo a constant
        assert desc(fpoly.pow_mod(a, e, m, l)) == gt.gf_pow_mod(desc(a), e, desc(m), l, ZZ)
        assert desc(fpoly.compose_mod(a, b, m, l)) == \
            gt.gf_compose_mod(desc(a), desc(b), desc(m), l, ZZ)


def test_registry_primes_are_the_least_dixon_primes():
    def least(bound, m):
        l = bound + 1
        while l % m != 1 % m or not sympy.isprime(l):
            l += 1
        return l

    assert len(SHAPES) > 20 and REGISTRY_PRIMES[-1] == 16381  # Sz(8):3
    for n, m in SHAPES:
        l = m + 1
        while l * l <= 4 * n or not sympy.isprime(l):
            l += m
        assert _prime_above(isqrt(4 * n), m) == l, (n, m)
        # any lower bound, as verify's l > B + |G| takes
        for bound in (0, 1, m, 10 * n, 10 * n + 1):
            assert _prime_above(bound, m) == least(bound, m), (bound, m)
    # verify's bound B + |G| stays below the ceiling, so these are its largest
    for m in (1, 2, 60, 2520):
        for bound in (_MODULAR_CEILING - 2520, _MODULAR_CEILING - 2, _MODULAR_CEILING - 1):
            assert _prime_above(bound, m) == least(bound, m), (bound, m)


def test_roots_match_galoistools_on_split_products():
    # every minimal polynomial the split meets is a product of distinct
    # linear factors over the working prime: random ones, at each such prime
    rng = random.Random(21)
    for l in REGISTRY_PRIMES:
        for _ in range(30):
            roots = rng.sample(range(l), rng.randint(1, min(l, 12)))
            p = [rng.randrange(1, l)]  # a unit leading coefficient, descending
            for r in roots:
                p = gt.gf_mul(p, [1, -r % l], l, ZZ)
            _, factors = gt.gf_factor_sqf(p, l, ZZ)
            assert all(len(f) == 2 for f in factors)
            want = sorted(int(-f[1]) % l for f in factors)
            assert fpoly.split_roots(p[::-1], l) == want == sorted(roots), (l, p)


def test_roots_match_evaluation_at_every_residue():
    # every f of degree 1-3 with a unit leading coefficient over small
    # fields: this covers a zero discriminant, a non-square one, and l = 3,
    # where 1/2 = 2
    cases = 0
    for l in (2, 3, 5, 7, 11, 13):
        for degree in (1, 2, 3):
            for low in itertools.product(range(l), repeat=degree):
                for lead in range(1, l):
                    f = [*low, lead]
                    roots = [r for r in range(l)
                             if sum(c * r**i for i, c in enumerate(f)) % l == 0]
                    want = roots if len(roots) == degree else None
                    assert fpoly.split_roots(f, l) == want, (f, l)
                    cases += 1
    assert cases == 46284


def test_roots_over_f2_in_bounded_time():
    # at l = 2, (l - 1)/2 = 0 and every Cantor-Zassenhaus gcd is f itself:
    # x(x + 1) once looped forever
    def expired(signum, frame):
        raise TimeoutError("split_roots over F_2 ran past 2 s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(2)
    try:
        got = {tuple(f): fpoly.split_roots(f, 2)
               for f in ([0, 1, 1], [0, 1], [1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1])}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert got == {(0, 1, 1): [0, 1], (0, 1): [0], (1, 1): [1],
                   (1, 0, 1): None, (1, 1, 1): None, (0, 0, 1): None}


@pytest.mark.parametrize("p, l", [
    ([1, 0, 4], 7),         # x^2 - 3, irreducible: 3 is not a square mod 7
    ([1, 4, 4], 7),         # (x - 5)^2
    ([1, 2, 1], 31),        # (x + 1)^2
    ([1, 0, 0, 0], 5),      # x^3
    ([1, 0, 0, 5], 7),      # x^3 - 2, irreducible: 2 is not a cube mod 7
    ([1, 0, 4, 0], 7),      # x (x^2 - 3): one root in F_7, two outside
    ([1, 16379, 1], 16381), # (x - 1)^2 at the largest registry prime
])
def test_roots_refuse_a_polynomial_that_does_not_split_into_distinct_factors(p, l):
    _, factors = gt.gf_factor(p, l, ZZ)
    assert any(len(f) > 2 or k > 1 for f, k in factors)  # the oracle agrees
    assert fpoly.split_roots(p[::-1], l) is None  # the split's "eigenvalue outside" exit
