import bisect
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import compress

import pytest
import sympy

from charzeros import numtheory
from charzeros.numtheory import (
    DiophantineSolutionSet,
    cyclotomic_poly_value,
    diophantine_solutions,
    outer_bound_sweep,
    prime_power,
    torus_orders,
    zsigmondy,
)
from helpers import brute_diophantine, brute_zsigmondy

PRIME_POWERS_50 = [q for q in range(2, 51) if prime_power(q) is not None]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_prime_power_matches_factoring():
    for q in range(100_001):
        ps = sympy.primefactors(q) if q >= 2 else []
        want = (ps[0], sympy.multiplicity(ps[0], q)) if len(ps) == 1 else None
        assert prime_power(q) == want, q
    assert prime_power(3**40) == (3, 40)
    assert prime_power((2**61 - 1)**3) == (2**61 - 1, 3)
    assert prime_power(2**64 + 1) is None  # 274177 * 67280421310721


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
            assert sympy.n_order(q, l) == n


def test_zsigmondy_rejects():
    with pytest.raises(ValueError, match="6 is not a prime power"):
        zsigmondy(6, 3)
    with pytest.raises(ValueError):
        zsigmondy(4, 1)


def test_outer_bound_truth_by_fractions():
    for q in PRIME_POWERS_50:
        f = prime_power(q)[1]
        if q > 11:
            want = 6 * f + 1 < Fraction(q * q - q - 2, 9)
            assert numtheory._outer_bound_ok(q, f, "A") == want
        if q >= 7 and q % 2 == 1:
            want = 4 * f + 1 < Fraction(q * q - 1, 8)
            assert numtheory._outer_bound_ok(q, f, "B") == want


def test_outer_bound_sweep_small():
    assert outer_bound_sweep(10**4) == []


def _outer_bound_domains(bound):
    """(q, f, part) for every prime power q = p^f <= bound in each part's
    domain, ascending, from sympy's primes."""
    points = []
    for p in sympy.primerange(2, bound + 1):
        for f in range(1, bound.bit_length()):
            q = p**f
            if q > bound:
                break
            if q > 11:
                points.append((q, f, "A"))
            if q >= 7 and q % 2 == 1:
                points.append((q, f, "B"))
    return sorted(points)


def test_outer_bound_sweep_visits_each_domain_point_once(monkeypatch):
    domains = _outer_bound_domains(10**4)
    calls = []
    failing = {(13, "A"), (9, "B"), (27, "B")}

    def recording(q, f, part):
        calls.append((q, f, part))
        return (q, part) not in failing

    monkeypatch.setattr(numtheory, "_outer_bound_ok", recording)
    bad = outer_bound_sweep(10**4)
    assert sorted(calls) == sorted(domains) and len(calls) == len(set(calls))
    assert bad == [(3, 2, "B"), (13, 1, "A"), (3, 3, "B")]


def test_outer_bound_sweep_visits_each_domain_point_once_with_both_parts_failing(
        monkeypatch):
    # at q = 13 and q = 25 both parts fail: the sweep goes prime by prime, so
    # only its final sort by q puts 25 after 13 (and 9 before 13), and that
    # sort must keep part A before part B at one q
    domains = _outer_bound_domains(10**3)
    calls = []
    failing = {(13, "A"), (13, "B"), (9, "B"), (25, "A"), (25, "B")}

    def recording(q, f, part):
        calls.append((q, f, part))
        return (q, part) not in failing

    monkeypatch.setattr(numtheory, "_outer_bound_ok", recording)
    bad = outer_bound_sweep(10**3)
    assert sorted(calls) == sorted(domains) and len(calls) == len(set(calls))
    assert bad == [(3, 2, "B"), (13, 1, "A"), (13, 1, "B"), (5, 2, "A"), (5, 2, "B")]


def test_outer_bound_sweep_proves_no_prime_again(monkeypatch):
    # the primes come from the in-house sieve: with sympy blocked, the sweep
    # to the default bound still runs, and within its budget
    monkeypatch.setitem(sys.modules, "sympy", None)
    with pytest.raises(ImportError):
        __import__("sympy")
    t0 = time.perf_counter()
    bad = outer_bound_sweep(10**6)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 1.0, f"sweep to 10^6 took {elapsed:.2f}s, budget 1s"


def test_outer_bound_sweep_splits_at_the_square_root(monkeypatch):
    # the sweep walks the powers of the primes up to max(sqrt(bound), 11) and
    # visits each larger prime once, as p^1, in both parts: on each side of a
    # prime's square (where it moves from one pass to the other) and of its
    # cube, every domain point is visited once and with the right f
    bounds = {*range(2, 301), 1024, 3125, 10**4}
    bounds.update(p**e + d for p in sympy.primerange(2, 100) for e in (2, 3)
                  for d in (-1, 0, 1))
    points = _outer_bound_domains(max(bounds))
    calls = []

    def recording(q, f, part):
        calls.append((q, f, part))
        return True

    monkeypatch.setattr(numtheory, "_outer_bound_ok", recording)
    for bound in sorted(bounds):
        calls.clear()
        assert outer_bound_sweep(bound) == []
        # points has no duplicates, so neither has calls when they are equal
        assert sorted(calls) == points[:bisect.bisect_right(points, (bound, math.inf))], bound


def test_outer_bound_sweep_memory_peak():
    # one byte per odd number up to the bound: neither striking a prime's
    # multiples nor reading the primes above the square root copies the sieve
    bound = 10**6
    tracemalloc.start()
    try:
        outer_bound_sweep(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ((bound + 1) // 2), peak


def test_primes_upto_matches_sympy():
    # the odd primes read off the sieve, for every n up to 3000, each side of
    # each small prime's square (where an odd prime starts striking), and the
    # default sweep bound
    ns = {*range(1, 3001), 10**6}
    ns.update(p * p + d for p in sympy.primerange(2, 200) for d in (-1, 0, 1))
    for n in sorted(ns):
        got = compress(range(1, n + 1, 2), numtheory._odd_sieve(n))
        assert list(got) == list(sympy.primerange(3, n + 1)), n


def test_outer_bound_sweep_ceiling(monkeypatch):
    def no_sieve(bound):
        if bound > numtheory.MAX_SWEEP_BOUND:
            raise AssertionError(f"sieved up to {bound}")
        return bytearray((bound + 1) // 2)  # no odd primes: only 2's powers

    monkeypatch.setattr(numtheory, "_odd_sieve", no_sieve)
    assert numtheory.MAX_SWEEP_BOUND == 10**7
    assert outer_bound_sweep(10**7) == []
    for bound in (10**7 + 1, 10**10):
        with pytest.raises(ValueError, match="bound must be <= 10000000"):
            outer_bound_sweep(bound)


def test_outer_bound_sweep_floor(monkeypatch):
    # a bound below the least prime power once returned [], i.e. "holds"
    def no_sieve(bound):
        raise AssertionError(f"sieved up to {bound}")

    monkeypatch.setattr(numtheory, "_odd_sieve", no_sieve)
    for bound in (-5, 0, 1):
        with pytest.raises(ValueError, match=f"^bound must be >= 2, got {bound}$"):
            outer_bound_sweep(bound)
    monkeypatch.undo()
    assert outer_bound_sweep(2) == []


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


def test_diophantine_matches_prime_power_scan():
    near_powers = {2**k + d for k in range(21) for d in range(-2, 3)}
    bounds = sorted(b for b in {*range(3, 201), *near_powers, 10**6} if b >= 3)
    for part in "ABC":
        # a brute solution at bound b is a prime power q <= b that passes the
        # part's test, so one scan at the largest bound, filtered, is every set
        full = brute_diophantine(part, bounds[-1]).solutions
        for bound in bounds:
            brute = DiophantineSolutionSet(
                part, bound, tuple(s for s in full if s.q <= bound))
            assert diophantine_solutions(part, bound) == brute, (part, bound)


def test_diophantine_walks_only_two_power_candidates(monkeypatch):
    def no_sieve(bound):
        raise AssertionError("diophantine_solutions sieved the primes")

    monkeypatch.setattr(numtheory, "_odd_sieve", no_sieve)
    for bound in (10**6, 10**60):
        # each 2^k +- 1 costs a primality test and a perfect-power root, no factoring
        t0 = time.perf_counter()
        got = {part: diophantine_solutions(part, bound).values for part in "ABC"}
        elapsed = time.perf_counter() - t0
        assert got == {"A": (3, 5, 17), "B": (3, 9), "C": (3,)}
        assert elapsed < 2.0, f"bound {bound} took {elapsed:.2f}s, budget 2s"


def test_diophantine_tests_prime_powers_only_on_the_right_shape():
    # a 4000-digit bound walks ~13,000 candidates; only those whose q-1 and
    # q+1 have the part's shape reach the prime-power test
    want = {"A": (3, 5, 17), "B": (3, 9), "C": (3,)}
    for part in "ABC":
        t0 = time.perf_counter()
        got = diophantine_solutions(part, 10**4000).values
        elapsed = time.perf_counter() - t0
        assert got == want[part]
        assert elapsed < 2.0, f"part {part} took {elapsed:.2f}s, budget 2s"


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
    assert [r.order for r in torus_orders("2A", 2, q)] == [(q**3 + 1) // (q + 1), q**2 - 1]
    assert [r.order for r in torus_orders("2A", 4, q)] == [(q**5 + 1) // (q + 1), q**4 - 1]
    assert [r.order for r in torus_orders("B", 3, q)] == [q**3 + 1, q**3 - 1]
    assert [r.order for r in torus_orders("C", 4, q)] == [q**4 + 1, (q**3 + 1) * (q + 1)]
    assert [r.order for r in torus_orders("D", 4, q)] == [(q**3 - 1) * (q - 1), (q**3 + 1) * (q + 1)]
    assert [r.order for r in torus_orders("D", 5, q)] == [q**5 - 1, (q**4 + 1) * (q + 1)]
    assert [r.order for r in torus_orders("2D", 4, q)] == [q**4 + 1, (q**3 + 1) * (q - 1)]


def test_torus_zsigmondy_divides_order():
    for family, n in (("A", 3), ("2A", 2), ("2A", 3), ("2A", 4), ("B", 3), ("C", 4), ("D", 4),
                      ("2D", 4)):
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
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        torus_orders("Z", 3, 5)
    with pytest.raises(ValueError, match="family 'D' has no row for n = 3"):
        torus_orders("D", 3, 5)
    with pytest.raises(ValueError, match="6 is not a prime power"):
        torus_orders("A", 2, 6)
