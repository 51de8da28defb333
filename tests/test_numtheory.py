import bisect
import math
import multiprocessing
import os
import random
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import compress
from pathlib import Path

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from charzeros import numtheory
from charzeros.chartab import central_classes, table_from_text
from charzeros.numtheory import (
    MAX_BITS,
    DiophantineSolutionSet,
    Unresolved,
    cyclotomic_poly_value,
    diophantine_solutions,
    is_prime,
    outer_bound_sweep,
    prime_power,
    root_of_unity,
    torus_orders,
    trial_factor,
    zsigmondy,
)
from helpers import brute_diophantine, brute_zsigmondy
from test_fpoly import REGISTRY_PRIMES

PINNED_TABLES = Path(__file__).resolve().parents[1] / "perfbench" / "pinned" / "tables"

PRIME_POWERS_50 = [q for q in range(2, 51) if prime_power(q) is not None]

# psi_k, the least strong pseudoprime to each of the first k prime bases
# (OEIS A014233), k = 1..13; psi_13 is the bound of the deterministic test
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)


def test_is_prime_matches_sympy_below_200000():
    assert [n for n in range(200_000) if is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_rejects_strong_pseudoprimes():
    # each psi_k passes Miller-Rabin to the first k primes; psi_13 is past the
    # deterministic range, so BPSW's Lucas half must reject it, as it must
    # the composite Mersenne numbers and Fermat numbers above it, which are
    # all strong pseudoprimes to base 2
    for n in PSI:
        assert not sympy.isprime(n) and not is_prime(n), n
    big = [2**p - 1 for p in sympy.primerange(83, 400) if not sympy.isprime(2**p - 1)]
    big += [2**128 + 1, 2**256 + 1]
    assert len(big) > 50
    for n in big:
        assert n > PSI[-1] and numtheory._strong_probable_prime(n, 2)
        assert not is_prime(n), n
    for p in (2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1):
        assert is_prime(p)


def test_is_prime_rejects_carmichael_numbers():
    # Chernick's (6k+1)(12k+1)(18k+1) with all three factors prime, on both
    # sides of psi_13, and the Carmichael numbers below 10^5
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                for k in (*range(1, 400), *range(14_000_000, 14_002_000))
                if all(sympy.isprime(f * k + 1) for f in (6, 12, 18))]
    assert min(chernick) == 1729 and max(chernick) > PSI[-1]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
                  46657, 52633, 62745, 63973, 75361]
    for n in carmichael + chernick:
        assert not is_prime(n), n


def test_is_prime_on_seeded_semiprimes():
    rng = random.Random(39)
    for bits in (64, 96, 128, 192, 256):
        for _ in range(20):
            p, q = (sympy.nextprime(rng.getrandbits(bits // 2) | 1 << (bits // 2 - 1))
                    for _ in range(2))
            assert is_prime(p) and is_prime(q)
            assert not is_prime(p * q) and not sympy.isprime(p * q)
            odd = rng.getrandbits(bits) | 1
            assert is_prime(odd) == sympy.isprime(odd), odd


def test_strong_lucas_matches_sympy():
    # below psi_13 is_prime never reaches the Lucas half, so it is checked on
    # its own: every odd n < 300,000 with no prime factor up to 41
    for n in range(43 * 43, 300_000, 2):
        if all(n % p for p in numtheory._BASES):
            assert numtheory._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


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


def test_trial_factor_matches_sympy():
    for n in (*range(1, 10**5 + 1), 40009 * 40013, 2**3 * 1000003**2):
        assert trial_factor(n) == sorted(sympy.factorint(n).items()), n


def test_trial_factor_matches_sympy_on_the_read_path():
    # every number the read path factors on the pinned tables
    tables = [table_from_text(f.read_text()) for f in sorted(PINNED_TABLES.glob("*.tbl"))]
    assert len(tables) == 35
    for t in tables:
        z = sum(t.classes[j].size for j in central_classes(t))
        numbers = {t.exponent, z, *(c.element_order for c in t.classes),
                   *(t.degree(i) for i in range(len(t.rows)))}
        for n in numbers:
            assert trial_factor(n) == sorted(sympy.factorint(n).items()), (t.group, n)


def test_root_of_order_l_minus_1_is_the_least_primitive_root():
    for l in sorted(set(REGISTRY_PRIMES) | set(sympy.primerange(3, 2000))):
        assert root_of_unity(l, l - 1) == sympy.primitive_root(l), l


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
    for q in (q for q in range(2, 65) if prime_power(q) is not None):
        for n in range(2, 17):
            out = zsigmondy(q, n)
            assert out.prime == brute_zsigmondy(q, n), (q, n)
            assert (out.prime is None) == (out.exception_reason is not None)


def test_zsigmondy_beyond_the_search_by_rho(monkeypatch):
    # no primitive prime divisor of 13^19 - 1 is below 10^7: the search stops
    # after its first stretch, and rho factors Phi_19(13)'s cofactor, with no
    # elliptic curve
    calls, curves = [], []
    factor, curve = numtheory._factor, numtheory._ecm_curve
    monkeypatch.setattr(numtheory, "_factor", lambda c: calls.append(c) or factor(c))
    monkeypatch.setattr(numtheory, "_ecm_curve", lambda *a: curves.append(a) or curve(*a))
    assert zsigmondy(13, 19).prime == 12_865_927 == brute_zsigmondy(13, 19)
    assert calls == [cyclotomic_poly_value(19, 13)] and curves == []


# (q, n) -> the least primitive prime divisor of q^n - 1, by sympy's factorint
# (`helpers.brute_zsigmondy`, up to 18 s each), for the q < 400 and n <= 30
# whose cofactor of Phi_n(q) has a prime factor that neither rho nor the
# order search reaches
ECM_ANSWERS = {
    (29, 23): 131327761273, (31, 27): 1836205027201, (32, 25): 269089806001,
    (43, 23): 11264087821629961, (43, 27): 1102642863391, (47, 23): 6630274723,
    (47, 29): 368592716837, (59, 29): 80986039, (67, 23): 95052547721497,
    (71, 19): 1900857799450121, (71, 21): 9401987029, (79, 19): 200413027,
    (81, 26): 2093124281, (89, 25): 3802641100328251, (89, 29): 17175865789597,
    (97, 26): 2892928273, (103, 17): 1879495234129, (107, 23): 2898050293273,
    (113, 19): 4278041, (127, 13): 12346432697, (127, 17): 527532101,
    (127, 19): 496833428679257, (131, 17): 167517083, (131, 25): 20445701,
    (139, 17): 50368445538589, (157, 29): 25374827, (169, 19): 12865927,
    (179, 27): 31367899, (191, 11): 34179328063, (193, 19): 14848802443,
    (193, 26): 37919936939, (199, 11): 75449464927, (199, 13): 3581839,
    (199, 21): 14848851902767, (211, 29): 74953823981, (223, 17): 49438818584964793,
    (223, 24): 1820325601, (227, 29): 1214609209253467, (233, 17): 165787221569,
    (239, 17): 20351620493988061, (241, 27): 3023489431, (251, 15): 2376251641,
    (251, 25): 10648657951, (263, 17): 84004624433, (269, 25): 1901256964351,
    (277, 17): 251149560317, (281, 11): 201637702531, (281, 23): 72872721877,
    (283, 19): 3147161, (283, 27): 7137397, (289, 26): 19825313, (293, 25): 10245631444151,
    (307, 30): 1596520171, (311, 17): 3918246517569193, (311, 26): 11447583629,
    (313, 13): 284101057787, (313, 17): 642681586231, (313, 28): 5408437553,
    (317, 27): 951036607, (331, 19): 282349518620419, (337, 17): 60227864741094026321,
    (343, 15): 1527007411, (343, 28): 13564461457, (349, 15): 14594668651,
    (349, 19): 2058082831913, (349, 22): 941727139, (353, 25): 7848454439201,
    (359, 17): 85001215236190499, (359, 20): 2270254381, (361, 17): 3044803,
    (367, 19): 21916622172737, (367, 24): 5210195161, (367, 26): 3201328729,
    (373, 11): 7734564311, (373, 27): 4195222741, (379, 13): 37028483467,
    (379, 27): 2316975064310922247, (383, 11): 51495687563, (383, 26): 125207707,
    (383, 27): 9613243, (383, 28): 5175857, (389, 27): 716918942071, (397, 22): 1495868221,
}


def test_zsigmondy_by_elliptic_curves():
    # the inputs are independent, so they run across the usable CPUs, in
    # processes started as the suite starts its own (`cli._suite_rows`)
    assert len(ECM_ANSWERS) == 83
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    start = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context(start)) as pool:
        found = pool.map(zsigmondy, *zip(*ECM_ANSWERS))
        assert {qn: z.prime for qn, z in zip(ECM_ANSWERS, found)} == ECM_ANSWERS


def test_elliptic_curves_split_what_rho_cannot(monkeypatch):
    # 2^61 - 1 is past rho's budget; the 32nd curve, sigma = 37 at B1 = 11000,
    # finds it, and only in stage 2
    p, m = 2**61 - 1, (2**61 - 1) * (2**89 - 1)
    assert numtheory._brent(m, numtheory.RHO_STEPS)[0] is None
    assert numtheory._factor(m) == (p, True)
    assert numtheory._ecm_curve(m, 37, 11000) == p
    k1, babies, k0, steps = numtheory._ecm_plan(11000)
    monkeypatch.setattr(numtheory, "_ecm_plan", lambda b1: (k1, babies, k0, (b"",) * len(steps)))
    assert numtheory._ecm_curve(m, 37, 11000) is None


def test_zsigmondy_large_inputs():
    # each once ran for minutes (all of Phi_n(q) was factored); the order
    # search now answers them
    assert zsigmondy(1000003, 60).prime == 61
    assert zsigmondy(10000000019, 97).prime == 3299
    assert [r.zsig.prime for r in torus_orders("E8", 8, 1000003)] == [211, 97849, 181]
    assert [r.zsig.prime for r in torus_orders("A", 1000, 2)] == [6007, 4001]
    # a large prime cofactor is proved prime, not searched to its root
    assert zsigmondy(23, 11).prime == 3_937_230_404_603


def test_zsigmondy_refuses_past_its_limits(monkeypatch):
    with pytest.raises(Unresolved, match="^no primitive prime divisor of 2\\^100000 - 1 is at "
                       "most 13107200001, and Phi_100000\\(2\\) is over the 1024-bit cap$"):
        zsigmondy(2, 100_000)
    with pytest.raises(Unresolved, match=f"^n = {10**30} is over the search limit of 131072"):
        zsigmondy(2, 10**30)  # never factored
    with pytest.raises(Unresolved, match=f"^q has {MAX_BITS + 1} bits"):
        zsigmondy(2**MAX_BITS, 2)
    # past 2 MAX_BITS bits q is refused before it is decided to be a prime power
    with pytest.raises(Unresolved, match=f"^q has {2 * MAX_BITS + 1} bits"):
        zsigmondy(2**(2 * MAX_BITS) + 1, 2)
    monkeypatch.setattr(numtheory, "RHO_STEPS", 100)
    monkeypatch.setattr(numtheory, "ECM_STEPS", 0)
    with pytest.raises(Unresolved, match="is at most 2490369, and the cofactor of "
                       "Phi_19\\(13\\) is not factored within 100 rho steps and 0 ECM steps$"):
        zsigmondy(13, 19)
    monkeypatch.setattr(numtheory, "ECM_STEPS", 10**4)
    assert zsigmondy(13, 19).prime == 12_865_927  # one curve at B1 = 2000


def test_zsigmondy_search_stops_at_the_least_prime_rho_splits_off(monkeypatch):
    # Phi_19(157)'s cofactor is 234271 times primes of 49 and 65 bits, which
    # rho cannot split within its budget; with no elliptic curve the search up
    # to 234271 proves it least
    monkeypatch.setattr(numtheory, "ECM_STEPS", 0)
    assert zsigmondy(157, 19).prime == 234271 == brute_zsigmondy(157, 19)


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
    # malformed input over the size cap is still malformed, not refused
    with pytest.raises(ValueError, match=f"^{2**MAX_BITS * 3} is not a prime power$"):
        zsigmondy(2**MAX_BITS * 3, 2)
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        zsigmondy(2**MAX_BITS, 1)


def test_outer_bound_truth_by_fractions():
    # each part against Fraction on its own domain, and never reported
    # outside it: at f = 100 both inequalities fail at every q <= 50, so the
    # domains alone decide what is reported; at q = 8, f = 3 both fail
    # (171 >= 54 and 104 >= 63), but 8 is in neither domain; at q = 19,
    # f = 11 part B fails by equality (45 = 45)
    assert numtheory._outer_bound_failures([8], 3) == []
    assert numtheory._outer_bound_failures([19], 11) == [(19, "A"), (19, "B")]
    runs = {}
    for q in PRIME_POWERS_50:
        for f in (prime_power(q)[1], 3, 100):
            want = []
            if q > 11 and not 6 * f + 1 < Fraction(q * q - q - 2, 9):
                want.append((q, "A"))
            if q >= 7 and q % 2 == 1 and not 4 * f + 1 < Fraction(q * q - 1, 8):
                want.append((q, "B"))
            got = numtheory._outer_bound_failures(iter([q]), f)
            assert got == want, (q, f)
            if q <= 11:
                assert (q, "A") not in got, (q, f)
            if q < 7 or q % 2 == 0:
                assert (q, "B") not in got, (q, f)
            runs.setdefault(f, []).extend(want)
    # a whole run at once, as an iterator: the same points, in order of q
    for f in (3, 100):
        assert numtheory._outer_bound_failures(iter(PRIME_POWERS_50), f) == runs[f]


def test_outer_bound_thresholds_are_exact():
    # the check compares each q with integer thresholds taken by isqrt: at
    # every q up to two past the larger one, and around both at f = 10^40
    # (far past float precision), it reports exactly the points where a
    # cross-multiplied inequality fails on its part's domain
    def want(qs, f):
        return [(q, part) for q in qs for part, fails in (
            ("A", q > 11 and not 9 * (6 * f + 1) < q * q - q - 2),
            ("B", q >= 7 and q % 2 == 1 and not 8 * (4 * f + 1) < q * q - 1)) if fails]

    for f in (*range(1, 2001), 10**40):
        # ta is the largest q with q^2 - q <= 9(6f + 1) + 2, tb the largest
        # with q^2 <= 8(4f + 1) + 1: walk up from a q that holds
        ta, tb = math.isqrt(54 * f), math.isqrt(32 * f)
        while (ta + 1) * ta <= 54 * f + 11:
            ta += 1
        while (tb + 1) ** 2 <= 32 * f + 9:
            tb += 1
        if f <= 2000:
            qs = range(2, max(ta, tb) + 3)
        else:
            qs = [q for t in (tb, ta) for q in range(t - 2, t + 3)]
        assert numtheory._outer_bound_failures(iter(qs), f) == want(qs, f), f


def test_outer_bound_sweep_small():
    assert outer_bound_sweep(10**4) == []


def _prime_powers(bound):
    """(q, f) for every prime power q = p^f <= bound, ascending, from sympy's
    primes."""
    points = []
    for p in sympy.primerange(2, bound + 1):
        for f in range(1, bound.bit_length()):
            q = p**f
            if q > bound:
                break
            points.append((q, f))
    return sorted(points)


def _recording(calls, failing):
    """A stand-in for `_outer_bound_failures` that records (q, f) for each q
    it is handed and reports the points of `failing` among them, A before B."""
    def failures(qs, f):
        bad = []
        for q in qs:
            calls.append((q, f))
            bad += [(q, part) for part in "AB" if (q, part) in failing]
        return bad
    return failures


def test_outer_bound_sweep_visits_each_domain_point_once(monkeypatch):
    points = _prime_powers(10**4)
    calls = []
    failing = {(13, "A"), (9, "B"), (27, "B")}
    monkeypatch.setattr(numtheory, "_outer_bound_failures", _recording(calls, failing))
    bad = outer_bound_sweep(10**4)
    assert sorted(calls) == points and len(calls) == len(set(calls))
    assert bad == [(3, 2, "B"), (13, 1, "A"), (3, 3, "B")]


def test_outer_bound_sweep_visits_each_domain_point_once_with_both_parts_failing(
        monkeypatch):
    # at q = 13 and q = 25 both parts fail: the sweep goes run by run, so
    # only its final sort by q puts 9 (of the run of squares) before 13, and
    # that sort must keep part A before part B at one q
    points = _prime_powers(10**3)
    calls = []
    failing = {(13, "A"), (13, "B"), (9, "B"), (25, "A"), (25, "B")}
    monkeypatch.setattr(numtheory, "_outer_bound_failures", _recording(calls, failing))
    bad = outer_bound_sweep(10**3)
    assert sorted(calls) == points and len(calls) == len(set(calls))
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
    # the sweep hands over every prime as p^1 in one run, then the powers p^f
    # of the primes up to sqrt(bound) in one run per f >= 2: on each side of
    # a prime's square (where its powers join the later runs) and of its
    # cube, every prime power is handed over once and with the right f.  The
    # run of primes is 2, 3 and 5 (bounds 2..6 decide whether 3 and 5 are in
    # it), then one residue class mod 30 after another: the bounds 30k + r,
    # for every r at k = 1..9 and k = 3333 (near 10^5), end each class at
    # each of its places in the wheel
    bounds = {*range(2, 301), 1024, 3125, 10**4, *range(99990, 100020)}
    bounds.update(p**e + d for p in sympy.primerange(2, 100) for e in (2, 3)
                  for d in (-1, 0, 1))
    points = _prime_powers(max(bounds))
    calls = []
    monkeypatch.setattr(numtheory, "_outer_bound_failures", _recording(calls, set()))
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


def test_torus_refuses_orders_over_the_cap():
    for family, n, q in (("A", MAX_BITS, 2), ("B", 10**12, 2), ("E8", 8, 2**200 + 235)):
        with pytest.raises(Unresolved, match=f"^family {family} at n = {n}, q = {q} has a "
                           f"torus order of more than {MAX_BITS} bits$"):
            torus_orders(family, n, q)
    with pytest.raises(Unresolved, match=f"^q has {MAX_BITS + 1} bits"):
        torus_orders("A", 1, 2**MAX_BITS)


def test_torus_rejects():
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        torus_orders("Z", 3, 5)
    with pytest.raises(ValueError, match="family 'D' has no row for n = 3"):
        torus_orders("D", 3, 5)
    with pytest.raises(ValueError, match="6 is not a prime power"):
        torus_orders("A", 2, 6)
    with pytest.raises(ValueError, match=f"^{2**MAX_BITS * 3} is not a prime power$"):
        torus_orders("A", 2, 2**MAX_BITS * 3)
    with pytest.raises(ValueError, match="^unknown family 'Z'$"):
        torus_orders("Z", 2, 2**MAX_BITS)
