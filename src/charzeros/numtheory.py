"""Exact number-theoretic primitives.

Cyclotomic polynomial values, least primitive prime divisors (with the two
classical exception patterns), a strict-inequality sweep over every prime
power bounding field automorphism counts against class counts (its primes
from an in-house sieve, so it needs no sympy), searches for
restricted q-1/q+1 factorizations over q = 2^k +- 1, and maximal-torus order
evaluation for the classical and exceptional families.  Everything is
integer-exact; sympy tests and factors only numbers a user supplies.
"""

from functools import cache
from itertools import compress
from math import isqrt, prod
from typing import NamedTuple

from .cyclo import trial_factor


def _strip(x: int, p: int) -> tuple[int, int]:
    """Return (e, x / p^e) with p^e the exact p-part of x."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q = p**f and p prime, or None."""
    import sympy

    if q < 2:
        return None
    if sympy.isprime(q):
        return q, 1
    root = sympy.perfect_power(q)
    if not root or not sympy.isprime(root[0]):
        return None
    return root[0], _strip(q, root[0])[0]


@cache
def cyclotomic_poly_value(n: int, q: int) -> int:
    """Phi_n(q), exactly, by dividing q^n - 1 by the proper-divisor values."""
    import sympy

    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    val = q**n - 1
    for d in sympy.divisors(n):
        if d < n:
            val, r = divmod(val, cyclotomic_poly_value(d, q))
            assert r == 0
    return val


class ZsigmondyOutcome(NamedTuple):
    q: int
    n: int
    prime: int | None
    exception_reason: str | None  # "Q2N6" or "N2_QPLUS1_POW2"


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def zsigmondy(q: int, n: int) -> ZsigmondyOutcome:
    """Least prime dividing q^n - 1 but no q^i - 1 for i < n, or the exception.

    The two exception patterns: (q, n) = (2, 6), and n = 2 with q + 1 a power
    of two.  Primitive prime divisors all divide Phi_n(q), so only its prime
    factors are tested.  For a prime l dividing Phi_n(q), n is the order of
    q mod l times a power of l, so l is primitive iff l does not divide n.
    """
    import sympy

    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if n < 2:
        raise ValueError("n must be >= 2")
    if (q, n) == (2, 6):
        return ZsigmondyOutcome(q, n, None, "Q2N6")
    if n == 2 and _is_power_of_two(q + 1):
        return ZsigmondyOutcome(q, n, None, "N2_QPLUS1_POW2")
    for l in sorted(sympy.primefactors(cyclotomic_poly_value(n, q))):
        if n % l:
            return ZsigmondyOutcome(q, n, l, None)
    raise AssertionError(f"no primitive prime divisor for ({q}, {n})")


# Largest bound `outer_bound_sweep` accepts.  The sweep sieves every odd number
# up to its bound, one byte each, so time and memory grow with it: at 10^7 a
# fresh process takes 0.5-0.75 s and a 23 MB peak (Python 3.11, 2-vCPU host).
# A fixed limit, not a setting.
MAX_SWEEP_BOUND = 10**7


def _outer_bound_ok(q: int, f: int, part: str) -> bool:
    """The part's strict inequality at q = p^f, cross-multiplied, so exact:
    6f + 1 < (q^2 - q - 2) / 9 (part A) or 4f + 1 < (q^2 - 1) / 8 (part B).

    The caller guarantees p prime, f >= 1 and q in the part's domain."""
    if part == "A":
        return 9 * (6 * f + 1) < q * q - q - 2
    return 8 * (4 * f + 1) < q * q - 1


def _odd_sieve(n: int) -> bytearray:
    """A sieve of Eratosthenes over the odd numbers <= n, for n >= 1: byte i
    is 1 exactly when 2i + 1 is prime.  Each odd prime p <= sqrt(n) strikes
    its odd multiples from p^2 on."""
    odd = bytearray([1]) * ((n + 1) // 2)
    odd[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(n) + 1) // 2):
        if odd[i]:
            p, start = 2 * i + 1, 2 * i * (i + 1)  # start is p^2's byte
            # a bytearray, which the slice assignment takes without a copy
            odd[start::p] = bytearray((len(odd) - 1 - start) // p + 1)
    return odd


def outer_bound_sweep(bound: int) -> list[tuple[int, int, str]]:
    """Exhaustively test both outer-bound inequalities for q = p^f <= bound.

    Each part is checked on its own domain (A: q > 11; B: odd q >= 7), at
    every prime power there, once.  A fresh sieve (`_odd_sieve`) gives the
    primes, none proved prime again and none stored: the powers of 2 and of
    the odd primes up to max(sqrt(bound), 11) are walked, then every larger
    prime is tested as p^1.  Returns the failing (p, f, part) triples in
    ascending q, part A before part B at the same q; an empty list means both
    inequalities hold everywhere below the bound.  A bound below 2 or above
    MAX_SWEEP_BOUND (10^7) raises ValueError before anything is sieved.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    if bound > MAX_SWEEP_BOUND:
        raise ValueError(f"bound must be <= {MAX_SWEEP_BOUND}, got {bound}")
    odd = _odd_sieve(bound)
    # bytes below `half`: the odd primes whose squares may be <= bound or that
    # lie outside part A's domain
    half = (max(isqrt(bound), 11) + 1) // 2
    bad = []
    for p in (2, *compress(range(1, 2 * half, 2), memoryview(odd)[:half])):
        q, f = p, 1
        while q <= bound:
            if q > 11 and not _outer_bound_ok(q, f, "A"):
                bad.append((q, p, f, "A"))
            if q >= 7 and q % 2 == 1 and not _outer_bound_ok(q, f, "B"):
                bad.append((q, p, f, "B"))
            q *= p
            f += 1
    # each larger prime is in both domains as p^1; the view copies no byte
    for p in compress(range(2 * half + 1, bound + 1, 2), memoryview(odd)[half:]):
        if not _outer_bound_ok(p, 1, "A"):
            bad.append((p, p, 1, "A"))
        if not _outer_bound_ok(p, 1, "B"):
            bad.append((p, p, 1, "B"))
    bad.sort(key=lambda v: v[0])  # stable, so A stays before B at one q
    return [(p, f, part) for _, p, f, part in bad]


class DiophantineSolution(NamedTuple):
    q: int
    a: int | None
    b: int | None
    c: int | None


class DiophantineSolutionSet(NamedTuple):
    part: str  # "A", "B" or "C"
    bound: int
    solutions: tuple[DiophantineSolution, ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(s.q for s in self.solutions)


def diophantine_solutions(part: str, bound: int) -> DiophantineSolutionSet:
    """Prime powers q <= bound whose q-1 and q+1 factor as required.

    Part A: q-1 = 2^c and q+1 = 2^a 3^b with a >= 1.
    Part B: q-1 = 2^a with a >= 1 and q+1 = 2^b 5^c.
    Part C: q-1 = 2^a 5^b with a >= 1 and q+1 = 2^c.
    Exponents not constrained to be positive may be zero.  Each part fixes
    q = 2^k + 1 (A, B) or q = 2^k - 1 (C), so only k <= bound.bit_length()
    is walked, and the other exponents are read off by stripping 2, 3 or 5.
    Only a q of the right shape is tested for being a prime power, and it
    is at most 17: for k >= 2 the shape makes 2^(k-1) = 3^b - 1 (A), 5^c - 1
    (B) or 5^b + 1 (C), solved only by 2 and 8, by 4, and by 2 (mod 4 or 8 at
    an odd exponent, a difference of squares at an even one).
    """
    if part not in ("A", "B", "C"):
        raise ValueError(f"unknown part {part!r}")
    if bound < 3:
        raise ValueError("bound must be >= 3")
    sols = []
    for k in range(bound.bit_length() + 1):
        q = 2**k - 1 if part == "C" else 2**k + 1
        if not 2 <= q <= bound:  # q < 2 in part C only; _strip(0, 2) never ends
            continue
        if part == "A":
            a, rest = _strip(q + 1, 2)
            b, rest = _strip(rest, 3)
            c = k
        elif part == "B":
            a = k
            b, rest = _strip(q + 1, 2)
            c, rest = _strip(rest, 5)
        else:
            a, rest = _strip(q - 1, 2)
            b, rest = _strip(rest, 5)
            c = k
        # q is 3, 5 or 17 (A), 3 or 9 (B), or 3 (C): trial division suffices
        if rest == 1 and a >= 1 and len(trial_factor(q)) == 1:
            sols.append(DiophantineSolution(q, a, b, c))
    return DiophantineSolutionSet(part, bound, tuple(sols))


class TorusOrder(NamedTuple):
    label: str  # "T1", "T2" or "T3"
    order: int
    zsig_n: int  # the l(k) argument attached to this torus in the tables
    zsig: ZsigmondyOutcome | None  # None when k < 2 (no primitive divisor notion)


def _exact_div(num: int, den: int) -> int:
    v, r = divmod(num, den)
    assert r == 0
    return v


# Exceptional-family rows: rank, then (order as product of Phi_k's, l-argument).
_EXCEPTIONAL_ROWS = {
    "F4": (4, [((12,), 12), ((8,), 8)]),
    "E6": (6, [((12, 3), 12), ((9,), 9), ((8, 2, 1), 8)]),
    "2E6": (6, [((18,), 18), ((12, 6), 12), ((8, 2, 1), 8)]),
    "E7": (7, [((18, 2), 18), ((14, 2), 14), ((12, 3, 1), 12)]),
    "E8": (8, [((30,), 30), ((24,), 24), ((20,), 20)]),
}


def torus_orders(family: str, n: int, q: int) -> list[TorusOrder]:
    """Maximal-torus orders |T_i| and their attached primitive-divisor data.

    Classical families branch on the parity of n exactly as tabulated; the
    "D_n odd" second torus is (q^{n-1}+1)(q+1), completing an unbalanced
    parenthesis in the source table by the even-row pattern.
    """
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    rows: list[tuple[int, int]] | None = None  # (order, l-argument)
    if family == "A":
        if n >= 1:
            rows = [(_exact_div(q ** (n + 1) - 1, q - 1), n + 1), (q**n - 1, n)]
    elif family == "2A":
        if n >= 3 and n % 2 == 1:
            rows = [(_exact_div(q ** (n + 1) - 1, q + 1), n + 1), (q**n + 1, 2 * n)]
        elif n >= 2 and n % 2 == 0:
            rows = [(_exact_div(q ** (n + 1) + 1, q + 1), 2 * n + 2), (q**n - 1, n)]
    elif family in ("B", "C"):
        if n >= 3 and n % 2 == 1:
            rows = [(q**n + 1, 2 * n), (q**n - 1, n)]
        elif n >= 2 and n % 2 == 0:
            rows = [(q**n + 1, 2 * n), ((q ** (n - 1) + 1) * (q + 1), 2 * n - 2)]
    elif family == "D":
        if n >= 5 and n % 2 == 1:
            rows = [(q**n - 1, n), ((q ** (n - 1) + 1) * (q + 1), 2 * n - 2)]
        elif n >= 4 and n % 2 == 0:
            rows = [((q ** (n - 1) - 1) * (q - 1), n - 1),
                    ((q ** (n - 1) + 1) * (q + 1), 2 * n - 2)]
    elif family == "2D":
        if n >= 4:
            rows = [(q**n + 1, 2 * n), ((q ** (n - 1) + 1) * (q - 1), 2 * n - 2)]
    elif family in _EXCEPTIONAL_ROWS:
        rank, shapes = _EXCEPTIONAL_ROWS[family]
        if n == rank:
            rows = [(prod(cyclotomic_poly_value(k, q) for k in ks), arg)
                    for ks, arg in shapes]
    else:
        raise ValueError(f"unknown family {family!r}")
    if rows is None:
        raise ValueError(f"family {family!r} has no row for n = {n}")
    out = []
    for i, (order, arg) in enumerate(rows):
        zs = zsigmondy(q, arg) if arg >= 2 else None
        out.append(TorusOrder(f"T{i + 1}", order, arg, zs))
    return out
