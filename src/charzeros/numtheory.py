"""Exact number-theoretic primitives.

Cyclotomic polynomial values, multiplicative orders, least primitive prime
divisors (with the two classical exception patterns), a strict-inequality
sweep bounding field automorphism counts against class counts, restricted
q-1/q+1 factorization searches, and maximal-torus order evaluation for the
classical and exceptional families.  Everything is integer-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import sympy


class NotCoprime(ValueError):
    pass


class NotPrimePower(ValueError):
    pass


class PreconditionViolated(ValueError):
    pass


class UnsupportedFamily(ValueError):
    pass


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q = p**f and p prime, or None."""
    if q < 2:
        return None
    ps = sympy.primefactors(q)
    if len(ps) != 1:
        return None
    p = ps[0]
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    return (p, f) if m == 1 else None


@cache
def cyclotomic_poly_value(n: int, q: int) -> int:
    """Phi_n(q), exactly, by dividing q^n - 1 by the proper-divisor values."""
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


def mult_order(q: int, l: int) -> int:
    """Least d >= 1 with q^d = 1 (mod l), for prime l not dividing q."""
    if not sympy.isprime(l):
        raise ValueError(f"{l} is not prime")
    if q % l == 0:
        raise NotCoprime(f"{l} divides {q}")
    for d in sympy.divisors(l - 1):
        if pow(q, d, l) == 1:
            return d
    raise AssertionError("unreachable: order divides l-1")


@dataclass(frozen=True)
class ZsigmondyOutcome:
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
    factors are tested; a candidate qualifies iff its multiplicative order at
    q is exactly n.
    """
    if prime_power(q) is None:
        raise NotPrimePower(f"{q} is not a prime power")
    if n < 2:
        raise ValueError("n must be >= 2")
    if (q, n) == (2, 6):
        return ZsigmondyOutcome(q, n, None, "Q2N6")
    if n == 2 and _is_power_of_two(q + 1):
        return ZsigmondyOutcome(q, n, None, "N2_QPLUS1_POW2")
    for l in sorted(sympy.primefactors(cyclotomic_poly_value(n, q))):
        if mult_order(q, l) == n:
            return ZsigmondyOutcome(q, n, l, None)
    raise AssertionError(f"no primitive prime divisor for ({q}, {n})")


def outer_bound_holds(p: int, f: int, part: str) -> bool:
    """Strict inequality bounding 6f+1 (part A) or 4f+1 (part B) by a class-count
    polynomial in q = p^f.  Cross-multiplied, so exact."""
    if not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    q = p**f
    if part == "A":
        if q <= 11:
            raise PreconditionViolated(f"part A needs q > 11, got q = {q}")
        return 9 * (6 * f + 1) < q * q - q - 2
    if part == "B":
        if q < 7 or q % 2 == 0:
            raise PreconditionViolated(f"part B needs odd q >= 7, got q = {q}")
        return 8 * (4 * f + 1) < q * q - 1
    raise ValueError(f"unknown part {part!r}")


def outer_bound_sweep(bound: int) -> list[tuple[int, int, str]]:
    """Exhaustively test both outer-bound inequalities for q = p^f <= bound.

    Each part is checked on its own domain (A: q > 11; B: odd q >= 7).
    Returns the failing (p, f, part) triples; an empty list means both
    inequalities hold everywhere below the bound.
    """
    bad = []
    for q, p, f in _prime_powers_upto(bound):
        if q > 11 and not outer_bound_holds(p, f, "A"):
            bad.append((p, f, "A"))
        if q >= 7 and q % 2 == 1 and not outer_bound_holds(p, f, "B"):
            bad.append((p, f, "B"))
    return bad


@dataclass(frozen=True)
class DiophantineSolution:
    q: int
    a: int | None
    b: int | None
    c: int | None


@dataclass(frozen=True)
class DiophantineSolutionSet:
    part: str  # "A", "B" or "C"
    bound: int
    solutions: tuple[DiophantineSolution, ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(s.q for s in self.solutions)


def _strip(x: int, p: int) -> tuple[int, int]:
    """Return (e, x / p^e) with p^e the exact p-part of x."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


@cache
def _prime_powers_upto(bound: int) -> tuple[tuple[int, int, int], ...]:
    """Ascending (q, p, f) with q = p^f <= bound, f >= 1."""
    qs = []
    for p in sympy.primerange(2, bound + 1):
        q, f = p, 1
        while q <= bound:
            qs.append((q, p, f))
            q *= p
            f += 1
    qs.sort()
    return tuple(qs)


def diophantine_solutions(part: str, bound: int) -> DiophantineSolutionSet:
    """Enumerate prime powers q <= bound whose q-1 and q+1 factor as required.

    Part A: q-1 = 2^c and q+1 = 2^a 3^b with a >= 1.
    Part B: q-1 = 2^a with a >= 1 and q+1 = 2^b 5^c.
    Part C: q-1 = 2^a 5^b with a >= 1 and q+1 = 2^c.
    Exponents not constrained to be positive may be zero.
    """
    if part not in ("A", "B", "C"):
        raise ValueError(f"unknown part {part!r}")
    if bound < 3:
        raise ValueError("bound must be >= 3")
    sols = []
    for q, _, _ in _prime_powers_upto(bound):
        if part == "A":
            if not _is_power_of_two(q - 1):
                continue
            c = (q - 1).bit_length() - 1
            a, rest = _strip(q + 1, 2)
            b, rest = _strip(rest, 3)
            if rest == 1 and a >= 1:
                sols.append(DiophantineSolution(q, a, b, c))
        elif part == "B":
            if not _is_power_of_two(q - 1) or q - 1 < 2:
                continue
            a = (q - 1).bit_length() - 1
            b, rest = _strip(q + 1, 2)
            c, rest = _strip(rest, 5)
            if rest == 1:
                sols.append(DiophantineSolution(q, a, b, c))
        else:
            a, rest = _strip(q - 1, 2)
            b, rest = _strip(rest, 5)
            if rest != 1 or a < 1:
                continue
            if _is_power_of_two(q + 1):
                c = (q + 1).bit_length() - 1
                sols.append(DiophantineSolution(q, a, b, c))
    return DiophantineSolutionSet(part, bound, tuple(sols))


@dataclass(frozen=True)
class TorusOrder:
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
        raise NotPrimePower(f"{q} is not a prime power")
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
            rows = [(sympy.prod(cyclotomic_poly_value(k, q) for k in ks), arg)
                    for ks, arg in shapes]
    else:
        raise UnsupportedFamily(f"unknown family {family!r}")
    if rows is None:
        raise UnsupportedFamily(f"family {family!r} has no row for n = {n}")
    out = []
    for i, (order, arg) in enumerate(rows):
        zs = zsigmondy(q, arg) if arg >= 2 else None
        out.append(TorusOrder(f"T{i + 1}", order, arg, zs))
    return out
