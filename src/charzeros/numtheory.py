"""Exact number-theoretic primitives, in integer arithmetic alone.

Primality (deterministic Miller-Rabin below 3.3 * 10^24, BPSW above),
prime powers, trial factorisation, roots of unity mod a prime, cyclotomic
polynomial values, least primitive prime divisors (with the two classical
exception patterns), a strict-inequality sweep over every prime power
bounding field automorphism counts against class counts (its primes from an
in-house sieve), searches for restricted q-1/q+1 factorizations over
q = 2^k +- 1, and maximal-torus order evaluation for the classical and
exceptional families.  Everything is integer-exact and needs no computer
algebra.  The verbs that take a number from a user end in bounded time: an
input past one of the fixed limits below (`MAX_BITS`, `SEARCH_LIMIT`,
`RHO_STEPS`, `ECM_STEPS`) raises `Unresolved`, never a guess.

This module is the package's one home of integer arithmetic, and imports no
other module of the package.  Every module tests primes and factors numbers
by its one policy:
- whether a number is prime (the working prime l of `chartab`, the p of a
  field) or a prime power (a field size, a centre order, a degree, the q of
  a builder) is decided by `is_prime` and `prime_power`, which factor
  nothing;
- every other number the package factors goes to `trial_factor`, trial
  division alone, and is bounded: element orders and the exponent are
  orders of permutations on at most 256 points, so their primes are at most
  251 (a table file's are checked against its representatives before any
  entry is read, and a cyclotomic order that does not divide lcm(1..256) is
  refused before it is factored); p - 1 for such a prime p; a field size
  less one, below `fields.MAX_Q`; and the n of a primitive-divisor search,
  at most `SEARCH_LIMIT`, or of a cyclotomic value;
- only the cofactor of Phi_n(q) in `zsigmondy` is factored otherwise, by a
  budgeted Pollard-Brent rho and then budgeted elliptic curves, and
  `outer_bound_sweep` sieves its own primes.
"""

from collections.abc import Iterable
from functools import cache
from itertools import chain, compress
from math import gcd, isqrt, prod
from typing import NamedTuple


class Unresolved(RuntimeError):
    """An input past one of this module's fixed limits: refused, not guessed."""


# The largest number, in bits, that `zsigmondy` and `torus_orders` take as q,
# factor as Phi_n(q) or print as a torus order.  At 1024 bits one BPSW test
# takes 9 ms and the whole rho budget below 0.24 s (Python 3.11, 2-vCPU host);
# at 2048 bits the budget alone takes 0.81 s.  A fixed limit, not a setting.
MAX_BITS = 1024
# `zsigmondy` tries at most this many candidates l = kn + 1 by the order of q
# mod l, and takes no n above it.  Each costs a modular power: the whole
# search takes 22 ms at n = 11, 34 ms at n = 3 with a 1024-bit q and 0.17 s
# at n = 100000.
SEARCH_LIMIT = 2**17
# Pollard-Brent rho steps spent on Phi_n(q)'s cofactor, in all, before
# `zsigmondy` falls back on the search: enough for a prime factor near 2^32.
# The whole budget takes 17 ms on a 128-bit cofactor and 0.24 s on a
# 1024-bit one.
RHO_STEPS = 2**16
# Lenstra's elliptic curve method then spends at most this many ECM steps on
# what rho left unsplit: a curve with stage 1 bound B1 (stage 2 bound 100 B1)
# costs B1 steps per 64-bit word of the number it splits, about 2 us at 256
# bits and 4.5 us at 1024.  The curves run through the levels of GMP-ECM's
# table for factors of 15, 20 and 25 digits, (B1, curves) below; the budget
# covers the first two levels on a number of up to 192 bits.  Spent in full
# it takes 8 s on a 256-bit cofactor and 18 s on a 1024-bit one.
ECM_STEPS = 4 * 10**6
_ECM_LEVELS = ((2000, 25), (11000, 90), (50000, 300))
# Stage 2 takes giant steps of D Q and baby steps j Q, j < D / 2 prime to D.
_ECM_D = 2310
# The search stops after this many candidates (about 2 us at n = 5) and turns
# to the cofactor of Phi_n(q), so that neither a large prime cofactor nor one
# with two large factors pays for the whole search.
_FIRST = 16

# psi_k, the least odd composite that passes Miller-Rabin to each of the
# first k primes (OEIS A014233; psi_12 and psi_13 are Sorenson and Webster's,
# Math. Comp. 86, 2017): below psi_k those k bases decide primality.  Above
# psi_13, BPSW.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def _strip(x: int, p: int) -> tuple[int, int]:
    """Return (e, x / p^e) with p^e the exact p-part of x."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


def trial_factor(n: int) -> list[tuple[int, int]]:
    """The prime factorisation of n >= 1 as ascending (p, k) pairs, by trial
    division.  Once d * d exceeds what is left, the rest is 1 or prime, so
    it takes about max(p2, sqrt(p1)) / 2 steps for the largest primes
    p1 >= p2 of n: it serves the bounded numbers of the module docstring."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k, n = _strip(n, d)
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def root_of_unity(l: int, m: int) -> int:
    """A primitive m-th root of unity mod the prime l: the first a^((l-1)/m),
    a = 1, 2, ..., of order m.  For m = l - 1 it is the least primitive
    root, and for m = 2^s exactly dividing l - 1 it is z^((l-1)/m) for the
    least non-residue z.  When m does not divide l - 1 there is none, and
    what comes back is no such root: the caller decides."""
    qs = [q for q, _ in trial_factor(m)]
    return next((w for w in (pow(a, (l - 1) // m, l) for a in range(1, l))
                 if all(pow(w, m // q, l) != 1 for q in qs)), 1)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for odd n > 41 with
    no prime factor up to 41: D is the first of 5, -7, 9, -11, ... with
    (D / n) = -1, P = 1 and Q = (1 - D) / 4."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # |d| < n here, so gcd(d, n) is a proper factor
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    u, v, qk = 1, 1, q  # U_1, V_1 and Q^1
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":  # U_(j+1) = (U_j + V_j) / 2, V_(j+1) = (D U_j + V_j) / 2
            u, v = u + v, d * u + v
            u, v = (u + n if u & 1 else u) // 2 % n, (v + n if v & 1 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division by the primes up to 41, then below
    psi_13 Miller-Rabin to them as bases, in turn, until n < psi_k, which
    decides.  From psi_13 on, BPSW: Miller-Rabin to base 2, then the strong
    Lucas test; no composite is known to pass both."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < _PSI[-1]:
        for a, psi in zip(_BASES, _PSI):
            if not _strong_probable_prime(n, a):
                return False
            if n < psi:
                return True
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 1 and k >= 2, by Newton's method from above."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, f) with q = p**f and p prime, or None."""
    if q < 2:
        return None
    for p in _BASES:
        if q % p == 0:
            f, rest = _strip(q, p)
            return (p, f) if rest == 1 else None
    if is_prime(q):
        return q, 1
    # every prime factor is at least 43 > 2^5, so q = r^k needs k < bits / 5;
    # the first k that works is prime, as a k-th power is a p-th for p | k
    for k in range(2, q.bit_length() // 5 + 1):
        r = _iroot(q, k)
        if r**k == q:
            root = prime_power(r)
            return None if root is None else (root[0], root[1] * k)
    return None


@cache
def cyclotomic_poly_value(n: int, q: int) -> int:
    """Phi_n(q), exactly, as the product of (q^(n/s) - 1)^mu(s) over the
    squarefree divisors s of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    num = den = 1
    squarefree = [(1, 1)]  # (s, mu(s))
    for p, _ in trial_factor(n):
        squarefree += [(s * p, -mu) for s, mu in squarefree]
    for s, mu in squarefree:
        if mu > 0:
            num *= q ** (n // s) - 1
        else:
            den *= q ** (n // s) - 1
    return _exact_div(num, den)


class ZsigmondyOutcome(NamedTuple):
    q: int
    n: int
    prime: int | None
    exception_reason: str | None  # "Q2N6" or "N2_QPLUS1_POW2"


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def _check_prime_power(q: int) -> None:
    """ValueError when q is not a prime power.  Deciding that takes 0.06 s at
    2 MAX_BITS bits and 3 s at 8 MAX_BITS, so a longer q is let through
    undecided, for `_check_bits` to refuse."""
    if q.bit_length() <= 2 * MAX_BITS and prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")


def _check_bits(q: int) -> None:
    if q.bit_length() > MAX_BITS:
        raise Unresolved(f"q has {q.bit_length()} bits, over the {MAX_BITS}-bit cap")


def _order_search(q: int, n: int, tests: list[int], lo: int, hi: int) -> int | None:
    """The least prime l = lo, lo + n, ... <= hi modulo which q has order n:
    q^n = 1 and q^m != 1 for each m = n / r, r a prime of n.  A composite l
    can pass the order test, so a pass is proved prime too."""
    for l in range(lo, hi + 1, n):
        if pow(q, n, l) == 1 and all(pow(q, m, l) != 1 for m in tests) and is_prime(l):
            return l
    return None


def _brent(m: int, budget: int) -> tuple[int | None, int]:
    """A proper factor of the odd composite m by Brent's variant of Pollard's
    rho (x -> x^2 + a, with the differences multiplied up and gcd'd with m
    every 128 steps), and the steps left of `budget`; (None, 0) when the
    next doubling of the cycle length would spend more than is left."""
    for a in range(1, budget + 1):  # each constant a spends at least 2 steps
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                return None, 0
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + a) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + a) % m
                    acc = acc * (x - y) % m
                g = gcd(acc, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + a) % m
                g = gcd(x - ys, m)
        if g != m:
            return g, budget
    return None, 0


def _ladder(k: int, x: int, a24: int, m: int) -> tuple[int, int]:
    """k (x : 1) for k >= 1 on the Montgomery curve with (A + 2) / 4 = a24,
    by Montgomery's ladder: (x1 : z1) = j (x : 1) and (x2 : z2) = (j + 1)
    (x : 1), which differ by (x : 1), as j runs over the leading bits of k."""
    s, d = (x + 1) ** 2 % m, (x - 1) ** 2 % m
    x1, z1, x2, z2 = x, 1, s * d % m, (s - d) * (d + a24 * (s - d)) % m
    for bit in bin(k)[3:]:
        u, v = (x1 - z1) * (x2 + z2), (x1 + z1) * (x2 - z2)
        xs, zs = (u + v) ** 2 % m, x * (u - v) ** 2 % m  # the sum
        if bit == "1":
            s, d = (x2 + z2) ** 2 % m, (x2 - z2) ** 2 % m
            x1, z1, x2, z2 = xs, zs, s * d % m, (s - d) * (d + a24 * (s - d)) % m
        else:
            s, d = (x1 + z1) ** 2 % m, (x1 - z1) ** 2 % m
            x1, z1, x2, z2 = s * d % m, (s - d) * (d + a24 * (s - d)) % m, xs, zs
    return x1, z1


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int],
          m: int) -> tuple[int, int]:
    """P + Q on a Montgomery curve, from P, Q and P - Q."""
    u, v = (p[0] - p[1]) * (q[0] + q[1]), (p[0] + p[1]) * (q[0] - q[1])
    return diff[1] * (u + v) ** 2 % m, diff[0] * (u - v) ** 2 % m


@cache
def _ecm_plan(b1: int) -> tuple[int, tuple[int, ...], int, tuple[bytes, ...]]:
    """For the bounds b1 (even) and 100 b1: stage 1's multiplier, the product
    of the largest power <= b1 of each prime <= b1; the baby steps j < D / 2
    prime to D; the first giant step k; and for each k from there on, the
    indices of the j with k D - j or k D + j a prime in (b1, 100 b1]."""
    odd = _odd_sieve(100 * b1)
    k1 = 1 << (b1.bit_length() - 1)
    for p in compress(range(1, b1, 2), memoryview(odd)[:b1 // 2]):
        q = p
        while q * p <= b1:
            q *= p
        k1 *= q
    babies = tuple(j for j in range(1, _ECM_D // 2, 2) if gcd(j, _ECM_D) == 1)
    index = {j: i for i, j in enumerate(babies)}
    steps: dict[int, set[int]] = {}
    for p in compress(range(b1 + 1, 100 * b1, 2), memoryview(odd)[b1 // 2:]):
        k = (p + _ECM_D // 2) // _ECM_D
        steps.setdefault(k, set()).add(index[abs(p - k * _ECM_D)])
    k0 = min(steps)
    giants = tuple(bytes(sorted(steps.get(k, ()))) for k in range(k0, max(steps) + 1))
    return k1, babies, k0, giants


def _ecm_curve(m: int, sigma: int, b1: int) -> int | None:
    """A proper factor of the odd composite m from one curve of Lenstra's
    elliptic curve method, or None.  The curve is Suyama's for sigma >= 6,
    whose group order has 12 as a factor, in Montgomery's x-only form.
    Stage 1 multiplies its point Q by every prime power <= b1.  Stage 2 then
    looks for one more prime l in (b1, 100 b1] in the order: it multiplies
    up x(k D Q) - x(j Q) over the l = k D +- j with j < D / 2 prime to D, as
    x(P) = x(-P), after one gcd shows every z it divides by to be a unit."""
    k1, baby_steps, k0, steps = _ecm_plan(b1)
    u, v = (sigma * sigma - 5) % m, 4 * sigma % m
    den = 16 * u**3 * v**3 % m  # x = u^3 / v^3, a24 = (v - u)^3 (3u + v) / (16 u^3 v)
    g = gcd(den, m)
    if g == 1:
        inv = pow(den, -1, m)
        a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv % m
        x, z = _ladder(k1, 16 * u**6 * inv % m, a24, m)
        g = gcd(z, m)
    if g != 1:
        return g if g < m else None
    x = x * pow(z, -1, m) % m
    q, q2 = (x, 1), _ladder(2, x, a24, m)
    odd = [q, _xadd(q2, q, q, m)]  # (2i + 1) Q
    while len(odd) < _ECM_D // 4:
        odd.append(_xadd(odd[-1], q2, odd[-2], m))
    step = _ladder(_ECM_D, x, a24, m)
    points = [odd[j // 2] for j in baby_steps]
    points += [_ladder(k0 * _ECM_D, x, a24, m), _ladder((k0 + 1) * _ECM_D, x, a24, m)]
    while len(points) < len(baby_steps) + len(steps):
        points.append(_xadd(points[-1], step, points[-2], m))
    # every x / z at once by Montgomery's trick: one inverse, three products each
    partial = [1]
    for _, z in points:
        partial.append(partial[-1] * z % m)
    g = gcd(partial[-1], m)
    if g != 1:
        return g if g < m else None
    inv, xs = pow(partial[-1], -1, m), [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        xs[i] = points[i][0] * partial[i] * inv % m
        inv = inv * points[i][1] % m
    babies, acc = xs[:len(baby_steps)], 1
    for xk, js in zip(xs[len(baby_steps):], steps):
        for j in js:
            acc = acc * (xk - babies[j]) % m
    g = gcd(acc, m)
    return g if 1 < g < m else None


def _ecm_b1(curve: int) -> int | None:
    """The stage 1 bound of the curve-th curve (from 0) in _ECM_LEVELS, or
    None past the last level."""
    for b1, curves in _ECM_LEVELS:
        if curve < curves:
            return b1
        curve -= curves
    return None


def _factor(c: int) -> tuple[int, bool]:
    """The least prime factor of c > 1 that Brent's rho, within RHO_STEPS
    steps in all, and then elliptic curves, within ECM_STEPS, split off (c
    itself when c is prime, or when none is), and whether c was factored
    completely, so that this is its least prime factor.  The curves run
    through _ECM_LEVELS once, with sigma = 6, 7, ..., from part to part."""
    budget, work, curve, least, todo = RHO_STEPS, ECM_STEPS, 0, c, [c]
    while todo:
        m = todo.pop()
        if is_prime(m):
            least = min(least, m)
            continue
        d, budget = _brent(m, budget)
        while d is None:
            b1 = _ecm_b1(curve)
            if b1 is None or b1 * -(-m.bit_length() // 64) > work:
                return least, False
            work -= b1 * -(-m.bit_length() // 64)
            d = _ecm_curve(m, curve + 6, b1)
            curve += 1
        todo += [d, m // d]
    return least, True


def zsigmondy(q: int, n: int) -> ZsigmondyOutcome:
    """Least prime dividing q^n - 1 but no q^i - 1 for i < n, or the exception.

    The two exception patterns: (q, n) = (2, 6), and n = 2 with q + 1 a power
    of two.  Otherwise the answer is the least prime l modulo which q has
    order n, and every such l is 1 mod n.  The first _FIRST of l = n+1, 2n+1,
    ... are tried by that order.  Then the cofactor of Phi_n(q), with the
    primes of n struck out, has exactly those l as its prime factors: it is
    tested for being prime itself, so that a large prime is not searched
    for, and else factored by rho, which finds a factor p in about sqrt(p)
    steps where the search takes p/n, and then by elliptic curves, which
    reach primes of 20 digits and more.  Phi_n(q) is formed only when phi(n)
    times the bit length of q, a bound on its own, is at most MAX_BITS.
    Past the cap, or when the budgets leave part of the cofactor unsplit,
    the search goes on, to the least prime split off (which it then proves
    least) or to SEARCH_LIMIT candidates, and beyond that `Unresolved` is
    raised.
    """
    _check_prime_power(q)
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_bits(q)
    if (q, n) == (2, 6):
        return ZsigmondyOutcome(q, n, None, "Q2N6")
    if n == 2 and _is_power_of_two(q + 1):
        return ZsigmondyOutcome(q, n, None, "N2_QPLUS1_POW2")
    if n > SEARCH_LIMIT:
        # phi(n) > 23,000 here (Rosser and Schoenfeld's lower bound for phi)
        raise Unresolved(f"n = {n} is over the search limit of {SEARCH_LIMIT}, and "
                         f"Phi_{n}({q}) is over the {MAX_BITS}-bit cap")
    primes = trial_factor(n)
    tests = [n // r for r, _ in primes]
    first, last = _FIRST * n + 1, SEARCH_LIMIT * n + 1
    l = _order_search(q, n, tests, n + 1, first)
    if l is not None:
        return ZsigmondyOutcome(q, n, l, None)
    cap = f"Phi_{n}({q}) is over the {MAX_BITS}-bit cap"
    if prod((r - 1) * r ** (k - 1) for r, k in primes) * q.bit_length() <= MAX_BITS:
        c = cyclotomic_poly_value(n, q)
        for r, _ in primes:
            c = _strip(c, r)[1]
        if c == 1:  # Zsigmondy's theorem: only the two exceptions above
            raise AssertionError(f"no primitive prime divisor for ({q}, {n})")
        least, complete = _factor(c)
        if complete:
            return ZsigmondyOutcome(q, n, least, None)
        last = min(last, least)
        cap = (f"the cofactor of Phi_{n}({q}) is not factored within {RHO_STEPS} rho steps "
               f"and {ECM_STEPS} ECM steps")
    l = _order_search(q, n, tests, first + n, last)
    if l is None:
        raise Unresolved(f"no primitive prime divisor of {q}^{n} - 1 is at most {last}, "
                         f"and {cap}")
    return ZsigmondyOutcome(q, n, l, None)


# Largest bound `outer_bound_sweep` accepts.  The sweep sieves every odd number
# up to its bound, one byte each, and reads the numbers prime to 30 off it, so
# time and memory grow with it: at 10^7 a fresh process takes 0.24-0.37 s
# (median 0.25 s) and a 23 MB peak (Python 3.11, 2-vCPU host).  A fixed limit,
# not a setting.
MAX_SWEEP_BOUND = 10**7


def _outer_bound_failures(qs: Iterable[int], f: int) -> list[tuple[int, str]]:
    """The points of one run of prime powers q = p^f, all sharing f, where
    a part's strict inequality fails: 6f + 1 < (q^2 - q - 2) / 9 (part A,
    on q > 11) or 4f + 1 < (q^2 - 1) / 8 (part B, on odd q >= 7).

    Cross-multiplied, so exact: A fails when q^2 - q <= a = 9(6f + 1) + 2,
    and B when q^2 <= b = 8(4f + 1) + 1.  Both are turned into integer
    thresholds once per run.  For q >= 1, (2q - 1)^2 = 4(q^2 - q) + 1, so
    q^2 - q <= a exactly when 2q - 1 <= isqrt(4a + 1), that is when
    q <= ta = (isqrt(4a + 1) + 1) // 2; and q^2 <= b exactly when
    q <= tb = isqrt(b).  Each q is compared once, with the larger threshold,
    and the domains are tested only behind that.  A part is never reported
    outside its domain.  Returns (q, part) in the order of qs, A before B at
    one q; qs is read once, so it may be an iterator."""
    a, b = 9 * (6 * f + 1) + 2, 8 * (4 * f + 1) + 1
    ta, tb = (isqrt(4 * a + 1) + 1) // 2, isqrt(b)
    t = max(ta, tb)
    bad = []
    for q in qs:
        if q <= t:  # past the least q neither inequality fails
            if q <= ta and q > 11:
                bad.append((q, "A"))
            if q <= tb and q >= 7 and q % 2 == 1:
                bad.append((q, "B"))
    return bad


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
    primes, none proved prime again and none stored but those up to
    sqrt(bound): every prime is tested as p^1 in one run straight off the
    sieve, then the powers p^f of the primes up to sqrt(bound) in one run per
    f >= 2 (`_outer_bound_failures`).  The run of primes is 2, 3 and 5, then
    the primes in each of the eight residue classes prime to 30 in turn (a
    wheel mod 30), so it does not ascend; only the numbers prime to 30 are
    read off the sieve.  Returns the failing (p, f, part) triples in
    ascending q, part A before part B at the same q; an empty list means
    both inequalities hold everywhere below the bound.  A bound below 2 or
    above MAX_SWEEP_BOUND (10^7) raises ValueError before anything is
    sieved.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    if bound > MAX_SWEEP_BOUND:
        raise ValueError(f"bound must be <= {MAX_SWEEP_BOUND}, got {bound}")
    odd = _odd_sieve(bound)
    # 2, 3 and 5, then the other primes by residue mod 30: byte i stands for
    # the odd q = 2i + 1, which is prime to 30 exactly when it is prime to 15,
    # and so are q + 30, q + 60, ..., every 15th byte from i on; each such
    # strided memoryview reads the sieve bytes in place, without a copy
    view = memoryview(odd)
    primes = chain((p for p in (2, 3, 5) if p <= bound),
                   *(compress(range(2 * i + 1, bound + 1, 30), view[i::15])
                     for i in range(15) if gcd(2 * i + 1, 15) == 1))
    bad = [(q, q, 1, part) for q, part in _outer_bound_failures(primes, 1)]
    roots = [2, *compress(range(1, isqrt(bound) + 1, 2), odd)]
    run, f = roots, 1
    # p^f ascends with p, so the powers over the bound are a tail of the run
    while run := [q * p for q, p in zip(run, roots) if q * p <= bound]:
        f += 1
        bad += [(q, roots[run.index(q)], f, part)
                for q, part in _outer_bound_failures(run, f)]
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
        # q is 3, 5 or 17 (A), 3 or 9 (B), or 3 (C)
        if rest == 1 and a >= 1 and prime_power(q) is not None:
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


_CLASSICAL = ("A", "2A", "B", "C", "D", "2D")
# Exceptional-family rows: rank, then (order as product of Phi_k's, l-argument).
_EXCEPTIONAL_ROWS = {
    "F4": (4, [((12,), 12), ((8,), 8)]),
    "E6": (6, [((12, 3), 12), ((9,), 9), ((8, 2, 1), 8)]),
    "2E6": (6, [((18,), 18), ((12, 6), 12), ((8, 2, 1), 8)]),
    "E7": (7, [((18, 2), 18), ((14, 2), 14), ((12, 3, 1), 12)]),
    "E8": (8, [((30,), 30), ((24,), 24), ((20,), 20)]),
}


def _order_over_cap(family: str, n: int, q: int) -> Unresolved:
    return Unresolved(f"family {family} at n = {n}, q = {q} has a torus order of more "
                      f"than {MAX_BITS} bits")


def torus_orders(family: str, n: int, q: int) -> list[TorusOrder]:
    """Maximal-torus orders |T_i| and their attached primitive-divisor data.

    Classical families branch on the parity of n exactly as tabulated; the
    "D_n odd" second torus is (q^{n-1}+1)(q+1), completing an unbalanced
    parenthesis in the source table by the even-row pattern.  An order of
    more than MAX_BITS bits is refused (`Unresolved`) before any primitive
    divisor is sought; past rank MAX_BITS a classical family always has one,
    so it is refused before any order is formed.
    """
    _check_prime_power(q)
    if family not in _CLASSICAL and family not in _EXCEPTIONAL_ROWS:
        raise ValueError(f"unknown family {family!r}")
    _check_bits(q)
    if family in _CLASSICAL and n > MAX_BITS:
        raise _order_over_cap(family, n, q)
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
    if rows is None:
        raise ValueError(f"family {family!r} has no row for n = {n}")
    if any(order.bit_length() > MAX_BITS for order, _ in rows):
        raise _order_over_cap(family, n, q)
    out = []
    for i, (order, arg) in enumerate(rows):
        zs = zsigmondy(q, arg) if arg >= 2 else None
        out.append(TorusOrder(f"T{i + 1}", order, arg, zs))
    return out
