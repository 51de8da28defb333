"""Finite fields F_{p^f} with canonical moduli.

The modulus for each (p, f) is the Conway polynomial, located by search: the
first monic degree-f polynomial, in the standard word order (coefficients
read as a_i = (-1)^(f-i) c_i, compared lexicographically from the top), that
is primitive and norm-compatible with the Conway polynomials of all proper
subfields.  f = 1 therefore yields x - g for the least primitive root g.

Field elements are integers 0..q-1 encoding base-p digit vectors, digit i
being the coefficient of x^i.  With the modulus fixed, the integer labels
(and everything built on them, e.g. permutation images of point sets) are
reproducible across systems.
"""

from __future__ import annotations

from functools import cache

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_compose_mod, gf_mul, gf_pow_mod, gf_rem


class NotPrime(ValueError):
    pass


class TooLarge(ValueError):
    pass


MAX_Q = 1024


def _word_to_poly(word: tuple[int, ...], p: int) -> list[int]:
    """word = (a_{f-1}, ..., a_0) -> ascending coefficient list with c_f = 1."""
    f = len(word)
    coeffs = [0] * (f + 1)
    coeffs[f] = 1
    for idx, a in enumerate(word):
        i = f - 1 - idx
        sign = -1 if (f - i) % 2 else 1
        coeffs[i] = (sign * a) % p
    return coeffs


@cache
def conway_polynomial(p: int, f: int) -> tuple[int, ...]:
    """Ascending coefficients (c_0, ..., c_f) of the Conway polynomial."""
    if not sympy.isprime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    if p**f > MAX_Q:
        raise TooLarge(f"p^f exceeds {MAX_Q}")
    qm1 = p**f - 1
    prime_parts = sympy.primefactors(qm1)
    subs = [(conway_polynomial(p, d)[::-1], qm1 // (p**d - 1))
            for d in sympy.divisors(f) if d < f]

    def candidates():
        word = [0] * f
        while True:
            yield tuple(word)
            i = f - 1
            while i >= 0 and word[i] == p - 1:
                word[i] = 0
                i -= 1
            if i < 0:
                return
            word[i] += 1

    x = [1, 0]
    for word in candidates():
        mod = _word_to_poly(word, p)
        if mod[0] == 0:
            continue
        desc = mod[::-1]
        # primitivity of x: order exactly q-1 (this also forces irreducibility)
        if gf_pow_mod(x, qm1, desc, p, ZZ) != [1]:
            continue
        if any(gf_pow_mod(x, qm1 // l, desc, p, ZZ) == [1] for l in prime_parts):
            continue
        # norm compatibility: each subfield's Conway polynomial vanishes at
        # the matching power of x
        if all(not gf_compose_mod(sub, gf_pow_mod(x, e, desc, p, ZZ), desc, p, ZZ)
               for sub, e in subs):
            return tuple(mod)
    raise AssertionError(f"no Conway polynomial found for ({p}, {f})")


class FqField:
    """F_{p^f} on integer labels; arithmetic through cached tables."""

    def __init__(self, p: int, f: int):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = conway_polynomial(p, f)
        q = self.q
        mod = self.modulus[::-1]
        polys = [self._digits(a)[::-1] for a in range(q)]
        self._mul = [[self._encode(gf_rem(gf_mul(x, y, p, ZZ), mod, p, ZZ)[::-1])
                      for y in polys] for x in polys]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        # x itself is primitive for f >= 2; for f = 1 the modulus is x - g
        self.generator = self.p if f >= 2 else (-self.modulus[0]) % self.p

    # -- encoding -----------------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.f):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _encode(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + d
        return out

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self._encode((x + y) % self.p
                            for x, y in zip(self._digits(a), self._digits(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._encode((-x) % self.p for x in self._digits(a))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if k else 1
        if k < 0:
            a, k = self.inv(a), -k
        k %= self.q - 1
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        return f"FqField({self.p}^{self.f})"


@cache
def gf(p: int, f: int = 1) -> FqField:
    """The field F_{p^f} with its canonical modulus."""
    if not sympy.isprime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    if p**f > MAX_Q:
        raise TooLarge(f"p^f exceeds {MAX_Q}")
    return FqField(p, f)
