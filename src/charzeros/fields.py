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

Sums work on the digits.  Products work on discrete logarithms to x, which
generates the units for every f, since the Conway polynomial is primitive
(for f = 1 it is x - g, and x is g).  A field holds the labels of x^0, ...,
x^(q-2), found by q - 1 multiplications by x modulo the Conway polynomial,
and their inverse map, so a field is built in O(q) and mul, inv, div, pow
and frobenius are index arithmetic mod q - 1.
"""

from __future__ import annotations

import itertools
from functools import cache

from . import fpoly
from .numtheory import is_prime, trial_factor


# Largest field order.  Building a field takes q - 1 polynomial products, a
# table of q - 1 labels and its inverse: 0.007 s at q = 1024, after a 0.015 s
# Conway search (Python 3.11, 2-vCPU host).
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
    # a p above MAX_Q is refused by size below, prime or not
    if p <= MAX_Q and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    # p >= 2, so f >= MAX_Q.bit_length() gives p^f > MAX_Q before p^f is formed
    if p > MAX_Q or f >= MAX_Q.bit_length() or p**f > MAX_Q:
        raise ValueError(f"p^f exceeds {MAX_Q}")
    qm1 = p**f - 1
    prime_parts = [l for l, _ in trial_factor(qm1)]
    subs = [(conway_polynomial(p, d), qm1 // (p**d - 1))
            for d in range(1, f) if f % d == 0]

    x = [0, 1]
    for word in itertools.product(range(p), repeat=f):
        mod = _word_to_poly(word, p)
        if mod[0] == 0:
            continue
        # primitivity of x: order exactly q-1 (this also forces irreducibility)
        if fpoly.pow_mod(x, qm1, mod, p) != [1]:
            continue
        if any(fpoly.pow_mod(x, qm1 // l, mod, p) == [1] for l in prime_parts):
            continue
        # norm compatibility: each subfield's Conway polynomial vanishes at
        # the matching power of x
        if all(not fpoly.compose_mod(sub, fpoly.pow_mod(x, e, mod, p), mod, p)
               for sub, e in subs):
            return tuple(mod)
    raise AssertionError(f"no Conway polynomial found for ({p}, {f})")


class FqField:
    """F_{p^f} on integer labels; products through discrete-log tables."""

    def __init__(self, p: int, f: int):
        self.modulus = conway_polynomial(p, f)  # rejects bad p, f before p**f
        self.p = p
        self.f = f
        self.q = p**f
        self._exp, y = [], [1]  # _exp[k] is the label of x^k
        for _ in range(self.q - 1):
            self._exp.append(self._encode(y))
            y = fpoly.rem(fpoly.mul(y, [0, 1], p), self.modulus, p)
        self._log = {a: k for k, a in enumerate(self._exp)}
        self.generator = self._exp[1 % (self.q - 1)]

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
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if k else 1
        return self._exp[self._log[a] * k % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        return f"FqField({self.p}^{self.f})"


@cache
def gf(p: int, f: int = 1) -> FqField:
    """The field F_{p^f} with its canonical modulus; `conway_polynomial`
    rejects a p that is not prime, f < 1 and p^f > MAX_Q."""
    return FqField(p, f)
