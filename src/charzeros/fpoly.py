"""Polynomials over a prime field F_l, the one F_l[x] of the package.

A polynomial is a list of ints in [0, l), entry i the coefficient of x^i,
with no trailing zero, so [] is the zero polynomial and len(a) - 1 the
degree.  `chartab` finds the eigenvalues of the class matrices as the roots
of their minimal polynomials (`split_roots`), and `fields` searches for and
multiplies by Conway polynomials.  Degrees stay small there (a table has at
most 64 classes, a field at most 1024 elements), so products and remainders
are schoolbook.
"""

from __future__ import annotations


def _strip(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def plus(a: list[int], c: int, l: int) -> list[int]:
    """a + c for a constant c."""
    if not a:
        return _strip([c % l])
    return _strip([(a[0] + c) % l] + a[1:])


def mul(a: list[int], b: list[int], l: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % l for c in out]  # the leading term is a unit times a unit


def divmod_(a: list[int], m: list[int], l: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero m."""
    dm = len(m) - 1
    r = list(a)
    q = [0] * max(len(a) - dm, 0)
    inv = pow(m[-1], l - 2, l)
    for k in reversed(range(len(q))):
        c = r[k + dm] * inv % l
        if c:
            q[k] = c
            for j in range(dm):
                r[k + j] = (r[k + j] - c * m[j]) % l
    return q, _strip(r[:dm])


def rem(a: list[int], m: list[int], l: int) -> list[int]:
    return divmod_(a, m, l)[1] if len(a) >= len(m) else a


def pow_mod(a: list[int], e: int, m: list[int], l: int) -> list[int]:
    """a^e mod m, by repeated squaring."""
    out, a = rem([1], m, l), rem(a, m, l)
    while e:
        if e & 1:
            out = rem(mul(out, a, l), m, l)
        e >>= 1
        if e:
            a = rem(mul(a, a, l), m, l)
    return out


def compose_mod(g: list[int], h: list[int], m: list[int], l: int) -> list[int]:
    """g(h) mod m, by Horner's rule."""
    out: list[int] = []
    for c in reversed(g):
        out = rem(plus(mul(out, h, l), c, l), m, l)
    return out


def gcd(a: list[int], b: list[int], l: int) -> list[int]:
    """The monic greatest common divisor; [] when both are zero."""
    while b:
        a, b = b, rem(a, b, l)
    if not a:
        return a
    inv = pow(a[-1], l - 2, l)
    return [c * inv % l for c in a]


def split_roots(f: list[int], l: int) -> list[int] | None:
    """The roots of f in F_l, ascending, for a prime l and an f of positive
    degree that divides x^l - x, that is, one that is squarefree and splits
    into linear factors over F_l; None for any other f.

    Over F_2 the roots are found by evaluating f at 0 and 1.  For an odd l
    they are split apart by deterministic Cantor-Zassenhaus: for
    a = 0, 1, 2, ..., gcd(f, (x + a)^((l-1)/2) - 1) holds exactly the roots r
    with r + a a nonzero square.  Two distinct roots r, s are split by some
    a < l, or else the Legendre symbols would give
    sum_a (r+a | l)(s+a | l) = l - 2, not -1.  A factor keeps the search
    where its parent split, as every a before left its roots together."""
    if len(f) < 2 or pow_mod([0, 1], l, f, l) != rem([0, 1], f, l):
        return None
    if l == 2:  # (l - 1)/2 = 0: every gcd below would be f itself
        return [r for r, value in ((0, f[0]), (1, sum(f))) if value % 2 == 0]
    out: list[int] = []
    todo = [(f, 0)]
    while todo:
        f, a = todo.pop()
        if len(f) == 2:
            out.append(-f[0] * pow(f[1], l - 2, l) % l)
            continue
        while True:
            g = gcd(f, plus(pow_mod([a, 1], (l - 1) // 2, f, l), -1, l), l)
            a += 1
            if 1 < len(g) < len(f):
                todo += [(g, a), (divmod_(f, g, l)[0], a)]
                break
    return sorted(out)
