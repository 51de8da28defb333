"""Polynomials over a prime field F_l, the one F_l[x] of the package.

A polynomial is a list of ints in [0, l), entry i the coefficient of x^i,
with no trailing zero, so [] is the zero polynomial and len(a) - 1 the
degree.  `chartab` finds the eigenvalues of the class matrices as the roots
of their minimal polynomials (`split_roots`), and `fields` searches for and
multiplies by Conway polynomials.  Degrees stay small there (a table has at
most 64 classes, a field at most 1024 elements), so products and remainders
are schoolbook.  Most minimal polynomials the split meets are quadratics,
which `split_roots` solves in closed form by a square root mod l; a higher
degree pays one power x^((l-1)/2) mod f, which both tests that f splits
and starts the search for its roots.
"""

from __future__ import annotations

from .numtheory import root_of_unity


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


def _sqrt(a: int, l: int) -> int:
    """A square root of a nonzero square a mod an odd prime l, by
    Tonelli-Shanks: with l - 1 = q 2^s, q odd, r = a^((q+1)/2) has
    r^2 = a t, and t = a^q is brought to 1 by powers of c, a primitive
    2^s-th root of unity (z^q for the least non-square z)."""
    s = ((l - 1) & (1 - l)).bit_length() - 1
    q = (l - 1) >> s
    c, t, r = root_of_unity(l, 1 << s), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while t != 1:  # t has order 2^i < 2^s, c order 2^s
        i, u = 0, t
        while u != 1:
            u, i = u * u % l, i + 1
        b = pow(c, 1 << (s - i - 1), l)
        s, c, t, r = i, b * b % l, t * b * b % l, r * b % l
    return r


def split_roots(f: list[int], l: int) -> list[int] | None:
    """The roots of f in F_l, ascending, for a prime l and an f of positive
    degree that divides x^l - x, that is, one that is squarefree and splits
    into linear factors over F_l; None for any other f.

    Over F_2 the roots are found by evaluating f at 0 and 1.  For an odd l a
    quadratic a x^2 + b x + c has two distinct roots exactly when its
    discriminant b^2 - 4ac is a nonzero square, and they are
    (-b +- sqrt(b^2 - 4ac))/2a.  Any
    higher degree pays one power h = x^((l-1)/2) mod f: f divides x^l - x
    when x h^2 = x (mod f), and its roots are split apart by deterministic
    Cantor-Zassenhaus: for a = 0, 1, 2, ..., gcd(f, (x + a)^((l-1)/2) - 1)
    holds exactly the roots r with r + a a nonzero square, and at a = 0 that
    power is h.  Two distinct roots r, s are split by some a < l, or else the
    Legendre symbols would give sum_a (r+a | l)(s+a | l) = l - 2, not -1.  A
    factor keeps the search where its parent split, as every a before left
    its roots together, and one of degree 2 or less is solved directly."""
    if len(f) < 2:
        return None
    if l == 2:  # (l - 1)/2 = 0: every gcd below would be f itself
        roots = [r for r, value in ((0, f[0]), (1, sum(f))) if value % 2 == 0]
        return roots if len(roots) == len(f) - 1 else None
    if len(f) == 2:
        return [-f[0] * pow(f[1], l - 2, l) % l]
    if len(f) == 3:
        c, b, a = f
        disc = (b * b - 4 * a * c) % l
        if pow(disc, (l - 1) // 2, l) != 1:  # zero, or not a square
            return None
        root, inv = _sqrt(disc, l), pow(2 * a, l - 2, l)
        return sorted((e - b) * inv % l for e in (root, -root))
    h = pow_mod([0, 1], (l - 1) // 2, f, l)
    if rem(mul([0, 1], mul(h, h, l), l), f, l) != [0, 1]:
        return None
    out: list[int] = []
    todo = [(f, 0)]
    while todo:
        f, a = todo.pop()
        if len(f) <= 3:
            out += split_roots(f, l)
            continue
        while True:
            # only the input starts at a = 0, and its power is h
            power = h if a == 0 else pow_mod([a, 1], (l - 1) // 2, f, l)
            g = gcd(f, plus(power, -1, l), l)
            a += 1
            if 1 < len(g) < len(f):
                todo += [(g, a), (divmod_(f, g, l)[0], a)]
                break
    return sorted(out)
