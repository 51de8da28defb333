"""Exact cyclotomic integers, the elements of Z[zeta_m], in canonical form.

Character values are algebraic integers, so every table entry is one, and
every coefficient is an `int`.  Elements are stored on a canonical integral
basis assembled prime power by prime power: writing m = prod p^k and
eta_p = zeta_m^(m/p^k), the basis consists of the products
prod_p eta_p^(u_p) with 0 <= u_p < phi(p^k).  The representation is unique,
so equality and zero-testing are syntactic (equal or empty coefficient
maps), and for o | m the basis of Q(zeta_o) maps into the basis of
Q(zeta_m) under zeta_o -> zeta_m^(m/o), so a value built at order m from
powers of zeta_o stays sparse.  The basis spans Z[zeta_m] over Z, so
reduction keeps integer coefficients integers, and a serialized entry with a
denominator other than 1 is refused (`serial_terms`).

A serialized entry is read in two steps.  `serial_terms` checks its shape
and JSON types and returns its terms as plain integers; `CycloNum.from_terms`
tests the canonical form and builds the value.  A table file repeats few
distinct entries many times (466 distinct among the 3,904 entries of the
registry's tables), so its reader runs the first step on every entry and the
second once per distinct (m, terms), sharing the value among its cells.

A power zeta_m^e outside the basis reduces in one local step per offending
prime: eta^(phi(p^k)+r) = -sum_{j<p-1} eta^(j*p^(k-1)+r), the relation
Phi_{p^k}(eta) = 0 shifted by r < p^(k-1).

There is no field arithmetic.  Values are built, compared and mapped by
Galois automorphisms (zeta_m -> zeta_m^k, a constructor call on the moved
exponents).  `hermitian_sum`, the weighted inner product formed in the group
ring Z[C_m] and reduced once, serves the orthogonality checks of a table
that fails `chartab.verify_table`: an accepted table has its inner products
decided modulo a prime instead.

Nothing in the package needs computer algebra.  An order m is factored by
`numtheory.trial_factor`; the `numtheory` module docstring states the
package's one policy for primes and factoring.  A table file's entry has its m compared with the
exponent before m is factored, and an order m that does not divide
lcm(1..256), as every table's exponent does, is refused before it is
factored, whatever builds the value.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .numtheory import trial_factor

# lcm(1..256): every exponent of a group on at most 256 points divides it,
# 256 being groupcore.MAX_DEGREE, so every order a table has does too
_ORDER_LCM = lcm(*range(1, 257))


@cache
def _locals(m: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """The local primes of an order m, which must divide _ORDER_LCM, so that
    factoring it is quick: any other m is refused before it is factored.
    Each is a plain tuple (p, q, phi, step, cof, inv): q = p^k the full p-part
    of m, phi = phi(q), step = p^(k-1) the exponent gap q - phi, cof = m / q
    and inv = cof^(-1) mod q.  `_reduce` unpacks it once per term, and only
    an exact tuple unpacks at full speed."""
    if _ORDER_LCM % m:
        raise ValueError(f"order {m} does not divide lcm(1..256)")
    out = []
    for p, k in trial_factor(m):
        q = p**k
        step = q // p
        cof = m // q
        out.append((p, q, q - step, step, cof, pow(cof, -1, q)))
    return tuple(out)


def _reduce(m: int, raw: dict[int, int]) -> dict[int, int]:
    """Rewrite {exponent: coeff} terms of zeta_m powers onto the canonical basis."""
    locs = _locals(m)
    out: dict[int, int] = {}
    for e, c in raw.items():
        terms = [(e, c)]
        for p, q, phi, step, cof, inv in locs:
            u = (e * inv) % q
            if u < phi:
                continue
            r = u - phi
            # replace the eta_p^u factor: shift exponent by (u' - u) * cof
            nxt = []
            for e1, c1 in terms:
                for j in range(p - 1):
                    u1 = j * step + r
                    nxt.append(((e1 + (u1 - u) * cof) % m, -c1))
            terms = nxt
        for e1, c1 in terms:
            s = out.get(e1, 0) + c1
            if s:
                out[e1] = s
            elif e1 in out:
                del out[e1]
    return out


class CycloNum:
    """Immutable exact element of Z[zeta_m], held in canonical form.

    Values are compared only at one order: the entries of a table all share
    the table exponent, and comparing values of different orders raises
    instead of answering False."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, int], *, reduced: bool = False):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not reduced:
            raw: dict[int, int] = {}
            for e, c in coeffs.items():
                e %= order
                raw[e] = raw.get(e, 0) + c
            coeffs = _reduce(order, raw)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycloNum is immutable")

    def __reduce__(self):
        # a pickled value is canonical already: it is rebuilt without reduction
        return _canonical, (self.order, self.coeffs)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return set(self.coeffs) <= {0}

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs.get(0, 0)

    # -- comparison / hashing / display -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational() and self.coeffs.get(0, 0) == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(f"cannot compare values of orders {self.order} and {other.order}")
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs.get(0, 0))
        return hash((self.order, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if self.is_zero():
            return "CycloNum(0)"
        parts = [f"{c}*z{self.order}^{e}" if e else str(c)
                 for e, c in sorted(self.coeffs.items())]
        return "CycloNum(" + " + ".join(parts) + ")"

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        """{"m": m, "c": [[e, c, 1], ...]} with exponents ascending; the third
        field, a denominator, is always 1.  Read back in two steps, anything
        it would not write refused: `serial_terms` checks the shape and JSON
        types, and `from_terms` the canonical form."""
        return {"m": self.order, "c": [[e, self.coeffs[e], 1] for e in sorted(self.coeffs)]}

    @staticmethod
    def from_terms(m: int, terms: tuple[int, ...]) -> "CycloNum":
        """The value of (m, terms) from `serial_terms`, if it is in canonical
        form.  Both are plain integers, so a reader may build each distinct
        (m, terms) once and share the value."""
        coeffs = dict(zip(terms[::2], terms[1::2]))
        v = CycloNum(m, coeffs, reduced=True)  # refuses m < 1 before m is factored
        if _reduce(m, coeffs) != coeffs:
            raise ValueError("serialized element was not in canonical form")
        return v


_ENTRY_FIELDS = frozenset(("m", "c"))


def serial_terms(obj) -> tuple[int, tuple[int, ...]]:
    """m and the flat exponents and coefficients (e_1, c_1, e_2, c_2, ...) of
    a serialized element, once its shape and JSON types are what `to_obj`
    writes: exactly the fields m and c, the integer m, and terms [e, c, 1] of
    integers with ascending exponents in [0, m).  JSON true and 1.0 equal 1
    and hash like it, so a reader that shares values by (m, terms) still
    passes every entry through this check."""
    if type(obj) is not dict or obj.keys() != _ENTRY_FIELDS:
        raise ValueError("expected an object with the fields m and c")
    m, terms = obj["m"], obj["c"]
    if type(m) is not int or type(terms) is not list:
        raise ValueError("m must be an integer and c a list")
    flat = []
    prev = -1
    for term in terms:
        if type(term) is not list or len(term) != 3 or not (
                type(term[0]) is type(term[1]) is type(term[2]) is int):
            raise ValueError("a term must be a list of three integers")
        e, c, den = term
        if not prev < e < m:
            raise ValueError("exponents must be ascending in [0, m)")
        prev = e
        if den != 1:
            raise ValueError("a coefficient must be an integer: denominator 1")
        flat += e, c
    return m, tuple(flat)


def _canonical(order: int, coeffs: dict[int, int]) -> CycloNum:
    return CycloNum(order, coeffs, reduced=True)


def hermitian_sum(xs, ys, weights) -> CycloNum:
    """sum_k weights[k] * xs[k] * conj(ys[k]) for values of one order m.

    The products are collected in the group ring Z[C_m], where zeta^a times
    the conjugate of zeta^b is zeta^(a-b), and the sum is brought onto the
    canonical basis by a single reduction: reduction is linear, so reducing
    once equals reducing every product."""
    m = xs[0].order
    raw: dict[int, int] = {}
    get = raw.get
    for x, y, w in zip(xs, ys, weights, strict=True):
        if x.order != m or y.order != m:
            raise ValueError(f"values of orders {x.order} and {y.order} in a sum at order {m}")
        ys_items = y.coeffs.items()
        for a, c in x.coeffs.items():
            wc = w * c
            for b, d in ys_items:
                e = a - b if a >= b else a - b + m
                raw[e] = get(e, 0) + wc * d
    return CycloNum(m, _reduce(m, raw), reduced=True)
