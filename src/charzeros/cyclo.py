"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored on a canonical integral basis assembled prime power by
prime power: writing m = prod p^k and eta_p = zeta_m^(m/p^k), the basis
consists of the products prod_p eta_p^(u_p) with 0 <= u_p < phi(p^k).  The
representation is unique, so zero-testing is syntactic (empty coefficient
map), and for o | m the basis of Q(zeta_o) maps into the basis of Q(zeta_m)
under zeta_o -> zeta_m^(m/o), which keeps mixed-order sums sparse.

A power zeta_m^e outside the basis reduces in one local step per offending
prime: eta^(phi(p^k)+r) = -sum_{j<p-1} eta^(j*p^(k-1)+r), the relation
Phi_{p^k}(eta) = 0 shifted by r < p^(k-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

Rational = int | Fraction


def _cnorm(x: Rational) -> Rational:
    """Fractions with denominator 1 collapse to int (keeps arithmetic fast)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class _LocalPrime:
    p: int
    q: int        # p^k, the full p-part of m
    phi: int      # phi(p^k)
    step: int     # p^(k-1), the exponent gap q - phi
    cof: int      # m / q
    inv: int      # cof^(-1) mod q


@cache
def _locals(m: int) -> tuple[_LocalPrime, ...]:
    out = []
    rest = m
    p = 2
    while rest > 1:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            step = q // p
            cof = m // q
            out.append(_LocalPrime(p, q, q - step, step, cof, pow(cof, -1, q)))
        p += 1 if p == 2 else 2
    return tuple(out)


def _reduce(m: int, raw: dict[int, Rational]) -> dict[int, Rational]:
    """Rewrite {exponent: coeff} terms of zeta_m powers onto the canonical basis."""
    locs = _locals(m)
    out: dict[int, Rational] = {}
    for e, c in raw.items():
        terms = [(e, c)]
        for L in locs:
            u = (e * L.inv) % L.q
            if u < L.phi:
                continue
            r = u - L.phi
            # replace the eta_p^u factor: shift exponent by (u' - u) * cof
            nxt = []
            for e1, c1 in terms:
                for j in range(L.p - 1):
                    u1 = j * L.step + r
                    nxt.append(((e1 + (u1 - u) * L.cof) % m, -c1))
            terms = nxt
        for e1, c1 in terms:
            s = out.get(e1, 0) + c1
            if s:
                out[e1] = _cnorm(s)
            elif e1 in out:
                del out[e1]
    return out


class CycloNum:
    """Immutable exact element of Q(zeta_m)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Rational], *, reduced: bool = False):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not reduced:
            coeffs = _reduce(order, {e % order: _cnorm(c) for e, c in coeffs.items() if c})
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycloNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "CycloNum":
        return CycloNum(order, {}, reduced=True)

    @staticmethod
    def rational(value: Rational, order: int = 1) -> "CycloNum":
        value = _cnorm(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        return CycloNum(order, {0: value} if value else {}, reduced=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return set(self.coeffs) <= {0}

    def rational_value(self) -> Rational:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs.get(0, 0)

    def is_integral(self) -> bool:
        """True iff every canonical-basis coefficient has denominator 1."""
        return all(isinstance(c, int) for c in self.coeffs.values())

    def embed(self, order: int) -> "CycloNum":
        """Image in Q(zeta_order) for a multiple of self.order (basis -> basis)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("embedding target must be a multiple of the order")
        k = order // self.order
        return CycloNum(order, {e * k: c for e, c in self.coeffs.items()}, reduced=True)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "CycloNum") -> tuple["CycloNum", "CycloNum", int]:
        m = lcm(self.order, other.order)
        return self.embed(m), other.embed(m), m

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other, self.order)
        a, b, m = self._aligned(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _cnorm(s)
            elif e in out:
                del out[e]
        return CycloNum(m, out, reduced=True)

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, {e: -c for e, c in self.coeffs.items()}, reduced=True)

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other, self.order))

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other, self.order)
        a, b, m = self._aligned(other)
        raw: dict[int, Rational] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e >= m:
                    e -= m
                s = raw.get(e, 0) + c1 * c2
                raw[e] = s
        return CycloNum(m, {e: c for e, c in raw.items() if c})

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "CycloNum":
        return _coerce(other, self.order) - self

    def conjugate(self) -> "CycloNum":
        """Complex conjugate: the Galois image zeta_m -> zeta_m^(-1)."""
        m = self.order
        return CycloNum(m, {(-e) % m: c for e, c in self.coeffs.items()})

    def galois(self, k: int) -> "CycloNum":
        """Galois image zeta_m -> zeta_m^k, gcd(k, m) = 1."""
        m = self.order
        if gcd(k, m) != 1:
            raise ValueError("k must be coprime to the order")
        return CycloNum(m, {(k * e) % m: c for e, c in self.coeffs.items()})

    def approx(self) -> complex:
        """Floating shadow of the exact value (guard rails only, never authority)."""
        from cmath import exp, pi

        z = exp(2j * pi / self.order)
        return sum((c * z**e for e, c in self.coeffs.items()), 0j)

    # -- comparison / hashing / display -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs.get(0, 0) == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs.get(0, 0))
        g = gcd(self.order, *self.coeffs)
        return hash((self.order // g,
                     tuple(sorted((e // g, c) for e, c in self.coeffs.items()))))

    def __repr__(self):
        if self.is_zero():
            return "CycloNum(0)"
        parts = [f"{c}*z{self.order}^{e}" if e else str(c)
                 for e, c in sorted(self.coeffs.items())]
        return "CycloNum(" + " + ".join(parts) + ")"

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> dict:
        """{"m": m, "c": [[e, num, den], ...]} with exponents ascending."""
        c = []
        for e in sorted(self.coeffs):
            f = Fraction(self.coeffs[e])
            c.append([e, f.numerator, f.denominator])
        return {"m": self.order, "c": c}

    @staticmethod
    def from_obj(obj: dict) -> "CycloNum":
        m = obj["m"]
        coeffs: dict[int, Rational] = {}
        prev = -1
        for e, num, den in obj["c"]:
            if not (isinstance(e, int) and 0 <= e < m and e > prev):
                raise ValueError("exponents must be ascending in [0, m)")
            prev = e
            coeffs[e] = _cnorm(Fraction(num, den))
        val = CycloNum(m, dict(coeffs))
        if val.coeffs != coeffs:
            raise ValueError("serialized element was not in canonical form")
        return val


def _coerce(x, order: int) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.rational(x, order)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycloNum")

