"""Permutation constructions of the concrete group families.

Projective-line groups act on q+1 points ordered [infinity, 0, 1, ..., q-1]
with field elements in their canonical integer labels; matrix groups act on
canonically ordered vector or point lists.  Both conventions exist so that
generator permutations, and hence everything downstream, are reproducible.
Each generator is a map of the points, read as a permutation of their
indices by `_action`.
"""

from __future__ import annotations

from ..fields import FqField, gf
from ..groupcore import MAX_DEGREE, Group
from ..numtheory import prime_power


MIN_Q, MAX_Q_LINEAR = 4, 32


def _field_of(q: int) -> FqField:
    pf = prime_power(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    return gf(*pf)


def _check_q(q: int):
    if not MIN_Q <= q <= MAX_Q_LINEAR:
        raise ValueError(f"q = {q} outside the supported range "
                          f"[{MIN_Q}, {MAX_Q_LINEAR}]")


def _action(points: list, f) -> tuple[int, ...]:
    """The permutation that sends the index of each point x to the index
    of f(x)."""
    index = {x: i for i, x in enumerate(points)}
    return tuple(index[f(x)] for x in points)


# -- cyclic and alternating ------------------------------------------------

def cyclic(n: int) -> Group:
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = tuple((i + 1) % n for i in range(n))
    return Group([gen], degree=n, name=f"C{n}")


def alternating(n: int) -> Group:
    if not 5 <= n <= 9:
        raise ValueError(f"alternating(n) supports 5 <= n <= 9, got {n}")
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return Group([three, big], degree=n, name=f"A{n}")


# -- projective-line groups --------------------------------------------------

INF = None


def _mobius_perm(F: FqField, a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """z -> (az + b)/(cz + d) on [infinity] + field elements."""
    def image(z):
        if z is INF:
            return INF if c == 0 else F.div(a, c)
        den = F.add(F.mul(c, z), d)
        return INF if den == 0 else F.div(F.add(F.mul(a, z), b), den)
    return _action([INF, *F.elements()], image)


def _frobenius_perm(F: FqField) -> tuple[int, ...]:
    return _action([INF, *F.elements()], lambda z: z if z is INF else F.frobenius(z))


def psl2(q: int) -> Group:
    _check_q(q)
    F = _field_of(q)
    g = F.generator
    scale = g if F.p == 2 else F.mul(g, g)
    gens = [_mobius_perm(F, 1, 1, 0, 1),
            _mobius_perm(F, scale, 0, 0, 1),
            _mobius_perm(F, 0, F.neg(1), 1, 0)]
    return Group(gens, degree=q + 1, name=f"PSL(2,{q})")


def pgl2(q: int) -> Group:
    _check_q(q)
    F = _field_of(q)
    gens = [_mobius_perm(F, 1, 1, 0, 1),
            _mobius_perm(F, F.generator, 0, 0, 1),
            _mobius_perm(F, 0, F.neg(1), 1, 0)]
    return Group(gens, degree=q + 1, name=f"PGL(2,{q})")


def psl2_semilinear(q: int) -> Group:
    """PSL2(q) extended by the Frobenius field automorphism."""
    base = psl2(q)
    F = _field_of(q)
    return Group(base.generators + (_frobenius_perm(F),),
                 degree=q + 1, name=f"PSL(2,{q}):{F.f}")


def twisted_m10() -> Group:
    """The point-stabilizer-free A6 extension inside PGammaL2(9): PSL2(9)
    together with z -> nu * z^3 for a non-square nu.  Distinguished from the
    other two index-2 overgroups by its element orders (no 6, no 10)."""
    F = gf(3, 2)
    base = psl2(9)
    frob = _frobenius_perm(F)
    scale = _mobius_perm(F, F.generator, 0, 0, 1)
    twisted = tuple(scale[i] for i in frob)
    return Group(base.generators + (twisted,), degree=10, name="A6:2_3")


# -- SL2 on nonzero vectors ----------------------------------------------------

def sl2(q: int) -> Group:
    _check_q(q)
    if q % 2 == 0:
        raise ValueError("sl2 requires odd q (even q gives PSL2 again)")
    if q * q - 1 > MAX_DEGREE:
        raise ValueError(f"sl2({q}) acts on {q * q - 1} points, "
                          f"more than the largest degree {MAX_DEGREE}")
    F = _field_of(q)
    vecs = [(x, y) for x in F.elements() for y in F.elements() if (x, y) != (0, 0)]

    def perm_of(m):
        (a, b), (c, d) = m
        return _action(vecs, lambda v: (F.add(F.mul(a, v[0]), F.mul(b, v[1])),
                                         F.add(F.mul(c, v[0]), F.mul(d, v[1]))))

    g = F.generator
    gens = [perm_of(((1, 1), (0, 1))),
            perm_of(((1, 0), (1, 1))),
            perm_of(((g, 0), (0, F.inv(g))))]
    return Group(gens, degree=q * q - 1, name=f"SL(2,{q})")


# -- Suzuki group on the 65-point ovoid -------------------------------------------

def _suzuki_maps(F: FqField):
    """Sz(q) for q = 2^(2n+1), acting on [infinity] + F_q^2 with the twisting
    endomorphism theta: x -> x^(2^(n+1)), theta^2 = Frobenius."""
    points = [INF] + [(a, b) for a in F.elements() for b in F.elements()]
    theta_exp = 1 << ((F.f + 1) // 2)

    def theta(x):
        return F.pow(x, theta_exp)

    def affine(f):
        """The permutation of a map f(a, b) of F_q^2 that fixes infinity."""
        return _action(points, lambda v: INF if v is INF else f(*v))

    def t_perm(c, d):
        tc = theta(c)
        return affine(lambda a, b: (F.add(a, c), F.add(F.add(b, d), F.mul(a, tc))))

    def m_perm(k):
        kt = F.mul(k, theta(k))
        return affine(lambda a, b: (F.mul(k, a), F.mul(kt, b)))

    def w(v):
        if v is INF:
            return 0, 0
        if v == (0, 0):
            return INF
        a, b = v
        fi = F.inv(F.add(F.add(F.mul(theta(a), F.mul(a, a)), F.mul(a, b)),
                         theta(b)))
        return F.mul(b, fi), F.mul(a, fi)

    def w_perm():
        return _action(points, w)

    def frob_perm():
        return affine(lambda a, b: (F.frobenius(a), F.frobenius(b)))

    return t_perm, m_perm, w_perm, frob_perm


def suzuki() -> Group:
    F = gf(2, 3)
    t_perm, m_perm, w_perm, _ = _suzuki_maps(F)
    gens = [t_perm(1, 0), t_perm(0, 1), m_perm(F.generator), w_perm()]
    return Group(gens, degree=65, name="Sz(8)")


def suzuki_semilinear() -> Group:
    frob = _suzuki_maps(gf(2, 3))[3]
    return Group(suzuki().generators + (frob(),), degree=65, name="Sz(8):3")


# -- unitary group on isotropic points --------------------------------------------

def unitary3() -> Group:
    """PSU3(4) (= SU3(4), as gcd(3, 5) = 1) on the 65 isotropic points of the
    Hermitian form x1*conj(y3) + x2*conj(y2) + x3*conj(y1) over F_16, where
    conj(x) = x^4; the only such group within the order budget."""
    F = gf(2, 4)

    def conj(x):
        return F.pow(x, 4)

    def herm(x, y):
        s = F.mul(x[0], conj(y[2]))
        s = F.add(s, F.mul(x[1], conj(y[1])))
        return F.add(s, F.mul(x[2], conj(y[0])))

    def normalize(v):
        for c in v:
            if c:
                ci = F.inv(c)
                return tuple(F.mul(ci, x) for x in v)
        raise ValueError("zero vector")

    pts = [(1, x2, x3) for x2 in F.elements() for x3 in F.elements()]
    pts += [(0, 1, x3) for x3 in F.elements()]
    pts.append((0, 0, 1))
    iso = [v for v in pts if herm(v, v) == 0]

    def perm_of(m):
        def apply(v):
            return tuple(
                F.add(F.add(F.mul(m[i][0], v[0]), F.mul(m[i][1], v[1])),
                      F.mul(m[i][2], v[2]))
                for i in range(3))
        return _action(iso, lambda v: normalize(apply(v)))

    b0 = next(b for b in F.elements() if F.add(b, conj(b)) == 1)
    lam = F.generator
    gens = [perm_of(((1, 0, 0), (1, 1, 0), (b0, 1, 1))),
            perm_of(((lam, 0, 0), (0, F.div(conj(lam), lam), 0),
                     (0, 0, F.inv(conj(lam))))),
            perm_of(((0, 0, 1), (0, 1, 0), (1, 0, 0)))]
    return Group(gens, degree=len(iso), name="PSU(3,4)")
