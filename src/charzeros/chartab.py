"""Exact character tables by modular eigenvector separation.

The table of a finite permutation group is computed from its class
multiplication constants (Dixon's method).  Over a prime field F_l with
l = 1 (mod exp(G)) the central characters are the simultaneous eigenvectors
of the class matrices A_i, and the class algebra splits, so every class
matrix is diagonalisable and together they separate the characters.  The
split follows Schneider: starting from the whole space, it walks the classes
in order of size and splits every block that is still more than
1-dimensional by the eigenspaces of one A_i.  A block is held by a
row-echelon basis, so the restriction of A_i to it needs only the rows of
A_i at the block's pivots (`Group.class_row`), never the whole matrix; the
walk stops as soon as every block is a line.  A block is spanned by the
central characters it holds, all 1 at the identity class, so that class is
its first pivot.  Hence a block on which A_i is a scalar, which cannot split,
is seen from its basis alone and kept without reading a class row.  Any
other block takes one Krylov pass over the block's part of the identity
class: each vector is reduced against the earlier ones as it is formed, and
the first dependence gives the minimal polynomial, whose roots are the
eigenvalues (`fpoly.split_roots`).  Each eigenvector is one combination of
those vectors per root, and a kernel mod l is solved only for an eigenspace
that is not a line, on the quotient of the block by their span
(`_eigenspaces`).  Each inner product of the split, as of the transforms of
the lift below, is one C-level sum(map(mul, a, b)) % l.  The split is
deterministic.
Once the characters are separated, each character degree follows from the
orthogonality relations, and each entry, known mod l, lifts uniquely to an
exact cyclotomic number.  At a rational class, holding rep^k for every k
prime to o = ord(rep), it is an integer of absolute value at most chi(1) <=
sqrt|G| < l/2: its symmetric residue mod l.  As chi(g^k) = sigma_k(chi(g)),
a Galois conjugate row and its central character are the row and its
central character read through a power map, so only the first row of each
orbit is lifted, and each conjugate that the split found takes its values,
permuted.  Other entries lift through their root-of-unity multiplicities:
one length-o discrete Fourier transform mod l, at the least class of each
Galois family (the classes of rep^k, k prime to o), whose other classes
permute the multiplicities.  Each distinct integer and multiplicity vector
becomes one shared value, and the row sort keys each value once
(`_sorted_rows`).
A table is released only after `verify_table` has re-checked it exactly: the
Galois law chi(g^k) = sigma_k(chi(g)) against the power maps, at generators
of the units mod the exponent, and then the row orthogonality relations.
The law makes each row inner product a rational integer, so these are
decided modulo one prime l = 1 (mod exp(G)) above a bound on their size,
and the column relations follow from the row relations.  Only a table that
fails a check has its relations summed as cyclotomic integers, to name
every failing one.
The numbers mod l are small (l = 16381 for Sz(8):3, the largest in the
registry), so the computation needs no computer algebra: the eigenvalues are
the roots of minimal polynomials in `fpoly`, and l, a primitive exp(G)-th
root of unity mod l (any one, as the rows are sorted) and each degree (the
least d <= sqrt|G| with d^2 = |G|/s mod l) are found by trial.  Every number
factored here goes to `cyclo.trial_factor`, trial division alone: an element
order or the exponent, whose primes are at most 251, p - 1 for such a p, and
l.

A table file is read in one pass (`table_from_text`).  Its class data is
checked first, the class count against `groupcore.MAX_CLASSES` before the
rest.  Each distinct entry is then built once and shared by its cells, so
`verify_table` finds the distinct entries by object identity.

A table, its class summaries and a verify report are immutable named tuples:
`t._replace(rows=...)` derives an edited copy, which `verify_table` checks
like any other table, and `_asdict()` gives a report's fields as a dict.
"""
import json
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from . import fpoly
from .cyclo import CycloNum, hermitian_sum, serial_terms, trial_factor
from .groupcore import MAX_CLASSES, Group, canonical_cycle_points, format_cycles


class TableFileError(ValueError):
    """A serialized table was malformed or not in canonical form."""


class Degenerate(RuntimeError):
    """The table computation cannot go on at its prime: an eigenvalue outside
    the prime field, eigenspaces that do not fill a block, a degree square
    without a root, or a computed table that fails exact verification."""


# -- table container ----------------------------------------------------------------

class TableClass(NamedTuple):
    """Per-class summary carried with a table so that verification and the
    Galois/power-map checks work on a loaded file without the group."""
    size: int
    element_order: int
    centralizer: int
    rep: str
    powers: tuple[int, ...]  # class of rep^k for k = 0 .. element_order-1


class CharacterTable(NamedTuple):
    group: str
    order: int
    exponent: int
    classes: tuple[TableClass, ...]
    rows: tuple[tuple[CycloNum, ...], ...]

    def degree(self, row: int) -> int:
        return self.rows[row][0].rational_value()


def _entry_key(v: CycloNum):
    # nonnegative coefficients sort before negative ones so that the
    # all-ones row precedes every other linear character
    return tuple((e, c < 0, abs(c)) for e, c in sorted(v.coeffs.items()))


def _sorted_rows(rows) -> list:
    """The rows in canonical order, entry by entry by `_entry_key`, so by
    degree first.  Each distinct entry object is keyed once, for its cells."""
    distinct = {id(v): v for row in rows for v in row}  # one per entry object
    keys = {k: _entry_key(v) for k, v in distinct.items()}
    return sorted(rows, key=lambda row: [keys[id(v)] for v in row])


# -- linear algebra mod l ------------------------------------------------------------

def _rref(mat, l):
    """In-place reduced row echelon form; returns pivot column list."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], l - 2, l)
        mat[rank] = [x * inv % l for x in mat[rank]]
        for i in range(rows):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % l for x, y in zip(mat[i], mat[rank])]
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return pivots


def _kernel_basis(mat, l):
    m = [row[:] for row in mat]
    cols = len(m[0])
    pivots = _rref(m, l)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r][free]) % l
        basis.append(v)
    return basis


def _krylov(b, c, l):
    """(p, K, reduced) for a d x d matrix b and a nonzero vector c: p the
    monic (ascending) polynomial of least degree s with p(b) c = 0, K the
    Krylov vectors K_j = b^j c for j < s, and `reduced` their echelon rows.
    Each K_j is reduced against the rows before it as it is formed, carrying
    the T with row = sum_j T_j K_j, and kept as (pivot, row scaled to 1 there
    followed by T).  K_s reduces to 0, and its T, still 1 at s, is p."""
    d = len(b)
    krylov, reduced = [c], []
    while True:
        j = len(reduced)
        row = krylov[j] + [0] * j + [1] + [0] * (d - j)
        for t, done in reduced:
            x = row[t]
            if x:
                row = [(y - x * z) % l for y, z in zip(row, done)]
        t = next((t for t in range(d) if row[t]), None)
        if t is None:
            del krylov[j]
            return row[d:d + j + 1], krylov, reduced
        inv = pow(row[t], l - 2, l)
        reduced.append((t, [x * inv % l for x in row]))
        krylov.append([sum(map(mul, r, krylov[j])) % l for r in b])


def _shift(m, e, l):
    """m - e I."""
    return [[(x - e * (t == k)) % l for k, x in enumerate(row)] for t, row in enumerate(m)]


def _by_linear(f, e, l):
    """Quotient and remainder of f (ascending) by x - e: synthetic division."""
    q, acc = [0] * (len(f) - 1), 0
    for j in range(len(f) - 1, 0, -1):
        q[j - 1] = acc = (f[j] + e * acc) % l
    return q, (f[0] + e * acc) % l


def _eigenspaces(b, c, basis, l):
    """The eigenspaces of b, the restriction of a class matrix to a block, as
    one new block (basis, pivots, start vector) per eigenvalue, ascending.
    `basis` is the block's basis and c its start vector in block coordinates.

    One Krylov pass (`_krylov`) gives the least p with p(b) c = 0, of degree
    s, and K_j = b^j c for j < s.  At a splitting prime c has a component on
    every eigenvector of b (`_separate`), so p is b's minimal polynomial and
    its roots e (`fpoly.split_roots`) are the eigenvalues.  For
    q = p/(x - e), u_e = q(b) c = sum_j q_j K_j is not 0, as deg q < s, and
    (b - e) u_e = p(b) c = 0.  The span K of the K_j is b-invariant and
    meets the e-eigenspace in the line of u_e alone, so that eigenspace is
    larger than a line exactly when e is an eigenvalue of b on V/K, of
    dimension d - s.  If s = d, every eigenspace is a line.  Otherwise the
    pass's rows are back-substituted to the reduced row-echelon form of K, b
    acts on V/K as Q, its columns at the non-pivots reduced against K, and
    each w in the kernel of Q - e lifts: with v = w at the non-pivots and 0
    at the pivots, (b - e) v lies in K, say g(b) c, and when g(e) = 0,
    v - (g/(x - e))(b) c is in the e-eigenspace.  Those lifts and u_e span
    it.  The kernels of Q - e are solved root after root until they fill the
    quotient, so a root whose eigenspace is a line costs at most a rank test.

    `Degenerate` is raised when p has a repeated root or one outside F_l,
    and when the eigenspaces do not fill the block: c misses an eigenvalue,
    which V/K keeps, or a lift has g(e) != 0, as when b is not
    diagonalisable.  Neither happens at a splitting prime."""
    d = len(b)
    p, krylov, reduced = _krylov(b, c, l)
    roots = fpoly.split_roots(p, l)
    if roots is None:  # not squarefree, or not split over F_l
        raise Degenerate("eigenvalue outside the working prime field")
    s = len(krylov)
    left = d - s  # dimensions of V/K that no lift has filled yet
    if left:
        # each row R = sum_j T_j K_j zeroed also at the pivots of the rows
        # formed after it: K in reduced row-echelon form, each R followed by T
        echelon = []
        for t, row in reversed(reduced):
            for u, done in echelon:
                x = row[u]
                if x:
                    row = [(y - x * z) % l for y, z in zip(row, done)]
            echelon.append((t, row))
        echelon.sort()
        pivots = [t for t, _ in echelon]
        rest = [j for j in range(d) if j not in pivots]
        at_pivots = [[b[t][j] for t in pivots] for j in rest]  # b's columns at the pivots
        quotient = [[(b[i][j] - sum(map(mul, ri, bj))) % l for j, bj in zip(rest, at_pivots)]
                    for i, ri in zip(rest, ([row[i] for _, row in echelon] for i in rest))]
        coefficients = list(zip(*(row[d:d + s] for _, row in echelon)))  # T_j of the rows, by j
    kcols = list(zip(*krylov))
    # a block of the whole space has the identity basis, and needs no mapping
    columns = list(zip(*basis)) if d < len(basis[0]) else None
    split = []
    for e in roots:
        q = _by_linear(p, e, l)[0]
        vecs = [[sum(map(mul, q, col)) % l for col in kcols]]  # u_e
        for w in _kernel_basis(_shift(quotient, e, l), l) if left else ():
            v = [0] * d
            for j, x in zip(rest, w):
                v[j] = x
            # (b - e) v lies in K, so its entries at the pivots, those of b v,
            # are its coordinates on the rows R; then (b - e) v = g(b) c
            at = [sum(map(mul, b[t], v)) % l for t in pivots]
            g = [sum(map(mul, at, tj)) % l for tj in coefficients]
            h, r = _by_linear(g, e, l)
            if not r:  # else this w lifts to no eigenvector, and V/K stays unfilled
                left -= 1
                vecs.append([(x - sum(map(mul, h, col))) % l for x, col in zip(v, kcols)])
        if columns:  # to the whole space
            vecs = [[sum(map(mul, x, col)) % l for col in columns] for x in vecs]
        start = vecs[0]  # u_e, taken before _rref rewrites the rows in place
        split.append((vecs, _rref(vecs, l), start))  # a line's _rref only scales it
    if left:
        raise Degenerate("eigenspaces of a class matrix do not fill its block")
    return split


def _separate(group: Group, l: int) -> list[list[int]]:
    """The common eigenvectors of the class matrices over F_l, one per
    central character.

    Blocks are invariant subspaces held as reduced row-echelon bases with
    their pivot columns.  For a basis b_1..b_d with pivots p_1..p_d, the
    coordinates of a vector in the block are its entries at the pivots, so
    A_i restricts to the d x d matrix whose (s, t) entry is
    class_row(i, p_s) . b_t.  Each block is split into the eigenspaces of
    that matrix, one class at a time, smallest classes first
    (`_eigenspaces`).

    The first pivot p_1 is class 0, and class_row(i, 0) is the indicator of
    class i, so row 1 of the restriction is (b_1[i], .., b_d[i]).  The
    block's central characters, each 1 at class 0, differ by vectors in the
    span of b_2..b_d, so A_i is a scalar there exactly when
    b_2[i] = .. = b_d[i] = 0.  Were p_1 ever another class, which only a
    prime that does not split the class algebra allows, an unsplit block
    would leave too few rows, and `verify_table` refuses their shape.

    Each block also carries a start vector c for `_eigenspaces`: its part of
    e_0, the indicator of the identity class.  At a splitting prime the
    central characters w_chi, each 1 at the identity class, are a basis, and
    by the column orthogonality relations e_0 = sum_chi (chi(1)^2/|G|) w_chi,
    with chi(1)^2/|G| nonzero (chi(1) < l, and l does not divide |G|).  A
    block's part of e_0 then has a nonzero component on each of its
    characters, so its Krylov vectors give the minimal polynomial of the
    restriction, and q(b) maps it to a nonzero multiple of its part in the
    e-eigenspace, the start vector of the new block.  So `_eigenspaces`
    raises `Degenerate` only at a forced prime, and `verify_table` decides
    every table it lets through.
    """
    sizes = group.class_sizes
    r = len(sizes)
    blocks = [([[int(i == j) for j in range(r)] for i in range(r)], list(range(r)),
               [int(j == 0) for j in range(r)])]
    for i in sorted(range(1, r), key=lambda i: (sizes[i], i)):
        if all(len(basis) == 1 for basis, _, _ in blocks):
            break
        split = []
        for basis, pivots, start in blocks:
            if not any(v[i] for v in basis[1:]):
                split.append((basis, pivots, start))  # A_i is scalar here: no split
                continue
            rows = [group.class_row(i, p) for p in pivots]
            if len(basis) == r:  # the whole space: the identity basis, every pivot
                b = [[x % l for x in row] for row in rows]
            else:
                b = [[sum(map(mul, row, v)) % l for v in basis] for row in rows]
            split += _eigenspaces(b, [start[t] for t in pivots], basis, l)
        blocks = split
    return [basis[0] for basis, _, _ in blocks]


# -- the table computation -----------------------------------------------------------

def _prime_above(bound: int, step: int) -> int:
    """The least prime l > bound with l = 1 (mod step)."""
    l = bound + 1 + -bound % step
    while trial_factor(l) != [(l, 1)]:
        l += step
    return l


def _root_of_unity(l: int, m: int) -> int:
    """A primitive m-th root of unity mod the prime l: the first a^((l-1)/m),
    a = 1, 2, ..., of order m (for m = l - 1, the least primitive root).  Any
    other conjugates each row by a sigma_k, which permutes the sorted rows.
    A forced l with m not dividing l - 1 has none, and verify decides."""
    qs = [q for q, _ in trial_factor(m)]
    return next((w for w in (pow(a, (l - 1) // m, l) for a in range(1, l))
                 if all(pow(w, m // q, l) != 1 for q in qs)), 1)


def _dft(xval, powers, mat, l):
    """Multiplicities mod l of the roots of unity in chi on <g>, from chi mod l."""
    xs = [xval[p] for p in powers]
    return [sum(map(mul, xs, f)) % l for f in mat]


def character_table(group: Group) -> CharacterTable:
    classes = group.classes
    r = len(classes)
    n = group.order
    m = group.exponent
    l = _prime_above(isqrt(4 * n), m)  # l > 2 sqrt(|G|)

    vecs = _separate(group, l)

    sizes = group.class_sizes
    orders = [c.element_order for c in classes]
    size_inv = [pow(s, l - 2, l) for s in sizes]
    powers = group.power_maps
    inv_class = [p[-1] for p in powers]

    chars = []
    for u in vecs:  # u[0] = 1: its pivot is the identity class (a 0 gives a degree-0 row)
        s = sum(u[j] * u[inv_class[j]] % l * size_inv[j] for j in range(r)) % l
        dd = n * pow(s, l - 2, l) % l
        # the degree d satisfies d^2 = dd and d <= sqrt(n) < l/2
        d = next((x for x in range(1, isqrt(n) + 1) if x * x % l == dd), None)
        if d is None:
            raise Degenerate("degree square has no root mod l")
        chars.append((d, u))

    # rational: the class holds rep^k for every k prime to its order
    rational = [all(p == j for k, p in enumerate(powers[j]) if gcd(k, o) == 1)
                for j, o in enumerate(orders)]
    # dft[o][t][s] = w_o^(-ts) / o, with w_o a primitive o-th root of unity
    # mod l: the multiplicity of zeta_o^t in chi restricted to <g> is
    # sum_s dft[o][t][s] * chi(g^s), for o the order of an irrational class.
    # Each entry is one of the o values w_o^(-k) / o, at k = ts mod o.  Any
    # primitive root serves as w_m^(-1).
    w = _root_of_unity(l, m)
    dft = {}
    for o in {o for o, q in zip(orders, rational) if not q}:
        w_inv = pow(w, m // o, l)
        o_inv = pow(o, l - 2, l)
        scaled = [pow(w_inv, k, l) * o_inv % l for k in range(o)]
        dft[o] = [[scaled[t * s % o] for s in range(o)] for t in range(o)]
    # Galois families: class j holds rep_j0^k for k prime to o, j0 the least
    # class of its family.  chi(g^k) = sigma_k(chi(g)), so the multiplicity
    # of zeta_o^(tk) at j is that of zeta_o^t at j0.
    family = [None] * r
    for j0, o in enumerate(orders):
        if family[j0] is None:
            for k in range(1, o + 1):  # k = o stands for k = 0 when o = 1
                if gcd(k, o) == 1 and family[powers[j0][k % o]] is None:
                    family[powers[j0][k % o]] = (j0, k)
    # chi^sigma_a(g_j) = chi(g_j^a): a row's conjugate by a unit a has its u
    # and its row read through the a-th power map
    images = [[powers[j][a % o] for j, o in enumerate(orders)] for a in _unit_generators(m)]
    split = {tuple(u): i for i, (_, u) in enumerate(chars)}
    values = {}  # (o, multiplicities) -> value; CycloNum is immutable
    rows = [None] * len(chars)
    for i, (d, u) in enumerate(chars):
        if rows[i] is not None:  # a conjugate of an earlier row
            continue
        xval = [d * u[j] % l * size_inv[j] % l for j in range(r)]
        mults = [None] * r
        row = []
        for j, o in enumerate(orders):
            j0, k = family[j]
            if rational[j]:  # |chi(g)| <= d < l/2: the symmetric residue, as at o = 1
                o, mult = 1, [xval[j] - l if 2 * xval[j] > l else xval[j]]
            elif j0 == j:
                mult = _dft(xval, powers[j], dft[o], l)
            else:
                mult = [0] * o
                for t, c in enumerate(mults[j0]):
                    mult[t * k % o] = c
            mults[j] = mult
            key = (o, tuple(mult))
            if key not in values:
                values[key] = CycloNum(m, {t * (m // o): c for t, c in enumerate(mult) if c},
                                       reduced=o == 1)  # an integer is canonical
            row.append(values[key])
        rows[i] = tuple(row)
        # its orbit, through the split's vectors: a u' the split did not give is not trusted
        orbit = [i]
        for x in orbit:
            for image in images:
                y = split.get(tuple(chars[x][1][p] for p in image))
                if y is not None and rows[y] is None:
                    rows[y] = tuple(rows[x][p] for p in image)
                    orbit.append(y)

    table = CharacterTable(
        group=group.name or "",
        order=n,
        exponent=m,
        classes=tuple(TableClass(size=c.size, element_order=c.element_order,
                                 centralizer=n // c.size, rep=format_cycles(c.rep),
                                 powers=powers[j])
                      for j, c in enumerate(classes)),
        rows=tuple(_sorted_rows(rows)),
    )
    report = verify_table(table)
    if not report.ok:
        raise Degenerate("computed table failed exact verification: "
                         + "; ".join(report.violations[:4]))
    return table


# -- verification --------------------------------------------------------------------

class TableReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


# From this bound on |<chi_i, chi_j> - want| up, the row relations are summed
# exactly: it caps the trial division that finds the prime of `_rows_hold_mod_l`.
# The registry's largest bound is 686,400 (PSU(3,4)).
_MODULAR_CEILING = 1 << 32


def _unit_generators(m: int) -> list[int]:
    """Generators of the units mod m, one or two for each prime power q
    exactly dividing m: units that are 1 mod m/q and, mod q, a primitive root
    for odd q, -1 for q = 4, and -1 and 5 for q = 2^k, k >= 3."""
    gens = []
    for p, k in trial_factor(m):
        q = p**k
        if p == 2:
            roots = [-1, 5][:k - 1]
        else:
            g = _root_of_unity(p, p - 1)
            roots = [g + p if k > 1 and pow(g, p - 1, p * p) == 1 else g]
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        gens += [(1 + (g - 1) * lift) % m for g in roots]
    return gens


def _distinct_entries(t: CharacterTable) -> tuple[list[tuple], list[list[int]]]:
    """The distinct entries of t, each as its sorted (exponent, coefficient)
    pairs, and for each entry its index in that list.  A loaded or computed
    table shares one object per distinct value, so entries are looked up by
    identity first and by value only once per object: equal values held by
    distinct objects still share one index."""
    index: dict[tuple, int] = {}
    seen: dict[int, int] = {}  # id of an entry object -> its index
    cells = []
    for row in t.rows:
        cell = []
        for v in row:
            n = seen.get(id(v))
            if n is None:
                n = seen[id(v)] = index.setdefault(tuple(sorted(v.coeffs.items())), len(index))
            cell.append(n)
        cells.append(cell)
    return list(index), cells


def _galois_violations(t: CharacterTable, values: list[tuple],
                       cells: list[list[int]]) -> list[str]:
    """The Galois law chi(g^k) = sigma_k(chi(g)) for k in generators of the
    units mod the exponent m, where sigma_k maps zeta_m to zeta_m^k.  The class
    of g^k is read from the power maps, which must permute the classes and
    keep their sizes.  With composing power maps (`_check_classes`), the law
    at generators gives it at every unit.  `values` and `cells` are those of
    `_distinct_entries`."""
    m = t.exponent
    r = len(t.classes)
    index = {v: n for n, v in enumerate(values)}
    bad = []
    for k in _unit_generators(m):
        image = [c.powers[k % c.element_order] for c in t.classes]
        if sorted(image) != list(range(r)) or any(
                t.classes[p].size != c.size for p, c in zip(image, t.classes)):
            bad.append(f"galois {k}: g -> g^{k} is not a size-preserving permutation "
                       f"of the classes")
            continue
        sigma = []  # sigma_k on the distinct entries, as indices; -1 is no entry
        for n, v in enumerate(values):
            if all(e * k % m == e for e, _ in v):  # as for a rational value
                sigma.append(n)
            else:
                w = CycloNum(m, {e * k % m: c for e, c in v})
                sigma.append(index.get(tuple(sorted(w.coeffs.items())), -1))
        for j, p in enumerate(image):
            rows = [i for i, row in enumerate(cells) if sigma[row[j]] != row[p]]
            if rows:
                bad.append(f"galois {k}: class {j} -> {p}: rows {', '.join(map(str, rows))} "
                           f"break chi(g^{k}) = sigma_{k}(chi(g))")
    return bad


def _rows_hold_mod_l(t: CharacterTable, values: list[tuple], cells: list[list[int]]) -> bool:
    """Whether every row relation sum_k |C_k| chi_i(g_k) conj(chi_j(g_k)) =
    |G| [i = j] holds, decided in one prime field, for a table that obeys
    the Galois law.  Each sigma_k then permutes the terms of the sum, which
    is so a rational integer alpha_ij.  Basis elements are roots of unity, so
    by Cauchy-Schwarz |alpha_ij| <= B = max_i sum_k |C_k| |chi_i(g_k)|_1^2, with
    |x|_1 the sum of the absolute coefficients.  For a prime l > B + |G|
    with l = 1 (mod m), zeta_m -> w, a primitive m-th root of unity mod l,
    maps alpha_ij to alpha_ij mod l, which then equals the wanted value mod l
    only if alpha_ij does.  False when some relation fails or B + |G| reaches
    `_MODULAR_CEILING`.  `values` and `cells` are those of `_distinct_entries`."""
    m, n = t.exponent, t.order
    sizes = [c.size for c in t.classes]
    norm = [sum(abs(c) for _, c in v) ** 2 for v in values]
    bound = max(sum(s * norm[x] for s, x in zip(sizes, row)) for row in cells)
    if bound + n >= _MODULAR_CEILING:
        return False
    l = _prime_above(bound + n, m)
    w = _root_of_unity(l, m)
    at = [sum(c * pow(w, e, l) for e, c in v) % l for v in values]
    conj = [sum(c * pow(w, -e % m, l) for e, c in v) % l for v in values]  # at w^-1
    xs = [[s * at[x] for s, x in zip(sizes, row)] for row in cells]
    ys = [[conj[x] for x in row] for row in cells]
    return all(sum(map(mul, xs[i], ys[j])) % l == (n if i == j else 0)  # n < l
               for i in range(len(xs)) for j in range(i, len(xs)))


def verify_table(t: CharacterTable) -> TableReport:
    """Exact checks: positive integer degrees and the degree-square sum, the
    Galois law on the power maps (`_galois_violations`), row orthonormality
    weighted by class sizes and column orthogonality against centralizer
    orders.  Entries are cyclotomic integers by construction, and a file with
    a denominator does not load.  The class data is what `table_from_text`
    checks (`_check_classes`).

    A table that obeys the Galois law has integer row inner products, and
    those are decided in one prime field (`_rows_hold_mod_l`).  A table that
    fails a check has every orthogonality relation summed exactly, to name
    each failing one; its Galois lines come last."""
    bad: list[str] = []
    r = len(t.classes)
    if len(t.rows) != r:
        return TableReport(False, (f"shape: {len(t.rows)} rows for {r} classes",))

    degrees = []
    for i, row in enumerate(t.rows):
        v = row[0]
        if not v.is_rational() or v.rational_value() <= 0:
            bad.append(f"degree {i}: first column is "
                       f"{v.rational_value() if v.is_rational() else 'irrational'}")
            degrees.append(None)
        else:
            degrees.append(v.rational_value())
    if all(d is not None for d in degrees) and sum(d * d for d in degrees) != t.order:
        bad.append(f"degree-sum: sum of squares {sum(d * d for d in degrees)} != {t.order}")
    if any(row_v != 1 for row_v in t.rows[0]):
        bad.append("trivial-row: row 0 is not the all-ones character")

    sizes = [c.size for c in t.classes]
    # For the square table X and D = diag(sizes), X D X* = |G| I makes X
    # invertible with X* X = |G| D^-1: the column relations hold whenever the
    # row relations do and the sizes divide the order.  They are summed only
    # when they can fail, to name the failing columns.  The modular path also
    # needs the sizes positive.
    cols_follow = t.order > 0 and all(s >= 1 and t.order % s == 0 for s in sizes)
    galois = []  # read only from a square table with every entry at the exponent
    m = t.exponent
    if all(len(row) == r and all(v.order == m for v in row) for row in t.rows):
        values, cells = _distinct_entries(t)
        galois = _galois_violations(t, values, cells)
        if not galois and cols_follow and _rows_hold_mod_l(t, values, cells):
            return TableReport(not bad, tuple(bad))

    rows_ok = True
    for i in range(r):
        for j in range(i, r):
            want = t.order if i == j else 0
            if hermitian_sum(t.rows[i], t.rows[j], sizes) != want:
                bad.append(f"row-orth {i},{j}: inner product != {want}")
                rows_ok = False
    if not (rows_ok and cols_follow):
        cols = [[row[k] for row in t.rows] for k in range(r)]
        ones = [1] * r
        for k in range(r):
            for kk in range(k, r):
                want = t.order // sizes[k] if k == kk else 0
                if hermitian_sum(cols[k], cols[kk], ones) != want:
                    bad.append(f"col-orth {k},{kk}: inner product != {want}")
    bad += galois
    return TableReport(not bad, tuple(bad))


def kernel_of(t: CharacterTable, row: int) -> tuple[int, ...]:
    """Classes on which the row equals its degree; always a union of classes
    forming a normal subgroup."""
    values = t.rows[row]
    deg = values[0]
    return tuple(j for j, v in enumerate(values) if v == deg)


def is_faithful(t: CharacterTable, row: int) -> bool:
    return kernel_of(t, row) == (0,)


# Normal structure read from a verified table: every normal subgroup is an
# intersection of row kernels (Isaacs, Character Theory of Finite Groups,
# ch. 2), and row 0 is the trivial character, whose kernel is G.

def central_classes(t: CharacterTable) -> tuple[int, ...]:
    """The classes forming Z(G): those of size 1."""
    return tuple(j for j, c in enumerate(t.classes) if c.size == 1)


def derived_classes(t: CharacterTable) -> tuple[int, ...]:
    """The classes forming G': the intersection of the linear rows' kernels."""
    kernels = [set(kernel_of(t, i)) for i in range(len(t.rows)) if t.degree(i) == 1]
    return tuple(sorted(set.intersection(*kernels)))


def is_simple(t: CharacterTable) -> bool:
    """G != 1 and every nontrivial row is faithful, so the only normal
    subgroups are 1 and G."""
    return len(t.rows) > 1 and all(is_faithful(t, i) for i in range(1, len(t.rows)))


def is_quasisimple(t: CharacterTable) -> bool:
    """Perfect with G/Z(G) simple: one linear row, Z(G) proper, and every
    nontrivial row's kernel inside Z(G), since a proper normal N with NZ = G
    would give G = G' <= N."""
    z = set(central_classes(t))
    return (sum(t.degree(i) == 1 for i in range(len(t.rows))) == 1
            and len(t.classes) > len(z)
            and all(set(kernel_of(t, i)) <= z for i in range(1, len(t.rows))))


# -- table files ---------------------------------------------------------------------

FORMAT_TAG = "chartab/1"


def table_to_text(t: CharacterTable, seed: int = 0) -> str:
    """The table file of t, compact JSON with sorted keys.  `seed` is recorded
    in the file only: the table computation is deterministic, so no seed
    reaches it.  Each distinct entry object is encoded once, for its cells."""
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    head = dumps({
        "format": FORMAT_TAG,
        "group": t.group,
        "order": t.order,
        "exponent": t.exponent,
        "classes": [
            {"size": c.size, "order": c.element_order, "centralizer": c.centralizer,
             "rep": c.rep, "powers": list(c.powers)}
            for c in t.classes
        ],
    })
    distinct = {id(v): v for row in t.rows for v in row}  # one per entry object
    # one encoding of the distinct entries, cut apart at each "},{": an
    # entry's text holds no brace but its own two
    cut = dumps([v.to_obj() for v in distinct.values()])[2:-2].split("},{")
    texts = {k: "{" + x + "}" for k, x in zip(distinct, cut)}
    rows = ",".join("[" + ",".join([texts[id(v)] for v in row]) + "]" for row in t.rows)
    return f'{head[:-1]},"rows":[{rows}],"seed":{dumps(seed)}}}\n'  # the last two keys


def _rep_order(rep: str) -> int:
    """Order of a representative: the lcm of its cycle lengths.  Only the
    canonical cycle notation that `format_cycles` writes, on at most 256
    points, is read (`canonical_cycle_points`)."""
    return lcm(*map(len, canonical_cycle_points(rep)))


def _product_generators(o: int) -> list[int]:
    """Residues whose products give every residue mod o: the primes dividing
    o, and units taken least first until they generate the unit group.  Each
    unit taken at least doubles the subgroup reached, so finding them is
    linear in o and there are O(log o) of them."""
    gens, reached = [p for p, _ in trial_factor(o)], {1 % o}
    for u in range(2, o):
        if u not in reached and gcd(u, o) == 1:
            gens.append(u)
            grow = list(reached)
            for x in grow:
                y = x * u % o
                if y not in reached:
                    reached.add(y)
                    grow.append(y)
    return gens


def _check_classes(classes: tuple[TableClass, ...], order: int, exponent: int) -> None:
    """Class data that every vanishing verdict reads, checked before any entry
    is parsed; the exponent it pins down bounds what parsing an entry costs.
    The class count is held to `MAX_CLASSES`, as for a computed table, since
    verify grows as its cube."""
    r = len(classes)
    if r > MAX_CLASSES:
        raise TableFileError(f"{r} classes exceed the class ceiling {MAX_CLASSES}")
    orders = [c.element_order for c in classes]
    for j, c in enumerate(classes):
        o, powers = c.element_order, c.powers
        if o < 1 or len(powers) != o or c.size * c.centralizer != order:
            raise TableFileError(f"class {j}: inconsistent class summary")
        if not all(0 <= p < r for p in powers) or powers[0] != 0 or powers[1 % o] != j:
            raise TableFileError(f"class {j}: power map out of range or not "
                                 f"anchored at the identity and the class itself")
        if any(orders[p] != o // gcd(o, k) for k, p in enumerate(powers)):
            raise TableFileError(f"class {j}: power map disagrees with the class orders")
        if _rep_order(c.rep) != o:
            raise TableFileError(f"class {j}: representative does not have order {o}")
    if order < 1 or sum(c.size for c in classes) != order:
        raise TableFileError("class sizes do not sum to a positive group order")
    if exponent != lcm(*orders) or order % exponent:
        raise TableFileError("exponent is not the lcm of the class orders")
    # (g^a)^b = g^(ab).  If this holds at every class for a1 and for a2, it
    # holds for a1*a2, so generators of Z/o under multiplication suffice.
    generators = {o: _product_generators(o) for o in set(orders)}
    for j, c in enumerate(classes):
        o, powers = c.element_order, c.powers
        for a in generators[o]:
            p = powers[a % o]
            q = classes[p].powers
            if any(powers[a * b % o] != q[b] for b in range(len(q))):
                raise TableFileError(f"class {j}: power map does not compose "
                                     f"through class {p} = rep^{a}")


def _typed(x, kind: type):
    """x, if its JSON type is the one `table_to_text` writes there (an int
    field takes no bool, float or string)."""
    if type(x) is not kind:
        raise TableFileError(f"expected {kind.__name__}, not {type(x).__name__}")
    return x


def _record(x, fields: str) -> None:
    """Refuse x unless it is an object with exactly the given fields."""
    if type(x) is not dict or x.keys() != set(fields.split()):
        raise TableFileError(f"expected an object with the fields {fields}")


def _table_class(c) -> TableClass:
    _record(c, "size order centralizer rep powers")
    return TableClass(size=_typed(c["size"], int), element_order=_typed(c["order"], int),
                      centralizer=_typed(c["centralizer"], int), rep=_typed(c["rep"], str),
                      powers=tuple(_typed(x, int) for x in _typed(c["powers"], list)))


def table_from_text(text: str) -> CharacterTable:
    """The table a file holds.  Only what `table_to_text` could have written
    loads, up to JSON spacing and key order.  Every entry has its shape and
    JSON types checked (`cyclo.serial_terms`) and its m compared with the
    exponent; each distinct (m, terms) is then tested for canonical form and
    built once (`CycloNum.from_terms`), and its cells share the value."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer literal
        raise TableFileError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise TableFileError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_TAG:
        raise TableFileError(f"missing or unsupported format tag (want {FORMAT_TAG})")
    try:
        _record(obj, "format group order exponent seed classes rows")
        order = _typed(obj["order"], int)
        exponent = _typed(obj["exponent"], int)
        _typed(obj["seed"], int)  # recorded by `table`, not part of the table
        group = _typed(obj["group"], str)
        classes = tuple(map(_table_class, _typed(obj["classes"], list)))
        _check_classes(classes, order, exponent)
        rows = []
        values: dict[tuple, CycloNum] = {}  # (m, terms) -> its one value
        for row in _typed(obj["rows"], list):
            if len(_typed(row, list)) != len(classes):
                raise TableFileError("row length does not match the class count")
            cells = []
            for v in row:
                key = serial_terms(v)
                if key[0] != exponent:  # before m is factored, in `from_terms`
                    raise TableFileError("entry not embedded at the table exponent")
                x = values.get(key)
                if x is None:
                    x = values[key] = CycloNum.from_terms(*key)
                cells.append(x)
            rows.append(tuple(cells))
    except TableFileError:
        raise
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise TableFileError(str(exc)) from None
    return CharacterTable(group=group, order=order, exponent=exponent,
                          classes=classes, rows=tuple(rows))
