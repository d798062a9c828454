"""Rings of scalars for graded bilinear pairings of f.g. abelian groups.

A pairing is a bilinear map f: A x B -> C recorded by its value table on
fixed direct-sum coordinates.  A scalar of f is a triple of endomorphisms
(phi1 of A, phi2 of B, phi0 of C) satisfying

    f(phi1 a, b) = phi0 f(a, b) = f(a, phi2 b)      for all a, b.

Triples add entrywise and multiply by composition, and the set of all of
them modulo triples of null maps is a ring with identity.  This module
computes that ring exactly: a lattice basis for the solution set, additive
invariant factors (read as intlinalg.InvariantFactors, like the abelian
sections), unit coordinates, the multiplication table, the matrices of
its additive basis on each block, and prime factorizations of the zero
ideal when the ring is finite and commutative.  It is the largest ring of
scalars (Myasnikov, Siberian Math. J. 1990); refined.refined_ring checks
the refined chains' conditions on it and refuses when one fails, so no
subring is ever solved for.

The factorization follows the ring's structure rather than enumerating
its ideals: a finite commutative ring is the product of local rings, one
per maximal ideal M, and the zero ideal is the product of the powers
M^t(M) at which M^t stops shrinking.  The maximal ideals over a prime p
come from R/pR, whose nilradical is the kernel of a Frobenius power and
whose Berlekamp subalgebra {x : x^p == x} splits into the primitive
idempotents.  Ideals are Hermite-normal lattices; the factors are
returned sorted by (size, sorted elements), each repeated t(M) times.

The defining system has na^2 + nb^2 + nc^2 unknowns, and intlinalg.kernel
solves it one connected component of unknowns at a time.  A congruence
touches those entries of one column of phi1 or phi2 and of one row of phi0
that meet nonzero table cells, so how sparse the system is depends on the
bases of A, B and C.  On a sparse table the unknowns fall into many small
components (UT_7's 661 unknowns into 481, the largest of 41); on a dense
one they do not (a random basis change of H_6 puts all 289 unknowns in one
component).  A ring is its lattice of triples, held in Hermite normal
form.

B and C may carry a block grading (one block per layer of a graded
pairing); the blocks matter to ScalarRing.block_matrices, which reads one
block of phi1, phi2 or phi0.

pairing_of a bilinearization is nondegenerate and full, block by block
(the theorem in bilinear's docstring), so its ring is commutative and
graded.  For scalars s, t: s0 t0 f(x, y) = f(t1 x, s2 y) = t0 s0 f(x, y),
and the values span C, so s0 t0 = t0 s0; then f(s1 t1 x, y) =
f(t1 s1 x, y) for all y, so s1 t1 = t1 s1 as A has no left radical, and
s2 t2 = t2 s2 likewise.  phi0 f(x, y) = f(phi1 x, y), so phi0 keeps C_k,
which f(A, B_k) spans; for y in B_k, f(x, phi2 y) = f(phi1 x, y) lies in
C_k, so the part of phi2 y in another block pairs to 0 with A and is 0.
ScalarRing.is_commutative and block_matrices' grading check still
compute rather than assume: a caller's own Pairing reaches both, and it
may be degenerate (f(a, b) = a_0 b on (Z/2)^2 x Z/2 has a noncommutative
ring).

The public ScalarRing(pairing, s_basis) checks a caller's basis against
_base_system, the one encoding of the conditions; scalar_ring builds
without the checks, by the boundary rule stated in abelian.py's
docstring.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .intlinalg import (
    InvariantFactors,
    echelon_leads,
    hnf_basis,
    identity,
    kernel,
    mat_mul,
    solve_lattice,
    transpose,
    vec_mat,
)

Period = Optional[int]
Cell = Tuple[int, ...]


class ScalarRingError(ValueError):
    pass


def _offsets(blocks: Sequence[int]) -> List[int]:
    out = [0]
    for b in blocks:
        out.append(out[-1] + b)
    return out


class Pairing(namedtuple("Pairing", "periods_a periods_b periods_c table "
                         "b_blocks c_blocks")):
    """Bilinear map A x B -> C on invariant-factor coordinates.

    Periods are None for an infinite cyclic factor, else the factor's order.
    table[s][t] is the C-coordinate vector of f(a_s, b_t), kept reduced
    modulo the periods of C. b_blocks and c_blocks are the block sizes of
    the gradings of B and C, one block each when None is given.
    """

    __slots__ = ()

    def __new__(cls, periods_a: Tuple[Period, ...],
                periods_b: Tuple[Period, ...], periods_c: Tuple[Period, ...],
                table: Tuple[Tuple[Cell, ...], ...],
                b_blocks: Optional[Tuple[int, ...]] = None,
                c_blocks: Optional[Tuple[int, ...]] = None):
        na, nb, nc = len(periods_a), len(periods_b), len(periods_c)
        for per in periods_a + periods_b + periods_c:
            if per is not None and per < 1:
                raise ScalarRingError("periods must be None or positive")
        if b_blocks is None:
            b_blocks = (nb,) if nb else ()
        if c_blocks is None:
            c_blocks = (nc,) if nc else ()
        if sum(b_blocks) != nb or sum(c_blocks) != nc:
            raise ScalarRingError("block sizes do not add up")
        if len(table) != na:
            raise ScalarRingError("table must have one row per A generator")
        fixed = []
        for s, row in enumerate(table):
            if len(row) != nb:
                raise ScalarRingError("table row width disagrees with B")
            new_row = []
            for t, cell in enumerate(row):
                if len(cell) != nc:
                    raise ScalarRingError("table cell width disagrees with C")
                cell = tuple(v if per is None else v % per
                             for v, per in zip(cell, periods_c))
                ea, eb = periods_a[s], periods_b[t]
                g = None
                if ea is not None:
                    g = ea
                if eb is not None:
                    g = eb if g is None else gcd(g, eb)
                if g is not None:
                    for k, v in enumerate(cell):
                        per = periods_c[k]
                        bad = v * g != 0 if per is None else (v * g) % per != 0
                        if bad:
                            raise ScalarRingError(
                                f"table value at ({s},{t}) has order larger "
                                "than its arguments allow")
                new_row.append(cell)
            fixed.append(tuple(new_row))
        return super().__new__(cls, periods_a, periods_b, periods_c,
                               tuple(fixed), b_blocks, c_blocks)


def multiplication_pairing(n: int) -> Pairing:
    """Multiplication Z/n x Z/n -> Z/n; its scalar ring is Z/n itself."""
    if n < 1:
        raise ScalarRingError("modulus must be positive")
    return Pairing((n,), (n,), (n,), (((1,),),))


class _Layout:
    """Index bookkeeping for the flattened unknown vector.

    Order: phi1 row-major (na x na), then phi2 (nb x nb), then phi0
    (nc x nc).  Matrices act on column vectors of coordinates.
    """

    def __init__(self, pairing: Pairing):
        self.na = len(pairing.periods_a)
        self.nb = len(pairing.periods_b)
        self.nc = len(pairing.periods_c)
        self.o1 = 0
        self.o2 = self.na * self.na
        self.o0 = self.o2 + self.nb * self.nb
        self.total = self.o0 + self.nc * self.nc
        # per matrix: its index map, size and module periods
        self.slots = (
            (self.idx1, self.na, pairing.periods_a),
            (self.idx2, self.nb, pairing.periods_b),
            (self.idx0, self.nc, pairing.periods_c),
        )

    def idx1(self, r: int, c: int) -> int:
        return self.o1 + r * self.na + c

    def idx2(self, r: int, c: int) -> int:
        return self.o2 + r * self.nb + c

    def idx0(self, r: int, c: int) -> int:
        return self.o0 + r * self.nc + c


def _base_system(pairing: Pairing):
    """All congruences defining the scalar triples: sparse rows over the
    flattened unknowns, each a (column -> coefficient, modulus) pair."""
    lay = _Layout(pairing)
    rows: List[Tuple[Dict[int, int], int]] = []
    # each matrix is a well-defined endomorphism
    for idx, n, periods in lay.slots:
        for c in range(n):
            if periods[c] is None:
                continue
            for r in range(n):
                rows.append(({idx(r, c): periods[c]},
                             0 if periods[r] is None else periods[r]))
    # f(phi1 a_s, b_t) == phi0 f(a_s, b_t) == f(a_s, phi2 b_t) at ell; the
    # three index ranges are disjoint, so no entry is written twice
    f = pairing.table
    for s in range(lay.na):
        for t in range(lay.nb):
            for ell in range(lay.nc):
                row1: Dict[int, int] = {}
                row2: Dict[int, int] = {}
                for r in range(lay.na):
                    if f[r][t][ell]:
                        row1[lay.idx1(r, s)] = f[r][t][ell]
                for r in range(lay.nb):
                    if f[s][r][ell]:
                        row2[lay.idx2(r, t)] = f[s][r][ell]
                for k in range(lay.nc):
                    if f[s][t][k]:
                        row1[lay.idx0(ell, k)] = -f[s][t][k]
                        row2[lay.idx0(ell, k)] = -f[s][t][k]
                per = pairing.periods_c[ell]
                for row in (row1, row2):
                    if row:
                        rows.append((row, 0 if per is None else per))
    return lay, rows


# --------------------------------------------------------------------------
# the ring itself


def _block_geometry(pairing: Pairing, lay: _Layout, which: str,
                    block: Optional[int]):
    """The index map and size of matrix `which`, the offset and size of one
    of its blocks, and the periods of the whole module it acts on."""
    if which == "phi1":
        if block is not None:
            raise ScalarRingError("phi1 carries no grading")
        return lay.idx1, lay.na, 0, lay.na, pairing.periods_a
    if which == "phi2":
        o = _offsets(pairing.b_blocks)[block]
        return lay.idx2, lay.nb, o, pairing.b_blocks[block], pairing.periods_b
    if which == "phi0":
        o = _offsets(pairing.c_blocks)[block]
        return lay.idx0, lay.nc, o, pairing.c_blocks[block], pairing.periods_c
    raise ScalarRingError(f"unknown matrix name {which!r}")


def _reshape(lay: _Layout, vec: Sequence[int]):
    """The triple vec as its three matrices (phi1, phi2, phi0)."""
    return tuple([list(vec[idx(r, 0):idx(r, 0) + n]) for r in range(n)]
                 for idx, n, _ in lay.slots)


def _compose(lay: _Layout, v1: Sequence[int],
             v2: Sequence[int]) -> List[int]:
    out = []
    for x, y in zip(_reshape(lay, v1), _reshape(lay, v2)):
        for row in mat_mul(x, y):
            out.extend(row)
    return out


def _null_triples(lay: _Layout):
    """The triples of zero maps that span the null lattice: one entry of
    row r set to the period of coordinate r."""
    for idx, size, periods in lay.slots:
        for r in range(size):
            if periods[r] is not None:
                for c in range(size):
                    vec = [0] * lay.total
                    vec[idx(r, c)] = periods[r]
                    yield vec


def _unit_triple(lay: _Layout) -> List[int]:
    vec = [0] * lay.total
    for idx, size, _ in lay.slots:
        for r in range(size):
            vec[idx(r, r)] = 1
    return vec


class ScalarRing(InvariantFactors):
    """The ring of scalar triples of a pairing, with exact coordinates.

    `s_basis` is the Hermite basis of the lattice of triples, so equal
    lattices give equal rings.  Additive structure: the InvariantFactors
    of the solution lattice modulo null triples, with each free basis
    vector oriented so that its first nonzero entry is positive.
    Multiplication is composition, tabulated on the additive basis; each
    cell holds the exact coordinates of a product, and composition is
    associative and keeps null triples null on triples of well-defined
    maps: the table is associative.
    """

    def __init__(self, pairing: Pairing, s_basis: Sequence[Sequence[int]]):
        """Check s_basis, then build.  Each triple must meet every
        congruence of _base_system: be made of well-defined maps (the
        system's first rows) and satisfy the pairing identities; the null
        triples and the unit must lie in the lattice, and so must the
        product of any two triples.  Raises ScalarRingError otherwise."""
        s_basis = tuple(tuple(r) for r in s_basis)
        leads = echelon_leads(s_basis)
        lay, rows = _base_system(pairing)
        maps = sum(n * sum(e is not None for e in periods)
                   for _, n, periods in lay.slots)
        for h in s_basis:
            for k, (row, mod) in enumerate(rows):
                v = sum(c * h[i] for i, c in row.items())
                if v % mod if mod else v:
                    raise ScalarRingError(
                        "basis holds a map that is not well defined"
                        if k < maps else
                        "basis violates the pairing identities")

        def escapes(vecs) -> bool:
            return any(solve_lattice(s_basis, v, leads) is None for v in vecs)

        if escapes(_null_triples(lay)):
            raise ScalarRingError("null triple escapes the solution lattice")
        if escapes([_unit_triple(lay)]):
            raise ScalarRingError("unit escapes the solution lattice")
        if escapes(_compose(lay, g, h) for g in s_basis for h in s_basis):
            raise ScalarRingError("product of scalars escapes the ring")
        self._assemble(pairing, s_basis)

    def _assemble(self, pairing: Pairing, s_basis: Sequence[Sequence[int]]):
        """Everything but the checks of __init__."""
        self.pairing = pairing
        self.lay = lay = _Layout(pairing)
        self.s_basis = tuple(tuple(r) for r in s_basis)
        self._leads = echelon_leads(self.s_basis)
        super().__init__([solve_lattice(self.s_basis, v, self._leads)
                          for v in _null_triples(lay)], len(self.s_basis))
        basis_vecs = []
        for k, period in enumerate(self.periods):
            h = vec_mat(self.rows[k], list(self.s_basis))
            if period is None and next((x for x in h if x), 0) < 0:
                self.negate(k)
                h = [-x for x in h]
            basis_vecs.append(h)
        self.basis_vecs = tuple(tuple(h) for h in basis_vecs)

        self.unit = self.coords_vec(_unit_triple(lay))

        self.mult_table = tuple(
            tuple(self.coords_vec(_compose(lay, g, h))
                  for h in self.basis_vecs)
            for g in self.basis_vecs)
        k = len(self.periods)
        self.is_commutative = all(
            self.mult_table[j][l] == self.mult_table[l][j]
            for j in range(k) for l in range(k))

    # -- vector-level helpers

    def coords_vec(self, vec: Sequence[int]) -> Tuple[int, ...]:
        y = solve_lattice(self.s_basis, vec, self._leads)
        if y is None:
            raise ScalarRingError("triple lies outside the ring's lattice")
        return self.coords(y)

    def block_matrices(self, which: str, block: Optional[int] = None):
        """Per additive basis element, the matrix of `which` ("phi1",
        "phi2" or "phi0") on one block of its grading (None for phi1).
        Raises when an element maps into or out of the block."""
        idx, n, o, size, periods = _block_geometry(
            self.pairing, self.lay, which, block)
        inside = range(o, o + size)
        out = []
        for h in self.basis_vecs:
            for r, per in enumerate(periods):
                for c in range(n):
                    v = h[idx(r, c)]
                    if ((r in inside) != (c in inside)
                            and (v if per is None else v % per)):
                        raise ScalarRingError(
                            f"{which} does not respect the grading")
            out.append(tuple(tuple(h[idx(r, c)] for c in inside)
                             for r in inside))
        return tuple(out)

    # -- coordinate-level ring operations

    def mul(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        k = len(self.periods)
        acc = [0] * k
        for j, aj in enumerate(a):
            if not aj:
                continue
            for l, bl in enumerate(b):
                if not bl:
                    continue
                cell = self.mult_table[j][l]
                for i in range(k):
                    acc[i] += aj * bl * cell[i]
        return self.reduce(tuple(acc))


def scalar_ring(pairing: Pairing) -> ScalarRing:
    """The ring of all scalar triples of pairing, built without
    ScalarRing's checks.  Its basis spans the solutions of _base_system,
    so each triple meets that system.  A null triple, whose one nonzero
    entry is the period e_r of its row's coordinate, meets it too: a
    well-definedness row is taken modulo e_r; an identity row reads phi1
    at (r, s) times a cell f(a_r, b_t), which e_r kills by Pairing's order
    check, phi2 at (r, t) likewise, and phi0 at (ell, k) modulo e_ell.  So
    the null triples lie in the lattice.  A product of two scalar triples
    is one, f(phi1 psi1 a, b) = phi0 f(psi1 a, b) = phi0 psi0 f(a, b) and
    likewise on the right, and composed maps are well defined; so the
    products lie in it too."""
    lay, rows = _base_system(pairing)
    ring = ScalarRing.__new__(ScalarRing)
    ring._assemble(pairing, kernel(rows, lay.total))
    return ring


# --------------------------------------------------------------------------
# prime factorization of the zero ideal in a finite scalar ring

# the factorization lists every element of every factor (a 1.6 MB report
# for Z/2^13), so rings above this order are refused before any factoring
PRIMES_ORDER_CAP = 10 ** 4


def _kernel_mod(g: Sequence[Sequence[int]], p: int) -> List[List[int]]:
    """Hermite basis of the lattice {x : x . g == 0 (mod p)}.  It holds
    p Z^n, so each pivot is p or 1, and the rows with pivot 1 are a basis
    of the kernel over F_p."""
    n = len(g)
    rows = [({i: v for i, v in enumerate(col) if v}, p)
            for col in transpose(g)]
    return kernel(rows, n)


def _maximal_ideal_gens(ring: ScalarRing, p: int) -> List[List[List[int]]]:
    """Generators of each maximal ideal over p: p, the nilradical N of
    A = R/pR and 1 - e, for e each primitive idempotent of A.  N is the
    kernel of a Frobenius power and the e split the Berlekamp subalgebra
    {x : x^p == x} = F_p^s; both maps are F_p-linear on A."""
    k = len(ring.periods)
    idx = [i for i, d in enumerate(ring.periods) if d % p == 0]
    n = len(idx)

    def lift(v):
        out = [0] * k
        for i, x in zip(idx, v):
            out[i] = x
        return out

    def mul(a, b):
        c = ring.mul(lift(a), lift(b))
        return [c[i] % p for i in idx]

    def sub(a, b):
        return [(x - y) % p for x, y in zip(a, b)]

    one = [ring.unit[i] % p for i in idx]

    def power(a, e):
        out = one
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    frob = [power(row, p) for row in identity(n)]
    # a nilpotent x has x^(p^t) == 0 once p^t >= dim A
    nil, reach = frob, p
    while reach < n:
        nil = [[x % p for x in row] for row in mat_mul(nil, frob)]
        reach *= p
    fixed = [row for row in _kernel_mod(
        [sub(f, u) for f, u in zip(frob, identity(n))], p)
        if next(x for x in row if x) == 1]
    # on F_p^s, 1 - (b - c)^(p - 1) is the indicator of b == c, so its
    # nonzero products with e over c split e by the values of b
    idems = [one]
    for b in fixed:
        if len(idems) == len(fixed):
            break
        split = []
        for e in idems:
            rest = e
            for c in range(p):
                if not any(rest):
                    break
                f = mul(e, sub(one, power(sub(b, [c * x for x in one]),
                                          p - 1)))
                if any(f):
                    split.append(f)
                    rest = sub(rest, f)
        idems = split
    nil_rows = [lift(row) for row in _kernel_mod(nil, p)]
    return [[[p * x for x in ring.unit], lift(sub(one, e))] + nil_rows
            for e in idems]


def _elements(ring: ScalarRing, rows: Sequence[Sequence[int]]):
    """The ideal with Hermite basis `rows` (which span the period lattice
    too) as a frozenset: sums of c_i rows[i], 0 <= c_i < d_i / rows[i][i]."""
    out = [tuple(0 for _ in ring.periods)]
    for i, row in enumerate(rows):
        out = [ring.reduce([x + c * y for x, y in zip(v, row)])
               for v in out for c in range(ring.periods[i] // row[i])]
    return frozenset(out)


def prime_decomposition_zero(ring: ScalarRing):
    """Shortest factorization of the zero ideal of a finite commutative
    ring as a product of prime ideals, each a frozenset of coordinate
    tuples: the primes sorted by (size, sorted elements), each M repeated
    t(M) times.

    The primes are the maximal ideals M, and the zero ideal is the product
    of the M^t(M), t(M) the first t with M^t == M^(t+1) (Atiyah-Macdonald,
    ch. 8); every shortest factorization uses exactly these factors.  An
    ideal is a lattice between Z^k and the period lattice in Hermite normal
    form, so ideals and their products are spans of products of additive
    generators; elements are listed only for the result.  Rings of order
    above PRIMES_ORDER_CAP are refused before any factoring.
    """
    order = ring.order()
    if order is None:
        raise ScalarRingError("only finite rings can be factored")
    if not ring.is_commutative:
        raise ScalarRingError("only commutative rings can be factored")
    if order > PRIMES_ORDER_CAP:
        raise ScalarRingError(
            f"ring of order {order} is above the factoring bound "
            f"{PRIMES_ORDER_CAP}")
    k = len(ring.periods)
    eye = identity(k)
    rel = [[d * x for x in row] for d, row in zip(ring.periods, eye)]

    def span(xs, ys):
        # the ideal spanned by the products: R . gens is span(eye, gens),
        # and I J is span(I, J) on additive generators of I and J
        return hnf_basis([ring.mul(x, y) for x in xs for y in ys] + rel, k)

    maximal = []
    rest, q = order, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            maximal.extend(span(eye, g) for g in _maximal_ideal_gens(ring, q))
            while rest % q == 0:
                rest //= q
        q += 1
    if not maximal:
        raise ScalarRingError("zero ideal is not a product of prime ideals")
    listed = sorted(((_elements(ring, m), m) for m in maximal),
                    key=lambda pair: (len(pair[0]), sorted(pair[0])))
    factors = []
    for elements, m in listed:
        cur, nxt = None, m
        while nxt != cur:
            factors.append(elements)
            cur, nxt = nxt, span(nxt, m)
    return factors


# --------------------------------------------------------------------------
# pairings out of group data


def pairing_of(b) -> Pairing:
    """Flatten a graded commutator bilinearization into one Pairing.

    The left section becomes A; the graded side sections concatenate into
    B and C with their block structure recorded.  Table cells of block i
    land in the coordinates of C-block i and vanish elsewhere.
    """
    periods_a = b.left.periods
    periods_b: List[Period] = []
    periods_c: List[Period] = []
    b_blocks = []
    c_blocks = []
    for sec in b.right:
        periods_b.extend(sec.periods)
        b_blocks.append(len(sec.periods))
    for sec in b.out:
        periods_c.extend(sec.periods)
        c_blocks.append(len(sec.periods))
    nc = len(periods_c)
    coffs = _offsets(c_blocks)

    na = len(periods_a)
    table = []
    for s in range(na):
        row = []
        for i, sec in enumerate(b.right):
            for t in range(len(sec.periods)):
                cell = [0] * nc
                local = b.tables[i][s][t]
                for kk, v in enumerate(local):
                    cell[coffs[i] + kk] = v
                row.append(tuple(cell))
        table.append(tuple(row))
    return Pairing(tuple(periods_a), tuple(periods_b), tuple(periods_c),
                   tuple(table), tuple(b_blocks), tuple(c_blocks))
