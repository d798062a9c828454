"""Reference implementations used only by the test suite.

Everything in here is deliberately written with a different algorithm than
the package itself (classical textbook forms, brute-force enumeration, or an
explicit matrix model), so agreement between the two is meaningful evidence.
"""

import argparse
from collections import deque, namedtuple
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import factorial, gcd, isqrt
from typing import Optional, Tuple

from nilpc import intlinalg as la
from nilpc import presentation as pc
from nilpc import scalars as sc
from nilpc import subgroups as sg
from nilpc.cli import _parse_c, _parse_d
from nilpc.abelian import FgAbelian
from nilpc.deformation import (
    DeformationSurvey, ExtClass, _check_diagonal, presentation_on)
from nilpc.intlinalg import InvariantFactors, hnf_basis
from nilpc.series import key_subgroups


# ---------------------------------------------------------------------------
# echelon forms


def ref_hermite(rows):
    """Hermite form by plain repeated elementary row operations.

    No transform tracking, no cleverness: scan columns left to right, gcd out
    a pivot by repeated subtraction, normalize signs, reduce upwards.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    top = 0
    for c in range(ncols):
        live = [i for i in range(top, len(m)) if m[i][c] != 0]
        if not live:
            continue
        while True:
            live = [i for i in range(top, len(m)) if m[i][c] != 0]
            if len(live) == 1:
                break
            live.sort(key=lambda i: abs(m[i][c]))
            a, b = live[0], live[1]
            q = m[b][c] // m[a][c]
            m[b] = [x - q * y for x, y in zip(m[b], m[a])]
        i = live[0]
        m[top], m[i] = m[i], m[top]
        if m[top][c] < 0:
            m[top] = [-x for x in m[top]]
        for i in range(top):
            q = m[i][c] // m[top][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
        top += 1
    return m


def hnf(a):
    """Row Hermite normal form with its transform, for the references below.

    Returns (h, u) with u * a == h and u unimodular. h is in upper echelon
    shape: pivots positive, strictly increasing pivot columns, entries above
    each pivot reduced into [0, pivot), zero rows at the bottom.  u is the
    identity block that the row operations carry along.  Unlike the rest of
    this file it eliminates with the package's own intlinalg._hermite, read
    through the module, so a test that spies on that elimination sees this
    matrix too; ref_hermite is its independent check.
    """
    ncols = len(a[0]) if a else 0
    m = [list(r) + e for r, e in zip(a, la.identity(len(a)))]
    la._hermite(m, ncols)
    return [r[:ncols] for r in m], [r[ncols:] for r in m]


def ref_smith_diagonal(rows):
    """Diagonal of the Smith form, computed via gcds of minors.

    d_1 * ... * d_k equals the gcd of all k x k minors, a characterization
    independent of any elimination order.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    n = min(nr, nc)
    from math import gcd

    def minors_gcd(k):
        g = 0
        for rsel in _subsets(range(nr), k):
            for csel in _subsets(range(nc), k):
                sub = [[m[i][j] for j in csel] for i in rsel]
                g = gcd(g, ref_det(sub))
        return g

    prev = 1
    out = []
    for k in range(1, n + 1):
        g = minors_gcd(k)
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def _subsets(seq, k):
    from itertools import combinations

    return combinations(seq, k)


def ref_det(m):
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * ref_det(minor)
    return total


# ---------------------------------------------------------------------------
# congruence systems


def exhaustive_solutions(rows, rhs, moduli, n, box):
    """All x in [-box, box]^n with rows[r] . x == rhs[r] (mod moduli[r]).

    Modulus 0 means equality over the integers.
    """
    sols = []
    for x in product(range(-box, box + 1), repeat=n):
        ok = True
        for row, b, md in zip(rows, rhs, moduli):
            v = sum(a * xi for a, xi in zip(row, x)) - b
            if md == 0:
                if v != 0:
                    ok = False
                    break
            elif v % md != 0:
                ok = False
                break
        if ok:
            sols.append(tuple(x))
    return sols


def satisfies(rows, rhs, moduli, x):
    for row, b, md in zip(rows, rhs, moduli):
        v = sum(a * xi for a, xi in zip(row, x)) - b
        if md == 0:
            if v != 0:
                return False
        elif v % md != 0:
            return False
    return True


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of a congruence system.

    `particular` is one solution; `basis` spans the homogeneous solutions
    (as a spanning set, not necessarily independent). Both are projections
    onto the original unknowns, auxiliary modulus variables stripped.
    """

    consistent: bool
    particular: Optional[Tuple[int, ...]]
    basis: Tuple[Tuple[int, ...], ...]


def ref_solve_congruences(rows, rhs, moduli, n_unknowns):
    """Solve rows[r] . x == rhs[r] (mod moduli[r]) for x in Z^n_unknowns
    by one dense HNF with its transform, the package's solver before
    intlinalg.kernel.

    Modulus 0 means equality over Z. Finite moduli are handled by one
    auxiliary integer unknown per congruence; the returned solutions are
    projected back onto the first n_unknowns coordinates.  Its hnf
    eliminates through intlinalg's _hermite, so a test that spies on that
    elimination sees this solver's matrix too.
    """
    neq = len(rows)
    if len(rhs) != neq or len(moduli) != neq:
        raise ValueError("rows, rhs, moduli must have equal length")
    for r in rows:
        if len(r) != n_unknowns:
            raise ValueError("equation width disagrees with n_unknowns")
    aux = [r for r in range(neq) if moduli[r] != 0]
    ntot = n_unknowns + len(aux)
    # columns of the transposed system: one per equation
    cols = []
    for r in range(neq):
        col = list(rows[r]) + [0] * len(aux)
        if moduli[r] != 0:
            col[n_unknowns + aux.index(r)] = moduli[r]
        cols.append(col)
    # solve z . A == rhs where A has shape (ntot, neq)
    a = la.transpose(cols) if cols else [[] for _ in range(ntot)]
    h, u = hnf(a)
    w = [0] * ntot
    residual = list(rhs)
    for k, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            continue
        if residual[nz] % row[nz]:
            return SolutionSet(False, None, ())
        q = residual[nz] // row[nz]
        w[k] = q
        if q:
            for j in range(neq):
                residual[j] -= q * row[j]
    if any(residual):
        return SolutionSet(False, None, ())
    z0 = la.vec_mat(w, u)
    kernel = [u[i] for i in range(ntot) if not any(h[i])]
    particular = tuple(z0[:n_unknowns])
    basis = tuple(tuple(k[:n_unknowns]) for k in kernel)
    return SolutionSet(True, particular, basis)


# ---------------------------------------------------------------------------
# element arithmetic by word collection
#
# The package computes commutators and conjugates as left quotients (see
# presentation.py). These collect the defining words from the identity
# instead.


def ref_commutator(p, x, y):
    """[x, y]: the word x^-1 y^-1 x y collected from the identity."""
    return pc.normal_form(p, pc._inverse_word(p, x) + pc._inverse_word(p, y)
                          + pc.word_of(p, x) + pc.word_of(p, y))


def ref_conjugate(p, x, g):
    """g^-1 x g: the word collected from the identity."""
    return pc.normal_form(
        p, pc._inverse_word(p, g) + pc.word_of(p, x) + pc.word_of(p, g))


def ref_power(p, x, n):
    """x^n as |n| public products by x, or by x^-1 when n < 0. For large
    |n| use the matrix and Magnus models below."""
    step = x if n >= 0 else pc.inverse(p, x)
    acc = pc.identity_element(p)
    for _ in range(abs(n)):
        acc = pc.multiply(p, acc, step)
    return acc


# ---------------------------------------------------------------------------
# 3x3 unitriangular matrix model of the discrete Heisenberg group
#
# coords (x, y, z)  <->  [[1, x, x*y + z], [0, 1, y], [0, 0, 1]]
# checked against the fixture convention [u2, u1] = u3^-1.


def heis_matrix(x, y, z):
    return ((1, x, x * y + z), (0, 1, y), (0, 0, 1))


def heis_mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def heis_mat_pow(a, n):
    if n < 0:
        return heis_mat_pow(heis_mat_inv(a), -n)
    r = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    while n:
        if n & 1:
            r = heis_mat_mul(r, a)
        a = heis_mat_mul(a, a)
        n >>= 1
    return r


def heis_mat_inv(a):
    x, y = a[0][1], a[1][2]
    w = a[0][2]
    # (I + N)^-1 for strictly upper triangular N
    return ((1, -x, x * y - w), (0, 1, -y), (0, 0, 1))


def heis_coords(mat):
    x = mat[0][1]
    y = mat[1][2]
    z = mat[0][2] - x * y
    return (x, y, z)


# ---------------------------------------------------------------------------
# unitriangular integer matrices
#
# A presentation whose generators are elementary matrices I + E_ij, listed as
# letters (i, j), maps coordinates (t_1, ..., t_m) to the ordered product of
# the (I + E_ij)^t = I + t E_ij. The map is faithful for UT_n and H_n, so
# products, powers and commutators can be compared as matrices.


def ut_identity(size):
    return tuple(tuple(int(r == c) for c in range(size)) for r in range(size))


def ut_of(size, letters, coords):
    out = ut_identity(size)
    for (i, j), t in zip(letters, coords):
        if t:
            step = [list(r) for r in ut_identity(size)]
            step[i - 1][j - 1] = t
            out = ut_mat_mul(out, step)
    return out


def ut_mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def ut_mat_inv(a):
    """Back substitution for the inverse of a unitriangular matrix."""
    n = len(a)
    inv = [[int(r == c) for c in range(n)] for r in range(n)]
    for c in range(n):
        for r in range(c - 1, -1, -1):
            inv[r][c] = -sum(a[r][k] * inv[k][c] for k in range(r + 1, c + 1))
    return tuple(tuple(r) for r in inv)


def ut_mat_pow(a, n):
    if n < 0:
        return ut_mat_pow(ut_mat_inv(a), -n)
    r = ut_identity(len(a))
    while n:
        if n & 1:
            r = ut_mat_mul(r, a)
        a = ut_mat_mul(a, a)
        n >>= 1
    return r


def ut_mat_pow_series(a, n):
    """a^n as the finite binomial series sum_k binom(n, k) (a - I)^k, for
    any integer n: a - I is nilpotent. Cheaper than ut_mat_pow at huge n."""
    size = len(a)
    eye = ut_identity(size)
    nil = tuple(tuple(x - y for x, y in zip(ra, re)) for ra, re in zip(a, eye))
    out = [list(r) for r in eye]
    term, c = eye, 1
    for k in range(1, size):
        c = c * (n - k + 1) // k
        term = ut_mat_mul(term, nil)
        for r in range(size):
            for col in range(size):
                out[r][col] += c * term[r][col]
    return tuple(tuple(r) for r in out)


def ut_mat_comm(a, b):
    """[a, b] = a^-1 b^-1 a b."""
    return ut_mat_mul(
        ut_mat_mul(ut_mat_inv(a), ut_mat_inv(b)), ut_mat_mul(a, b))


# ---------------------------------------------------------------------------
# truncated Magnus model of F23
#
# u1 -> 1 + X and u2 -> 1 + Y in Z<<X, Y>> modulo words of length 4, with
# u3 = [u2, u1], u4 = [u3, u1] and u5 = [u3, u2] computed in the ring. By
# Magnus' theorem the kernel on the free group is its fourth lower central
# term, so the map is faithful on the free class-3 group F23. An element is
# a dict from words over {0, 1} to nonzero coefficients.

MAGNUS_DEPTH = 3


def magnus_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= MAGNUS_DEPTH:
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def magnus_inv(a):
    """(1 + N)^-1 = 1 - N + N^2 - N^3, N of positive degree."""
    neg = {w: -c for w, c in a.items() if w}
    out, term = {(): 1}, {(): 1}
    for _ in range(MAGNUS_DEPTH):
        term = magnus_mul(term, neg)
        for w, c in term.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def magnus_pow(a, n):
    if n < 0:
        return magnus_pow(magnus_inv(a), -n)
    r = {(): 1}
    while n:
        if n & 1:
            r = magnus_mul(r, a)
        a = magnus_mul(a, a)
        n >>= 1
    return r


def magnus_comm(a, b):
    return magnus_mul(magnus_mul(magnus_inv(a), magnus_inv(b)),
                      magnus_mul(a, b))


def f23_magnus_gens():
    x, y = {(): 1, (0,): 1}, {(): 1, (1,): 1}
    u3 = magnus_comm(y, x)
    return (x, y, u3, magnus_comm(u3, x), magnus_comm(u3, y))


def magnus_of(gens, coords):
    out = {(): 1}
    for g, t in zip(gens, coords):
        if t:
            out = magnus_mul(out, magnus_pow(g, t))
    return out


# ---------------------------------------------------------------------------
# small pairing fixtures for scalar-ring checks
#
# Each oracle enumerates the first endomorphism matrix over a box, derives
# the other two from the pairing identities, and filters; no echelon code is
# shared with the package.


def symplectic_solutions(box=2):
    """Scalar triples for the standard symplectic form on Z^2.

    f(e1,e2) = 1, f(e2,e1) = -1, f(e1,e1) = f(e2,e2) = 0, values in Z.
    Returns triples (phi1, phi2, phi0) as (2x2, 2x2, 1x1) rows, with all
    phi1 entries in [-box, box].
    """

    def f(u, v):
        return u[0] * v[1] - u[1] * v[0]

    e = [(1, 0), (0, 1)]
    out = []
    for a, b, c, d in product(range(-box, box + 1), repeat=4):
        phi1 = ((a, b), (c, d))

        def ap1(v):
            return (a * v[0] + b * v[1], c * v[0] + d * v[1])

        phi0 = f(ap1(e[0]), e[1])  # forced by the (e1, e2) pairing
        if any(f(ap1(x), y) != phi0 * f(x, y) for x in e for y in e):
            continue
        # phi2 column j is forced: f(e1, w) = w[1], f(e2, w) = -w[0]
        cols = []
        for j in range(2):
            w1 = -phi0 * f(e[1], e[j])
            w2 = phi0 * f(e[0], e[j])
            cols.append((w1, w2))
        phi2 = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))

        def ap2(v):
            return (
                phi2[0][0] * v[0] + phi2[0][1] * v[1],
                phi2[1][0] * v[0] + phi2[1][1] * v[1],
            )

        if any(f(x, ap2(y)) != phi0 * f(x, y) for x in e for y in e):
            continue
        out.append((phi1, phi2, ((phi0,),)))
    return out


def gaussian_solutions(box=2):
    """Scalar triples for complex multiplication on Z^2 = Z[i].

    f((a,b),(c,d)) = (ac - bd, ad + bc), values in Z^2.
    """

    def f(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    e = [(1, 0), (0, 1)]
    out = []
    for a, b, c, d in product(range(-box, box + 1), repeat=4):
        phi1 = ((a, b), (c, d))

        def ap1(v):
            return (a * v[0] + b * v[1], c * v[0] + d * v[1])

        # f(x, e1) = x, so phi0 = phi1 on the slice f(-, e1)
        col1 = f(ap1(e[0]), e[0])
        col2 = f(ap1(e[0]), e[1])
        phi0 = ((col1[0], col2[0]), (col1[1], col2[1]))

        def ap0(v):
            return (
                phi0[0][0] * v[0] + phi0[0][1] * v[1],
                phi0[1][0] * v[0] + phi0[1][1] * v[1],
            )

        if any(f(ap1(x), y) != ap0(f(x, y)) for x in e for y in e):
            continue
        # f(e1, w) = w forces phi2 = phi0 on that slice
        phi2 = phi0
        if any(f(x, ap0(y)) != ap0(f(x, y)) for x in e for y in e):
            continue
        out.append((phi1, phi2, phi0))
    return out


def zmod_mult_solutions(n):
    """Scalar triples for multiplication Z/n x Z/n -> Z/n, as residues."""
    out = []
    for x1, x2, x0 in product(range(n), repeat=3):
        if (x1 - x0) % n == 0 and (x2 - x0) % n == 0:
            out.append((x1, x2, x0))
    return out


# ---------------------------------------------------------------------------
# subgroups
#
# These build on the package's collection and induced rows, but not on the
# shortcuts under test: normality by conjugating with u_i and u_i^-1, the
# normal closure by adding such conjugates until none lies outside, and the
# constrained subgroup by projecting into an explicit quotient per layer.


def two_sided_is_normal(p, s):
    """s^g <= s for g = u_i and g = u_i^-1, every ambient generator u_i."""
    for r in s.rows:
        for i in range(1, p.m + 1):
            g = pc.generator(p, i)
            for h in (g, pc.inverse(p, g)):
                if not s.contains(ref_conjugate(p, r, h)):
                    return False
    return True


def ref_normal_closure(p, gens):
    """Add a two-sided conjugate of a row while one lies outside."""
    ambient = [pc.generator(p, i) for i in range(1, p.m + 1)]
    ambient += [pc.inverse(p, g) for g in ambient]
    s = sg.induce(p, gens)
    while True:
        outside = [x for x in (ref_conjugate(p, r, g)
                               for r in s.rows for g in ambient)
                   if not s.contains(x)]
        if not outside:
            return s
        s = sg.induce(p, list(s.rows) + outside)


def ref_constrained_subgroup(p, s, conditions):
    """constrained_subgroup by a quotient per layer and condition: each
    layer value is the projection of [r, h] into G / L*K_{j+1}."""
    t = s
    for j in range(1, p.m + 1):
        if t.is_trivial:
            break
        eq_rows, moduli = [], []
        for hs, ell in conditions:
            gens = list(ell.rows) + [
                pc.generator(p, i) for i in range(j + 1, p.m + 1)]
            lk_next = sg.induce(p, gens)
            row_j = lk_next.row_at(j)
            o_j = row_j[j - 1] if row_j is not None else p.period(j)
            if o_j == 1:
                continue
            qm = ref_quotient(p, lk_next)
            pos = {amb: k for k, amb in enumerate(qm.kept)}
            for h in hs:
                vals = []
                for r in t.rows:
                    c = qm.proj(ref_commutator(p, r, h))
                    assert all(not c[k] for amb, k in pos.items() if amb < j)
                    vals.append(c[pos[j]])
                if any(vals):
                    eq_rows.append(vals)
                    moduli.append(0 if o_j is None else o_j)
        if not eq_rows:
            continue
        sol = ref_solve_congruences(eq_rows, [0] * len(eq_rows), moduli,
                                    len(t.rows))
        assert sol.consistent
        t = sg.induce(p, [sg.prod_rows(p, t.rows, v) for v in sol.basis])
    return t


# ---------------------------------------------------------------------------
# quotients, sections and isolators
#
# The package reads a section a/b and the isolators in G itself, with
# coset representatives. These build G/n as a presentation of its own and
# read sections and torsion there: projection, induced rows and the center
# are then computed in a different group.


class RefQuotient:
    """G/n as a presentation on the generators u_j that n does not cover,
    with proj to canonical quotient coordinates and lift back to G."""

    def __init__(self, ambient, n):
        if not two_sided_is_normal(ambient, n):
            raise sg.SubgroupError(
                f"{ambient.name}: quotient by a non-normal subgroup")
        self.ambient = ambient
        self.n = n
        # relative period of each kept u_j modulo n; n holds the others
        self._period = {}
        for j in range(1, ambient.m + 1):
            row = n.row_at(j)
            e = row[j - 1] if row is not None else ambient.period(j)
            if e != 1:
                self._period[j] = e
        self.kept = tuple(self._period)
        self._gens = tuple(pc.generator(ambient, j) for j in self.kept)
        self.pres = presentation_on(
            ambient, f"{ambient.name}/N", self._gens,
            list(self._period.values()), self.proj)

    def proj(self, x):
        """Strip coordinate j of x by u_j^tau, the quotient coordinate, and
        the rest by a power of n's row at j, for j = 1, 2, ..."""
        p = self.ambient
        y = x
        out = []
        for j in range(1, p.m + 1):
            a = y[j - 1]
            pb = self._period.get(j, 1)  # 1: n's row at j has lead 1
            tau = a if pb is None else a % pb
            if tau:
                y = pc.multiply(p, pc.power(p, pc.generator(p, j), -tau), y)
            if a != tau:
                y = pc.multiply(
                    p, pc.power(p, self.n.row_at(j), (tau - a) // pb), y)
            if j in self._period:
                out.append(tau)
            assert y[j - 1] == 0
        return tuple(out)

    def lift(self, q):
        return sg.prod_rows(self.ambient, self._gens, q)


ref_quotient = RefQuotient


def ref_coefficients(p, rows, x):
    """Exponents a with x == rows[0]^a0 * rows[1]^a1 * ..., or None, for
    canonical rows in ascending lead: walk the rows in order, and divide
    each one out of x by the public collector, which keeps no table."""
    out = []
    for r in rows:
        lam = next(j for j, c in enumerate(r) if c)
        q, rem = divmod(x[lam], r[lam])
        if any(x[:lam]) or rem:
            return None
        out.append(q)
        x = pc.multiply(p, pc.power(p, r, -q), x)
    return None if any(x) else out


def ref_power_relations(s):
    """o*e_k minus the coefficients of r^o, for each row r = s.rows[k] of
    finite relative order o = e/lead: the relation lattice of the rows of
    an abelian s."""
    p, rel = s.pres, []
    for k, r in enumerate(s.rows):
        lam = next(j for j, c in enumerate(r) if c)
        e = p.periods[lam]
        if e is None:
            continue
        o = e // r[lam]
        coeffs = ref_coefficients(p, s.rows, pc.power(p, r, o))
        assert coeffs is not None
        vec = [-c for c in coeffs]
        vec[k] += o
        rel.append(vec)
    return rel


class RefSection(InvariantFactors):
    """The section a/b read in G/b, which must be a presentation: induced
    rows of the projected a, their power relations, and the sign rule at
    the infinite generators of G/b."""

    def __init__(self, p, a, b):
        qm = ref_quotient(p, b)
        qp = qm.pres
        self.qm = qm
        self.arows = sg.induce(qp, [qm.proj(r) for r in a.rows])
        super().__init__(ref_power_relations(self.arows),
                         len(self.arows.rows))
        basis = []
        for k, row in enumerate(self.rows):
            h = sg.prod_rows(qp, self.arows.rows, row)
            lead = next((c for idx, c in enumerate(h)
                         if c and qp.period(idx + 1) is None), 0)
            if lead < 0:
                self.negate(k)
                h = pc.inverse(qp, h)
            basis.append(qm.lift(h))
        self.basis = tuple(basis)

    def coords(self, x):
        coeffs = ref_coefficients(self.qm.pres, self.arows.rows,
                                  self.qm.proj(x))
        assert coeffs is not None
        return super().coords(coeffs)


ref_section = RefSection


def ref_torsion(p):
    """The torsion tz of the center, then the torsion of G/tz lifted back."""
    z = sg.center(p)
    f = InvariantFactors(ref_power_relations(z), len(z.rows))
    tz = sg.induce(p, [sg.prod_rows(p, z.rows, row)
                       for row, d in zip(f.rows, f.periods) if d is not None])
    return tz if tz.is_trivial else ref_isolator(p, tz)


def ref_isolator(p, n):
    """The torsion of G/n, found in the presentation G/n, lifted to G."""
    qm = ref_quotient(p, n)
    tq = ref_torsion(qm.pres)
    return sg.induce(p, list(n.rows) + [qm.lift(r) for r in tq.rows])


# ---------------------------------------------------------------------------
# adapted bases
#
# The package reads each adapted coordinate off the sections G/M, M/N and
# N/Is(G') that key_subgroups built, and its free segment off one HNF over
# the center's rows. The oracle builds Is(G'), N and M itself, M as the
# isolator of G'Z where the package reads Is(N), and peels one basis
# element at a time: its exponent solves a congruence system over
# coordinates of G/G' read in the quotient presentation, modulo every later
# basis element. It lifts each basis element of N/Is(G') into the center
# by a congruence system of its own, and the presentation is assembled
# here rather than by deformation.presentation_on.


def ref_central_lift(p, abel, z, b):
    """The element prod z_j^w_j of the center's rows z_j congruent to b
    modulo Is(G'), w reduced modulo the Hermite basis of the w with a
    product in Is(G'): where the free coordinates in abel = G/G' agree, as
    Is(G')/G' is the torsion of G/G'."""
    free = [r for r, d in enumerate(abel.periods) if d is None]
    cz = [abel.coords(r) for r in z]
    rows = [[c[r] for c in cz] for r in free]
    sol = ref_solve_congruences(rows, [abel.coords(b)[r] for r in free],
                                [0] * len(free), len(z))
    assert sol.consistent
    w = list(sol.particular)
    for row in ref_hermite(sol.basis):
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            q = w[lead] // row[lead]
            w = [x - q * y for x, y in zip(w, row)]
    out = pc.identity_element(p)
    for r, e in zip(z, w):
        out = pc.multiply(p, out, pc.power(p, r, e))
    return out


def assert_section_basis(sec, ref):
    """sec has ref's periods, and its basis has the unit vectors as
    coordinates in both."""
    assert sec.periods == ref.periods
    for k, x in enumerate(sec.basis):
        unit = tuple(int(j == k) for j in range(len(sec.periods)))
        assert sec.coords(x) == ref.coords(x) == unit


def times_z(p):
    """G x Z: p with one more generator t, of infinite period and in no
    tail."""
    return pc.PcPresentation(f"{p.name} x Z", p.periods + (None,),
                             p.powers, p.commutators)


def ref_adapted_presentation(p):
    """(pres, new_in_old, old_in_new) on the adapted basis of p.  The
    package's sections keep their bases, on which the bytes depend, once
    assert_section_basis has checked them."""
    ks = key_subgroups(p)
    whole, der, z = ks.lower_central[0], ks.derived, ks.center
    tail = ref_isolator(p, der)
    n_sub = sg.induce(p, list(tail.rows) + list(z.rows))
    m_sub = ref_isolator(p, sg.induce(p, list(der.rows) + list(z.rows)))
    assert (ks.derived_isolator, ks.n_sub, ks.m_sub) == (tail, n_sub, m_sub)
    abel = RefSection(p, whole, der)
    seg2 = ks.mn
    assert_section_basis(seg2, RefSection(p, m_sub, n_sub))
    assert_section_basis(ks.abelianized, abel)
    seg1 = FgAbelian(p, whole, m_sub)
    seg3 = [ref_central_lift(p, abel, z.rows, b) for b in ks.n_is.basis]
    assert all(d is None for d in seg1.periods)
    i0 = len(seg1.periods)
    i1 = i0 + len(seg2.periods)
    i2 = i1 + len(seg3)
    nontail = list(seg1.basis) + list(seg2.basis) + seg3
    mseq = nontail + list(tail.rows)
    moduli = [0 if d is None else d for d in abel.periods]
    ab_nontail = [abel.coords(x) for x in nontail]
    ab_tail = [abel.coords(r) for r in tail.rows]

    def peel(w, idx):
        # exponent of nontail[idx] in w, modulo everything after it
        lat = ab_nontail[idx + 1:] + ab_tail
        rows = [[ab_nontail[idx][r]] + [v[r] for v in lat]
                for r in range(len(moduli))]
        sol = ref_solve_congruences(rows, list(abel.coords(w)), moduli,
                                    1 + len(lat))
        assert sol.consistent
        return sol.particular[0]

    def expr(w, level):
        # exponent vector of w over mseq, given w lies in layer `level`
        vec = [0] * len(mseq)
        x = w
        for idx in range(level - 1, i2):
            a = peel(x, idx)
            if i0 <= idx < i1:
                a %= seg2.periods[idx - i0]
            if a:
                vec[idx] = a
                x = pc.multiply(p, pc.power(p, nontail[idx], -a), x)
        coeffs = ref_coefficients(p, tail.rows, x)
        assert coeffs is not None
        for jpos, c in enumerate(coeffs):
            assert not c or i2 + jpos + 1 >= level
            vec[i2 + jpos] = c
        return tuple(vec)

    def word(x, level):
        return tuple((k + 1, c) for k, c in enumerate(expr(x, level)) if c)

    periods = ([None] * i0 + list(seg2.periods) + [None] * (i2 - i1)
               + list(tail.relative_orders()))
    powers, commutators = [], []
    for i, (g, e) in enumerate(zip(mseq, periods), start=1):
        if e is not None and any(pc.power(p, g, e)):
            powers.append((i, word(pc.power(p, g, e), i + 1)))
    for j in range(2, len(mseq) + 1):
        for i in range(1, j):
            c = pc.commutator(p, mseq[j - 1], mseq[i - 1])
            if any(c):
                commutators.append(((j, i), word(c, j + 1)))
    pres = pc.PcPresentation(
        name=f"{p.name} adapted", periods=tuple(periods),
        powers=tuple(powers), commutators=tuple(commutators))
    old_in_new = tuple(expr(pc.generator(p, i), 1) for i in range(1, p.m + 1))
    return pres, tuple(mseq), old_in_new


def ref_enumerate_deformations(a, cap=10 ** 6):
    """The deformation survey by walking every (d, c): d over the units of
    [1, e] in lexicographic order, then c over the signed permutations,
    permutations in order and signs with 1 before -1, keeping the first
    (d, c) of each class; the classes sorted by components.  None when
    the walk would take more than cap cases, |units|^n n! 2^n of them."""
    per_d = factorial(a.n) * 2 ** a.n
    if isqrt(a.e // 2) ** a.n * per_d > cap:
        return None
    units = []
    for u in range(1, a.e + 1):
        if gcd(u, a.e) == 1:
            units.append(u)
            if len(units) ** a.n * per_d > cap:
                return None
    _check_diagonal(a)
    moduli = tuple(a.pres.periods[a.i0:a.i1])
    signed = [tuple(tuple(signs[t] if k == perm[t] else 0
                          for k in range(a.n)) for t in range(a.n))
              for perm in permutations(range(a.n))
              for signs in product((1, -1), repeat=a.n)]
    found = {}
    for d in product(units, repeat=a.n):
        for c in signed:
            cls = ExtClass(moduli, tuple(
                tuple((d[k] * c[t][k]) % m if k < a.n else 0
                      for k in range(a.p))
                for t, m in enumerate(moduli)))
            found.setdefault(cls, (d, c))
    classes = tuple(sorted(found, key=lambda cl: cl.components))
    return DeformationSurvey(
        bound=a.e ** a.p, classes=classes,
        representatives=tuple((cl,) + found[cl] for cl in classes))


# ---------------------------------------------------------------------------
# consistency and the torsion-free cover
#
# The package proves a presentation layer by layer, collecting each layer's
# overlaps with the tables of the layers above it, and certifies the cover
# the same way. The reference collects every overlap of every layer in the
# whole group by rewriting alone and derives no tables; the cover oracle
# asks it about each periods-dropped subpresentation.


def ref_consistency_check(p):
    """Collect the standard overlap pairs both ways, by rewriting alone,
    and compare.

    Checked overlaps: u_k(u_j u_i) vs (u_k u_j)u_i for k > j > i;
    u_j^{e_j} u_i against the power tail for finite e_j; u_j u_i^{e_i}
    likewise for finite e_i; and u_i^{e_i + 1} both ways. Each is the
    layer-i relation of the same name in consistency_check, so both passes
    reject the same presentations. Overlaps of layers below the highest
    failing one are collected in a group already known to be
    inconsistent, so their sides depend on the collection strategy.
    """
    failures = []
    m = p.m

    def nf(word):
        return pc._normal_form(p, word, None)

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(j + 1, m + 1):
                a = nf(((j, 1), (i, 1)))
                lhs = nf(((k, 1),) + pc.word_of(p, a))
                b = nf(((k, 1), (j, 1)))
                rhs = nf(pc.word_of(p, b) + ((i, 1),))
                if lhs != rhs:
                    failures.append(
                        pc.ConsistencyFailure("triple", j, i, k, lhs, rhs)
                    )
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            ej = p.period(j)
            if ej is not None:
                lhs = nf(p.power_tail(j) + ((i, 1),))
                a = nf(((j, 1), (i, 1)))
                rhs = nf(((j, ej - 1),) + pc.word_of(p, a))
                if lhs != rhs:
                    failures.append(pc.ConsistencyFailure(
                        "power-gen", j, i, None, lhs, rhs))
            ei = p.period(i)
            if ei is not None:
                lhs = nf(((j, 1),) + p.power_tail(i))
                a = nf(((j, 1), (i, 1)))
                rhs = nf(pc.word_of(p, a) + ((i, ei - 1),))
                if lhs != rhs:
                    failures.append(pc.ConsistencyFailure(
                        "gen-power", j, i, None, lhs, rhs))
    for i in range(1, m + 1):
        ei = p.period(i)
        if ei is not None:
            lhs = nf(((i, 1),) + p.power_tail(i))
            rhs = nf(p.power_tail(i) + ((i, 1),))
            if lhs != rhs:
                failures.append(
                    pc.ConsistencyFailure("power-power", i, i, None, lhs, rhs)
                )
    return pc.ConsistencyReport(ok=not failures, failures=tuple(failures))


def lowest_consistent_cover_layer(p):
    """The lowest i such that the presentation of G_l = <u_l, ..., u_m>,
    with its periods and power tails dropped, is consistent for every
    l >= i."""
    m = p.m
    for i in range(m, 0, -1):
        comms = tuple(
            ((j - i + 1, k - i + 1), tuple((l - i + 1, e) for l, e in tail))
            for (j, k), tail in p.commutators if k >= i)
        cover = pc.PcPresentation(name=f"{p.name} cover of G_{i}",
                                  periods=(None,) * (m - i + 1),
                                  commutators=comms)
        if not ref_consistency_check(cover).ok:
            return i + 1
    return 1


def predicted_support(p):
    """Per layer i and coordinate k > i of p's cover, the exponent vectors
    that commutator trees of the tails predict for h_k (see "conjugation
    polynomials" in presentation.py): b_0 counts u_i, b_v counts u_{i+v}.

    reach[l] holds the multisets of leaves of the trees that lead to u_l:
    (l,) itself, and a + b for each tail of [u_j, u_i] that holds l, with a
    in reach[j] and b in reach[i]. Tails lead to deeper letters, so reach
    is built in ascending l. Layer i predicts for k each multiset of
    reach[k] whose least letter is i, that holds a letter above i, and
    whose letters lie below k.
    """
    m = p.m
    reach = {l: {(l,)} for l in range(1, m + 1)}
    for l in range(1, m + 1):
        for (j, i), tail in p.commutators:
            if any(k == l for k, _ in tail):
                reach[l] |= {tuple(sorted(a + b))
                             for a in reach[j] for b in reach[i]}
    out = {}
    for i in range(1, m + 1):
        for k in range(i + 1, m + 1):
            vecs = []
            for leaves in reach[k]:
                if leaves[0] == i and i < leaves[-1] < k:
                    b = [0] * (m - i + 1)
                    for x in leaves:
                        b[x - i] += 1
                    vecs.append(tuple(b))
            out[i, k] = vecs
    return out


# ---------------------------------------------------------------------------
# commutator pairings
#
# bilinear.py proves that its pairings are nondegenerate and full, and
# checks none of it. This recomputes the three properties in the group,
# from G's generators u_i and the commutators [u_i, y], by dense congruence
# systems and Hermite forms; it reads neither the left section nor the
# tables.


def ref_pairing_properties(b):
    """(left radical, right radicals, spans) of the bilinearization b.

    The left radical is the subgroup of the x in G with [x, y] in
    lower[k + 2] for every row y of upper[k] and every block k.  For each
    such y, x -> [x, y] is a homomorphism into the abelian out[k], so on
    normal-form exponents e it is e -> sum e_i [u_i, y], and it kills G':
    the radical is G' together with the products prod u_i^e_i over a
    spanning set of the e that map to 0.  Block k's right radical is the set of
    reduced right[k] coordinates z with sum z_t [u_i, y_t] == 0 for every
    u_i (y_t right[k]'s basis), listed without 0: () when there is none.
    Block k's span is the Hermite basis of the [u_i, y_t] in out[k] with
    out[k]'s period vectors: the identity when the values fill out[k]."""
    s = b.series
    p = s.pres
    gens = [pc.generator(p, i) for i in range(1, p.m + 1)]
    rows, moduli = [], []
    rights, spans = [], []
    for k, (sec_b, sec_c) in enumerate(zip(b.right, b.out)):
        pers = sec_c.periods
        mods = [0 if d is None else d for d in pers]
        for y in s.upper[k].rows:
            vals = [sec_c.coords(ref_commutator(p, u, y)) for u in gens]
            for r, d in enumerate(mods):
                rows.append([v[r] for v in vals])
                moduli.append(d)
        # cell[i][t] = [u_i, y_t] in out[k]
        cell = [[sec_c.coords(ref_commutator(p, u, y)) for y in sec_b.basis]
                for u in gens]
        eqs = [[cell[i][t][r] for t in range(len(sec_b.basis))]
               for i in range(len(gens)) for r in range(len(pers))]
        sol = ref_solve_congruences(
            eqs, [0] * len(eqs), mods * len(gens), len(sec_b.basis))
        rights.append(tuple(sorted({
            z for z in map(sec_b.reduce, sol.basis) if any(z)})))
        lat = [list(v) for row in cell for v in row]
        lat += [[d if j == r else 0 for j in range(len(pers))]
                for r, d in enumerate(mods) if d]
        spans.append(tuple(tuple(r) for r in ref_hermite(lat) if any(r)))
    sol = ref_solve_congruences(rows, [0] * len(rows), moduli, len(gens))
    derived = sg.lower_central_series(p)[1]
    left = sg.induce(p, [sg.prod_rows(p, gens, e) for e in sol.basis]
                     + list(derived.rows))
    return left, tuple(rights), tuple(spans)


# ---------------------------------------------------------------------------
# scalar rings


def ref_base_system(pairing):
    """The defining congruences of the scalar triples as dense rows over
    the flattened unknowns (phi1, then phi2, then phi0, each row-major),
    with their moduli."""
    lay = sc._Layout(pairing)
    rows, moduli = [], []
    for idx, n, periods in lay.slots:
        for c in range(n):
            if periods[c] is None:
                continue
            for r in range(n):
                row = [0] * lay.total
                row[idx(r, c)] = periods[c]
                rows.append(row)
                moduli.append(0 if periods[r] is None else periods[r])
    f = pairing.table
    for s in range(lay.na):
        for t in range(lay.nb):
            for ell in range(lay.nc):
                row1 = [0] * lay.total
                row2 = [0] * lay.total
                for r in range(lay.na):
                    row1[lay.idx1(r, s)] += f[r][t][ell]
                for r in range(lay.nb):
                    row2[lay.idx2(r, t)] += f[s][r][ell]
                for k in range(lay.nc):
                    row1[lay.idx0(ell, k)] -= f[s][t][k]
                    row2[lay.idx0(ell, k)] -= f[s][t][k]
                per = pairing.periods_c[ell]
                for row in (row1, row2):
                    if any(row):
                        rows.append(row)
                        moduli.append(0 if per is None else per)
    return lay, rows, moduli


def ref_scalar_ring(pairing):
    """The ring of scalars from one dense system in na^2 + nb^2 + nc^2
    unknowns, solved by a single HNF."""
    lay, rows, moduli = ref_base_system(pairing)
    sol = ref_solve_congruences(rows, [0] * len(rows), moduli, lay.total)
    return sc.ScalarRing(pairing, hnf_basis(sol.basis, lay.total))


def _ref_matrices(pairing, h):
    """The flat triple h as its matrices phi1, phi2 and phi0, with the
    periods of the modules they act on."""
    out, at = [], 0
    for periods in (pairing.periods_a, pairing.periods_b, pairing.periods_c):
        n = len(periods)
        out.append(([list(h[at + r * n:at + (r + 1) * n]) for r in range(n)],
                    periods))
        at += n * n
    return out


def _ref_is_zero(vec, periods):
    return all(v == 0 if e is None else v % e == 0
               for v, e in zip(vec, periods))


def ref_is_scalar(pairing, h):
    """The triple h is made of well-defined maps, and f(phi1 a_s, b_t),
    f(a_s, phi2 b_t) and phi0 f(a_s, b_t) agree in C for all s, t."""
    mats = _ref_matrices(pairing, h)
    for m, periods in mats:
        for c, e in enumerate(periods):
            if e is not None and not _ref_is_zero(
                    [e * row[c] for row in m], periods):
                return False
    (phi1, _), (phi2, _), (phi0, per_c) = mats
    f = pairing.table
    na, nb, nc = len(phi1), len(phi2), len(phi0)
    for s in range(na):
        for t in range(nb):
            left = [sum(phi1[r][s] * f[r][t][k] for r in range(na))
                    for k in range(nc)]
            right = [sum(phi2[r][t] * f[s][r][k] for r in range(nb))
                     for k in range(nc)]
            mid = [sum(phi0[k][l] * f[s][t][l] for l in range(nc))
                   for k in range(nc)]
            if not (_ref_is_zero([x - y for x, y in zip(left, mid)], per_c)
                    and _ref_is_zero([x - y for x, y in zip(right, mid)],
                                     per_c)):
                return False
    return True


def ref_in_lattice(basis, vec):
    """vec is an integer combination of the echelon rows `basis`: strip
    each row at its leading entry."""
    vec = list(vec)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        q, r = divmod(vec[lead], row[lead])
        if r:
            return False
        vec = [x - q * y for x, y in zip(vec, row)]
    return not any(vec)


def ref_check_basis(pairing, s_basis):
    """Whether s_basis spans a ring of scalars of pairing, written out by
    hand: each triple passes ref_is_scalar, and the null triples, the
    unit and the product of any two triples lie in the lattice."""
    if not all(ref_is_scalar(pairing, h) for h in s_basis):
        return False
    modules = (pairing.periods_a, pairing.periods_b, pairing.periods_c)
    total = sum(len(periods) ** 2 for periods in modules)
    vecs, unit, at = [], [0] * total, 0
    for periods in modules:
        n = len(periods)
        for r in range(n):
            unit[at + r * n + r] = 1
            for c in range(n):
                if periods[r] is not None:
                    vecs.append([0] * total)
                    vecs[-1][at + r * n + c] = periods[r]
        at += n * n
    vecs.append(unit)
    for g in s_basis:
        for h in s_basis:
            prod = []
            for (x, _), (y, _) in zip(_ref_matrices(pairing, g),
                                      _ref_matrices(pairing, h)):
                n = len(x)
                prod += [sum(x[r][k] * y[k][c] for k in range(n))
                         for r in range(n) for c in range(n)]
            vecs.append(prod)
    return all(ref_in_lattice(s_basis, v) for v in vecs)


def is_associative(ring):
    """(e_a e_b) e_c == e_a (e_b e_c) on every triple of basis elements."""
    k = len(ring.periods)
    units = [tuple(int(i == a) for i in range(k)) for a in range(k)]
    return all(ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
               for a, b, c in product(units, repeat=3))


# the two kinds of linear side condition that the refined chains put on a
# scalar triple: phi2 (block b_block) . e == e . phi0 (block c_block), for
# a homomorphism e from the C block to the B block; and one block of
# `which` ("phi1", "phi2" or "phi0"; block None for phi1) keeping the
# submodule that the block-local vectors gens span with the period vectors
HomCompat = namedtuple("HomCompat", "e c_block b_block")
InvariantSubmodule = namedtuple("InvariantSubmodule", "which block gens")


def _ref_condition_rows(pairing, lay, con, width):
    """The dense rows of one condition over `width` columns, the flattened
    triple first, with their moduli.  A HomCompat is phi2 . e == e . phi0
    on its blocks modulo B's periods; an InvariantSubmodule writes M g
    over Z as a combination of the submodule's generators and the block's
    period vectors, whose coefficients are appended as new columns.
    Returns (rows, moduli, width) with width grown by those columns."""
    if isinstance(con, HomCompat):
        bo = sum(pairing.b_blocks[:con.b_block])
        co = sum(pairing.c_blocks[:con.c_block])
        nb, nc = pairing.b_blocks[con.b_block], pairing.c_blocks[con.c_block]
        rows, moduli = [], []
        for r in range(nb):
            for t in range(nc):
                row = [0] * width
                for k in range(nb):
                    row[lay.idx2(bo + r, bo + k)] += con.e[k][t]
                for k in range(nc):
                    row[lay.idx0(co + k, co + t)] -= con.e[r][k]
                if any(row):
                    rows.append(row)
                    per = pairing.periods_b[bo + r]
                    moduli.append(0 if per is None else per)
        return rows, moduli, width
    idx, periods, o = {
        "phi1": (lay.idx1, pairing.periods_a, 0),
        "phi2": (lay.idx2, pairing.periods_b,
                 sum(pairing.b_blocks[:con.block or 0])),
        "phi0": (lay.idx0, pairing.periods_c,
                 sum(pairing.c_blocks[:con.block or 0])),
    }[con.which]
    size = len(con.gens[0])
    lat = [list(g) for g in con.gens if any(g)]
    lat += [[per if k == r else 0 for k in range(size)]
            for r, per in enumerate(periods[o:o + size]) if per is not None]
    rows = []
    for g in con.gens:
        if not any(g):
            continue
        base, width = width, width + len(lat)
        rows = [row + [0] * len(lat) for row in rows]
        for r in range(size):
            row = [0] * width
            for k in range(size):
                row[idx(o + r, o + k)] += g[k]
            for j, lrow in enumerate(lat):
                row[base + j] = -lrow[r]
            rows.append(row)
    return rows, [0] * len(rows), width


def chain_conditions(b, zc, w):
    """The refined chains' conditions on the ring of the bilinearization
    b, as this module's records, from b's sections and the subgroups zc
    and w that refined.refined_ring returns: phi2 intertwines with phi0
    through each connecting map L_i/L_{i+1} -> U_i/U_{i+1} (column t the
    U-coordinates of L's basis element t), phi0 keeps the central part
    Z^L_i in L_i/L_{i+1}, and phi2 keeps the radical's part W_i in
    U_i/U_{i+1}."""
    c = b.series.c
    out = []
    for i in range(2, c):
        small, big = b.out[i - 2], b.right[i - 1]
        if small.periods and big.periods:
            cols = [big.coords(x) for x in small.basis]
            out.append(HomCompat(tuple(zip(*cols)), i - 2, i - 1))
    for which, secs, parts, first in (("phi0", b.out, zc, 2),
                                      ("phi2", b.right, w, 1)):
        for i in range(first, c + first - 1):
            sec = secs[i - first]
            gens = tuple(g for g in map(sec.coords, parts[i].rows) if any(g))
            if gens:
                out.append(InvariantSubmodule(which, i - first, gens))
    return out


def ref_restrict_ring(pairing, constraints):
    """HNF basis of the scalar triples of `pairing` that satisfy
    `constraints`, from one dense system over the full triple coordinates:
    every defining congruence of the pairing and every condition, solved
    together in na^2 + nb^2 + nc^2 unknowns plus the auxiliary ones of
    _ref_condition_rows."""
    lay, rows, moduli = ref_base_system(pairing)
    width = lay.total
    for con in constraints:
        new, mods, grown = _ref_condition_rows(pairing, lay, con, width)
        rows = [row + [0] * (grown - width) for row in rows] + new
        moduli += mods
        width = grown
    sol = ref_solve_congruences(rows, [0] * len(rows), moduli, width)
    return hnf_basis([list(b)[:lay.total] for b in sol.basis], lay.total)


def ref_prime_decomposition_zero(ring):
    """Shortest factorization of the zero ideal by exhaustion: the ideal
    closure of every subset of at most k elements, the primes among them,
    then a breadth-first search over products of primes, with sums and
    products tabulated on the elements.  Each ideal is a frozenset of
    coordinate tuples.  Its caps keep the enumeration small."""
    order = ring.order()
    if order is None:
        raise sc.ScalarRingError("only finite rings can be factored "
                                 "exhaustively")
    k = len(ring.periods)
    if order > 200 or order ** max(k, 1) > 5000:
        raise sc.ScalarRingError("ring too large to factor exhaustively")
    elements = sorted(product(*[range(d) for d in ring.periods]))
    zero = tuple(0 for _ in range(k))
    add = {(a, b): ring.add(a, b) for a in elements for b in elements}
    mul = {(a, b): ring.mul(a, b) for a in elements for b in elements}

    def closure(gens):
        cur = {zero} | set(gens)
        frontier = list(cur)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(cur):
                    s = add[a, b]
                    if s not in cur:
                        cur.add(s)
                        nxt.append(s)
                for r in elements:
                    m = mul[r, a]
                    if m not in cur:
                        cur.add(m)
                        nxt.append(m)
            frontier = nxt
        return frozenset(cur)

    candidates = {closure(())}
    for size in range(1, k + 1):
        for sub in combinations(elements, size):
            candidates.add(closure(sub))
    ideals = sorted(candidates, key=lambda s: (len(s), sorted(s)))

    def is_prime(p):
        if len(p) == order:
            return False
        outside = [x for x in elements if x not in p]
        return all(mul[x, y] not in p for x in outside for y in outside)

    primes = [p for p in ideals if is_prime(p)]
    zero_ideal = frozenset({zero})

    def ideal_product(i, j):
        return closure(tuple(mul[a, b] for a in i for b in j))

    queue = deque((p, [p]) for p in primes)
    seen = set(primes)
    while queue:
        current, path = queue.popleft()
        if current == zero_ideal:
            return path
        for p in primes:
            nxt = ideal_product(current, p)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + [p]))
    raise sc.ScalarRingError("zero ideal is not a product of prime ideals")


# ---------------------------------------------------------------------------
# the command line, parsed by argparse


def _ref_arg(*flags, **options):
    return flags, options


_REF_FILE = _ref_arg("file")
_REF_PAIR = _ref_arg("source"), _ref_arg("target")
REF_COMMANDS = {
    "check": (_REF_FILE,),
    "analyze": (_REF_FILE,),
    "series": (_REF_FILE, _ref_arg(
        "--kind", choices=("lower", "upper", "refined"), default="lower")),
    "scalars": (_REF_FILE, _ref_arg(
        "--series", choices=("lower", "upper"), default="lower")),
    "adapt": (_REF_FILE,),
    "deform": (_REF_FILE, _ref_arg("--d", type=_parse_d, required=True),
               _ref_arg("--c", type=_parse_c, required=True)),
    "enumerate": (_REF_FILE,),
    "hom": _REF_PAIR + (_ref_arg("--map", required=True),
                        _ref_arg("--verify", action="store_true")),
    "inverse-pair": _REF_PAIR + (_ref_arg("--forward", required=True),
                                 _ref_arg("--backward", required=True)),
    "invariants": (_REF_FILE,),
    "primes": (_ref_arg("--zmod", type=int, required=True),),
}


def ref_parse_args(argv):
    """argv parsed as argparse parsed it for the command line: a top-level
    parser picks the command and passes the rest to the command's own
    parser.  Usage errors raise SystemExit(2), help SystemExit(0)."""
    top = argparse.ArgumentParser(prog="nilpc")
    top.add_argument("command", choices=REF_COMMANDS)
    top.add_argument("args", nargs=argparse.REMAINDER)
    chosen = top.parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"nilpc {chosen.command}")
    for flags, options in REF_COMMANDS[chosen.command]:
        parser.add_argument(*flags, **options)
    args = parser.parse_args(chosen.args)
    args.command = chosen.command
    return args
