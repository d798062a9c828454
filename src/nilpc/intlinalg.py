"""Exact linear algebra over the integers.

Hermite and Smith normal forms with unimodular transforms, a solver for
systems of linear congruences with mixed moduli (modulus 0 meaning equality
over Z), and lattice_kernel, which solves a sparse homogeneous system one
connected component of unknowns at a time. Matrices are lists of rows of
Python ints; nothing here mutates its arguments. All downstream lattice
work in the package (subgroup layers, abelian sections, scalar-ring
solving) funnels through this module, and InvariantFactors is the one
reading of a Smith form as coordinates on a finitely generated abelian
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return []
    return [[row[j] for row in a] for j in range(len(a[0]))]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in mat_mul")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat(v: Sequence[int], a: Sequence[Sequence[int]]) -> List[int]:
    """Row vector times matrix."""
    if len(v) != len(a):
        raise ValueError("shape mismatch in vec_mat")
    if not a:
        return []
    ncols = len(a[0])
    out = [0] * ncols
    for x, row in zip(v, a):
        if x:
            for j in range(ncols):
                out[j] += x * row[j]
    return out


def _row_sub(m: Matrix, i: int, k: int, q: int) -> None:
    if q:
        mi, mk = m[i], m[k]
        for j in range(len(mi)):
            mi[j] -= q * mk[j]


def _row_neg(m: Matrix, i: int) -> None:
    m[i] = [-x for x in m[i]]


def hnf(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (h, u) with u * a == h and u unimodular. h is in upper echelon
    shape: pivots positive, strictly increasing pivot columns, entries above
    each pivot reduced into [0, pivot), zero rows at the bottom.
    """
    m = [list(r) for r in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = identity(nrows)
    top = 0
    for c in range(ncols):
        if top >= nrows:
            break
        if all(m[i][c] == 0 for i in range(top, nrows)):
            continue
        while True:
            best = None
            for i in range(top, nrows):
                if m[i][c] != 0 and (best is None or abs(m[i][c]) < abs(m[best][c])):
                    best = i
            if best != top:
                m[top], m[best] = m[best], m[top]
                u[top], u[best] = u[best], u[top]
            clean = True
            for i in range(top + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[top][c]
                    _row_sub(m, i, top, q)
                    _row_sub(u, i, top, q)
                    if m[i][c]:
                        clean = False
            if clean:
                break
        if m[top][c] < 0:
            _row_neg(m, top)
            _row_neg(u, top)
        p = m[top][c]
        for i in range(top):
            q = m[i][c] // p
            if q:
                _row_sub(m, i, top, q)
                _row_sub(u, i, top, q)
        top += 1
    return m, u


def hnf_basis(rows: Sequence[Sequence[int]], ncols: int) -> Matrix:
    """Canonical basis of the lattice spanned by `rows`: HNF, zero rows dropped.

    `ncols` pins the ambient dimension so an empty spanning set works too.
    """
    for r in rows:
        if len(r) != ncols:
            raise ValueError("row length disagrees with ncols")
    h, _ = hnf(list(rows))
    return [row for row in h if any(row)]


def snf(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (d, u, v) with u * a * v == d, u and v unimodular, d diagonal
    with nonnegative entries, each dividing the next, zeros trailing.
    """
    m = [list(r) for r in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)
    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (
                    piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                _row_sub(m, i, t, q)
                _row_sub(u, i, t, q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                for row in m:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        d = m[t][t]
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            _row_sub(m, t, bad, -1)
            _row_sub(u, t, bad, -1)
            continue
        if m[t][t] < 0:
            _row_neg(m, t)
            _row_neg(u, t)
        t += 1
    return m, u, v


def inverse_unimodular(u: Sequence[Sequence[int]]) -> Matrix:
    """Integer inverse of a unimodular matrix (HNF of it is the identity)."""
    h, w = hnf(u)
    if h != identity(len(u)):
        raise ValueError("matrix is not unimodular")
    return w


class InvariantFactors:
    """Invariant-factor coordinates on Z^n modulo a relation lattice.

    With d == u * rel * v the Smith form, the rows of v^-1 generate cyclic
    summands of Z^n / span(rel) whose orders are the diagonal of d. The
    summands of order 1 are dropped: rows[k] is the k-th kept basis row over
    Z^n and periods[k] its order, None when free. A vector y has coordinate
    k equal to y * v at the kept column, reduced modulo periods[k].
    """

    def __init__(self, rel: Sequence[Sequence[int]], n: int):
        if rel:
            d, _, v = snf(rel)
            dvals = [d[j][j] if j < len(d) else 0 for j in range(n)]
        else:
            v, dvals = identity(n), [0] * n
        vinv = inverse_unimodular(v)
        kept = [j for j in range(n) if dvals[j] != 1]
        self.rows = [vinv[j] for j in kept]
        self._cols = [[r[j] for r in v] for j in kept]
        self.periods: Tuple[Optional[int], ...] = tuple(
            dvals[j] or None for j in kept)

    def coords(self, y: Sequence[int]) -> Tuple[int, ...]:
        return self.reduce(tuple(
            sum(a * b for a, b in zip(y, col)) for col in self._cols))

    def reduce(self, vec: Sequence[int]) -> Tuple[int, ...]:
        return tuple(
            c if d is None else c % d for c, d in zip(vec, self.periods))

    def order(self) -> Optional[int]:
        """The number of elements, None when infinite."""
        total = 1
        for d in self.periods:
            if d is None:
                return None
            total *= d
        return total

    def negate(self, k: int) -> None:
        """Replace basis row k by its negative; coordinate k changes sign."""
        self.rows[k] = [-x for x in self.rows[k]]
        self._cols[k] = [-x for x in self._cols[k]]


def solve_lattice(
    basis: Sequence[Sequence[int]], v: Sequence[int]
) -> Optional[List[int]]:
    """Coefficients x with x * basis == v, or None if v is outside the span.

    `basis` must be in echelon shape, as hnf_basis returns it: nonzero rows
    whose leading columns strictly increase.  Then x is read off in one
    back-substitution; any other basis raises ValueError.
    """
    leads = [next((j for j, a in enumerate(row) if a), None) for row in basis]
    if None in leads or any(a >= b for a, b in zip(leads, leads[1:])):
        raise ValueError("solve_lattice needs an echelon basis")
    x = []
    residual = list(v)
    for row, lead in zip(basis, leads):
        q, r = divmod(residual[lead], row[lead])
        if r:
            return None
        x.append(q)
        if q:
            for j in range(lead, len(residual)):
                residual[j] -= q * row[j]
    if any(residual):
        return None
    return x


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


def solve_congruences(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    moduli: Sequence[int],
    n_unknowns: int,
) -> SolutionSet:
    """Solve rows[r] . x == rhs[r] (mod moduli[r]) for x in Z^n_unknowns.

    Modulus 0 means equality over Z. Finite moduli are handled by one
    auxiliary integer unknown per congruence; the returned solutions are
    projected back onto the first n_unknowns coordinates.
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
    a = transpose(cols) if cols else [[] for _ in range(ntot)]
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
    z0 = vec_mat(w, u)
    kernel = [u[i] for i in range(ntot) if not any(h[i])]
    particular = tuple(z0[:n_unknowns])
    basis = tuple(tuple(k[:n_unknowns]) for k in kernel)
    return SolutionSet(True, particular, basis)


def lattice_kernel(rows: Sequence[Tuple[Dict[int, int], int]],
                   n: int) -> List[List[int]]:
    """A spanning set of {x in Z^n : row . x == 0 (mod modulus), every row}.

    Each row is a (column -> coefficient, modulus) pair, modulus 0 meaning
    equality over Z.  Two unknowns are linked when a row touches both; the
    solution lattice is the direct sum of the lattices of the connected
    components, so each component is solved densely on its own columns
    (a finite modulus's auxiliary unknown lives in its one row, hence in
    its component) and an unknown that no row touches contributes its unit
    vector.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    touched = [False] * n
    live = []
    for coeffs, mod in rows:
        terms = [(j, v) for j, v in coeffs.items() if v]
        if not terms:
            continue
        live.append((terms, mod))
        root = find(terms[0][0])
        for j, _ in terms:
            touched[j] = True
            other = find(j)
            if other != root:
                parent[other] = root
    members: Dict[int, List[int]] = {}
    for j in range(n):
        if touched[j]:
            members.setdefault(find(j), []).append(j)
    blocks: Dict[int, list] = {}
    for terms, mod in live:
        blocks.setdefault(find(terms[0][0]), []).append((terms, mod))
    out = [[1 if i == j else 0 for i in range(n)]
           for j in range(n) if not touched[j]]
    for root, cols in members.items():
        pos = {j: k for k, j in enumerate(cols)}
        dense, moduli = [], []
        for terms, mod in blocks[root]:
            row = [0] * len(cols)
            for j, v in terms:
                row[pos[j]] = v
            dense.append(row)
            moduli.append(mod)
        sol = solve_congruences(dense, [0] * len(dense), moduli, len(cols))
        for b in sol.basis:
            vec = [0] * n
            for j, v in zip(cols, b):
                vec[j] = v
            out.append(vec)
    return out
