"""Exact linear algebra over the integers.

The Hermite basis of a lattice, the Smith normal form with its column
transform and that transform's inverse, and kernel, the one solver: the
Hermite basis of the solutions of a sparse homogeneous system of
congruences with mixed moduli (modulus 0 meaning equality over Z), solved
one connected component of unknowns at a time. Matrices are lists of rows
of Python ints; nothing here mutates its arguments. All downstream lattice
work in the package (subgroup layers, abelian sections, scalar-ring
solving) funnels through this module, and InvariantFactors is the one
reading of a Smith form as coordinates on a finitely generated abelian
group.
"""

from __future__ import annotations

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


def _hermite(m: Matrix, ncols: int) -> None:
    """Hermite form of the first ncols columns of m, in place, by
    operations on whole rows."""
    nrows = len(m)
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
            clean = True
            for i in range(top + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[top][c]
                    _row_sub(m, i, top, q)
                    if m[i][c]:
                        clean = False
            if clean:
                break
        if m[top][c] < 0:
            _row_neg(m, top)
        p = m[top][c]
        for i in range(top):
            q = m[i][c] // p
            if q:
                _row_sub(m, i, top, q)
        top += 1


def hnf_basis(rows: Sequence[Sequence[int]], ncols: int) -> Matrix:
    """Canonical basis of the lattice spanned by `rows`: HNF, zero rows dropped.

    `ncols` pins the ambient dimension so an empty spanning set works too.
    """
    for r in rows:
        if len(r) != ncols:
            raise ValueError("row length disagrees with ncols")
    h = [list(r) for r in rows]
    _hermite(h, ncols)
    return [row for row in h if any(row)]


def snf(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns (d, v, w) with u * a * v == d for some unimodular u, which is
    not formed, v unimodular, d diagonal with nonnegative entries, each
    dividing the next, zeros trailing, and w == v^-1. w undoes each column
    operation on v by a row operation: a swap of columns of v swaps the
    same rows of w, and col_j -= q * col_t on v is row_t += q * row_j on w.
    """
    m = [list(r) for r in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    v = identity(nc)
    w = identity(nc)
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
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
            w[t], w[j0] = w[j0], w[t]
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                _row_sub(m, i, t, q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                for row in m:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                _row_sub(w, t, j, -q)
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
            continue
        if m[t][t] < 0:
            _row_neg(m, t)
        t += 1
    return m, v, w


class InvariantFactors:
    """Invariant-factor coordinates on Z^n modulo a relation lattice.

    With d == u * rel * v the Smith form, the rows of v^-1 generate cyclic
    summands of Z^n / span(rel) whose orders are the diagonal of d. The
    summands of order 1 are dropped: rows[k] is the k-th kept basis row over
    Z^n and periods[k] its order, None when free. coord_map[k] is v's kept
    column: a vector y has coordinate k equal to y . coord_map[k], reduced
    modulo periods[k], so y lies in span(rel) exactly when each such dot
    product vanishes modulo its period (zero when free).
    """

    def __init__(self, rel: Sequence[Sequence[int]], n: int):
        if rel:
            d, v, vinv = snf(rel)
            dvals = [d[j][j] if j < len(d) else 0 for j in range(n)]
        else:
            v, vinv, dvals = identity(n), identity(n), [0] * n
        kept = [j for j in range(n) if dvals[j] != 1]
        self.rows = [vinv[j] for j in kept]
        self.coord_map = [[r[j] for r in v] for j in kept]
        self.periods: Tuple[Optional[int], ...] = tuple(
            dvals[j] or None for j in kept)

    def coords(self, y: Sequence[int]) -> Tuple[int, ...]:
        return self.reduce(tuple(
            sum(a * b for a, b in zip(y, col)) for col in self.coord_map))

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
        self.coord_map[k] = [-x for x in self.coord_map[k]]


def echelon_leads(basis: Sequence[Sequence[int]]) -> List[int]:
    """The leading column of each row of an echelon basis, as hnf_basis
    returns it: nonzero rows whose leading columns strictly increase. Any
    other basis raises ValueError."""
    leads = [next((j for j, a in enumerate(row) if a), None) for row in basis]
    if None in leads or any(a >= b for a, b in zip(leads, leads[1:])):
        raise ValueError("solve_lattice needs an echelon basis")
    return leads


def solve_lattice(
    basis: Sequence[Sequence[int]], v: Sequence[int],
    leads: Optional[Sequence[int]] = None,
) -> Optional[List[int]]:
    """Coefficients x with x * basis == v, or None if v is outside the span.

    `basis` must be in echelon shape (echelon_leads). Then x is read off in
    one back-substitution. A caller that solves against one basis many
    times passes its echelon_leads once computed; otherwise they are
    computed here, and a basis that is not echelon raises ValueError.
    """
    if leads is None:
        leads = echelon_leads(basis)
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


def kernel(rows: Sequence[Tuple[Dict[int, int], int]], n: int) -> Matrix:
    """Hermite basis of {x in Z^n : row . x == 0 (mod modulus), every row}.

    Each row is a (column -> coefficient, modulus) pair, modulus 0 meaning
    equality over Z.  Two unknowns are linked when a row touches both; the
    solution lattice is the direct sum of the lattices of the connected
    components, so each component is solved on its own columns and an
    unknown that no row touches contributes its unit vector.

    A component with unknowns x, equations E and one auxiliary unknown a_r
    per finite modulus m_r gives the lattice {(x E + a D, x)}, D the
    diagonal of the moduli, spanned by the rows (E_k | e_k) of the
    unknowns and (m_r e_r | 0) of the auxiliaries.  Its vectors that vanish
    on the equation columns are the (0, x) with x a solution.  In an
    echelon basis they are spanned by the rows whose pivot lies past the
    equation columns, so in the Hermite basis those rows, cut to the
    unknowns' columns, are the Hermite basis of the solutions, read off
    one HNF with no second reduction (Cohen, GTM 138, section 2.4).  Rows
    of different components share no column, so their Hermite bases,
    sorted by pivot, are the Hermite basis of the direct sum.
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
    # the rows of the result, keyed by their pivot columns
    out = {j: [1 if i == j else 0 for i in range(n)]
           for j in range(n) if not touched[j]}
    for root, cols in members.items():
        eqs = blocks[root]
        neq, width = len(eqs), len(eqs) + len(cols)
        pos = {j: k for k, j in enumerate(cols)}
        lattice = [[0] * width for _ in cols]
        for k, row in enumerate(lattice):
            row[neq + k] = 1
        for r, (terms, mod) in enumerate(eqs):
            for j, v in terms:
                lattice[pos[j]][r] = v
            if mod:
                lattice.append([0] * width)
                lattice[-1][r] = mod
        _hermite(lattice, width)
        for row in lattice:
            sol = row[neq:]
            if any(sol) and not any(row[:neq]):
                vec = [0] * n
                for j, v in zip(cols, sol):
                    vec[j] = v
                out[cols[next(k for k, v in enumerate(sol) if v)]] = vec
    return [out[j] for j in sorted(out)]
