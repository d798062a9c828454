"""Frozen values and properties for the exact integer matrix layer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import intlinalg as la

from oracles import (
    exhaustive_solutions,
    ref_det,
    ref_hermite,
    ref_smith_diagonal,
    ref_solve_congruences,
    satisfies,
)


def mat_strategy(max_dim=4, bound=9):
    dim = st.integers(1, max_dim)
    return dim.flatmap(
        lambda r: dim.flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


# -- frozen cases -----------------------------------------------------------


def test_hermite_frozen():
    h, u = la.hnf([[2, 6], [4, 8]])
    assert h == [[2, 2], [0, 4]]
    assert la.mat_mul(u, [[2, 6], [4, 8]]) == h
    assert ref_det(u) in (1, -1)


def test_smith_frozen():
    d, u, v, _ = la.snf([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    assert la.mat_mul(la.mat_mul(u, [[2, 0], [0, 3]]), v) == d


def read_off(rows, rhs, moduli, n):
    """(x, homogeneous basis) for rows . x == rhs (mod moduli), x None when
    there is no solution, read off kernel as refined._pullback reads it:
    the right-hand side is an unknown s in column 0, the system is solvable
    exactly when the first Hermite row is (1, x), and the rows with s == 0
    are the homogeneous solutions."""
    eqs = [({0: -b, **{1 + j: v for j, v in enumerate(row)}}, md)
           for row, b, md in zip(rows, rhs, moduli)]
    basis = la.kernel(eqs, 1 + n)
    x = basis[0][1:] if basis and basis[0][0] == 1 else None
    return x, [h[1:] for h in basis if h[0] == 0]


def test_crt_solve():
    # x = 1 mod 2, x = 2 mod 3  ->  x = 5 mod 6
    assert la.kernel([({0: -1, 1: 1}, 2), ({0: -2, 1: 1}, 3)], 2) == [
        [1, 5], [0, 6]]
    x, basis = read_off([[1], [1]], [1, 2], [2, 3], 1)
    assert x == [5]
    assert basis == [[6]]


def test_inconsistent_solve():
    # 2x = 3 over Z: s is even on every solution (s, x)
    assert la.kernel([({0: -3, 1: 2}, 0)], 2) == [[2, 3]]
    assert read_off([[2]], [3], [0], 1) == (None, [])


def test_no_equations():
    assert la.kernel([], 3) == la.identity(3)
    assert read_off([], [], [], 2) == ([0, 0], [[1, 0], [0, 1]])


def test_lattice_membership():
    basis = [[2, 0], [0, 3]]
    assert la.solve_lattice(basis, [4, -3]) == [2, -1]
    assert la.solve_lattice(basis, [1, 0]) is None


@pytest.mark.parametrize("basis", [
    [[0, 1], [1, 0]],  # leading columns decrease
    [[1, 0], [2, 1]],  # leading columns repeat
    [[1, 0], [0, 0]],  # zero row
])
def test_lattice_membership_rejects_non_echelon_basis(basis):
    with pytest.raises(ValueError):
        la.solve_lattice(basis, [0, 0])


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(mat_strategy())
def test_hnf_properties(a):
    h, u = la.hnf(a)
    assert la.mat_mul(u, a) == h
    assert ref_det(u) in (1, -1)
    _assert_echelon(h)
    # canonical: applying hnf again is the identity on the echelon part
    h2, _ = la.hnf(h)
    assert h2 == h


@settings(max_examples=120, deadline=None)
@given(mat_strategy())
def test_hnf_matches_reference(a):
    h, _ = la.hnf(a)
    assert h == ref_hermite(a)


@settings(max_examples=120, deadline=None)
@given(mat_strategy(max_dim=3, bound=6))
def test_snf_properties(a):
    d, u, v, _ = la.snf(a)
    assert la.mat_mul(la.mat_mul(u, a), v) == d
    assert ref_det(u) in (1, -1)
    assert ref_det(v) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        elif diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j:
                assert d[i][j] == 0
    assert diag == ref_smith_diagonal(a)


@settings(max_examples=120, deadline=None)
@given(mat_strategy())
def test_snf_carries_the_inverse_of_v(a):
    _, _, v, w = la.snf(a)
    assert la.mat_mul(w, v) == la.identity(len(v))


def relation_lattices():
    """(n, rel, y): rel spans a lattice in Z^n, possibly empty, rank-deficient
    (zero or repeated rows) or all of Z^n (unit rows added); y is a vector."""
    def build(n):
        row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
        return st.tuples(st.just(n), st.lists(row, max_size=4),
                         st.sampled_from(["plain", "repeat", "units"]), row)

    def shape(case):
        n, rel, extra, y = case
        if extra == "repeat" and rel:
            rel = rel + [[3 * x for x in rel[0]], [0] * n]
        elif extra == "units":
            rel = rel + la.identity(n)
        return n, rel, y

    return st.integers(0, 4).flatmap(build).map(shape)


@settings(max_examples=150, deadline=None)
@given(relation_lattices())
def test_invariant_factors_properties(case):
    n, rel, y = case
    f = la.InvariantFactors(rel, n)
    diag = ref_smith_diagonal(rel) if rel else []
    diag += [0] * (n - len(diag))
    assert f.periods == tuple(d or None for d in diag if d != 1)
    assert f.order() == (None if 0 in diag else math.prod(diag))
    k = len(f.periods)
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    assert [f.coords(r) for r in f.rows] == units
    assert all(f.coords(r) == (0,) * k for r in rel)
    for j in range(k):
        before = list(f.coords(y))
        f.negate(j)
        before[j] = -before[j]
        assert f.coords(y) == f.reduce(before)
        assert f.coords(f.rows[j]) == units[j]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    st.integers(-4, 4),
                    st.sampled_from([0, 2, 3, 4, 5, 6]),
                ),
                min_size=0,
                max_size=3,
            ),
        )
    )
)
def test_solver_against_exhaustive(case):
    n, eqs = case
    rows = [list(r) for r, _, _ in eqs]
    rhs = [b for _, b, _ in eqs]
    moduli = [md for _, _, md in eqs]
    x, basis = read_off(rows, rhs, moduli, n)
    box = 6
    found = exhaustive_solutions(rows, rhs, moduli, n, box)
    # solvable exactly when a solution exists: a solution in the box
    # forces a read-off, and the read-off row is itself a solution
    if x is None:
        assert found == []
        return
    assert satisfies(rows, rhs, moduli, x)
    for v in basis:
        assert satisfies(rows, [0] * len(rhs), moduli, v)
    for y in found:
        delta = [a - b for a, b in zip(y, x)]
        assert la.solve_lattice(basis, delta) is not None


@settings(max_examples=120, deadline=None)
@given(mat_strategy(bound=6), st.lists(st.integers(-4, 4), min_size=4,
                                       max_size=4))
def test_lattice_membership_reads_back_combinations(a, coeffs):
    ncols = len(a[0])
    basis = la.hnf_basis(a, ncols)
    v = la.vec_mat(coeffs[:len(a)], a)
    x = la.solve_lattice(basis, v)
    assert x is not None
    assert la.vec_mat(x, basis) == v if basis else not any(v)


def _assert_echelon(h):
    lead = -1
    seen_zero = False
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            seen_zero = True
            continue
        assert not seen_zero  # zero rows sink
        p = nz[0]
        assert p > lead
        assert row[p] > 0
        lead = p
    # entries above each pivot reduced into [0, pivot)
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        p = nz[0]
        for k in range(i):
            assert 0 <= h[k][p] < row[p]


# -- sparse kernels by connected component ----------------------------------


def test_lattice_kernel_frozen():
    # unknown 6 is in no row and 2 only with coefficient 0; one row is
    # empty, two are isolated, {0, 1, 5} is one component mod 6 and one
    # row alone links 7, 8 and 9
    rows = [({0: 2, 1: 4}, 6), ({}, 3), ({2: 0}, 5), ({3: 3}, 0),
            ({4: 2}, 4), ({1: 1, 5: -1}, 0), ({7: 1, 8: 1, 9: 1}, 0)]
    before = [(dict(d), md) for d, md in rows]
    got = la.kernel(rows, 10)
    assert got == [[1, 1, 0, 0, 0, 1, 0, 0, 0, 0],
                   [0, 3, 0, 0, 0, 3, 0, 0, 0, 0],
                   [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                   [0, 0, 0, 0, 2, 0, 0, 0, 0, 0],
                   [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
                   [0, 0, 0, 0, 0, 0, 0, 1, 0, -1],
                   [0, 0, 0, 0, 0, 0, 0, 0, 1, -1]]
    assert rows == before


def sparse_systems():
    def system(n):
        row = st.tuples(
            st.dictionaries(st.integers(0, n - 1), st.integers(-4, 4),
                            max_size=3),
            st.sampled_from([0, 0, 2, 3, 4, 6]))
        return st.tuples(st.just(n), st.lists(row, max_size=6))
    return st.integers(1, 8).flatmap(system)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_lattice_kernel_matches_dense_solve(case):
    n, rows = case
    dense = [[d.get(j, 0) for j in range(n)] for d, _ in rows]
    moduli = [md for _, md in rows]
    got = la.kernel(rows, n)
    for v in got:
        assert satisfies(dense, [0] * len(rows), moduli, v)
    assert got == la.hnf_basis(got, n)
    sol = ref_solve_congruences(dense, [0] * len(rows), moduli, n)
    assert got == la.hnf_basis(sol.basis, n)
