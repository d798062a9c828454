"""Scalar rings of pairings: construction, primes, refinement."""

import random
import re
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpc import intlinalg as la
from nilpc import presentation as pc
from nilpc import refined as rf
from nilpc import scalars as sc
from nilpc import subgroups as sg
from nilpc.bilinear import bilinearize
from nilpc.intlinalg import identity as eye
from nilpc.refined import refined_series
from nilpc.scalars import (
    PRIMES_ORDER_CAP,
    Pairing,
    ScalarRingError,
    multiplication_pairing,
    pairing_of,
    prime_decomposition_zero,
    scalar_ring,
)
from oracles import (
    HomCompat,
    InvariantSubmodule,
    chain_conditions,
    gaussian_solutions,
    is_associative,
    ref_check_basis,
    ref_prime_decomposition_zero,
    ref_restrict_ring,
    ref_scalar_ring,
    symplectic_solutions,
    zmod_mult_solutions,
)

from groups_def import (
    f23,
    graded_draws,
    heis,
    heisenberg,
    nr,
    random_basis_change,
    unitriangular,
    ut_gaussian,
    zg,
    zh,
    zk,
)


def flat(triple):
    phi1, phi2, phi0 = triple
    out = []
    for m in (phi1, phi2, phi0):
        for row in m:
            out.extend(row)
    return tuple(out)


def symplectic_pairing():
    return Pairing(
        periods_a=(None, None),
        periods_b=(None, None),
        periods_c=(None,),
        table=(((0,), (1,)), ((-1,), (0,))),
    )


def gaussian_pairing():
    # multiplication on Z[i] in the basis (1, i)
    return Pairing(
        periods_a=(None, None),
        periods_b=(None, None),
        periods_c=(None, None),
        table=(((1, 0), (0, 1)), ((0, 1), (-1, 0))),
    )


class TestScalarRing:
    def test_symplectic_ring_is_z(self):
        ring = scalar_ring(symplectic_pairing())
        assert ring.periods == (None,)
        assert abs(ring.unit[0]) == 1
        assert ring.is_commutative
        # oracle solutions all land in the computed lattice
        sols = symplectic_solutions(box=2)
        assert len(sols) == 5
        for t in sols:
            assert la.solve_lattice(ring.s_basis, flat(t)) is not None
        # and the lattice has no extra points in the same box
        box_pts = set()
        for k in range(-20, 21):
            v = ring.element_vec(tuple(k * c for c in ring.unit))
            if all(-2 <= x <= 2 for x in v):
                box_pts.add(tuple(v))
        assert box_pts == {flat(t) for t in sols}

    def test_gaussian_ring_is_z_i(self):
        ring = scalar_ring(gaussian_pairing())
        assert ring.periods == (None, None)
        assert ring.is_commutative
        for t in gaussian_solutions(box=2):
            assert la.solve_lattice(ring.s_basis, flat(t)) is not None
        # some element squares to minus one
        minus_one = ring.reduce(tuple(-x for x in ring.unit))
        hits = [
            (a, b)
            for a in range(-2, 3)
            for b in range(-2, 3)
            if ring.mul((a, b), (a, b)) == minus_one
        ]
        assert len(hits) == 2  # i and -i

    def test_gaussian_box_points_match_oracle(self):
        ring = scalar_ring(gaussian_pairing())
        oracle = {flat(t) for t in gaussian_solutions(box=2)}
        pts = set()
        for a in range(-12, 13):
            for b in range(-12, 13):
                v = tuple(ring.element_vec((a, b)))
                if all(-2 <= x <= 2 for x in v):
                    pts.add(v)
        assert pts == oracle

    def test_zmod2_multiplication(self):
        ring = scalar_ring(multiplication_pairing(2))
        assert ring.periods == (2,)
        assert ring.unit == (1,)
        want = {(x1, x2, x0) for x1, x2, x0 in zmod_mult_solutions(2)}
        got = {
            (x1, x2, x0)
            for x1, x2, x0 in product(range(2), repeat=3)
            if la.solve_lattice(ring.s_basis, (x1, x2, x0)) is not None
        }
        assert got == want

    def test_zmod6_invariants(self):
        ring = scalar_ring(multiplication_pairing(6))
        assert ring.periods == (6,)
        assert ring.order() == 6
        assert ring.mul(ring.unit, (5,)) == (5,)

    def test_heis_ring_is_z(self):
        ring = scalar_ring(pairing_of(bilinearize(heis())))
        assert ring.periods == (None,)
        phi1, phi2, phi0 = sc._reshape(ring.lay, ring.element_vec(ring.unit))
        assert phi1 == eye(2)
        assert phi2 == eye(2)
        assert phi0 == eye(1)

    def test_f23_solutions_respect_grading(self):
        b = bilinearize(f23())
        p = pairing_of(b)
        assert p.b_blocks == (2, 1)
        assert p.c_blocks == (1, 2)
        ring = scalar_ring(p)
        for j in range(len(ring.periods)):
            coords = tuple(1 if i == j else 0 for i in range(len(ring.periods)))
            _, phi2, phi0 = sc._reshape(ring.lay, ring.element_vec(coords))
            # off-diagonal blocks vanish
            for r in range(2):
                assert phi2[r][2] == 0
                assert phi2[2][r] == 0
            for k in range(1, 3):
                assert phi0[0][k] == 0
                assert phi0[k][0] == 0

    def test_ill_defined_table_rejected(self):
        with pytest.raises(ScalarRingError):
            Pairing(
                periods_a=(2,),
                periods_b=(None,),
                periods_c=(None,),
                table=(((1,),),),
            )

    def test_basis_with_an_ill_defined_map_rejected(self):
        # every triple of the identity basis satisfies the empty pairing's
        # identities, but phi1 = E_21 sends u1, of period 2, to the
        # infinite u2, so it is no map of A
        pairing = Pairing((2, None), (), (), ((), ()))
        with pytest.raises(ScalarRingError, match="not well defined"):
            sc.ScalarRing(pairing, eye(4))
        ring = sc.ScalarRing(pairing, scalar_ring(pairing).s_basis)
        assert ring.s_basis == scalar_ring(pairing).s_basis

    def test_block_matrices_refuses_a_map_across_blocks(self):
        # b2 pairs to zero, so phi2 may send b1, in block 0, to b1 + b2:
        # the ring holds an element that maps out of the block
        ring = scalar_ring(Pairing((None,), (None, None), (None, None),
                                   (((1, 0), (0, 0)),),
                                   b_blocks=(1, 1), c_blocks=(1, 1)))
        with pytest.raises(ScalarRingError,
                           match="phi2 does not respect the grading"):
            ring.block_matrices("phi2", 0)

    def test_table_shape_rejected(self):
        with pytest.raises(ScalarRingError):
            Pairing(
                periods_a=(None,),
                periods_b=(None,),
                periods_c=(None,),
                table=(((1,), (0,)),),
            )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=6, max_size=6))
    def test_zg_ring_distributive(self, raw):
        ring = _zg_ring()
        n = len(ring.periods)
        a = tuple(ring.reduce(tuple(raw[0:1] * n))[:n])
        b = ring.reduce(tuple(raw[i % 6] for i in range(n)))
        c = ring.reduce(tuple(raw[(i + 3) % 6] for i in range(n)))
        left = ring.mul(a, ring.add(b, c))
        right = ring.add(ring.mul(a, b), ring.mul(a, c))
        assert left == right


_ZG_RING = None


def _zg_ring():
    global _ZG_RING
    if _ZG_RING is None:
        _ZG_RING = scalar_ring(pairing_of(bilinearize(zg())))
    return _ZG_RING


class TestRestriction:
    """The refined chains' conditions, checked on the pairing's ring."""

    def test_zg_full_block_invariance_is_vacuous(self):
        # the central part of the first lower layer of ZG is that whole
        # layer, so phi0 keeps it on every ring element
        p = zg()
        ring = _zg_ring()
        b = bilinearize(p)
        zpart = sg.constrained_subgroup(
            p, b.series.lower[1],
            [(sg.whole_subgroup(p).rows, sg.trivial_subgroup(p))])
        gens = [b.out[0].coords(r) for r in zpart.rows]
        assert rf._keeps(ring, "phi0", 0, gens, b.out[0].periods)

    def test_a_triple_outside_the_lattice_names_the_lattice(self):
        # on Z x Z -> Z, phi1 = 1 with phi2 = phi0 = 0 breaks
        # f(phi1 a, b) == phi0 f(a, b), so it lies outside the ring
        ring = scalar_ring(Pairing((None,), (None,), (None,), (((1,),),)))
        vec = [0] * ring.lay.total
        vec[ring.lay.idx1(0, 0)] = 1
        assert la.solve_lattice(ring.s_basis, vec) is None
        assert la.solve_lattice(
            ring.s_basis, ring.element_vec(ring.unit)) is not None
        with pytest.raises(ScalarRingError,
                           match="outside the ring's lattice"):
            ring.coords_vec(vec)


def split_pairing(p, q):
    """Multiplication on Z/p and on Z/q side by side, one block each (None
    for Z): the ring is the product of the two, so a condition that links
    the blocks cuts it."""
    return Pairing((p, q), (p, q), (p, q),
                   (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1), (1, 1))


# the groups' rings are all Z, which no condition cuts; the last three
# pairings have larger rings, so that the comparison sees proper cuts: of
# their 12 seeded condition sets each, _CUTS[name] cut the ring
_PAIRING_OF = {
    "HEIS": lambda: pairing_of(bilinearize(heis())),
    "NR": lambda: pairing_of(bilinearize(nr())),
    "F23": lambda: pairing_of(bilinearize(f23())),
    "ZG": lambda: pairing_of(bilinearize(zg())),
    "UT_4": lambda: pairing_of(bilinearize(unitriangular(4))),
    "H_3": lambda: pairing_of(bilinearize(heisenberg(3))),
    "Z[i]": gaussian_pairing,
    "ZxZ": lambda: split_pairing(None, None),
    "Z/4xZ/6": lambda: split_pairing(4, 6),
}
_CUTS = {"Z[i]": 12, "ZxZ": 5, "Z/4xZ/6": 3}


def random_conditions(pairing, rng, count):
    """Seeded InvariantSubmodule and HomCompat conditions on `pairing`.

    An intertwiner column of period d into a row of period e is a multiple
    of e / gcd(d, e) (zero into Z), so that it is a well-defined map."""
    b_used = [i for i, n in enumerate(pairing.b_blocks) if n]
    c_used = [i for i, n in enumerate(pairing.c_blocks) if n]
    slots = [("phi1", None, len(pairing.periods_a))]
    slots += [("phi2", i, pairing.b_blocks[i]) for i in b_used]
    slots += [("phi0", i, pairing.c_blocks[i]) for i in c_used]
    out = []
    for _ in range(count):
        if rng.random() < 0.4:
            bi, ci = rng.choice(b_used), rng.choice(c_used)
            bo, co = sum(pairing.b_blocks[:bi]), sum(pairing.c_blocks[:ci])
            e = []
            for r in range(pairing.b_blocks[bi]):
                per_r = pairing.periods_b[bo + r]
                row = []
                for t in range(pairing.c_blocks[ci]):
                    per_t = pairing.periods_c[co + t]
                    v = rng.randint(-2, 2)
                    if per_t is not None:
                        v = 0 if per_r is None else \
                            v * (per_r // gcd(per_r, per_t))
                    row.append(v)
                e.append(tuple(row))
            out.append(HomCompat(tuple(e), c_block=ci, b_block=bi))
        else:
            which, block, size = rng.choice(slots)
            gens = tuple(tuple(rng.randint(-2, 2) for _ in range(size))
                         for _ in range(rng.randint(1, 2)))
            out.append(InvariantSubmodule(which, block, gens))
    return out


def refused(ring, cons):
    """Whether refined's checks refuse one of cons on ring, each given the
    periods of its block."""
    pairing = ring.pairing

    def periods(which, block):
        if which == "phi1":
            return pairing.periods_a
        sizes, pers = ((pairing.b_blocks, pairing.periods_b)
                       if which == "phi2" else
                       (pairing.c_blocks, pairing.periods_c))
        o = sum(sizes[:block])
        return pers[o:o + sizes[block]]

    for con in cons:
        if isinstance(con, HomCompat):
            holds = rf._intertwines(ring, con.e, con.c_block, con.b_block,
                                    periods("phi2", con.b_block))
        else:
            holds = rf._keeps(ring, con.which, con.block, con.gens,
                              periods(con.which, con.block))
        if not holds:
            return True
    return False


@pytest.mark.parametrize("name", list(_PAIRING_OF))
def test_restriction_matches_direct_solve(name):
    # the checks refuse a set of conditions exactly when the oracle's
    # dense solve of the pairing's identities and the conditions together
    # gives a proper sublattice of the ring's
    pairing = _PAIRING_OF[name]()
    ring = scalar_ring(pairing)
    rng = random.Random(7)
    cuts = 0
    for _ in range(12):
        cons = random_conditions(pairing, rng, rng.randint(1, 4))
        want = tuple(tuple(r) for r in ref_restrict_ring(pairing, cons))
        assert refused(ring, cons) == (want != ring.s_basis), cons
        cuts += want != ring.s_basis
    assert cuts == _CUTS.get(name, 0)


@pytest.mark.parametrize("gens, cut", [
    (((3, 1),), False),  # the ideal (3 + i), though i (3 + i) = 4 + 3i
    (((2, 1),), False),  # the ideal (2 + i)
    (((1, 0),), True),   # the integers mod 5, which i moves
])
def test_membership_reads_the_block_modulo_its_periods(gens, cut):
    # on Z[i]/5 in the basis (1, i), i (3 + i) = -1 + 3i is read as
    # (4, 3), which is 3 (3, 1) only modulo the periods; the oracle's dense
    # solve says which submodules every scalar keeps
    pairing = gaussian_pairing_mod(5)
    ring = scalar_ring(pairing)
    con = InvariantSubmodule("phi2", 0, gens)
    want = tuple(tuple(r) for r in ref_restrict_ring(pairing, [con]))
    assert (want != ring.s_basis) == cut
    assert refused(ring, [con]) == cut


@pytest.mark.parametrize("which, block, message", [
    ("phi1", 0, "phi1 carries no grading"),
    ("phi3", 0, "unknown matrix name 'phi3'"),
])
def test_block_matrices_name_a_bad_block(which, block, message):
    ring = scalar_ring(split_pairing(4, 6))
    with pytest.raises(ScalarRingError, match=re.escape(message)):
        ring.block_matrices(which, block)


_REFINED = {"HEIS": heis, "NR": nr, "F23": f23, "ZG": zg, "ZH": zh,
            "ZK": zk, "UT_8": lambda: unitriangular(8)}
_RECHECKED = {**_REFINED, "UT_7": lambda: unitriangular(7)}


@pytest.mark.parametrize("name", list(_RECHECKED))
def test_restrictions_pass_the_full_recheck(name):
    # scalar_ring builds the ring refined_ring returns without
    # ScalarRing's checks, and refined_ring certifies it as the refined
    # ring; run the oracle's check on it, and the dense solve of the
    # pairing's identities with the chains' own conditions
    b, ring, zc, w = rf.refined_ring(_RECHECKED[name]())
    assert ref_check_basis(ring.pairing, ring.s_basis)
    # the dense oracle solves UT_8's 1,219 unknowns in one HNF (2.3 s)
    if name != "UT_8":
        want = ref_restrict_ring(ring.pairing, chain_conditions(b, zc, w))
        assert ring.s_basis == tuple(tuple(r) for r in want)


# -- the public constructor checks a caller's basis -----------------------------


def random_pairing(rng):
    """At most two coordinates per module, periods None, 2, 3, 4 or 6, and
    table values that the orders of their arguments allow."""
    def periods():
        return tuple(rng.choice((None, 2, 3, 4, 6))
                     for _ in range(rng.randint(0, 2)))

    per_a, per_b, per_c = periods(), periods(), periods()
    table = []
    for ea in per_a:
        row = []
        for eb in per_b:
            g = ea if eb is None else eb if ea is None else gcd(ea, eb)
            row.append(tuple(
                rng.randint(-2, 2) if g is None
                else 0 if ec is None
                else rng.randint(-2, 2) * (ec // gcd(ec, g))
                for ec in per_c))
        table.append(tuple(row))
    return Pairing(per_a, per_b, per_c, tuple(table))


def perturbed(basis, rng):
    """basis with one row moved at or after its lead, dropped or doubled;
    the rows stay echelon."""
    rows = [list(r) for r in basis]
    if not rows:
        return rows
    k = rng.randrange(len(rows))
    pick = rng.random()
    if pick < 0.6:
        lead = next(i for i, v in enumerate(rows[k]) if v)
        i = rng.randrange(lead, len(rows[k]))
        d = rng.choice((-2, -1, 1, 2))
        if i == lead and rows[k][i] + d == 0:
            d = -d
        rows[k][i] += d
    elif pick < 0.8:
        del rows[k]
    else:
        rows[k] = [2 * v for v in rows[k]]
    return rows


def test_public_constructor_refuses_what_the_oracle_refuses():
    # ScalarRing(pairing, s_basis) checks through _base_system's rows; the
    # oracle writes the same conditions out by hand
    rng = random.Random(35)
    refused = []
    for _ in range(300):
        pairing = random_pairing(rng)
        basis = scalar_ring(pairing).s_basis
        if rng.random() < 0.7:
            basis = perturbed(basis, rng)
        if ref_check_basis(pairing, basis):
            ring = sc.ScalarRing(pairing, basis)
            assert ring.s_basis == tuple(map(tuple, basis))
            assert is_associative(ring)
        else:
            with pytest.raises(ScalarRingError) as err:
                sc.ScalarRing(pairing, basis)
            refused.append(str(err.value))
    for reason in ("not well defined", "pairing identities", "null triple",
                   "unit escapes"):
        assert any(reason in msg for msg in refused), reason


def test_public_constructor_refuses_a_lattice_not_closed_under_products():
    # Z^3 acting diagonally: the lattice of 1 and diag(1, 2, 3) holds the
    # unit, but not diag(1, 2, 3)^2 = diag(1, 4, 9)
    pairing = Pairing((None,) * 3, (None,) * 3, (None,) * 3,
                      tuple(tuple(tuple(int(s == t == k) for k in range(3))
                                  for t in range(3)) for s in range(3)))

    def diagonal(d):
        return [d[r] if r == c else 0 for _ in range(3)
                for r in range(3) for c in range(3)]

    basis = la.hnf_basis([diagonal((1, 1, 1)), diagonal((1, 2, 3))], 27)
    with pytest.raises(ScalarRingError, match="product of scalars escapes"):
        sc.ScalarRing(pairing, basis)
    assert not ref_check_basis(pairing, basis)


def gaussian_pairing_mod(p):
    # multiplication on Z[i]/p in the basis (1, i)
    return Pairing((p, p), (p, p), (p, p), gaussian_pairing().table)


# Z/n for n <= 40 (n = 1 is the zero ring), products of two Z/n, and
# Z[i]/p: local (p = 2), a field (p = 3) and split (p = 5)
_FINITE = {f"Z/{n}": (lambda n=n: multiplication_pairing(n))
           for n in range(1, 41)}
_FINITE.update({f"Z/{p}xZ/{q}": (lambda p=p, q=q: split_pairing(p, q))
                for p, q in ((2, 3), (4, 6), (2, 2), (3, 9), (4, 4), (5, 5),
                             (2, 4))})
_FINITE.update({f"Z[i]/{p}": (lambda p=p: gaussian_pairing_mod(p))
                for p in (2, 3, 5)})


def _factor(fn, ring):
    try:
        return fn(ring)
    except ScalarRingError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(_FINITE))
def test_primes_match_exhaustive_oracle(name):
    ring = scalar_ring(_FINITE[name]())
    want = _factor(ref_prime_decomposition_zero, ring)
    assert _factor(prime_decomposition_zero, ring) == want
    if name == "Z/1":
        assert want == "zero ideal is not a product of prime ideals"


def _upper_pairing(p):
    return pairing_of(bilinearize(
        p, list(reversed(sg.upper_central_series(p)))))


_SOLVED = {
    **{f"{name} {kind}": (lambda g=g, kind=kind:
                          _upper_pairing(g()) if kind == "upper"
                          else pairing_of(bilinearize(g())))
       for name, g in (("HEIS", heis), ("NR", nr), ("F23", f23), ("ZG", zg),
                       ("ZH", zh), ("ZK", zk))
       for kind in ("lower", "upper")},
    **{f"UT_{n}": (lambda n=n: pairing_of(bilinearize(unitriangular(n))))
       for n in range(4, 8)},
    **{f"H_{n}": (lambda n=n: pairing_of(bilinearize(heisenberg(n))))
       for n in range(3, 9)},
    "symplectic": symplectic_pairing,
    "Z[i]": gaussian_pairing,
    **_FINITE,
}


@pytest.mark.parametrize("name", list(_SOLVED))
def test_scalar_ring_matches_dense_solve(name):
    pairing = _SOLVED[name]()
    got, want = scalar_ring(pairing), ref_scalar_ring(pairing)
    assert got.s_basis == want.s_basis
    assert got.periods == want.periods
    assert got.unit == want.unit
    assert is_associative(got)


def test_scalar_ring_solves_small_blocks(monkeypatch):
    pairing = pairing_of(bilinearize(unitriangular(6)))
    seen = []
    real = la._hermite

    def spy(m, ncols):
        seen.append(len(m))
        return real(m, ncols)

    monkeypatch.setattr(la, "_hermite", spy)
    scalar_ring(pairing)
    assert seen and max(seen) <= 64
    seen.clear()
    ref_scalar_ring(pairing)
    assert max(seen) == 321


class TestPrimeDecomposition:
    def test_zmod6_splits(self):
        ring = scalar_ring(multiplication_pairing(6))
        factors = prime_decomposition_zero(ring)
        assert len(factors) == 2
        sets = {frozenset(f) for f in factors}
        assert sets == {
            frozenset({(0,), (2,), (4,)}),
            frozenset({(0,), (3,)}),
        }

    def test_zmod4_repeats_one_prime(self):
        ring = scalar_ring(multiplication_pairing(4))
        factors = prime_decomposition_zero(ring)
        assert len(factors) == 2
        assert factors[0] == factors[1] == frozenset({(0,), (2,)})

    def test_field_zero_ideal_is_prime(self):
        ring = scalar_ring(multiplication_pairing(5))
        factors = prime_decomposition_zero(ring)
        assert factors == [frozenset({(0,)})]

    def test_infinite_ring_rejected(self):
        ring = scalar_ring(symplectic_pairing())
        with pytest.raises(ScalarRingError):
            prime_decomposition_zero(ring)

    def test_non_commutative_ring_rejected(self):
        # f(a, b) = a_0 b, so phi1 has first row (phi0, 0) and a free
        # second row: the lower triangular 2 x 2 matrices over F_2
        ring = scalar_ring(Pairing((2, 2), (2,), (2,), (((1,),), ((0,),))))
        assert ring.order() == 8
        assert not ring.is_commutative
        with pytest.raises(ScalarRingError, match="commutative"):
            prime_decomposition_zero(ring)

    def test_order_bound_checked_before_factoring(self, monkeypatch):
        def refuse(ring, p):
            raise AssertionError("factoring started")

        monkeypatch.setattr(sc, "_maximal_ideal_gens", refuse)
        for n in (PRIMES_ORDER_CAP + 1, 10 ** 30):
            ring = scalar_ring(multiplication_pairing(n))
            with pytest.raises(ScalarRingError, match="factoring bound"):
                prime_decomposition_zero(ring)

    def test_ring_at_the_bound_is_factored(self):
        # 10^4 = 2^4 5^4: four factors 5Z/10^4, then four 2Z/10^4
        ring = scalar_ring(multiplication_pairing(PRIMES_ORDER_CAP))
        factors = prime_decomposition_zero(ring)
        assert [len(f) for f in factors] == [2000] * 4 + [5000] * 4
        assert factors[0] == frozenset((x,) for x in range(0, 10 ** 4, 5))


def _unit_acts_as_identity(rs):
    for entry in rs.actions:
        if entry.matrices is None:
            continue
        n = len(entry.section.periods)
        assert len(entry.matrices) == len(rs.ring.periods)
        acc = [[0] * n for _ in range(n)]
        for cj, m in zip(rs.ring.unit, entry.matrices):
            for r in range(n):
                for c in range(n):
                    acc[r][c] += cj * m[r][c]
        # column c holds the image of basis vector c, whose coordinate r
        # lives modulo periods[r]
        assert _columns(entry.section, acc) == _columns(entry.section,
                                                        eye(n))


class TestRefinedSeries:
    def test_heis(self):
        p = heis()
        rs = refined_series(p)
        assert rs.ring.periods == (None,)
        assert abs(rs.ring.unit[0]) == 1
        mid = sg.center(p)
        chain_u = [term for _, term in rs.upper_chain]
        chain_l = [term for _, term in rs.left_chain]
        assert chain_u == [sg.whole_subgroup(p), mid, sg.trivial_subgroup(p)]
        assert chain_l == chain_u
        assert rs.gap_section.periods == ()
        _unit_acts_as_identity(rs)

    def test_zg(self):
        p = zg()
        rs = refined_series(p)
        w = sg.whole_subgroup(p)
        z = sg.center(p)
        der = sg.commutator_subgroup(p, w, w)
        chain_u = [term for _, term in rs.upper_chain]
        assert chain_u == [w, z, der, sg.trivial_subgroup(p)]
        # the gap between the centre and the derived subgroup is an
        # infinite cyclic section generated by the fifth generator
        assert rs.gap_section.periods == (None,)
        assert rs.gap_section.basis[0] == pc.generator(p, 5)
        specials = [e for e in rs.actions if e.matrices is None]
        assert len(specials) == 2  # one per chain
        _unit_acts_as_identity(rs)

    def test_abelian_degenerate(self):
        p = pc.PcPresentation(name="A", periods=(None, None))
        rs = refined_series(p)
        assert rs.ring.periods == ()
        assert rs.gap_section.periods == (None, None)
        chain_u = [term for _, term in rs.upper_chain]
        assert chain_u == [sg.whole_subgroup(p), sg.trivial_subgroup(p)]

    def test_f23_runs_and_unit_acts(self):
        rs = refined_series(f23())
        assert rs.ring.is_commutative
        assert rs.ring.mul(rs.ring.unit, rs.ring.unit) == rs.ring.unit
        _unit_acts_as_identity(rs)

    def test_nr_runs(self):
        rs = refined_series(nr())
        assert rs.ring.mul(rs.ring.unit, rs.ring.unit) == rs.ring.unit
        _unit_acts_as_identity(rs)


# -- every gap is a module ------------------------------------------------------


def gaussian_heisenberg(period=None):
    """The Heisenberg group over Z[i], or over Z[i]/period in its centre:
    x = u1 + u2 i, y = u3 + u4 i, z = u5 + u6 i with [y, x] = z read as
    multiplication. Its ring is Z[i] (or Z[i]/period), of rank 2, so the
    basis has a product besides the unit's square."""
    return pc.PcPresentation(
        name="HG" if period is None else f"HG_{period}",
        periods=(None,) * 4 + (period,) * 2,
        commutators=(((3, 1), ((5, 1),)), ((3, 2), ((6, 1),)),
                     ((4, 1), ((6, 1),)),
                     ((4, 2), ((5, -1 if period is None else period - 1),))))


MODULE_INPUTS = {
    **{name: make for name, make in _REFINED.items() if name != "UT_8"},
    **{f"{name} rebased {seed}": (
        lambda make=make, seed=seed: random_basis_change(
            make(), random.Random(seed)))
       for name, make in _REFINED.items() if name != "UT_8"
       for seed in (0, 1)},
    "UT_4": lambda: unitriangular(4), "UT_5": lambda: unitriangular(5),
    "H_3": lambda: heisenberg(3), "H_4": lambda: heisenberg(4),
    "ZG_3": lambda: zg(3), "ZG_7": lambda: zg(7),
    "HG": gaussian_heisenberg, "HG_5": lambda: gaussian_heisenberg(5),
    # class 3 and 4 over a base ring of rank 2 (every named group of class
    # >= 3 above has one of rank 1); rebased UT_5(Z[i]) takes about 1 s
    "UT_4(Z[i])": lambda: ut_gaussian(4), "UT_5(Z[i])": lambda: ut_gaussian(5),
    "UT_4(Z[i]) rebased 0": lambda: random_basis_change(
        ut_gaussian(4), random.Random(0)),
}


def _columns(sec, mat):
    """The columns of mat, each reduced modulo the section's periods: the
    images of the section's basis vectors."""
    n = len(sec.periods)
    return tuple(sec.reduce(tuple(mat[r][c] for r in range(n)))
                 for c in range(n))


@pytest.mark.parametrize("name", list(MODULE_INPUTS))
def test_every_gap_is_a_module(name):
    # Each gap's matrices make it a module over the ring: the matrix of
    # b_j b_l, read off the ring's multiplication table, is M(b_j) M(b_l),
    # the order scalars._compose multiplies in, and the unit acts as
    # the identity, both modulo the section's periods.
    rs = refined_series(MODULE_INPUTS[name]())
    ring = rs.ring
    k = len(ring.periods)
    gaps = 0
    for entry in rs.actions:
        if entry.matrices is None:
            continue
        sec, mats = entry.section, entry.matrices
        n = len(sec.periods)
        assert len(mats) == k
        assert all(len(m) == n and all(len(row) == n for row in m)
                   for m in mats)

        def matrix_of(coords):
            return [[sum(cj * m[r][c] for cj, m in zip(coords, mats))
                     for c in range(n)] for r in range(n)]

        where = (entry.chain, entry.top, entry.bottom)
        assert _columns(sec, matrix_of(ring.unit)) == _columns(
            sec, eye(n)), where
        for j in range(k):
            for l in range(k):
                product_ = [[sum(mats[j][r][t] * mats[l][t][c]
                                 for t in range(n)) for c in range(n)]
                            for r in range(n)]
                assert _columns(sec, matrix_of(ring.mult_table[j][l])) == \
                    _columns(sec, product_), (where, j, l)
        gaps += 1
    assert gaps


@pytest.mark.parametrize("n", (4, 5))
def test_gaussian_unitriangular_ring_is_not_cut(n):
    # class n - 1 over Z[i]: the pairing ring has rank 2, refined_ring's
    # checks pass on both of its basis elements, and the oracle's dense
    # solve of the chains' conditions leaves all of it
    b, ring, zc, w = rf.refined_ring(ut_gaussian(n))
    assert ring.periods == (None, None)
    want = ref_restrict_ring(ring.pairing, chain_conditions(b, zc, w))
    assert ring.s_basis == tuple(tuple(r) for r in want)


@pytest.mark.parametrize("kind", ("lower", "upper"))
def test_graded_draws_certify_the_pairing_ring(kind):
    # class 4 and 5: refined_ring's checks pass on each draw, and the
    # oracle's dense solve of the chains' conditions leaves the whole ring
    for p in graded_draws():
        series = (list(reversed(sg.upper_central_series(p)))
                  if kind == "upper" else None)
        b, ring, zc, w = rf.refined_ring(p, series)
        want = ref_restrict_ring(ring.pairing, chain_conditions(b, zc, w))
        assert ring.s_basis == tuple(tuple(r) for r in want), p
