"""The canonical subgroup zoo and the numeric invariants built from it,
and a sweep over what the constructions prove instead of checking."""

import random

import pytest

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.abelian import section, torsion_subgroup
from nilpc.bilinear import associated_series, bilinearize
from nilpc.deformation import adapt_basis
from nilpc.scalars import pairing_of, scalar_ring
from nilpc.series import key_subgroups, hirsch_length

import oracles
from groups_def import (
    f23, graded_draws, heis, heisenberg, nr, random_basis_change,
    unitriangular, zg, zh, zk)
from test_collection import consistent_draws, random_presentation

G = zg()
N6 = nr()
H = heis()


def leads(s):
    return sorted(sg.leading_index(r) for r in s.rows)


def test_hirsch_and_class():
    assert hirsch_length(G) == 6
    assert hirsch_length(N6) == 4
    assert hirsch_length(H) == 3
    # the class as the analyze and invariants reports print it
    for p, c in ((G, 2), (N6, 2), (H, 2), (f23(), 3)):
        assert len(key_subgroups(p).lower_central) - 1 == c


def test_zoo_zg():
    ks = key_subgroups(G)
    assert leads(ks.center) == [5, 6, 7, 8, 9, 10]
    assert leads(ks.derived) == [6, 7, 8, 9, 10]
    assert ks.derived_isolator == ks.derived
    assert leads(torsion_subgroup(G)) == [6, 7, 8]
    assert leads(ks.iso_center) == [6, 7, 8, 9, 10]
    assert leads(ks.n_sub) == [5, 6, 7, 8, 9, 10]
    assert leads(ks.m_sub) == [4, 5, 6, 7, 8, 9, 10]
    row4 = ks.m_sub.row_at(4)
    assert row4[3] == 1
    # free complement of iso_center inside the center
    assert len(ks.g0.rows) == 1
    g0row = ks.g0.rows[0]
    assert sg.leading_index(g0row) == 5 and g0row[4] == 1
    assert ks.mn.periods == (5,)
    assert ks.n_is.periods == (None,)
    assert not ks.regular
    assert not ks.tame
    assert (ks.n, ks.p, ks.e) == (1, 1, 5)


def test_zoo_nr():
    ks = key_subgroups(N6)
    assert leads(ks.center) == [3, 4, 5, 6]
    assert ks.center.row_at(3)[2] == 3
    assert leads(ks.derived) == [4, 5, 6]
    assert ks.derived_isolator == ks.derived
    assert leads(torsion_subgroup(N6)) == [5, 6]
    assert ks.n_sub == ks.center
    assert leads(ks.m_sub) == [3, 4, 5, 6]
    assert ks.m_sub.row_at(3)[2] == 1
    g0row = ks.g0.rows[0]
    assert sg.leading_index(g0row) == 3 and g0row[2] == 3
    assert ks.mn.periods == (3,)
    assert ks.n_is.periods == (None,)
    assert not ks.regular
    assert not ks.tame
    assert (ks.n, ks.p, ks.e) == (1, 1, 3)


def test_zoo_heis():
    ks = key_subgroups(H)
    assert leads(ks.center) == [3]
    assert leads(ks.derived) == [3]
    assert ks.derived_isolator == ks.derived
    assert torsion_subgroup(H).is_trivial
    assert ks.n_sub == ks.center
    assert ks.m_sub == ks.center
    assert ks.g0.is_trivial  # iso_center is all of the center here
    assert ks.mn.periods == ()
    assert ks.n_is.periods == ()
    assert ks.regular
    assert ks.tame
    assert (ks.n, ks.p, ks.e) == (0, 0, 1)


def test_foundation_nr():
    ks = key_subgroups(N6)
    f = oracles.ref_quotient(ks.pres, ks.g0).pres
    assert f.periods == (None, None, 3, None, 3, 3)
    assert pc.consistency_check(f).ok
    # c becomes an honest order-3 generator with trivial power tail
    assert all(idx != 3 for idx, _ in f.powers)


def test_foundation_heis_is_whole_group():
    ks = key_subgroups(H)
    f = oracles.ref_quotient(ks.pres, ks.g0).pres
    assert f.periods == (None, None, None)


def test_invariants_agree_across_deformed_fixtures():
    a, b, c = key_subgroups(G), key_subgroups(zh()), key_subgroups(zk())
    for x in (b, c):
        assert x.mn.periods == a.mn.periods
        assert (x.n, x.p, x.e) == (a.n, a.p, a.e)
        assert x.regular == a.regular and x.tame == a.tame


# -- what the constructions prove instead of checking ---------------------------
#
# key_subgroups, upper_central_series,
# lower_central_series, constrained_subgroup, associated_series,
# ScalarRing, scalar_ring, abelian.section and adapt_basis prove these
# properties of their output or input in their docstrings and do not check
# them when they run.

FIXTURES = {"HEIS": heis, "NR": nr, "F23": f23, "ZG": zg, "ZH": zh, "ZK": zk}
SWEEP = {
    **FIXTURES,
    **{f"{name} rebased {seed}":
       (lambda g=g, seed=seed: random_basis_change(g(), random.Random(seed)))
       for name, g in FIXTURES.items()
       # the rebased ZG family solves its scalar ring slowly (ROADMAP K)
       for seed in (range(3) if name in ("HEIS", "NR", "F23") else (0,))},
    **{f"UT_{n}": (lambda n=n: unitriangular(n)) for n in (4, 5, 6)},
    **{f"H_{n}": (lambda n=n: heisenberg(n)) for n in (3, 4, 5)},
    "ZG_3": lambda: zg(3), "ZG_7": lambda: zg(7),
}


def assert_constructions_hold(p):
    whole = sg.whole_subgroup(p)
    ks = key_subgroups(p)
    # M/N is finite and N/Is(G') free (KeySubgroups)
    assert None not in ks.mn.periods
    assert set(ks.n_is.periods) <= {None}
    assert_center_split(p)
    # G is nilpotent (upper_central_series), and gamma_k <= G_k, so the
    # lower central series reaches 1 (lower_central_series)
    upper = sg.upper_central_series(p)
    assert upper[-1] == whole
    lower = sg.lower_central_series(p)
    assert lower[-1].is_trivial
    for k, term in enumerate(lower, 1):
        assert all(sg.leading_index(r) >= k for r in term.rows)
    for series in (None, upper[::-1]):
        # L ends at 1 and [U_k, G] = L_{k+1} (associated_series)
        s = associated_series(p, series)
        assert s.lower[-1].is_trivial
        for k, u in enumerate(s.upper):
            assert sg.commutator_subgroup(p, u, whole) == s.lower[k + 1]
        # the multiplication table is associative (ScalarRing), and the
        # basis passes the checks that scalar_ring skips
        ring = scalar_ring(pairing_of(bilinearize(p, series)))
        assert oracles.is_associative(ring)
        assert oracles.ref_check_basis(ring.pairing, ring.s_basis)
    # G/M is free, the remainder after the three sections, the last read
    # through the central lifts, lies in Is(G'), and the adapted
    # presentation is consistent (adapt_basis)
    seg1 = section(p, whole, ks.m_sub)
    segments = ((seg1, seg1.basis), (ks.mn, ks.mn.basis),
                (ks.n_is, ks.central_lifts))
    assert set(seg1.periods) <= {None}
    for i in range(1, p.m + 1):
        w = pc.generator(p, i)
        for seg, gens in segments:
            x = sg.prod_rows(p, gens, seg.coords(w))
            w = pc.multiply(p, pc.inverse(p, x), w)
        assert ks.derived_isolator.contains(w)
    assert pc.consistency_check(adapt_basis(p).pres).ok
    # every constrained pass above kept rows x of s with [x, h] in L for
    # each condition (hs, L), the layer invariant it does not check
    # (constrained_subgroup)
    passes = [(key[1], key[2], t) for key, t in p._built.items()
              if key[0] == "constrained"]
    assert passes
    for s_rows, conditions, t in passes:
        assert all(sg.Subgroup(p, s_rows).contains(x) for x in t.rows)
        for hs, ell_rows in conditions:
            ell = sg.Subgroup(p, ell_rows)
            assert all(ell.contains(pc.commutator(p, x, h))
                       for x in t.rows for h in hs)
    # every section built above has b <= a and [a, a] <= b, which section
    # does not check (abelian.section)
    sections = [key[1:] for key in p._built if key[0] == "section"]
    assert sections
    for a_rows, b_rows in sections:
        a, b = sg.Subgroup(p, a_rows), sg.Subgroup(p, b_rows)
        assert all(a.contains(r) for r in b_rows)
        assert all(b.contains(pc.commutator(p, r, s))
                   for r in a_rows for s in a_rows)


def assert_center_split(p):
    """The split of the center over Is(G') that key_subgroups reads off
    one HNF, checked by its properties alone."""
    ks = key_subgroups(p)
    z, iso_c = ks.center, ks.iso_center
    # iso_center lies in Z n Is(G') and Z/iso_center is free of rank p;
    # Z/(Z n Is(G')) = N/Is(G') has rank p too, so (Z n Is(G'))/iso_center
    # is finite inside a free group: iso_center is all of Z n Is(G')
    assert all(z.contains(r) and ks.derived_isolator.contains(r)
               for r in iso_c.rows)
    assert section(p, z, iso_c).periods == (None,) * ks.p
    assert ks.n_is.free_rank == ks.p
    # g0 and iso_center generate Z, and g0 has Hirsch rank p
    assert sg.induce(p, list(ks.g0.rows) + list(iso_c.rows)) == z
    assert ks.g0.relative_orders().count(None) == ks.p
    # each lift is central with a unit vector as N/Is(G') coordinates
    for t, x in enumerate(ks.central_lifts):
        assert z.contains(x)
        assert ks.n_is.coords(x) == tuple(int(k == t) for k in range(ks.p))
    assert ks.tame == (ks.p == 0)


def test_center_split_holds_its_properties_on_random_presentations():
    for _, p in consistent_draws(0):
        assert_center_split(p)


@pytest.mark.parametrize("name", SWEEP)
def test_constructions_hold_what_they_prove(name):
    assert_constructions_hold(SWEEP[name]())


def test_constructions_hold_what_they_prove_on_graded_draws():
    # class 4 and 5; every third draw, as all 30 take about 7 s
    for p in graded_draws()[::3]:
        assert_constructions_hold(p)


def test_constructions_hold_what_they_prove_on_random_presentations():
    rng = random.Random(0)
    consistent = 0
    for _ in range(300):
        p = random_presentation(rng)
        if pc.consistency_check(p).ok:
            consistent += 1
            assert_constructions_hold(p)
    assert consistent >= 50
