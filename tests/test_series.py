"""The canonical subgroup zoo and the numeric invariants built from it."""

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.series import key_subgroups, hirsch_length, nilpotency_class

import oracles
from groups_def import heis, nr, zg, zh, zk, f23

G = zg()
N6 = nr()
H = heis()


def leads(s):
    return sorted(sg.leading_index(r) for r in s.rows)


def test_hirsch_and_class():
    assert hirsch_length(G) == 6
    assert hirsch_length(N6) == 4
    assert hirsch_length(H) == 3
    assert nilpotency_class(G) == 2
    assert nilpotency_class(N6) == 2
    assert nilpotency_class(H) == 2
    assert nilpotency_class(f23()) == 3


def test_zoo_zg():
    ks = key_subgroups(G)
    assert leads(ks.center) == [5, 6, 7, 8, 9, 10]
    assert leads(ks.derived) == [6, 7, 8, 9, 10]
    assert ks.derived_isolator == ks.derived
    assert leads(ks.torsion) == [6, 7, 8]
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
    assert leads(ks.torsion) == [5, 6]
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
    assert ks.torsion.is_trivial
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
