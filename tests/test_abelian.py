"""Section bases A/B with invariant factors and exact coordinates."""

import pytest

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.abelian import FgAbelian, abelianization

from groups_def import heis, nr, zg, f23

G = zg()
N6 = nr()
H = heis()
F = f23()


def gen(p, i):
    return pc.generator(p, i)


def test_ab_invariants_fixture_groups():
    assert abelianization(G).periods == (None, None, None, None)
    assert abelianization(N6).periods == (None, None, None)
    assert abelianization(H).periods == (None, None)
    assert abelianization(F).periods == (None, None)


def test_mixed_torsion_invariants():
    # <x, y | x^2 = y^2, y^4 = 1> is Z/2 + Z/4, not Z/2 + Z/8
    a2 = pc.PcPresentation(
        name="A2",
        periods=(2, 4),
        powers=((1, ((2, 2),)),),
        commutators=(),
    )
    assert pc.consistency_check(a2).ok
    ab = FgAbelian(a2, sg.whole_subgroup(a2), sg.trivial_subgroup(a2))
    assert ab.periods == (2, 4)
    x = ab.coords(pc.generator(a2, 1))
    rebuilt = ab.element(x)
    assert ab.coords(rebuilt) == x


def test_section_mn_zg_is_z5():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    iso = sg.isolator(G, der)
    z = sg.center(G)
    n = sg.induce(G, list(iso.rows) + list(z.rows))
    m = sg.isolator(G, sg.induce(G, list(der.rows) + list(z.rows)))
    mn = FgAbelian(G, m, n)
    assert mn.periods == (5,)
    assert mn.coords(gen(G, 4)) == (1,)
    assert mn.coords(pc.power(G, gen(G, 4), 3)) == (3,)
    assert mn.coords(pc.multiply(G, gen(G, 5), gen(G, 4))) == (1,)


def test_section_free_orientation_zg():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    iso = sg.isolator(G, der)
    z = sg.center(G)
    m = sg.isolator(G, sg.induce(G, list(der.rows) + list(z.rows)))
    a = FgAbelian(G, m, iso)
    assert a.periods == (None,)
    assert a.coords(gen(G, 4)) == (1,)
    assert a.basis[0] == gen(G, 4)


def test_coords_additive():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    ab = FgAbelian(G, w, der)
    x = pc.normal_form(G, ((1, 2), (2, -1), (4, 3)))
    y = pc.normal_form(G, ((2, 5), (3, 1), (4, 4)))
    cx, cy = ab.coords(x), ab.coords(y)
    cxy = ab.coords(pc.multiply(G, x, y))
    assert cxy == ab.reduce(tuple(a + b for a, b in zip(cx, cy)))


def test_coords_reject_outsider():
    z = sg.center(G)
    iso = sg.induce(G, [gen(G, i) for i in range(6, 11)])
    sec = FgAbelian(G, z, iso)
    with pytest.raises(sg.SubgroupError):
        sec.coords(gen(G, 1))


def test_section_requires_commutativity():
    w = sg.whole_subgroup(H)
    with pytest.raises(sg.SubgroupError):
        FgAbelian(H, w, sg.trivial_subgroup(H))
