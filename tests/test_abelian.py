"""Section bases A/B with invariant factors and exact coordinates."""

import random

import pytest

from nilpc import abelian
from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.abelian import FgAbelian, abelianization, isolator, section, \
    torsion_subgroup
from nilpc.cli import main

import oracles
from groups_def import f23, heis, heis_index2, heisenberg, nr, \
    random_basis_change, unitriangular, zg, zh, zk
from test_cli import FIXTURES, REPORT_COMMANDS

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
    rebuilt = sg.prod_rows(a2, ab.basis, x)
    assert ab.coords(rebuilt) == x


def test_section_mn_zg_is_z5():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    iso = isolator(G, der)
    z = sg.center(G)
    n = sg.induce(G, list(iso.rows) + list(z.rows))
    m = isolator(G, sg.induce(G, list(der.rows) + list(z.rows)))
    mn = FgAbelian(G, m, n)
    assert mn.periods == (5,)
    assert mn.coords(gen(G, 4)) == (1,)
    assert mn.coords(pc.power(G, gen(G, 4), 3)) == (3,)
    assert mn.coords(pc.multiply(G, gen(G, 5), gen(G, 4))) == (1,)


def test_section_free_orientation_zg():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    iso = isolator(G, der)
    z = sg.center(G)
    m = isolator(G, sg.induce(G, list(der.rows) + list(z.rows)))
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


def test_section_requires_b_inside_a():
    z = sg.center(H)
    with pytest.raises(sg.SubgroupError):
        FgAbelian(H, z, sg.whole_subgroup(H))
    x = sg.induce(H, [gen(H, 1)])
    with pytest.raises(sg.SubgroupError):
        FgAbelian(H, x, z)


def test_section_non_abelian_modulo_nontrivial_b():
    # F23/gamma_3 is HEIS: not abelian though b is a nontrivial term
    lcs = sg.lower_central_series(F)
    with pytest.raises(sg.SubgroupError):
        FgAbelian(F, lcs[0], lcs[2])


# -- agreement with sections and isolators read in G/b ----------------------


def _assert_section_agrees(p, a, b, sec, rng):
    ref = oracles.ref_section(p, a, b)
    assert sec.periods == ref.periods
    assert [list(r) for r in sec.rows] == [list(r) for r in ref.rows]
    assert sec.basis == ref.basis
    elements = list(sec.basis) + [
        sg.prod_rows(p, a.rows, [rng.randint(-3, 3) for _ in a.rows])
        for _ in range(20)]
    for x in elements:
        assert sec.coords(x) == ref.coords(x)


@pytest.mark.parametrize("name", ["HEIS", "NR", "F23", "ZG", "ZH", "ZK"])
def test_report_sections_match_quotient_oracle(capsys, monkeypatch, name):
    built = {}
    build = abelian._unchecked_section

    def recording(p, a, b):
        sec = build(p, a, b)
        built.setdefault((id(p), a.rows, b.rows), (p, a, b, sec))
        return sec

    monkeypatch.setattr(abelian, "_unchecked_section", recording)
    for cmd in REPORT_COMMANDS:
        main([cmd[0], str(FIXTURES / f"{name}.json"), *cmd[1:]])
        capsys.readouterr()
    monkeypatch.undo()
    assert built
    rng = random.Random(name)
    for p, a, b, sec in built.values():
        _assert_section_agrees(p, a, b, sec, rng)


RANDOM_SECTIONS = {"HEIS": heis, "NR": nr, "ZG": zg,
                   "UT_4": lambda: unitriangular(4)}


@pytest.mark.parametrize("name", sorted(RANDOM_SECTIONS))
def test_random_sections_match_quotient_oracle(name):
    # b is the normal closure of [a0, a0] and a square, and a = <a0, b>,
    # so b is normal and a/b abelian.  The image rows are not generators:
    # stripping one moves coordinates at b's leads out of range.
    p = RANDOM_SECTIONS[name]()
    rng = random.Random(name)

    def element():
        return tuple(rng.randrange(e) if e is not None else rng.randint(-2, 2)
                     for e in p.periods)

    for _ in range(8):
        a0 = sg.induce(p, [element() for _ in range(rng.randint(1, 3))])
        gens = [pc.commutator(p, r, s) for r in a0.rows for s in a0.rows]
        b = sg.induce(p, gens + [pc.power(p, a0.rows[0], 2)], normal=True)
        a = sg.induce(p, list(a0.rows) + list(b.rows))
        _assert_section_agrees(p, a, b, FgAbelian(p, a, b), rng)


def _rebased(make):
    def build():
        p = make()
        return random_basis_change(p, random.Random(p.name))
    return build


LAYERED = {
    **{f"UT_{n}": (lambda n=n: unitriangular(n)) for n in range(4, 8)},
    **{f"H_{n}": (lambda n=n: heisenberg(n)) for n in range(3, 9)},
    "HEIS rebased": _rebased(heis), "NR rebased": _rebased(nr),
    "F23 rebased": _rebased(f23),
    "UT_4 rebased": _rebased(lambda: unitriangular(4)),
}


@pytest.mark.parametrize("name", sorted(LAYERED))
def test_central_series_layers_match_quotient_oracle(name):
    p = LAYERED[name]()
    rng = random.Random(name)
    lcs = sg.lower_central_series(p)
    ucs = sg.upper_central_series(p)
    pairs = list(zip(lcs, lcs[1:])) + list(zip(ucs[1:], ucs))
    for a, b in pairs:
        _assert_section_agrees(p, a, b, FgAbelian(p, a, b), rng)


@pytest.mark.parametrize("name", sorted(LAYERED))
def test_section_is_kept_per_pair_of_subgroups(name):
    # section(p, a, b) builds a/b once and hands back the same object; a
    # pair that differs from another in a alone or in b alone is another
    # section.  gamma_i/gamma_j is abelian for i < j <= 2i.
    p = LAYERED[name]()
    lcs = sg.lower_central_series(p)
    for i, a in enumerate(lcs):
        for b in lcs[i + 1:2 * i + 2]:
            sec = section(p, a, b)
            assert section(p, a, b) is sec
            ref = FgAbelian(p, a, b)
            assert (sec.periods, sec.basis) == (ref.periods, ref.basis)


def torsion_tower():
    """x free, t of period 3 and [t, x] = s of period 3: the torsion <t, s>
    is reached in two steps, s central first and then t."""
    return pc.PcPresentation(
        name="TOWER", periods=(None, 3, 3), powers=(),
        commutators=(((2, 1), ((3, 1),)),))


ISOLATED = {
    "HEIS": heis, "ZG": zg, "ZH": zh, "ZK": zk, "NR": nr, "F23": f23,
    "HEIS-index2": heis_index2, "TOWER": torsion_tower,
    "UT_4": lambda: unitriangular(4), "H_3": lambda: heisenberg(3),
    "NR rebased": _rebased(nr), "F23 rebased": _rebased(f23),
}


@pytest.mark.parametrize("name", sorted(ISOLATED))
def test_isolators_match_quotient_oracle(name):
    p = ISOLATED[name]()
    assert pc.consistency_check(p).ok
    lcs = sg.lower_central_series(p)
    der = lcs[1] if len(lcs) > 1 else lcs[0]
    dz = sg.induce(p, list(der.rows) + list(sg.center(p).rows))
    for n in [der, dz, sg.trivial_subgroup(p)] + lcs:
        assert isolator(p, n) == oracles.ref_isolator(p, n)
    assert torsion_subgroup(p) == oracles.ref_torsion(p)
