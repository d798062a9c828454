"""Bundles of commutator-induced pairings and their assembled map."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.abelian import section
from nilpc.bilinear import associated_series, bilinearize, SeriesError
from nilpc.intlinalg import identity

from groups_def import (
    ALL_CONSISTENT, c4, f23, heis, heis_index2, heisenberg,
    random_basis_change, unitriangular, ut_gaussian, zg)
from oracles import ref_pairing_properties
from test_collection import consistent_draws

H = heis()
G = zg()
F = f23()


def gen(p, i):
    return pc.generator(p, i)


def table_value(b, block, x, y):
    """The class of [x, y] in out[block], read off tables[block]: the
    coordinates of x and y contracted with the table."""
    acc = [0] * len(b.out[block].periods)
    for xv, row in zip(b.left.coords(x), b.tables[block]):
        for yv, cell in zip(b.right[block].coords(y), row):
            for k, v in enumerate(cell):
                acc[k] += xv * yv * v
    return b.out[block].reduce(tuple(acc))


def assert_nondegenerate_and_full(b):
    # the theorem of bilinear's docstring, checked by the dense oracle: the
    # left radical is v_r, no block has a right radical, and each block's
    # values span its target
    left, rights, spans = ref_pairing_properties(b)
    assert left == b.v_r
    assert rights == ((),) * len(b.right)
    assert spans == tuple(tuple(map(tuple, identity(len(o.periods))))
                          for o in b.out)


def test_associated_series_heis():
    s = associated_series(H)
    assert s.c == 2
    assert [len(x.rows) for x in s.lower] == [3, 1, 0]
    # upper companion: G, then the centralizer of everything
    assert s.upper[0].index_in_ambient() == 1
    assert sorted(sg.leading_index(r) for r in s.upper[1].rows) == [3]


def test_associated_series_rejects_non_central():
    bad = [sg.whole_subgroup(H), sg.trivial_subgroup(H)]
    with pytest.raises(SeriesError):
        associated_series(H, bad)


def test_associated_series_rejects_a_series_that_does_not_descend():
    # G > Z < G > G' > 1 is central in a group of class 2, but its
    # companions do not descend, so a layer such as Z/G would be no section
    for p in (H, G):
        w, z = sg.whole_subgroup(p), sg.center(p)
        der = sg.lower_central_series(p)[1]
        bad = [w, z, w, der, sg.trivial_subgroup(p)]
        with pytest.raises(SeriesError, match="does not descend"):
            associated_series(p, bad)
        with pytest.raises(SeriesError, match="does not descend"):
            bilinearize(p, bad)


def test_heis_form_is_determinant():
    b = bilinearize(H)
    assert b.v_r == sg.center(H)
    assert b.left.periods == (None, None)
    assert b.right[0].periods == (None, None)
    assert b.out[0].periods == (None,)
    u3 = gen(H, 3)
    assert table_value(b, 0, gen(H, 1), gen(H, 2)) == b.out[0].coords(u3)
    assert table_value(b, 0, gen(H, 2), gen(H, 1)) == b.out[0].coords(
        pc.inverse(H, u3))
    assert_nondegenerate_and_full(b)


@settings(max_examples=50, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 4))
def test_heis_form_value(v):
    x1, x2, y1, y2 = v
    b = bilinearize(H)
    x = pc.normal_form(H, ((1, x1), (2, x2)))
    y = pc.normal_form(H, ((1, y1), (2, y2)))
    got = table_value(b, 0, x, y)
    assert got == b.out[0].coords(pc.power(H, gen(H, 3), x1 * y2 - x2 * y1))


def test_zg_form_shape():
    b = bilinearize(G)
    assert b.v_r == sg.center(G)
    assert b.left.periods == (5, None, None, None)
    assert b.right[0].periods == (5, None, None, None)
    assert b.out[0].periods == (5, 5, 5, None, None)
    # [u1, u2] = u9 up in the derived subgroup
    u9 = gen(G, 9)
    assert table_value(b, 0, gen(G, 1), gen(G, 2)) == b.out[0].coords(u9)
    assert_nondegenerate_and_full(b)


def test_f23_bundle_blocks():
    b = bilinearize(F)
    assert b.series.c == 3
    assert sorted(sg.leading_index(r) for r in b.v_r.rows) == [3, 4, 5]
    assert b.left.periods == (None, None)
    assert b.right[0].periods == (None, None)
    assert b.right[1].periods == (None,)
    assert b.out[0].periods == (None,)
    assert b.out[1].periods == (None, None)
    assert table_value(b, 1, gen(F, 1), gen(F, 3)) == b.out[1].coords(
        pc.inverse(F, gen(F, 4)))
    assert_nondegenerate_and_full(b)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(-4, 4)] * 2),
    st.tuples(*[st.integers(-4, 4)] * 2),
    st.integers(-4, 4),
    st.integers(0, 1),
)
def test_f23_table_matches_commutators(xc, xc2, yc, block):
    b = bilinearize(F)
    x = pc.normal_form(F, ((1, xc[0]), (2, xc[1])))
    x2 = pc.normal_form(F, ((1, xc2[0]), (2, xc2[1])))
    y = sg.prod_rows(F, b.series.upper[block].rows,
                     [yc] * len(b.series.upper[block].rows))
    assert table_value(b, block, x, y) == b.out[block].coords(
        pc.commutator(F, x, y))
    lhs = table_value(b, block, pc.multiply(F, x, x2), y)
    s = tuple(a + c for a, c in zip(table_value(b, block, x, y),
                                    table_value(b, block, x2, y)))
    assert lhs == b.out[block].reduce(s)


# the groups of the theorem's sweep, each with three seeded rebases
THEOREM_GROUPS = {
    **{make.__name__: make for make in ALL_CONSISTENT + [heis_index2, c4]},
    **{f"UT_{n}": (lambda n=n: unitriangular(n)) for n in (4, 5, 6)},
    **{f"H_{n}": (lambda n=n: heisenberg(n)) for n in (3, 4, 5)},
    **{f"UT_{n}(Z[i])": (lambda n=n: ut_gaussian(n)) for n in (4, 5)},
    "ZG_3": lambda: zg(3), "ZG_7": lambda: zg(7),
}
THEOREM_INPUTS = {}
for _name, _make in THEOREM_GROUPS.items():
    THEOREM_INPUTS[_name] = lambda make=_make: [make()]
    for _seed in (0, 1, 2):
        THEOREM_INPUTS[f"{_name} rebased {_seed}"] = (
            lambda make=_make, seed=_seed: [
                random_basis_change(make(), random.Random(seed))])
THEOREM_INPUTS["seed-0 draws"] = lambda: [
    p for _, p in consistent_draws(0)[::10]]


@pytest.mark.parametrize("name", THEOREM_INPUTS)
def test_pairings_are_nondegenerate_and_full(name):
    # bilinear's docstring proves it for every series associated_series
    # accepts; the lower and the upper central series on each input
    for p in THEOREM_INPUTS[name]():
        for series in (None, list(reversed(sg.upper_central_series(p)))):
            assert_nondegenerate_and_full(bilinearize(p, series))


def test_oracle_sees_a_degenerate_pairing():
    # HEIS's radical taken as G, without its one condition, is too large;
    # F23's block 1 taken over 1 instead of upper[2] keeps a right radical
    large = bilinearize(H)._replace(v_r=sg.whole_subgroup(H))
    left, _, _ = ref_pairing_properties(large)
    assert left == sg.center(H) != large.v_r
    b = bilinearize(F)
    wide = section(F, b.series.upper[1], sg.trivial_subgroup(F))
    _, rights, _ = ref_pairing_properties(
        b._replace(right=(b.right[0], wide)))
    assert rights[0] == () and rights[1]
