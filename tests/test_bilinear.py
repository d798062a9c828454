"""Bundles of commutator-induced pairings and their assembled map."""

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.bilinear import associated_series, bilinearize, SeriesError

from groups_def import f23, heis, zg

H = heis()
G = zg()
F = f23()


def gen(p, i):
    return pc.generator(p, i)


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
    assert b.evaluate(0, gen(H, 1), gen(H, 2)) == b.out[0].coords(u3)
    assert b.evaluate(0, gen(H, 2), gen(H, 1)) == b.out[0].coords(
        pc.inverse(H, u3))
    assert b.left_nondegenerate()
    assert b.right_nondegenerate()
    assert b.full()


@settings(max_examples=50, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 4))
def test_heis_form_value(v):
    x1, x2, y1, y2 = v
    b = bilinearize(H)
    x = pc.normal_form(H, ((1, x1), (2, x2)))
    y = pc.normal_form(H, ((1, y1), (2, y2)))
    got = b.evaluate(0, x, y)
    assert got == b.out[0].coords(pc.power(H, gen(H, 3), x1 * y2 - x2 * y1))


def test_zg_form_shape():
    b = bilinearize(G)
    assert b.v_r == sg.center(G)
    assert b.left.periods == (5, None, None, None)
    assert b.right[0].periods == (5, None, None, None)
    assert b.out[0].periods == (5, 5, 5, None, None)
    # [u1, u2] = u9 up in the derived subgroup
    u9 = gen(G, 9)
    assert b.evaluate(0, gen(G, 1), gen(G, 2)) == b.out[0].coords(u9)
    assert b.left_nondegenerate()
    assert b.right_nondegenerate()
    assert b.full()


def test_f23_bundle_blocks():
    b = bilinearize(F)
    assert b.series.c == 3
    assert sorted(sg.leading_index(r) for r in b.v_r.rows) == [3, 4, 5]
    assert b.left.periods == (None, None)
    assert b.right[0].periods == (None, None)
    assert b.right[1].periods == (None,)
    assert b.out[0].periods == (None,)
    assert b.out[1].periods == (None, None)
    assert b.evaluate(1, gen(F, 1), gen(F, 3)) == b.out[1].coords(
        pc.inverse(F, gen(F, 4)))
    assert b.left_nondegenerate()
    assert b.right_nondegenerate()
    assert b.full()


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
    assert b.evaluate(block, x, y) == b.out[block].coords(
        pc.commutator(F, x, y))
    lhs = b.evaluate(block, pc.multiply(F, x, x2), y)
    s = tuple(a + c for a, c in zip(b.evaluate(block, x, y),
                                    b.evaluate(block, x2, y)))
    assert lhs == b.out[block].reduce(s)
