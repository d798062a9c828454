"""Collection engine: frozen values, the matrix-model oracle, and group laws."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.presentation import PcPresentation, PresentationError

import oracles
from groups_def import ALL_CONSISTENT, heis, mutated_heis, nr, zg


H = heis()
G = zg()


def he(x, y, z):
    return (x, y, z)


# -- frozen collection values ----------------------------------------------


def test_heis_basic_products():
    assert pc.multiply(H, he(0, 1, 0), he(1, 0, 0)) == (1, 1, -1)
    sq = pc.multiply(H, he(1, 1, 0), he(1, 1, 0))
    assert sq == (2, 2, -1)
    assert pc.power(H, he(1, 1, 0), 2) == (2, 2, -1)
    assert pc.power(H, he(1, 1, 0), 3) == (3, 3, -3)
    assert pc.inverse(H, he(1, 1, 0)) == (-1, -1, -1)


def test_heis_commutator_convention():
    u1 = pc.generator(H, 1)
    u2 = pc.generator(H, 2)
    assert pc.commutator(H, u2, u1) == (0, 0, -1)
    assert pc.commutator(H, u1, u2) == (0, 0, 1)


def test_zg_power_tail_wraps():
    u4 = pc.generator(G, 4)
    assert pc.power(G, u4, 6) == (0, 0, 0, 1, 1, 0, 0, 0, 0, 0)
    a = pc.power(G, u4, 4)
    b = pc.power(G, u4, 2)
    assert pc.multiply(G, a, b) == (0, 0, 0, 1, 1, 0, 0, 0, 0, 0)


def test_zg_commutator_reduced_mod_period():
    u2 = pc.generator(G, 2)
    u3 = pc.generator(G, 3)
    got = pc.commutator(G, u2, u3)
    assert got == (0, 0, 0, 0, 0, 4, 0, 0, 0, 0)


def test_normal_form_of_word():
    # u2 u1 u2: collect to u1 u2^2 u3^-1
    assert pc.normal_form(H, ((2, 1), (1, 1), (2, 1))) == (1, 2, -1)
    assert pc.normal_form(H, ()) == (0, 0, 0)


def test_large_exponents_fast():
    big = pc.power(H, he(1, 1, 0), 10 ** 6)
    assert big[0] == 10 ** 6
    assert big[1] == 10 ** 6
    # z-coordinate follows the triangular model
    x, y, z = big
    assert oracles.heis_matrix(x, y, z) == oracles.heis_mat_pow(
        oracles.heis_matrix(1, 1, 0), 10 ** 6
    )


# -- matrix-model oracle ----------------------------------------------------


coord = st.integers(-50, 50)


@settings(max_examples=300, deadline=None)
@given(coord, coord, coord, coord, coord, coord)
def test_heis_against_matrix_model(x1, y1, z1, x2, y2, z2):
    a = he(x1, y1, z1)
    b = he(x2, y2, z2)
    got = pc.multiply(H, a, b)
    expect = oracles.heis_coords(
        oracles.heis_mat_mul(
            oracles.heis_matrix(x1, y1, z1), oracles.heis_matrix(x2, y2, z2)
        )
    )
    assert got == expect


@settings(max_examples=100, deadline=None)
@given(coord, coord, coord, st.integers(-20, 20))
def test_heis_powers_against_matrix_model(x, y, z, n):
    got = pc.power(H, he(x, y, z), n)
    expect = oracles.heis_coords(
        oracles.heis_mat_pow(oracles.heis_matrix(x, y, z), n)
    )
    assert got == expect


# -- group laws on the bigger fixtures ---------------------------------------


def zg_elements():
    def build(vals):
        out = []
        it = iter(vals)
        for e in G.periods:
            v = next(it)
            out.append(v % e if e is not None else v)
        return tuple(out)

    return st.lists(
        st.integers(-30, 30), min_size=G.m, max_size=G.m
    ).map(build)


@settings(max_examples=150, deadline=None)
@given(zg_elements(), zg_elements(), zg_elements())
def test_zg_associativity(a, b, c):
    lhs = pc.multiply(G, pc.multiply(G, a, b), c)
    rhs = pc.multiply(G, a, pc.multiply(G, b, c))
    assert lhs == rhs
    _assert_canonical(G, lhs)


@settings(max_examples=150, deadline=None)
@given(zg_elements())
def test_zg_inverse_law(a):
    assert pc.multiply(G, a, pc.inverse(G, a)) == pc.identity_element(G)
    assert pc.multiply(G, pc.inverse(G, a), a) == pc.identity_element(G)


@settings(max_examples=60, deadline=None)
@given(zg_elements(), st.integers(-12, 12), st.integers(-12, 12))
def test_zg_power_law(a, s, t):
    lhs = pc.power(G, a, s + t)
    rhs = pc.multiply(G, pc.power(G, a, s), pc.power(G, a, t))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(zg_elements(), zg_elements())
def test_zg_commutator_definition(a, b):
    direct = pc.commutator(G, a, b)
    built = pc.multiply(
        G,
        pc.multiply(G, pc.inverse(G, a), pc.inverse(G, b)),
        pc.multiply(G, a, b),
    )
    assert direct == built


@settings(max_examples=60, deadline=None)
@given(zg_elements())
def test_zg_word_roundtrip(a):
    assert pc.normal_form(G, pc.word_of(G, a)) == a


# -- consistency --------------------------------------------------------------


def test_fixtures_are_consistent():
    for factory in ALL_CONSISTENT:
        p = factory()
        report = pc.consistency_check(p)
        assert report.ok, (p.name, report.failures)


def test_dropped_presentation_is_freed():
    # The collector's tables and the constrained passes built on a
    # presentation live on it, not in a process-wide cache, so a
    # presentation goes once nothing refers to it; the cycle
    # p -> center -> p is left to the cycle collector.
    p = zg()
    x = pc.normal_form(p, [(i, 1) for i in range(p.m, 0, -1)])
    pc.multiply(p, x, x)
    pc.power(p, x, -3)
    assert pc.consistency_check(p).ok
    z = sg.center(p)
    assert z.pres is p and p._built
    del z
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_mutated_heis_fails_consistency():
    report = pc.consistency_check(mutated_heis())
    assert not report.ok
    hit = [f for f in report.failures if f.kind == "gen-power"]
    assert hit
    f = hit[0]
    assert (f.j, f.i) == (2, 1)
    assert f.lhs == (0, 1, 0)
    assert f.rhs == (0, 1, -2)


# -- validation ---------------------------------------------------------------


def test_period_one_rejected():
    with pytest.raises(PresentationError):
        PcPresentation(name="bad", periods=(1,), powers=(), commutators=())


def test_power_tail_support_must_be_deeper():
    with pytest.raises(PresentationError):
        PcPresentation(
            name="bad",
            periods=(2, None),
            powers=((1, ((1, 1),)),),
            commutators=(),
        )


def test_power_tail_only_for_finite_periods():
    with pytest.raises(PresentationError):
        PcPresentation(
            name="bad",
            periods=(None, None),
            powers=((1, ((2, 1),)),),
            commutators=(),
        )


def test_commutator_support_must_be_deeper():
    with pytest.raises(PresentationError):
        PcPresentation(
            name="bad",
            periods=(None, None, None),
            powers=(),
            commutators=(((2, 1), ((2, 1),)),),
        )


def test_tail_exponent_out_of_range_rejected():
    with pytest.raises(PresentationError):
        PcPresentation(
            name="bad",
            periods=(2, None, 3),
            powers=((1, ((3, 5),)),),
            commutators=(),
        )


def test_tail_repeating_a_generator_rejected():
    # the collector would read ((3, 1), (3, 1)) as u3, a word evaluation as
    # u3^2: tails must name each generator once, in ascending order
    for comm in (((3, 1), (3, 1)), ((3, 1), (3, -1))):
        with pytest.raises(PresentationError):
            PcPresentation(name="bad", periods=(None,) * 3,
                           commutators=(((2, 1), comm),))
    with pytest.raises(PresentationError):
        PcPresentation(name="bad", periods=(2, None, None),
                       powers=((1, ((2, 1), (3, 1), (3, 1))),))


@pytest.mark.parametrize("powers, commutators, message", [
    (((1, ((2, 1),)), (1, ((3, 1),))), (), "duplicate power tail for 1"),
    ((), (((3, 2), ((4, 1),)), ((3, 2), ((4, 1),))),
     r"duplicate commutator \(3,2\)"),
    ((), (((3, 2), ((4, 0),)),), "zero exponent in tail"),
    (((1, ((3, 0),)),), (), "zero exponent in tail"),
])
def test_malformed_tables_are_named(powers, commutators, message):
    with pytest.raises(PresentationError, match=message):
        PcPresentation(name="bad", periods=(2, None, None, None),
                       powers=powers, commutators=commutators)


@pytest.mark.parametrize("index", [0, 4])
def test_indices_outside_the_generators_are_named(index):
    p = heis()
    with pytest.raises(ValueError, match=f"generator index {index} out"):
        pc.generator(p, index)
    with pytest.raises(ValueError, match=f"letter index {index} out"):
        pc.normal_form(p, [(1, 1), (index, 2)])


def _assert_canonical(p, x):
    for e, v in zip(p.periods, x):
        if e is not None:
            assert 0 <= v < e
