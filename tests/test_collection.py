"""Polynomial collection against rewriting and integer-matrix models.

A letter u_i^e of a layer whose torsion-free cover is certified moves past
the suffix with one evaluation of a conjugation polynomial, and the finite
coordinates it pushes out of range are reduced in the cover; every other
letter goes by rewriting. These tests hold the two paths to the same
answers, compare them with matrix models at large exponents, hold powers,
which take a Newton series in the exponent when the whole cover is
accepted, to repeated products, rewriting and the models up to 10^100 and
pin the products a power costs and those a proof costs where the relations
fix an overlap's side, hold commutators and conjugates, which are
left quotients, to their words collected from the identity, pin the degree
bound the polynomials are interpolated under and the support that the
commutator trees of the tails predict for them, and pin the certificate
against a rewriting oracle on random presentations. consistency_check
proves a presentation layer by layer on the tables it builds and reports
the failing overlaps of the first layer it rejects: the tests hold each
report to the failures that the rewriting reference
(oracles.ref_consistency_check) finds at its highest failing layer, on
mutants and random presentations, check that writing the report rewrites
nothing, and check that the proof never reads tables left on the
presentation. The proof is the tables' only source, so arithmetic on an
inconsistent presentation that was never checked is refused.
"""

import functools
import random
import subprocess
import sys
from itertools import product
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import files, presentation as pc
from nilpc.presentation import PcPresentation, PresentationError

import oracles
from groups_def import (
    f23, heis, heis_index2, heisenberg, heisenberg_letters, mutated_heis,
    mutated_ut5, nr, random_basis, rebase, unitriangular, ut_letters, zg, zh,
    zk)

BASE = {
    "UT_3": lambda: unitriangular(3), "UT_4": lambda: unitriangular(4),
    "UT_5": lambda: unitriangular(5), "UT_6": lambda: unitriangular(6),
    "H_2": lambda: heisenberg(2), "H_3": lambda: heisenberg(3),
    "H_4": lambda: heisenberg(4), "F23": f23, "HEIS-index2": heis_index2,
    "ZG_3": lambda: zg(3), "ZG": zg, "ZG_7": lambda: zg(7), "NR": nr,
    "ZH": zh, "ZK": zk,
}
REBASED = " rebased"
NAMES = [n + r for n in BASE for r in ("", REBASED)]
SPANS = (1, 50, 10 ** 4)
# checked against word collection only, where rewriting would be too slow
LARGE = {"HEIS": heis, "UT_7": lambda: unitriangular(7),
         **{f"H_{n}": functools.partial(heisenberg, n) for n in range(5, 9)}}


@functools.lru_cache(maxsize=None)
def basis(name):
    """The seeded basis change behind a rebased presentation."""
    return random_basis(presentation(name), random.Random(name))


@functools.lru_cache(maxsize=None)
def presentation(name):
    if name.endswith(REBASED):
        base = name[: -len(REBASED)]
        return rebase(presentation(base), basis(base))
    return (BASE.get(name) or LARGE[name])()


def elements(p, span):
    coords = [st.integers(-span, span) if e is None else
              st.integers(0, e - 1) for e in p.periods]
    return st.tuples(*coords)


def rewrite(p, word):
    return pc._normal_form(p, word, None)


# -- the fast path against rewriting -------------------------------------------

# Rewriting slows down as exponents grow: at span 10^4 one product takes 8 s
# in the UT_5 basis change, and longer in UT_6's. These cases are checked
# against the matrix models below instead.
MATRIX_ONLY = {("UT_5" + REBASED, 50), ("UT_5" + REBASED, 10 ** 4),
               ("UT_6", 50), ("UT_6", 10 ** 4), ("UT_6" + REBASED, 50),
               ("UT_6" + REBASED, 10 ** 4)}


@pytest.mark.parametrize("name, span", [
    (name, span) for name in NAMES for span in SPANS
    if (name, span) not in MATRIX_ONLY])
def test_fast_path_agrees_with_rewriting(name, span):
    p = presentation(name)
    big = span == SPANS[-1]

    @settings(max_examples=2 if big else 3, deadline=None, derandomize=True)
    @given(elements(p, span), elements(p, span), st.integers(-60, 60))
    def check(x, y, n):
        xw, yw = pc.word_of(p, x), pc.word_of(p, y)
        xi, yi = pc._inverse_word(p, x), pc._inverse_word(p, y)
        assert pc.multiply(p, x, y) == rewrite(p, xw + yw)
        assert pc.inverse(p, x) == rewrite(p, xi)
        if not big:
            assert pc.commutator(p, x, y) == rewrite(p, xi + yi + xw + yw)
            assert pc.conjugate(p, x, y) == rewrite(p, yi + xw + yw)
            assert pc.power(p, x, n) == pc._power(p, x, n, None)
            assert pc.power(p, x, n) == oracles.ref_power(p, x, n)

    check()


# -- matrix models ---------------------------------------------------------------

MATRIX = {f"UT_{n}": (n, ut_letters(n)) for n in range(3, 8)}
MATRIX.update({f"H_{n}": (n + 2, heisenberg_letters(n)) for n in range(2, 6)})
# products and commutators are held to the models on these; powers on all
PRODUCT_MODELS = ("UT_3", "UT_4", "UT_5", "UT_6", "H_2", "H_3", "H_4")


def matrix_model(name):
    """Coordinates of presentation(name) to integer matrices."""
    size, letters = MATRIX[name.replace(REBASED, "")]

    def mat(v):
        return oracles.ut_of(size, letters, v)

    if not name.endswith(REBASED):
        return mat
    rows = [mat(r) for r in basis(name.replace(REBASED, ""))]

    def rebased(v):
        out = oracles.ut_identity(size)
        for r, t in zip(rows, v):
            out = oracles.ut_mat_mul(out, oracles.ut_mat_pow_series(r, t))
        return out

    return rebased


@pytest.mark.parametrize("span", SPANS[1:])
@pytest.mark.parametrize("name", [n + r for n in PRODUCT_MODELS
                                  for r in ("", REBASED)])
def test_matrix_model(name, span):
    p = presentation(name)
    mat = matrix_model(name)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(elements(p, span), elements(p, span), st.integers(-span, span))
    def check(x, y, n):
        a, b = mat(x), mat(y)
        assert mat(pc.multiply(p, x, y)) == oracles.ut_mat_mul(a, b)
        assert mat(pc.power(p, x, n)) == oracles.ut_mat_pow(a, n)
        assert mat(pc.commutator(p, x, y)) == oracles.ut_mat_comm(a, b)
        assert mat(pc.conjugate(p, x, y)) == oracles.ut_mat_mul(
            oracles.ut_mat_inv(b), oracles.ut_mat_mul(a, b))

    check()


# -- powers by a Newton series in the exponent -----------------------------------


def power_model(name):
    """(of, power): coordinates of presentation(name) to a faithful model,
    matrices or the Magnus ring, and powers in that model."""
    base = name.replace(REBASED, "")
    if base != "F23":
        return matrix_model(name), oracles.ut_mat_pow
    gens = oracles.f23_magnus_gens()
    if name.endswith(REBASED):
        gens = [oracles.magnus_of(gens, r) for r in basis(base)]
    return functools.partial(oracles.magnus_of, gens), oracles.magnus_pow


@pytest.mark.parametrize("name", [n + r for n in list(MATRIX) + ["F23"]
                                  for r in ("", REBASED)])
def test_power_matches_models_at_huge_exponents(name):
    p = presentation(name)
    layers = pc._conj_layers(p)
    assert layers.polys[0] is not None
    of, model_power = power_model(name)
    rng = random.Random(name)
    for n in (layers.degree + 1, 50, 10 ** 100, 10 ** 100 + 1,
              rng.randint(2, 10 ** 100)):
        for n in (n, -n):
            x = tuple(rng.randint(-50, 50) for _ in p.periods)
            assert of(pc.power(p, x, n)) == model_power(of(x), n), n


# rewriting takes seconds per power at these exponents in these bases
SLOW_REWRITING = {"UT_5" + REBASED, "UT_6", "UT_6" + REBASED, "UT_7",
                  "UT_7" + REBASED}


@pytest.mark.parametrize("name", NAMES + [
    n + r for n in ("HEIS", "UT_7", "H_5") for r in ("", REBASED)])
def test_power_agrees_with_products_and_rewriting(name):
    # every fixture, UT_3..UT_7 and H_2..H_5, with their seeded rebases:
    # the cover is accepted at every layer, so |n| > degree takes the
    # Newton series
    p = presentation(name)
    layers = pc._conj_layers(p)
    assert layers.polys[0] is not None
    rng = random.Random(name)
    d = layers.degree
    for n in (d + 1, -d - 1, 60, -60, rng.randint(-60, 60)):
        x = tuple(rng.randint(-5, 5) if e is None else rng.randrange(e)
                  for e in p.periods)
        got = pc.power(p, x, n)
        assert got == oracles.ref_power(p, x, n), n
        if name not in SLOW_REWRITING:
            assert got == pc._power(p, x, n, None), n


def spy_products(monkeypatch, p):
    """Record, for each product, whether it was taken in the cover."""
    cover = pc._conj_layers(p).cover
    calls = []
    multiply = pc._multiply

    def spy(q, x, y, layers):
        calls.append(q is cover)
        return multiply(q, x, y, layers)

    monkeypatch.setattr(pc, "_multiply", spy)
    return calls


@pytest.mark.parametrize("n", [5, -5, 50, -50, 10 ** 100, -10 ** 100],
                         ids=["5", "-5", "50", "-50", "1e100", "-1e100"])
def test_power_costs_degree_minus_one_cover_products(n, monkeypatch):
    p = presentation("UT_5")
    layers = pc._conj_layers(p)
    assert layers.degree == 4  # e_15 has weight 4
    x = (1, -2, 3, -1, 2, 1, -3, 2, 1, -1)
    mat = matrix_model("UT_5")
    calls = spy_products(monkeypatch, p)
    monkeypatch.setattr(pc, "_inverse", None)  # negative n needs no inverse
    got = pc.power(p, x, n)
    assert calls == [True] * (layers.degree - 1)
    assert mat(got) == oracles.ut_mat_pow(mat(x), n)


@pytest.mark.parametrize("n", [-4, 3, 4])
def test_power_up_to_the_degree_powers_in_binary(n, monkeypatch):
    p = presentation("UT_5")
    x = (1, -2, 3, -1, 2, 1, -3, 2, 1, -1)
    calls = spy_products(monkeypatch, p)
    got = pc.power(p, x, n)
    assert calls and not any(calls)
    assert got == oracles.ref_power(p, x, n)


@settings(max_examples=100, deadline=None)
@given(elements(heis_index2(), 10 ** 4), elements(heis_index2(), 10 ** 4))
def test_power_tail_in_front_of_a_torsion_free_suffix(x, y):
    # u1 = x has period 2 with u1^2 = u2 = x^2, so products overflow into
    # the power tail while the suffix is conjugated by polynomial
    p = heis_index2()

    def heis_of(v):
        return oracles.heis_matrix(v[0] + 2 * v[1], v[2], v[3])

    got = heis_of(pc.multiply(p, x, y))
    assert got == oracles.heis_mat_mul(heis_of(x), heis_of(y))


# -- commutators and conjugates by left division ---------------------------------


@pytest.mark.parametrize("span", (0,) + SPANS)
@pytest.mark.parametrize("name", NAMES + list(LARGE))
def test_commutator_and_conjugate_match_word_collection(name, span):
    # span 0 takes every pair of generators
    p = presentation(name)

    def agree(x, y):
        assert pc.commutator(p, x, y) == oracles.ref_commutator(p, x, y)
        assert pc.conjugate(p, x, y) == oracles.ref_conjugate(p, x, y)

    if span == 0:
        gens = [pc.generator(p, i) for i in range(1, p.m + 1)]
        for x, y in product(gens, repeat=2):
            agree(x, y)
        return

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(elements(p, span), elements(p, span))
    def check(x, y):
        agree(x, y)

    check()


@pytest.mark.parametrize("rewriting", [False, True])
@pytest.mark.parametrize("name", ["ZG", "NR", "HEIS-index2"])
def test_left_quotient_is_canonical_and_solves(name, rewriting):
    # finite periods, on the polynomial path and by rewriting alone
    p = presentation(name)
    layers = None if rewriting else pc._conj_layers(p)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(elements(p, 50), elements(p, 50))
    def check(a, b):
        z = pc._left_quotient(p, a, b, layers)
        assert pc.is_canonical(p, z)
        assert pc._multiply(p, a, z, layers) == b

    check()


@pytest.mark.parametrize("name", ["ZG", "NR", "UT_5 rebased", "FALLBACK"])
def test_commutator_and_conjugate_collect_no_word(name, monkeypatch):
    p = fallback() if name == "FALLBACK" else presentation(name)
    rng = random.Random(name)
    pairs = [tuple(tuple(rng.randint(-9, 9) if e is None else rng.randrange(e)
                         for e in p.periods) for _ in range(2))
             for _ in range(5)]
    want = [(oracles.ref_commutator(p, x, y), oracles.ref_conjugate(p, x, y))
            for x, y in pairs]

    def refuse(*args):
        raise AssertionError("collected a word from the identity")

    monkeypatch.setattr(pc, "normal_form", refuse)
    got = [(pc.commutator(p, x, y), pc.conjugate(p, x, y)) for x, y in pairs]
    assert got == want


# -- the certificate of the cover ----------------------------------------------


def accepted_layers(p):
    return [i for i, poly in enumerate(pc._conj_layers(p).polys, start=1)
            if poly is not None]


def fallback():
    """Consistent, but with a cover that fails at layer 1: conjugation by
    u1 respects [u3, u2] = 1 only modulo u5^2 = 1."""
    return PcPresentation(
        name="FALLBACK", periods=(None, None, None, None, 2),
        commutators=(((2, 1), ((4, 2),)), ((3, 1), ((4, 1),)),
                     ((4, 3), ((5, 1),))))


@pytest.mark.parametrize("span", SPANS)
def test_failed_layer_falls_back_to_rewriting(span):
    p = fallback()
    assert pc.consistency_check(p).ok
    assert accepted_layers(p) == [2, 3, 4, 5]
    assert oracles.lowest_consistent_cover_layer(p) == 2

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(elements(p, span), elements(p, span), st.integers(-span, span))
    def check(x, y, n):
        xw, yw = pc.word_of(p, x), pc.word_of(p, y)
        xi, yi = pc._inverse_word(p, x), pc._inverse_word(p, y)
        assert pc.multiply(p, x, y) == rewrite(p, xw + yw)
        assert pc.inverse(p, x) == rewrite(p, xi)
        assert pc.power(p, x, n) == pc._power(p, x, n, None)
        assert pc.commutator(p, x, y) == rewrite(p, xi + yi + xw + yw)
        assert pc.conjugate(p, x, y) == rewrite(p, yi + xw + yw)

    check()


def test_no_layer_is_accepted_below_a_failed_certificate():
    # fallback() under a new central u1 of infinite order: the cover now
    # fails at layer 2. Layer 1's own certificate passes, as c is the
    # identity, but G~_1 holds the inconsistent G~_2, so layer 1 is not
    # accepted and no table is ever derived for it.
    q = fallback()
    p = PcPresentation(
        name="FALLBACK UNDER Z", periods=(None,) + q.periods,
        commutators=tuple(((j + 1, i + 1), tuple((l + 1, e) for l, e in t))
                          for (j, i), t in q.commutators))
    assert pc.consistency_check(p).ok
    layers = pc._conj_layers(p)
    assert not any(pc._extends(layers.cover, 1, layers))
    assert accepted_layers(p) == [3, 4, 5, 6]
    assert oracles.lowest_consistent_cover_layer(p) == 3


@pytest.mark.parametrize("n", [-50, 7, 10 ** 6])
def test_failed_cover_powers_in_binary(n, monkeypatch):
    # the cover fails at layer 1, so x, which has a letter there, is powered
    # in binary; the Newton series applies only to elements of the accepted
    # suffix, such as the images of suffix letters that rewriting powers, so
    # every product taken in the cover multiplies elements of G~_2
    p = fallback()
    assert pc.consistency_check(p).ok
    assert accepted_layers(p) == [2, 3, 4, 5]
    x = (2, -1, 3, 1, 1)
    want = pc._power(p, x, n, None)
    cover = pc._conj_layers(p).cover
    multiply, calls = pc._multiply, []

    def spy(q, a, b, layers):
        calls.append((q is cover, a, b))
        return multiply(q, a, b, layers)

    monkeypatch.setattr(pc, "_multiply", spy)
    assert pc.power(p, x, n) == want
    assert calls
    for in_cover, a, b in calls:
        if in_cover:
            assert a[0] == b[0] == 0, (a, b)  # so x is never expanded
    if abs(n) <= 50:
        assert want == oracles.ref_power(p, x, n)


def random_presentation(rng):
    """m = 4 or 5, periods from {None, 2, 3, 5}, one-letter tails.

    The deepest generator has a finite period and tails on infinite
    generators have exponents +-1, +-2: a tail exponent divisible by a
    period is what lets a tail satisfy Jacobi only modulo that period.
    """
    m = rng.choice((4, 5))
    periods = tuple(rng.choice((None, None, None, 2, 3, 5))
                    for _ in range(m - 1)) + (rng.choice((2, 3, 5)),)

    def letter(low):
        k = rng.randint(low + 1, m)
        e = periods[k - 1]
        return ((k, rng.randrange(1, e) if e else rng.choice((-2, -1, 1, 2))),)

    return PcPresentation(
        name="random", periods=periods,
        powers=tuple((i, letter(i)) for i, e in enumerate(periods[:-1], 1)
                     if e and rng.random() < 0.3),
        commutators=tuple(((j, i), letter(j)) for j in range(2, m)
                          for i in range(1, j) if rng.random() < 0.6))


@functools.lru_cache(maxsize=None)
def consistent_draws(seed):
    """(k, p) for each consistent p among the first 3,000 draws of
    random_presentation on Random(seed), k counting from 0."""
    rng = random.Random(seed)
    draws = [random_presentation(rng) for _ in range(3000)]
    return tuple((k, p) for k, p in enumerate(draws)
                 if pc.consistency_check(p).ok)


def assert_reports_as_oracle(report, q):
    """report has the rewriting reference's verdict on q, and when q fails,
    lists exactly the reference's failures at its highest failing layer,
    in order: the reference finds none above that layer, so it is the
    first one the proof rejects. Returns that layer (None for ok)."""
    ref = oracles.ref_consistency_check(q)
    assert report.ok == ref.ok, q
    if ref.ok:
        return None
    top = max(f.i for f in ref.failures)
    assert {f.i for f in report.failures} == {top}, q
    assert report.failures == tuple(f for f in ref.failures if f.i == top), q
    return top


def test_certificate_matches_rewriting_oracle_sweep():
    # consistency_check against the rewriting reference on every draw, then
    # the certificate against the oracle and collection against rewriting
    # on the consistent ones
    rng = random.Random("cover sweep")
    exponents = random.Random("cover sweep exponents")  # keeps rng's draws
    consistent = fails = 0
    for _ in range(1000):
        p = random_presentation(rng)
        q = PcPresentation(p.name, p.periods, p.powers, p.commutators)
        report = pc.consistency_check(p)
        assert_reports_as_oracle(report, q)
        if not report.ok:
            assert p._layers is False
            continue
        consistent += 1
        # one more interpolation point changes no table: the degree bound
        # holds on every consistent draw
        assert p._layers == pc._derive_layers(q, slack=1), p
        low = oracles.lowest_consistent_cover_layer(p)
        assert accepted_layers(p) == list(range(low, p.m + 1)), p
        fails += low > 1
        for _ in range(2):
            x, y = (tuple(rng.randint(-20, 20) if e is None else
                          rng.randrange(e) for e in p.periods)
                    for _ in range(2))
            xw, yw = pc.word_of(p, x), pc.word_of(p, y)
            xi, yi = pc._inverse_word(p, x), pc._inverse_word(p, y)
            assert pc.multiply(p, x, y) == rewrite(p, xw + yw), p
            assert pc.inverse(p, x) == rewrite(p, xi), p
            for n in (rng.randint(-6, 6), exponents.randint(-60, 60)):
                assert pc.power(p, x, n) == pc._power(p, x, n, None), p
                assert pc.power(p, x, n) == oracles.ref_power(p, x, n), p
            assert pc.commutator(p, x, y) == rewrite(
                p, xi + yi + xw + yw), p
    assert consistent >= 100
    # presentations whose full cover fails, so the sweep covers fallback
    assert fails >= 3


# -- the degree bound ------------------------------------------------------------


@pytest.mark.parametrize("name", [
    n + r for n in ("UT_3", "UT_4", "UT_5", "UT_6", "H_2", "H_3", "H_4", "F23")
    for r in ("", REBASED)] + ["ZG", "NR", "HEIS-index2"])
def test_one_more_interpolation_point_changes_nothing(name, monkeypatch):
    # ZG, NR and HEIS-index2 have finite periods: their tables are those of
    # the torsion-free cover. == derives every pending table on both sides,
    # and the wider tables are interpolated on more lattice points.
    p = presentation(name)
    layers = pc._derive_layers(p)
    newton, points = pc._newton, []

    def counting(h):
        points.append(len(h))
        return newton(h)

    monkeypatch.setattr(pc, "_newton", counting)
    assert any(layer is not None and layer.rows for layer in layers.derived())
    narrow, points[:] = sum(points), []
    assert pc._derive_layers(p, slack=1) == layers
    assert sum(points) > narrow


def support_inputs():
    yield from (presentation(name) for name in NAMES + ["HEIS", "UT_7"])
    yield unitriangular(8)
    yield from (heisenberg(n) for n in range(5, 9))
    yield fallback()
    rng = random.Random(0)
    for _ in range(1000):
        yield random_presentation(rng)


def test_derived_support_follows_commutator_trees():
    # Every monomial of a derived h_k lies below one that a commutator tree
    # of the tails predicts (oracles.predicted_support), so a derivation
    # may interpolate on the predicted lower set alone.
    layers = 0
    for p in support_inputs():
        if not pc.consistency_check(p).ok:
            continue
        predicted = oracles.predicted_support(p)
        for i, poly in enumerate(pc._conj_layers(p).derived(), start=1):
            if poly is None:
                continue
            vecs = [(0,) * (p.m - i + 1)]
            for parent, v, d in poly.monos:
                vecs.append(vecs[parent][:v] + (d,) + vecs[parent][v + 1:])
            for k, terms in poly.rows:
                tops = predicted[i, k + 1]
                for j, _ in terms:
                    assert any(all(map(le, vecs[j], b)) for b in tops), (
                        p, i, k + 1, vecs[j])
            layers += bool(poly.rows)
    assert layers >= 400


# -- tables on demand ------------------------------------------------------------


def spy_derivations(monkeypatch):
    """The layers whose tables are derived from now on, in order."""
    derive, derived = pc._derive_layer, []

    def recording(q, i, *args):
        derived.append(i)
        return derive(q, i, *args)

    monkeypatch.setattr(pc, "_derive_layer", recording)
    return derived


@pytest.mark.parametrize("name, derived", [
    ("HEIS", []), ("NR", []), ("F23", []), ("H_4", []), ("H_10", []),
    ("ZG", [4]), ("ZH", [4]), ("ZK", [4]), ("UT_5", [2, 3, 4, 5, 6, 7, 8, 9])])
def test_load_derives_only_the_tables_the_proof_collects_with(
        name, derived, monkeypatch):
    # The proof accepts every layer of these covers but derives a table
    # only when its collections move a letter of that layer past a nonzero
    # suffix. The class-2 proofs collect nothing but ZG's (ZH's, ZK's)
    # powers c(u4)^5 by the series, whose product (u4 u6)(u4 u6) moves u4
    # past u6; UT_5 compares triples, whose products move letters of
    # layers 2-9.
    got = spy_derivations(monkeypatch)
    if name in files.fixture_names():
        p = files.load_fixture(name)
    else:
        p = files.parse(files.emit(
            heisenberg(10) if name == "H_10" else presentation(name)))
    assert sorted(got) == derived
    assert accepted_layers(p) == list(range(1, p.m + 1))


def test_first_product_derives_the_layers_it_moves(monkeypatch):
    # In HEIS, [u2, u1] = u3^-1. A letter that meets an empty suffix
    # derives nothing; u1 moved past u2 derives layer 1, u2 moved past u3
    # layer 2, each once. The tables derived on demand are those of a full
    # derivation.
    p = files.load_fixture("HEIS")
    derived = spy_derivations(monkeypatch)
    u1, u2, u3 = (pc.generator(p, i) for i in (1, 2, 3))
    assert pc.multiply(p, u1, u2) == (1, 1, 0)
    assert pc.multiply(p, u1, u3) == (1, 0, 1)
    assert derived == []
    assert pc.multiply(p, u2, u1) == (1, 1, -1)
    assert derived == [1]
    assert pc.multiply(p, u3, u2) == (0, 1, 1)
    assert pc.multiply(p, (0, 3, 2), (5, 0, 0)) == (5, 3, -13)
    assert derived == [1, 2]
    assert p._layers.polys[2] is pc._PENDING
    assert p._layers == pc._derive_layers(
        files.load_fixture("HEIS", check=False))


# -- consistency_check, bottom-up --------------------------------------------


def _mutant(p, key, tail):
    """p with the commutator tail at key replaced."""
    comms = dict(p.commutators)
    comms[key] = tail
    return PcPresentation(name=f"{p.name} mutated", periods=p.periods,
                          powers=p.powers,
                          commutators=tuple(sorted(comms.items())))


def _power_mutant(p, i, tail):
    """p with the power tail of u_i replaced."""
    powers = dict(p.powers)
    powers[i] = tail
    return PcPresentation(name=f"{p.name} mutated", periods=p.periods,
                          powers=tuple(sorted(powers.items())),
                          commutators=p.commutators)


# Each mutation changes one tail and breaks the overlap named beside it, so
# the presentation is inconsistent.
MUTANTS = {
    "HEIS_MUTATED": mutated_heis,
    # [u4, u2] = u5 where u4 = [u3, u1], u5 = [u3, u2]: Jacobi on
    # (u3, u1, u2) forces [u4, u2] = [u5, u1] = 1
    "F23": lambda: _mutant(f23(), (4, 2), ((5, 1),)),
    # [e12, e23] = e13^2: Jacobi on (e12, e23, e34) then sums to e14
    "UT_4": lambda: _mutant(unitriangular(4), (2, 1), ((4, -2),)),
    # [y1, x1] = y2 z^-1: Jacobi on (y1, x1, x2) leaves [y2, x2] = z^-1
    "H_3": lambda: _mutant(heisenberg(3), (4, 1), ((5, 1), (7, -1))),
    # [u4, u1] = u9 of infinite order, while u4^5 = u5 is central: the
    # power-gen overlap u4^5 u1 then asks u9^5 = 1
    "ZG": lambda: _mutant(zg(), (4, 1), ((9, 1),)),
    # [u4, u3] = u5 where u4 = [u2, u1]^-1 and [u3, u1], [u3, u2] are
    # central: the triple overlap u3 u2 u1 (Jacobi on u3, u2, u1) then asks
    # [u4, u3] = 1
    "NR": lambda: _mutant(nr(), (4, 3), ((5, 1),)),
}

# Mutants by where the defect sits: (make, the one layer i whose overlaps
# fail, given that G_{i+1} is consistent, and a kind that fails there). The
# check proves G_{i+1} on its own tables before it reaches layer i.
PLACED_MUTANTS = {
    # top layer, with every deeper table in use: [e13, e12] = e14^-1,
    # where e12 and e13 commute in UT_5 (u5 = e13, u8 = e14)
    "UT_5 top": (lambda: _mutant(unitriangular(5), (5, 1), ((8, -1),)),
                 1, "triple"),
    # deep layer, with failing overlaps below it as well
    "UT_5 deep": (mutated_ut5, 4, "triple"),
    # finite layer: u4 = a has period 5 and the central power tail u5 = f;
    # [u9, u4] = u10 makes c^5 move u9 by u10^5, where conjugation by f
    # fixes it
    "ZG gen-power": (lambda: _mutant(zg(), (9, 4), ((10, 1),)), 4,
                     "gen-power"),
    # power tail u8^5 = u9^2: u3 = d conjugates u4 to u4 u8, and
    # (u4 u8)^5 = u5 u9^2 is no longer c(u4^5) = u5
    "ZG power-gen": (lambda: _power_mutant(zg(), 8, ((9, 2),)), 3,
                     "power-gen"),
    # power tail x^2 = y^2 in HEIS on x, x^2, y, z: conjugation by x moves
    # y^2 to (y z^-1)^2, so x does not commute with its own power
    "HEIS-index2 power-power": (
        lambda: _power_mutant(heis_index2(), 1, ((3, 2),)), 1,
        "power-power"),
}


ARITHMETIC = {
    "normal_form": lambda p, x: pc.normal_form(p, pc.word_of(p, x)),
    "multiply": lambda p, x: pc.multiply(p, x, x),
    "inverse": pc.inverse,
    "power": lambda p, x: pc.power(p, x, 10 ** 6),
    "commutator": lambda p, x: pc.commutator(p, x, x),
    "conjugate": lambda p, x: pc.conjugate(p, x, x),
}


# the consistent group each inconsistent one was made from
ORIGINALS = {
    "HEIS_MUTATED": heis, "F23": f23, "UT_4": BASE["UT_4"], "H_3": BASE["H_3"],
    "ZG": zg, "NR": nr, "UT_5 top": BASE["UT_5"],
    "HEIS-index2 power-power": heis_index2,
}


@pytest.mark.parametrize("name", list(ORIGINALS))
def test_check_rejects_mutants_after_tables_exist(name):
    # The proof is the only source of tables, so every public entry refuses
    # a mutant that was never checked and leaves it no tables, only the
    # refusal. Planting the proven tables of the group it was made from
    # changes no report: the check never reads them.
    make = MUTANTS.get(name) or PLACED_MUTANTS[name][0]
    p = make()
    x = tuple(1 if e is None else 0 for e in p.periods)
    for op, run in ARITHMETIC.items():
        with pytest.raises(PresentationError, match="inconsistent"):
            run(p, x)
        assert p._layers is False, op
    report = pc.consistency_check(p)
    assert_reports_as_oracle(report, make())
    object.__setattr__(p, "_layers", pc._conj_layers(ORIGINALS[name]()))
    assert pc.consistency_check(p) == report


def test_arithmetic_refuses_the_unchecked_mutated_fixture(monkeypatch):
    # the first op runs the proof; the refusal stays on p, so the other
    # five raise without proving p again
    p = files.load_fixture("HEIS_MUTATED", check=False)
    x = (1, 1, 0)
    message = "HEIS_MUTATED: inconsistent presentation"
    proofs = []
    derive = pc._derive_layers

    def recording(q, *args, **kwargs):
        proofs.append(q)
        return derive(q, *args, **kwargs)

    monkeypatch.setattr(pc, "_derive_layers", recording)
    for op, run in ARITHMETIC.items():
        with pytest.raises(PresentationError, match=message):
            run(p, x)
        assert p._layers is False, op
    assert proofs == [p]


@pytest.mark.parametrize("name", list(MUTANTS) + list(PLACED_MUTANTS))
def test_check_reports_mutants_as_rewriting_does(name):
    # a placed mutant reports its layer alone: "UT_5 deep" and "ZG
    # gen-power" also fail below it in the reference
    make, layer, kind = PLACED_MUTANTS.get(name) or (MUTANTS[name], 0, None)
    p = make()
    report = pc.consistency_check(p)
    assert not report.ok
    assert p._layers is False
    top = assert_reports_as_oracle(report, make())
    if kind is not None:
        assert top == layer
        assert {f.i for f in report.failures} == {layer}
        assert kind in {f.kind for f in report.failures}


def test_failure_report_rewrites_nothing(monkeypatch):
    # [u3, u1] = u4 breaks layer 1 of UT_7. The proof collects each overlap
    # on the tables of the layers above, and the report is its output, so
    # no letter is collected by rewriting (layers=None).
    p = _mutant(unitriangular(7), (3, 1), ((4, 1),))
    collect, calls = pc._collect, []

    def spy(q, t, stack, layers):
        calls.append(layers)
        collect(q, t, stack, layers)

    monkeypatch.setattr(pc, "_collect", spy)
    report = pc.consistency_check(p)
    assert not report.ok
    assert {f.i for f in report.failures} == {1}
    assert calls and None not in calls


# -- triples above the class ------------------------------------------------------


def jac(*extra):
    """Rank 7, all periods infinite, class 3: u4 = [u2, u1], u5 = [u3, u1],
    u6 = [u3, u2] and u7 = [u4, u3]. Jacobi on (u3, u2, u1) also asks
    [u5, u2] = u7, which extra may supply."""
    return PcPresentation(
        name="JAC", periods=(None,) * 7, powers=(),
        commutators=tuple(sorted((
            ((2, 1), ((4, 1),)), ((3, 1), ((5, 1),)), ((3, 2), ((6, 1),)),
            ((4, 3), ((7, 1),))) + extra)))


def test_proof_keeps_the_triple_at_the_class():
    # u1, u2, u3 weigh 1, u4, u5, u6 weigh 2 and u7 weighs 3 = c. The one
    # failing overlap, (u3, u2, u1), has weight sum exactly c, so the proof
    # must collect it while it skips every triple above the class.
    report = pc.consistency_check(jac())
    assert [(f.kind, f.j, f.i, f.k) for f in report.failures] == [
        ("triple", 2, 1, 3)]
    assert pc.consistency_check(jac(((5, 2), ((7, 1),)))).ok


@pytest.mark.parametrize("name", ["ZG", "H_10"])
def test_class_two_proof_collects_no_triple(name, monkeypatch):
    # Every triple of a class-2 group weighs at least 3 > c = 2, so none is
    # compared. _extends takes two products for each triple it compares,
    # and otherwise only the two of each gen-power overlap u_j u_i^{e_i}
    # that it cannot read off. ZG has none left: its finite layers 4, 6, 7
    # and 8 have no tail [u_k, u_i], so c fixes every u_j, and the one
    # power tail, w_4 = u5, is central, so u_j w_4 = w_4 u_j. H_10 has no
    # finite period.
    p = zg() if name == "ZG" else heisenberg(10)
    multiply, products = pc._multiply, []

    def spy(q, x, y, layers):
        if sys._getframe(1).f_code.co_name == "_extends":
            products.append((x, y))
        return multiply(q, x, y, layers)

    monkeypatch.setattr(pc, "_multiply", spy)
    assert pc.consistency_check(p).ok
    assert pc._conj_layers(p).degree == 2
    assert products == []


def central():
    """u3 is central of period 10^100: no tail [u_k, u3] exists, so
    conjugation by u3 is the identity on <u4, u5>."""
    return PcPresentation(
        name="CENTRAL", periods=(None, None, 10 ** 100, None, None),
        powers=(), commutators=(((2, 1), ((4, 1),)), ((4, 1), ((5, 1),))))


def two_periods():
    """[u3, u2] = u4, with u2 and u4 of period 10^100."""
    return PcPresentation(
        name="TWO PERIODS", periods=(None, 10 ** 100, None, 10 ** 100),
        powers=(), commutators=(((3, 2), ((4, 1),)),))


@pytest.mark.parametrize("name, products, compositions", [
    ("ZG", 3, 0), ("NR", 0, 0), ("H_4", 0, 0), ("CENTRAL", 4, 0),
    ("TWO PERIODS", 1071, 536)])
def test_proof_reads_off_what_the_relations_fix(name, products, compositions,
                                                monkeypatch):
    # Only letters in M (those with a tail [u_k, u_i]) move under c. A side
    # whose letters all lie outside M is read off the relations, c^{e_i}
    # is the identity when M is empty, conjugates of letters outside M are
    # the letters themselves, and no product starts from the identity. A
    # gen-power overlap (j, i) with j outside M whose u_j commutes with
    # every other letter of w_i has equal sides, u_j w_i = w_i u_j, and is
    # not collected; c^{e_i - 1} is composed only for one that is. Tables
    # are derived only when collection moves a letter past a nonzero
    # suffix, and their products count here too.
    # - ZG: every gen-power overlap is read off (its finite layers fix
    #   every letter and w_4 = u5 is central), so its 3 products are the
    #   powers c(u4)^5 of layers 1-3, one Newton-series product each.
    # - NR: its one gen-power overlap, (6, 5), is read off, and at class
    #   2 no triple is compared.
    # - CENTRAL: u3 is central with no power tail, so both of its
    #   gen-power overlaps are read off, and no automorphism is composed
    #   for its period of 10^100; the 4 products are the triple (u3, u2,
    #   u1), compared in G and in the cover's certificate.
    # - TWO PERIODS: (4, 2) is read off, but (3, 2) has u3 in M, so the
    #   536 compositions for c^{e_2 - 1} stay. Their powers near 10^100
    #   take the Newton series, d - 1 = 1 product each, where binary
    #   powering took 103,536 products.
    p = {"CENTRAL": central, "TWO PERIODS": two_periods}.get(
        name, BASE.get(name))()
    counts = {"_multiply": 0, "_compose_aut": 0}
    for f in counts:
        def spy(*args, f=f, real=getattr(pc, f)):
            counts[f] += 1
            return real(*args)
        monkeypatch.setattr(pc, f, spy)
    assert pc.consistency_check(p).ok
    assert counts == {"_multiply": products, "_compose_aut": compositions}


# -- runtime dependencies --------------------------------------------------------

DEPENDENCY_FREE = """
import sys
sys.path[:0] = sys.argv[1:]
import nilpc
from groups_def import unitriangular
p = unitriangular(5)
x = tuple(range(1, p.m + 1))
nilpc.multiply(p, x, x)
assert p._layers is not None
print(" ".join(sorted(m for m in ("sympy", "numpy", "mpmath")
                      if m in sys.modules)))
"""


def test_runtime_loads_no_numeric_packages():
    src = Path(pc.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_FREE, str(src), str(tests)],
        capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == []
