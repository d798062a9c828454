"""Polynomial collection against rewriting and integer-matrix models.

A letter u_i^e of a layer whose torsion-free cover is certified moves past
the suffix with one evaluation of a conjugation polynomial, and the finite
coordinates it pushes out of range are reduced in the cover; every other
letter, and everything consistency_check collects, goes by rewriting. These
tests hold the two paths to the same answers, compare them with matrix
models at large exponents, pin the degree bound the polynomials are
interpolated under, pin the certificate against a rewriting oracle on random
presentations, and check that consistency_check never derives the tables.
"""

import functools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import presentation as pc
from nilpc.presentation import PcPresentation

import oracles
from groups_def import (
    f23, heis_index2, heisenberg, heisenberg_letters, mutated_heis, nr,
    random_basis, rebase, unitriangular, ut_letters, zg, zh, zk)

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


@functools.lru_cache(maxsize=None)
def basis(name):
    """The seeded basis change behind a rebased presentation."""
    return random_basis(presentation(name), random.Random(name))


@functools.lru_cache(maxsize=None)
def presentation(name):
    if name.endswith(REBASED):
        base = name[: -len(REBASED)]
        return rebase(presentation(base), basis(base))
    return BASE[name]()


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
    @given(elements(p, span), elements(p, span), st.integers(-4, 4))
    def check(x, y, n):
        xw, yw = pc.word_of(p, x), pc.word_of(p, y)
        xi, yi = pc._inverse_word(p, x), pc._inverse_word(p, y)
        assert pc.multiply(p, x, y) == rewrite(p, xw + yw)
        assert pc.inverse(p, x) == rewrite(p, xi)
        if not big:
            assert pc.commutator(p, x, y) == rewrite(p, xi + yi + xw + yw)
            assert pc.power(p, x, n) == pc._power(p, x, n, None)

    check()


# -- matrix models ---------------------------------------------------------------

MATRIX = {f"UT_{n}": (n, ut_letters(n)) for n in (3, 4, 5, 6)}
MATRIX.update({f"H_{n}": (n + 2, heisenberg_letters(n)) for n in (2, 3, 4)})


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
            out = oracles.ut_mat_mul(out, oracles.ut_mat_pow(r, t))
        return out

    return rebased


@pytest.mark.parametrize("span", SPANS[1:])
@pytest.mark.parametrize("name", [n + r for n in MATRIX for r in ("", REBASED)])
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

    check()


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

    check()


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


def test_certificate_matches_rewriting_oracle_sweep():
    rng = random.Random("cover sweep")
    consistent = fails = 0
    for _ in range(1000):
        p = random_presentation(rng)
        if not pc.consistency_check(p).ok:
            continue
        consistent += 1
        low = oracles.lowest_consistent_cover_layer(p)
        assert accepted_layers(p) == list(range(low, p.m + 1)), p
        fails += low > 1
        for _ in range(2):
            x, y = (tuple(rng.randint(-20, 20) if e is None else
                          rng.randrange(e) for e in p.periods)
                    for _ in range(2))
            xw, yw = pc.word_of(p, x), pc.word_of(p, y)
            xi, yi = pc._inverse_word(p, x), pc._inverse_word(p, y)
            n = rng.randint(-6, 6)
            assert pc.multiply(p, x, y) == rewrite(p, xw + yw), p
            assert pc.inverse(p, x) == rewrite(p, xi), p
            assert pc.power(p, x, n) == pc._power(p, x, n, None), p
            assert pc.commutator(p, x, y) == rewrite(
                p, xi + yi + xw + yw), p
    assert consistent >= 100
    # presentations whose full cover fails, so the sweep covers fallback
    assert fails >= 3


# -- the degree bound ------------------------------------------------------------


@pytest.mark.parametrize("name", [
    n + r for n in ("UT_3", "UT_4", "UT_5", "UT_6", "H_2", "H_3", "H_4", "F23")
    for r in ("", REBASED)] + ["ZG", "NR", "HEIS-index2"])
def test_one_more_interpolation_point_changes_nothing(name):
    # ZG, NR and HEIS-index2 have finite periods: their tables are those of
    # the torsion-free cover
    p = presentation(name)
    layers = pc._derive_layers(p)
    assert any(layer is not None and layer.rows for layer in layers.polys)
    assert pc._derive_layers(p, slack=1) == layers


# -- consistency_check rewrites ------------------------------------------------


def _mutant(p, key, tail):
    """p with the commutator tail at key replaced."""
    comms = dict(p.commutators)
    comms[key] = tail
    return PcPresentation(name=f"{p.name} mutated", periods=p.periods,
                          powers=p.powers,
                          commutators=tuple(sorted(comms.items())))


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


@pytest.mark.parametrize("name", list(MUTANTS))
def test_check_rejects_mutants_after_tables_exist(name):
    p = MUTANTS[name]()
    x = tuple(1 if e is None else 0 for e in p.periods)
    pc.multiply(p, x, x)  # derives the polynomials of the mutant
    assert p._layers is not None
    assert not pc.consistency_check(p).ok


@pytest.mark.parametrize("name", ["F23", "ZG", "UT_5", "HEIS-index2", "NR"])
def test_check_leaves_tables_unset(name):
    p = BASE[name]()
    assert pc.consistency_check(p).ok
    assert p._layers is None


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
