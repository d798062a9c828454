"""Polynomial collection against rewriting and integer-matrix models.

A letter u_i^e whose deeper generators all have infinite period moves past
the suffix with one evaluation of a conjugation polynomial; every other
letter, and everything consistency_check collects, goes by rewriting. These
tests hold the two paths to the same answers, compare them with matrix
models at large exponents, pin the degree bound the polynomials are
interpolated under, and check that consistency_check never derives them.
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
    f23, heis_index2, heisenberg, heisenberg_letters, mutated_heis,
    random_basis, rebase, unitriangular, ut_letters, zg)

BASE = {
    "UT_3": lambda: unitriangular(3), "UT_4": lambda: unitriangular(4),
    "UT_5": lambda: unitriangular(5), "UT_6": lambda: unitriangular(6),
    "H_2": lambda: heisenberg(2), "H_3": lambda: heisenberg(3),
    "H_4": lambda: heisenberg(4), "F23": f23, "HEIS-index2": heis_index2,
    "ZG_3": lambda: zg(3), "ZG": zg, "ZG_7": lambda: zg(7),
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


# -- the degree bound ------------------------------------------------------------


@pytest.mark.parametrize("name", [
    n + r for n in ("UT_3", "UT_4", "UT_5", "UT_6", "H_2", "H_3", "H_4", "F23")
    for r in ("", REBASED)])
def test_one_more_interpolation_point_changes_nothing(name):
    p = presentation(name)
    layers = pc._derive_layers(p)
    assert any(layer is not None and layer.rows for layer in layers)
    assert pc._derive_layers(p, slack=1) == layers


# -- consistency_check rewrites ------------------------------------------------


def _mutant(p, key, tail):
    """p with the commutator tail at key replaced."""
    comms = dict(p.commutators)
    comms[key] = tail
    return PcPresentation(name=f"{p.name} mutated", periods=p.periods,
                          powers=p.powers,
                          commutators=tuple(sorted(comms.items())))


# Each mutation changes one exponent of one tail and breaks the Jacobi
# identity of the associated Lie ring, so the presentation is inconsistent.
MUTANTS = {
    "HEIS_MUTATED": mutated_heis,
    # [u4, u2] = u5 where u4 = [u3, u1], u5 = [u3, u2]: Jacobi on
    # (u3, u1, u2) forces [u4, u2] = [u5, u1] = 1
    "F23": lambda: _mutant(f23(), (4, 2), ((5, 1),)),
    # [e12, e23] = e13^2: Jacobi on (e12, e23, e34) then sums to e14
    "UT_4": lambda: _mutant(unitriangular(4), (2, 1), ((4, -2),)),
    # [y1, x1] = y2 z^-1: Jacobi on (y1, x1, x2) leaves [y2, x2] = z^-1
    "H_3": lambda: _mutant(heisenberg(3), (4, 1), ((5, 1), (7, -1))),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_check_rejects_mutants_after_tables_exist(name):
    p = MUTANTS[name]()
    x = tuple(1 if e is None else 0 for e in p.periods)
    pc.multiply(p, x, x)  # derives the polynomials of the mutant
    assert p._layers is not None
    assert not pc.consistency_check(p).ok


@pytest.mark.parametrize("name", ["F23", "ZG", "UT_5", "HEIS-index2"])
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
