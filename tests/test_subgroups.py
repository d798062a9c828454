"""Induced generating sequences, quotients, and the canonical subgroups."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import files
from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.abelian import isolator, torsion_subgroup
from nilpc.bilinear import associated_series
from nilpc.deformation import adapt_basis, presentation_on
from nilpc.presentation import PcPresentation
from nilpc.refined import refined_series
from nilpc.series import key_subgroups

import oracles
from groups_def import (
    f23, heis, heis_index2, heisenberg, heisenberg_letters, nr,
    random_basis_change, unitriangular, ut_letters, zg, zh, zk)
from test_collection import consistent_draws

H = heis()
G = zg()
N6 = nr()
F = f23()


def gen(p, i):
    return pc.generator(p, i)


# -- induce / membership ------------------------------------------------------


def test_induce_heis_finite_index():
    s = sg.induce(H, [pc.power(H, gen(H, 1), 2), gen(H, 2)])
    leads = {sg.leading_index(r): r[sg.leading_index(r) - 1] for r in s.rows}
    assert leads == {1: 2, 2: 1, 3: 2}
    assert s.index_in_ambient() == 4
    assert s.contains(pc.power(H, gen(H, 3), 2))
    assert not s.contains(gen(H, 3))


def test_induce_is_deterministic_under_generator_order():
    a = sg.induce(H, [pc.power(H, gen(H, 1), 2), gen(H, 2)])
    b = sg.induce(H, [gen(H, 2), pc.power(H, gen(H, 1), 2)])
    assert a == b


def test_whole_and_trivial():
    w = sg.whole_subgroup(G)
    assert w.index_in_ambient() == 1
    t = sg.trivial_subgroup(G)
    assert t.index_in_ambient() is None or t.index_in_ambient() > 0
    assert not t.rows


def test_lead_coefficient_divides_finite_period():
    # generated by u4^2 in ZG: exponents mod 5 generate everything at level 4
    s = sg.induce(G, [pc.power(G, gen(G, 4), 2)])
    row4 = s.row_at(4)
    assert row4 is not None
    assert row4[3] == 1  # gcd(2, 5) = 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=4), st.integers(0, 2))
def test_membership_of_generated_words(exps, pick):
    gens = [
        pc.power(H, gen(H, 1), 2),
        pc.multiply(H, gen(H, 2), gen(H, 3)),
        pc.power(H, gen(H, 3), 3),
    ]
    s = sg.induce(H, gens)
    word = pc.identity_element(H)
    for k, e in enumerate(exps):
        word = pc.multiply(H, word, pc.power(H, gens[(k + pick) % 3], e - 1))
    assert s.contains(word)


def test_coefficients_roundtrip():
    s = sg.induce(H, [pc.power(H, gen(H, 1), 2), gen(H, 2)])
    x = pc.multiply(H, pc.power(H, gen(H, 1), 4), pc.power(H, gen(H, 3), 2))
    coeffs = s.coefficients_of(x)
    assert coeffs is not None
    rebuilt = sg.prod_rows(H, s.rows, coeffs)
    assert rebuilt == x
    assert s.coefficients_of(gen(H, 3)) is None


# -- normal closure / commutators ---------------------------------------------


def test_normal_closure_heis():
    s = sg.induce(H, [gen(H, 1)], normal=True)
    assert s.contains(gen(H, 3))
    assert s.row_at(2) is None


def test_derived_subgroups():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    assert sorted(sg.leading_index(r) for r in der.rows) == [6, 7, 8, 9, 10]
    assert all(r[sg.leading_index(r) - 1] == 1 for r in der.rows)

    wf = sg.whole_subgroup(F)
    der_f = sg.commutator_subgroup(F, wf, wf)
    assert sorted(sg.leading_index(r) for r in der_f.rows) == [3, 4, 5]


def test_lower_central_series_f23():
    chain = sg.lower_central_series(F)
    assert len(chain) == 4  # G > G2 > G3 > 1
    assert sorted(sg.leading_index(r) for r in chain[1].rows) == [3, 4, 5]
    assert sorted(sg.leading_index(r) for r in chain[2].rows) == [4, 5]
    assert not chain[3].rows


def test_center_zg():
    z = sg.center(G)
    assert sorted(sg.leading_index(r) for r in z.rows) == [5, 6, 7, 8, 9, 10]


def test_center_nr():
    z = sg.center(N6)
    row3 = z.row_at(3)
    assert row3 is not None and row3[2] == 3  # c^3 is central, c is not
    assert sorted(sg.leading_index(r) for r in z.rows) == [3, 4, 5, 6]


def test_upper_central_series_heis():
    chain = sg.upper_central_series(H)
    assert len(chain) == 3  # 1 < Z < G
    assert not chain[0].rows
    assert sorted(sg.leading_index(r) for r in chain[1].rows) == [3]
    assert chain[2].index_in_ambient() == 1


def _spanned_by(p, letters, keep):
    """The subgroup whose rows are the generators u_k with keep(letters[k-1]);
    generators are canonical rows, so no induce is needed."""
    return sg.Subgroup(p, tuple(gen(p, k) for k, x in
                                enumerate(letters, start=1) if keep(x)))


@pytest.mark.parametrize("n", [6, 7])
def test_central_series_of_unitriangular_in_closed_form(n):
    """gamma_k(UT_n) = <e_ij : j - i >= k> and Z_k(UT_n) = gamma_{n-k}."""
    p = unitriangular(n)
    letters = ut_letters(n)
    gamma = [_spanned_by(p, letters, lambda x, k=k: x[1] - x[0] >= k)
             for k in range(1, n + 1)]
    assert sg.lower_central_series(p) == gamma
    assert sg.upper_central_series(p) == gamma[::-1]


def test_center_of_heisenberg_is_its_derived_subgroup():
    """Z(H_n) = H_n' = <z>, z = e_{1,n+2} the last letter."""
    n = 10
    p = heisenberg(n)
    z = _spanned_by(p, heisenberg_letters(n), lambda x: x == (1, n + 2))
    assert sg.center(p) == z
    assert sg.lower_central_series(p) == [sg.whole_subgroup(p), z,
                                          sg.trivial_subgroup(p)]


# -- quotients ----------------------------------------------------------------


def test_quotient_heis_by_center():
    z = sg.induce(H, [gen(H, 3)])
    qm = oracles.ref_quotient(H, z)
    assert qm.pres.periods == (None, None)
    assert qm.pres.powers == ()
    assert qm.pres.commutators == ()
    assert qm.proj(pc.multiply(H, gen(H, 1), gen(H, 3))) == (1, 0)


def test_quotient_zg_by_center():
    z = sg.center(G)
    qm = oracles.ref_quotient(G, z)
    assert qm.pres.periods == (None, None, None, 5)
    assert qm.pres.powers == ()  # u4^5 = u5 dies in the quotient
    assert qm.pres.commutators == ()
    assert pc.consistency_check(qm.pres).ok


def test_quotient_rejects_non_normal():
    s = sg.induce(H, [gen(H, 1)])  # not normal in HEIS
    with pytest.raises(sg.SubgroupError):
        oracles.ref_quotient(H, s)


def test_quotient_projection_is_hom():
    z = sg.center(G)
    qm = oracles.ref_quotient(G, z)
    a = pc.normal_form(G, ((1, 2), (4, 3), (9, -1)))
    b = pc.normal_form(G, ((2, 1), (3, 4), (4, 4)))
    lhs = qm.proj(pc.multiply(G, a, b))
    rhs = pc.multiply(qm.pres, qm.proj(a), qm.proj(b))
    assert lhs == rhs


def test_quotient_constant_on_cosets():
    z = sg.center(G)
    qm = oracles.ref_quotient(G, z)
    x = pc.normal_form(G, ((1, 1), (4, 2)))
    for r in z.rows:
        assert qm.proj(pc.multiply(G, x, r)) == qm.proj(x)


def test_quotient_lift_section():
    z = sg.center(G)
    qm = oracles.ref_quotient(G, z)
    x = pc.normal_form(G, ((1, 3), (2, -2), (4, 4)))
    back = qm.proj(qm.lift(qm.proj(x)))
    assert back == qm.proj(x)


@pytest.mark.parametrize("make", [heis, zg, nr, f23],
                         ids=["HEIS", "ZG", "NR", "F23"])
def test_coset_rep_is_the_quotient_lift(make):
    # coset_rep(x) lies in x*s, is constant on x*s, and for s normal is
    # the representative that G/s lifts back
    p = make()
    rng = random.Random(p.name)
    w = sg.whole_subgroup(p)
    normal = [sg.center(p), sg.commutator_subgroup(p, w, w),
              sg.trivial_subgroup(p)]
    other = sg.induce(p, [_random_element(p, rng)])
    for s in normal + [other]:
        qm = oracles.ref_quotient(p, s) if s in normal else None
        for _ in range(10):
            x = _random_element(p, rng)
            rep = s.coset_rep(x)
            assert s.contains(pc.multiply(p, pc.inverse(p, x), rep))
            y = sg.prod_rows(p, s.rows, [rng.randint(-2, 2) for _ in s.rows])
            assert s.coset_rep(pc.multiply(p, x, y)) == rep
            if qm is not None:
                assert rep == qm.lift(qm.proj(x))


# -- torsion and isolators ------------------------------------------------------


def test_torsion_nr():
    t = torsion_subgroup(N6)
    assert sorted(sg.leading_index(r) for r in t.rows) == [5, 6]


def test_torsion_heis_trivial():
    assert not torsion_subgroup(H).rows


def test_isolator_of_trivial_is_torsion():
    t = isolator(N6, sg.trivial_subgroup(N6))
    assert t == torsion_subgroup(N6)


def test_isolator_idempotent_and_monotone():
    w = sg.whole_subgroup(N6)
    der = sg.commutator_subgroup(N6, w, w)
    iso = isolator(N6, der)
    again = isolator(N6, iso)
    assert iso == again
    for r in der.rows:
        assert iso.contains(r)


def test_isolator_zg_derived():
    w = sg.whole_subgroup(G)
    der = sg.commutator_subgroup(G, w, w)
    iso = isolator(G, der)
    assert iso == der  # Ab(ZG) is free, so the derived subgroup is isolated


# -- constrained subgroups ----------------------------------------------------


def test_commutation_preimage_heis():
    z = sg.induce(H, [gen(H, 3)])
    pre = sg.commutation_preimage(H, z)
    assert pre.index_in_ambient() == 1  # class 2: [G, G] <= Z


def test_center_via_relative_condition():
    # the condition on all of G's generators is keyed as the centre's pass
    # on S, so the oracle is what tells the two readings apart
    w = sg.whole_subgroup(N6)
    conditions = [(tuple(pc.generator(N6, i) for i in range(1, 7)),
                   sg.trivial_subgroup(N6))]
    z = sg.constrained_subgroup(N6, w, conditions)
    assert z == sg.center(N6)
    assert z == oracles.ref_constrained_subgroup(N6, w, conditions)


def test_subgroup_presentation_consistent():
    s = sg.induce(G, [gen(G, 4), gen(G, 6), gen(G, 9)])
    sub = presentation_on(G, "sub", s.rows, s.relative_orders(),
                          s.coefficients_of)
    assert pc.consistency_check(sub).ok
    # coordinates roundtrip through the abstract presentation
    x = pc.multiply(G, pc.power(G, gen(G, 4), 3), pc.power(G, gen(G, 9), -2))
    c = tuple(s.coefficients_of(x))
    assert sg.prod_rows(G, s.rows, c) == x
    y = pc.commutator(G, gen(G, 4), gen(G, 6))
    d = tuple(s.coefficients_of(y))
    assert s.coefficients_of(pc.multiply(G, x, y)) == list(
        pc.multiply(sub, c, d))


# -- the fast paths against the references in oracles.py -----------------------


def _basis_change(p):
    return random_basis_change(p, random.Random(p.name))


def _random_element(p, rng):
    return tuple(rng.randrange(e) if e is not None else rng.randint(-2, 2)
                 for e in p.periods)


# ZH and ZK differ from ZG in two tails; their basis changes are left out
# to save time.  Each entry gives the presentations to sweep.
NORMALITY = {
    **{make.__name__ + (" rebased" if rebased else ""):
       (lambda make=make, rebased=rebased:
        [_basis_change(make()) if rebased else make()])
       for make in (heis, zg, nr, f23) for rebased in (False, True)},
    "zh": lambda: [zh()], "zk": lambda: [zk()],
    "seed-0 draws": lambda: [p for _, p in consistent_draws(0)[::10]],
}


@pytest.mark.parametrize("name", NORMALITY)
def test_one_sided_normality_matches_two_sided_sweep(name):
    # the closure adds [r, g] for g in S; the oracle conjugates by every
    # u_i and u_i^-1
    seen = set()
    for p in NORMALITY[name]():
        rng = random.Random(p.name)
        draws = [[_random_element(p, rng) for _ in range(rng.randint(1, 2))]
                 for _ in range(2)]
        for gens in draws + [[pc.generator(p, i)]
                             for i in range(1, p.m + 1)]:
            s = sg.induce(p, gens)
            closure = sg.induce(p, gens, normal=True)
            assert closure == oracles.ref_normal_closure(p, gens), p
            for sub in (s, closure):
                seen.add(oracles.two_sided_is_normal(p, sub))
    assert seen == {False, True}


def _constrained_inputs(p):
    """Starts G and each LCS term; conditions (all generators, gamma_k)
    and the radical conditions of the lower central series' pairing."""
    gens = tuple(pc.generator(p, i) for i in range(1, p.m + 1))
    series = associated_series(p)
    radical = [(series.upper[i].rows, series.lower[i + 2])
               for i in range(series.c - 1)]
    conditions = [[(gens, term)] for term in series.lower]
    if radical:
        conditions.append(radical)
    return [(s, cond) for s in series.lower for cond in conditions]


CONSTRAINED = {
    "HEIS": heis, "ZG": zg, "NR": nr, "F23": f23, "ZG_3": lambda: zg(3),
    "ZG_7": lambda: zg(7), "UT_4": lambda: unitriangular(4),
    "UT_5": lambda: unitriangular(5), "H_3": lambda: heisenberg(3),
    "HEIS-index2": heis_index2,
}


@pytest.mark.parametrize("name", sorted(CONSTRAINED))
def test_constrained_subgroup_matches_quotient_per_layer(name):
    base = CONSTRAINED[name]()
    for p in [base] if base.m > 8 else [base, _basis_change(base)]:
        for s, conditions in _constrained_inputs(p):
            got = sg.constrained_subgroup(p, s, conditions)
            assert got == oracles.ref_constrained_subgroup(p, s, conditions)


@pytest.mark.parametrize("name", ["HEIS-index2", "NR", "UT_5", "ZG"])
def test_constrained_pass_collects_each_commutator_once(name, monkeypatch):
    """Over every pass on one presentation no [r, h] is collected twice
    (the passes share the presentation's table), and no closure runs: a
    binding layer's rows are read off its solution lattice."""
    p = CONSTRAINED[name]()
    inputs = _constrained_inputs(p)
    real_commutator, real_induce = pc.commutator, sg.induce
    induced, pairs = [], []

    def induce(*args, **kwargs):
        induced.append(args)
        return real_induce(*args, **kwargs)

    def commutator(q, x, y):
        pairs.append((x, y))
        return real_commutator(q, x, y)

    monkeypatch.setattr(sg, "induce", induce)
    monkeypatch.setattr(pc, "commutator", commutator)
    for s, conditions in inputs:
        sg._build_constrained(p, s, conditions)
    assert induced == []
    assert len(pairs) == len(set(pairs))
    assert pairs


SWEEP = {
    **{f.__name__.upper(): f for f in (heis, zg, nr, f23, zh, zk)},
    **{f.__name__.upper() + " rebased": (lambda f=f: _basis_change(f()))
       for f in (heis, zg, nr, f23, zh, zk)},
    "UT_4": lambda: unitriangular(4), "UT_5": lambda: unitriangular(5),
    "H_3": lambda: heisenberg(3),
}


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_constrained_subgroup_matches_oracle_on_random_inputs(name):
    """Random s, normal L (the normal closure of 0-2 random elements) and
    random hs, in one or two conditions."""
    p = SWEEP[name]()
    rng = random.Random(name)

    def elements(lo, hi):
        return [_random_element(p, rng) for _ in range(rng.randint(lo, hi))]

    for _ in range(8):
        s = sg.induce(p, elements(1, 3))
        conditions = [(tuple(elements(1, 2)),
                       sg.induce(p, elements(0, 2), normal=True))
                      for _ in range(rng.randint(1, 2))]
        got = sg.constrained_subgroup(p, s, conditions)
        assert got == oracles.ref_constrained_subgroup(p, s, conditions)


# -- the left and right strips -------------------------------------------------


STRIPS = {
    **{name: (lambda make=make: [make()]) for name, make in SWEEP.items()},
    "seed-0 draws": lambda: [p for _, p in consistent_draws(0)[::10]],
}


def _canonical_subgroups(p):
    ks = key_subgroups(p)
    chains = refined_series(p)
    return (list(ks.lower_central) + sg.upper_central_series(p)
            + [ks.derived_isolator, ks.iso_center, ks.n_sub, ks.m_sub, ks.g0,
               torsion_subgroup(p)]
            + [term for _, term in chains.upper_chain + chains.left_chain])


def _product_of_powers(p, rows, rng):
    x = pc.identity_element(p)
    for r in rows:
        x = pc.multiply(p, x, pc.power(p, r, rng.randint(-3, 3)))
    return x


@pytest.mark.parametrize("name", STRIPS)
def test_strips_match_the_hand_written_reference(name):
    """On random and canonical subgroups s: coefficients_of and contains
    agree with oracles.ref_coefficients, and coset_rep(x) lies in x*s with
    each coordinate at s's leads in [0, lead).  Then every section the
    constructions built takes a's rows as its image rows, but those whose
    lead value is the period of u_lam in G/b, and b.coset_rep fixes each
    (see abelian.FgAbelian)."""
    for p in STRIPS[name]():
        rng = random.Random(p.name)
        randoms = [sg.induce(p, [_random_element(p, rng)
                                 for _ in range(rng.randint(1, 3))])
                   for _ in range(3)]
        for s in randoms + _canonical_subgroups(p):
            members = [_product_of_powers(p, s.rows, rng) for _ in range(3)]
            others = [_random_element(p, rng) for _ in range(3)]
            for x in members + others + [pc.multiply(p, members[0], others[0])]:
                ref = oracles.ref_coefficients(p, s.rows, x)
                assert s.coefficients_of(x) == ref, (p, s, x)
                assert s.contains(x) == (ref is not None)
                assert ref is not None or x not in members
                rep = s.coset_rep(x)
                assert oracles.ref_coefficients(
                    p, s.rows, pc.multiply(p, pc.inverse(p, x), rep)) \
                    is not None, (p, s, x)
                for r in s.rows:
                    lam = sg.leading_index(r)
                    assert 0 <= rep[lam - 1] < r[lam - 1], (p, s, x)
        sections = [(key[1:], sec) for key, sec in p._built.items()
                    if key[0] == "section"]
        assert sections
        for (a_rows, b_rows), sec in sections:
            b = sg.Subgroup(p, b_rows)

            def period_mod_b(lam):
                row = b.row_at(lam)
                return p.period(lam) if row is None else row[lam - 1]

            kept = tuple(r for r in a_rows if r[sg.leading_index(r) - 1]
                         != period_mod_b(sg.leading_index(r)))
            assert sec.arows == kept, (p, a_rows, b_rows)
            assert all(b.coset_rep(r) == r for r in kept)


# -- the table of collected operations ----------------------------------------


OPERATIONS = ("multiply", "power", "commutator")


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_table_holds_what_the_collector_computes(name):
    """Each operation the subgroup layer kept on p is the one the public
    function computes on a fresh copy of p, which keeps no table.  Only
    products, powers and commutators are kept: an inverse is a power by
    -1, and the normal closure reads [r, g] for r^g."""
    p = SWEEP[name]()
    key_subgroups(p)
    refined_series(p)
    adapt_basis(p)
    fresh = PcPresentation(p.name, p.periods, p.powers, p.commutators)
    kept = [(key[1], key[2:], value)
            for key, value in p._built.items() if key[0] == "pc"]
    assert {op for op, _, _ in kept} == set(OPERATIONS)
    for op, args, value in kept:
        assert getattr(pc, op)(fresh, *args) == value, (op, args)
    assert fresh._built == {}


def test_public_operations_keep_no_table():
    p = unitriangular(4)
    key_subgroups(p)
    before = list(p._built.items())
    rng = random.Random(0)
    for _ in range(10):
        x, y = _random_element(p, rng), _random_element(p, rng)
        pc.multiply(p, x, y)
        pc.power(p, x, rng.randint(-5, 5))
        pc.commutator(p, x, y)
        pc.conjugate(p, x, y)
        pc.inverse(p, x)
    assert list(p._built.items()) == before


def test_inconsistent_presentation_keeps_no_operation():
    # the collector refuses before anything is stored, on every call; only
    # what is read off the tails alone (G's rows and S) stays on p
    p = files.load_fixture("HEIS_MUTATED", check=False)
    for _ in range(2):
        with pytest.raises(pc.PresentationError):
            sg.center(p)
    assert set(p._built) <= {("whole group",), ("generating set",)}


def test_table_keys_are_apart_from_subgroup_keys():
    # at rank 0 the identity () equals the trivial subgroup's rows ()
    p = PcPresentation("TRIVIAL", ())
    one = sg.trivial_subgroup(p)
    assert sg._comm(p, (), ()) == ()
    assert sg.commutator_subgroup(p, one, one) == one
    assert sg._comm(p, (), ()) == ()


# -- the generating set S modulo G' --------------------------------------------


def tor():
    """u1, u2 free, u3 of period 4 with [u2, u1] = u3^2, u4 free with
    [u4, u3] = u5 of period 2.  The tail at u3 leads with 2, no unit mod 4,
    so u3 is outside G'*G_4 and stays in S; u4 commutes with u1 and u2 but
    not with u3, so without u3 the centre would take u4 in."""
    return PcPresentation(
        name="TOR", periods=(None, None, 4, None, 2), powers=(),
        commutators=(((2, 1), ((3, 2),)), ((4, 3), ((5, 1),))))


GENERATING = {
    **{f.__name__.upper(): f for f in (heis, zg, zh, zk, nr, f23)},
    "HEIS-index2": heis_index2, "UT_5": lambda: unitriangular(5),
    "UT_7": lambda: unitriangular(7), "H_4": lambda: heisenberg(4),
    "ZG_3": lambda: zg(3), "ZG_7": lambda: zg(7), "TOR": tor,
    **{f"{name} rebased": (lambda make=make: _basis_change(make()))
       for name, make in (("HEIS", heis), ("NR", nr), ("F23", f23),
                          ("UT_4", lambda: unitriangular(4)),
                          ("H_3", lambda: heisenberg(3)))},
}


@pytest.mark.parametrize("name", sorted(GENERATING))
def test_generating_set_is_off_the_unit_leads_of_g_prime(name):
    """S, read off the commutator tails, is the u_i at which G' (the
    oracle's normal closure of all commutators of generators) has no row
    with lead 1, and it generates G."""
    p = GENERATING[name]()
    gens = [gen(p, i) for i in range(1, p.m + 1)]
    der = oracles.ref_normal_closure(
        p, [oracles.ref_commutator(p, x, y) for x in gens for y in gens])
    off = tuple(g for i, g in enumerate(gens, 1)
                if der.row_at(i) is None or der.row_at(i)[i - 1] != 1)
    assert sg.generating_set(p) == off
    assert sg.induce(p, sg.generating_set(p)) == sg.whole_subgroup(p)


def test_generating_set_keeps_a_generator_led_by_a_non_unit():
    p = tor()
    assert [sg.leading_index(g) for g in sg.generating_set(p)] == [1, 2, 3, 4]
    gens = tuple(gen(p, i) for i in range(1, p.m + 1))
    whole, trivial = sg.whole_subgroup(p), sg.trivial_subgroup(p)
    z = sg.center(p)
    assert z == oracles.ref_constrained_subgroup(p, whole, [(gens, trivial)])
    assert not z.contains(gen(p, 4))
    assert sg.commutator_subgroup(p, whole, whole) == \
        oracles.ref_normal_closure(p, [oracles.ref_commutator(p, x, y)
                                       for x in gens for y in gens])


def test_center_commutes_with_the_generating_set_only(monkeypatch):
    # ZG's S is u1..u5. The pass collects [r, h] for G's 10 rows and the 3
    # rows a binding layer makes, each against the 5 elements of S: 65
    # commutators, where all 10 generators would take 130.
    p = zg()
    pairs, real = [], pc.commutator

    def spy(q, x, y):
        pairs.append((x, y))
        return real(q, x, y)

    monkeypatch.setattr(pc, "commutator", spy)
    sg.commutation_preimage(p, sg.trivial_subgroup(p))
    assert sg.generating_set(p) == tuple(gen(p, i) for i in range(1, 6))
    assert {h for _, h in pairs} == set(sg.generating_set(p))
    assert len(pairs) == len(set(pairs)) == 13 * 5


def test_derived_subgroup_collects_each_unordered_pair_once(monkeypatch):
    # [G, G] is the normal closure of the [r, s] with r before s in S, as
    # [s, r] = [r, s]^-1 and [r, r] = 1: ZG's S has 5 elements, so
    # _build_commutator collects 10 commutators, where every ordered pair
    # would take 25.  [A, B] with A != B still takes every pair: S against
    # the 8 rows of G_3 = <u3, ..., u10> is 40.
    pairs, handed = [], []
    real_commutator, real_induce = pc.commutator, sg.induce

    def commutator(q, x, y):
        pairs.append((x, y))
        return real_commutator(q, x, y)

    def induce(q, gens, **kwargs):
        handed.append(list(pairs))  # what _build_commutator collected
        return real_induce(q, gens, **kwargs)

    monkeypatch.setattr(pc, "commutator", commutator)
    monkeypatch.setattr(sg, "induce", induce)
    for side in ("G", "G_3"):
        p = zg()  # a fresh table
        del pairs[:], handed[:]
        whole, s = sg.whole_subgroup(p), sg.generating_set(p)
        assert len(s) == 5
        if side == "G":
            sg.commutator_subgroup(p, whole, whole)
            want = [(x, y) for k, x in enumerate(s) for y in s[k + 1:]]
        else:
            tail = sg.Subgroup(p, whole.rows[2:])
            sg.commutator_subgroup(p, whole, tail)
            want = [(x, y) for x in s for y in tail.rows]
        assert handed[0] == want
        assert len(want) == (10 if side == "G" else 40)


def test_h10_refined_series_runs_four_passes(monkeypatch):
    # The preimage of G', the centre, Z^L_2 and Z^L_3 (on the trivial
    # subgroup). A condition on G's rows is keyed as one on S, so the
    # radical's pass on (G, gamma_3) is the centre's, and W_2's on
    # (Z, [(G, 1)]) is Z^L_2's, as Z = G' in H_10.
    p = heisenberg(10)
    passes, build = [], sg._build_constrained

    def spy(*args):
        passes.append(args)
        return build(*args)

    monkeypatch.setattr(sg, "_build_constrained", spy)
    refined_series(p)
    assert len(passes) == 4
