"""Adapted bases, power-tail deformations, class enumeration, and Oger
witnesses that each deformation is elementarily equivalent to its base."""

import functools
import random
import re
from itertools import product

import pytest

from nilpc import deformation as dm
from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.deformation import (
    SURVEY_CAP,
    AdaptedPresentation,
    DeformError,
    abdef,
    adapt_basis,
    enumerate_deformations,
    ext_class,
)
from nilpc.intlinalg import vec_mat
from nilpc.morphisms import hom_from_images, is_inverse_pair
from nilpc.series import key_subgroups

from groups_def import (
    f23,
    heis,
    heisenberg,
    nr,
    random_basis_change,
    unitriangular,
    wide_adapted,
    zg,
    zh,
    zk,
)
from oracles import (
    ref_adapted_presentation,
    ref_det,
    ref_enumerate_deformations,
    times_z,
)
from test_collection import consistent_draws

ADAPTABLE = {
    "HEIS": heis, "NR": nr, "F23": f23, "ZG": zg, "ZH": zh, "ZK": zk,
    "UT_4": lambda: unitriangular(4), "H_3": lambda: heisenberg(3),
    **{f"{base.__name__.upper()}_rebased_{seed}":
       (lambda base=base, seed=seed:
        random_basis_change(base(), random.Random(seed)))
       for base in (nr, f23) for seed in range(3)},
}


def same_presentation(a, b):
    return (a.periods == b.periods and a.powers == b.powers
            and a.commutators == b.commutators)


class TestAdaptBasis:
    def test_zg_already_adapted(self):
        p = zg()
        a = adapt_basis(p)
        assert (a.i0, a.i1, a.i2) == (3, 4, 5)
        assert (a.n, a.p, a.e) == (1, 1, 5)
        assert same_presentation(a.pres, p)
        assert a.new_in_old == tuple(
            pc.generator(p, i) for i in range(1, 11))

    def test_heis_already_adapted(self):
        p = heis()
        a = adapt_basis(p)
        assert (a.i0, a.i1, a.i2) == (2, 2, 2)
        assert (a.n, a.p, a.e) == (0, 0, 1)
        assert same_presentation(a.pres, p)

    def test_nr_gains_a_generator(self):
        p = nr()
        a = adapt_basis(p)
        assert (a.i0, a.i1, a.i2) == (2, 3, 4)
        assert (a.n, a.p, a.e) == (1, 1, 3)
        assert a.pres.m == 7
        assert a.pres.periods == (None, None, 3, None, None, 3, 3)
        assert a.pres.powers == ((3, ((4, 1),)),)
        assert dict(a.pres.commutators) == {
            (2, 1): ((5, -1),),
            (3, 1): ((6, 2),),
            (3, 2): ((7, 2),),
        }
        # the new generator is the cube of the old third one
        assert a.new_in_old[3] == pc.power(p, pc.generator(p, 3), 3)

    @pytest.mark.parametrize("name", ADAPTABLE)
    def test_matches_reference(self, name):
        assert_matches_reference(ADAPTABLE[name]())

    def test_matches_reference_where_lifts_leave_the_section_basis(self):
        # the seed-0 draws whose free segment is not N/Is(G')'s section
        # basis, every fourth of them
        moved = [p for _, p in consistent_draws(0)
                 if (ks := key_subgroups(p)).central_lifts != ks.n_is.basis]
        assert len(moved) == 96
        for p in moved[::4]:
            assert_matches_reference(p)

    def test_free_segment_is_central_and_adapting_is_an_isomorphism(self):
        # on every seed-0 draw with a middle section; the free segment,
        # read off N/Is(G')'s section basis, had a commutator tail on 72
        for p, a in adapted_draws():
            for f in a.new_in_old[a.i1:a.i2]:
                assert all(not any(pc.commutator(p, f, pc.generator(p, i)))
                           for i in range(1, p.m + 1)), p
            assert is_inverse_pair(hom_from_images(a.pres, p, a.new_in_old),
                                   hom_from_images(p, a.pres, a.old_in_new))
        assert len(adapted_draws()) == 448

    @pytest.mark.parametrize("name", ADAPTABLE)
    def test_witness_words_invert(self, name):
        p = ADAPTABLE[name]()
        a = adapt_basis(p)
        # old generator words in the new basis evaluate back correctly
        for i in range(1, p.m + 1):
            word = a.old_in_new[i - 1]
            accum = pc.identity_element(p)
            for k, exp in enumerate(word):
                if exp:
                    accum = pc.multiply(
                        p, accum, pc.power(p, a.new_in_old[k], exp))
            assert accum == pc.generator(p, i)


@functools.lru_cache(maxsize=None)
def adapted_draws():
    """(p, adapt_basis(p)) for each consistent seed-0 draw p with a middle
    section (n >= 1), adapted once for the sweeps that share them."""
    return tuple((p, a) for _, p in consistent_draws(0)
                 if (a := adapt_basis(p)).n >= 1)


def assert_matches_reference(p):
    a = adapt_basis(p)
    pres, new_in_old, old_in_new = ref_adapted_presentation(p)
    assert same_presentation(a.pres, pres)
    assert a.new_in_old == new_in_old
    assert a.old_in_new == old_in_new


def draw_605():
    """The 606th random_presentation draw on Random(0), consistent or not:
    periods (5, inf, inf, 5, 5), u1^5 = u5^4, u4^5 = u5^4,
    [u3, u1] = u5^2 and [u3, u2] = u4^4. M/N has invariant factors 5
    and 25, and u3 is free modulo Is(G') but not central."""
    return dict(consistent_draws(0))[605]


def hand_adapted(periods, powers, commutators=(), i0=0, p=2):
    """A hand-built AdaptedPresentation with two middle generators after
    i0 others, p free ones, e = 9 and the rest in Is(G')."""
    pres = pc.PcPresentation(name="HAND", periods=periods, powers=powers,
                             commutators=commutators)
    return AdaptedPresentation(pres=pres, i0=i0, i1=i0 + 2, i2=i0 + 2 + p,
                               n=2, p=p, e=9)


def two_by_two():
    """u1, u2 of period 3 with u1^3 = u3 and u2^3 = u4, u3, u4 free: an
    abelian group already adapted with n = p = 2 and e = 9."""
    pres = pc.PcPresentation(
        name="TWO", periods=(3, 3, None, None),
        powers=((1, ((3, 1),)), (2, ((4, 1),))))
    return AdaptedPresentation(pres=pres, i0=0, i1=2, i2=4, n=2, p=2, e=9)


def matches_walk(a):
    """True when enumerate_deformations(a) equals the parameter walk's
    survey, bound, classes and representatives; False when both refuse a
    with one message; None when the walk is past its case cap."""
    try:
        want = ref_enumerate_deformations(a)
    except DeformError as exc:
        with pytest.raises(DeformError) as got:
            enumerate_deformations(a)
        assert str(got.value) == str(exc)
        return False
    if want is None:
        return None
    assert enumerate_deformations(a) == want, a.pres.name
    return True


# hand-built inputs outside abdef's argument, and what names them
REFUSED = [
    # a free generator with a commutator tail: u3 = f1, [u3, u1] = u5
    (hand_adapted((3, 3, None, None, None),
                  ((1, ((3, 1),)), (2, ((4, 1),))),
                  (((3, 1), ((5, 1),)),)), "not central"),
    # a free generator in a commutator tail: [u2, u1] = f1
    (hand_adapted((3, 3, None, None),
                  ((1, ((3, 1),)), (2, ((4, 1),))),
                  (((2, 1), ((3, 1),)),)), "occurs in a tail"),
    # a free generator in the power tail of u1, outside the middle
    (hand_adapted((2, 3, 3, None, None),
                  ((1, ((4, 1),)), (2, ((4, 1),)), (3, ((5, 1),))),
                  i0=1), "occurs in a tail"),
    # a free generator of finite period
    (hand_adapted((3, 3, None, 5), ((1, ((3, 1),)), (2, ((4, 1),)))),
     "segments"),
    # fewer free generators than middle ones
    (hand_adapted((3, 3, None), ((1, ((3, 1),)),), p=1), "segments"),
]


class TestAbdef:
    def test_zg_deforms_to_zk(self):
        a = adapt_basis(zg())
        out = abdef(a, (2,), ((1,),))
        assert same_presentation(out.pres, zk())
        assert (out.i0, out.i1, out.i2) == (3, 4, 5)

    def test_deep_tail_preserved(self):
        # plant an extra deep entry behind the special block and deform
        base = zg()
        doctored = pc.PcPresentation(
            name="ZGdeep",
            periods=base.periods,
            powers=((4, ((5, 1), (9, 1))),),
            commutators=base.commutators,
        )
        a = adapt_basis(doctored)
        out = abdef(a, (2,), ((1,),))
        tails = dict(out.pres.powers)
        assert tails[4] == ((5, 2), (9, 1))

    def test_gcd_violation_rejected(self):
        a = adapt_basis(zg())
        with pytest.raises(DeformError):
            abdef(a, (5,), ((1,),))

    def test_det_violation_rejected(self):
        a = adapt_basis(zg())
        with pytest.raises(DeformError):
            abdef(a, (2,), ((2,),))

    @pytest.mark.parametrize("c", [((2, 1), (1, 1)), ((1, 3), (0, -1))])
    def test_unimodular_non_permutation_accepted(self, c):
        out = abdef(two_by_two(), (1, 1), c)
        assert dict(out.pres.powers) == {
            i: tuple((k, v) for k, v in zip((3, 4), c[i - 1]) if v)
            for i in (1, 2)}

    def test_determinant_two_rejected(self):
        with pytest.raises(DeformError, match="unimodular"):
            abdef(two_by_two(), (1, 1), ((2, 1), (0, 1)))

    def test_unnormalized_base_rejected(self):
        a = adapt_basis(zk())  # power tail lands on the square
        with pytest.raises(DeformError):
            abdef(a, (2,), ((1,),))

    def test_every_surveyed_class_of_draw_605_deforms(self):
        # its free generator u3 used to keep [u3, u2] = u4^4, and 140 of
        # the 160 deformations were inconsistent
        a = adapt_basis(draw_605())
        survey = enumerate_deformations(a)
        assert len(survey.representatives) == 160
        for _, d, c in survey.representatives:
            assert pc.consistency_check(abdef(a, d, c).pres).ok, (d, c)

    def test_surveyed_classes_of_draws_deform(self):
        # every eighth representative of each seed-0 draw with e^n at most
        # 10^4 (all draws would prove 3,867 deformations in seconds),
        # proven after the fact, as abdef proves nothing
        checked = 0
        for p, a in adapted_draws():
            if a.e ** a.n > 10 ** 4:
                continue
            try:
                survey = enumerate_deformations(a)
            except DeformError as exc:
                assert re.search("diagonally normalized|cap", str(exc))
                continue
            for _, d, c in survey.representatives[::8]:
                checked += 1
                assert pc.consistency_check(abdef(a, d, c).pres).ok, p
        assert checked >= 200

    def test_runs_no_proof(self, monkeypatch):
        # the deformed presentation is consistent by abdef's docstring
        # argument, so nothing proves it
        a = adapt_basis(zg())
        calls = []
        monkeypatch.setattr(pc, "consistency_check",
                            lambda *args: calls.append(args))
        out = abdef(a, (2,), ((1,),))
        assert calls == []
        assert same_presentation(out.pres, zk())

    @pytest.mark.parametrize("a,match", REFUSED)
    def test_refuses_an_input_outside_the_argument(self, a, match):
        # abdef's argument needs these, and _check_diagonal reads them off
        # the relations, so the refusal is eager and runs no proof
        with pytest.raises(DeformError, match=match):
            abdef(a, (1, 1), ((1, 0), (0, 1)))
        with pytest.raises(DeformError, match=match):
            enumerate_deformations(a)


class TestExtClass:
    def test_identity_class(self):
        a = adapt_basis(zg())
        cls = ext_class(a, (1,), ((1,),))
        assert cls.moduli == (5,)
        assert cls.components == ((1,),)

    def test_sign_and_scale_agree(self):
        a = adapt_basis(zg())
        assert ext_class(a, (2,), ((1,),)) == ext_class(a, (3,), ((-1,),))

    def test_multiplicative_in_d(self):
        a = adapt_basis(zg())
        c2 = ext_class(a, (2,), ((1,),)).components[0][0]
        c3 = ext_class(a, (3,), ((1,),)).components[0][0]
        c6 = ext_class(a, (6,), ((1,),)).components[0][0]
        assert c6 == (c2 * c3) % 5


class TestEnumerate:
    def test_zg_four_classes(self):
        rep = enumerate_deformations(adapt_basis(zg()))
        assert rep.bound == 5
        assert len(rep.classes) == 4
        assert {cls.components[0][0] for cls in rep.classes} == {1, 2, 3, 4}

    def test_nr_two_classes(self):
        rep = enumerate_deformations(adapt_basis(nr()))
        assert rep.bound == 3
        assert {cls.components[0][0] for cls in rep.classes} == {1, 2}

    def test_heis_single_class(self):
        rep = enumerate_deformations(adapt_basis(heis()))
        assert rep.bound == 1
        assert len(rep.classes) == 1
        assert rep.classes[0].components == ()

    def test_survey_validates_no_case(self, monkeypatch):
        a = adapt_basis(zg())
        calls = []
        real = dm._validate_params
        monkeypatch.setattr(dm, "_validate_params",
                            lambda *args: calls.append(args) or real(*args))
        rep = enumerate_deformations(a)
        assert calls == []
        assert rep.classes == tuple(sorted(
            {ext_class(a, d, c) for _, d, c in rep.representatives},
            key=lambda cl: cl.components))
        assert len(calls) == len(rep.representatives)

    def test_survey_rejects_undiagonal_tails(self):
        with pytest.raises(DeformError,
                           match="ZK adapted: power tail of generator 4 is "
                                 "not diagonally normalized"):
            enumerate_deformations(adapt_basis(zk()))

    def test_survey_past_the_cap_raises(self):
        # 720 permutations times 6 units mod 7 in each of 6 rows
        a = wide_adapted()
        assert 720 * 6 ** 6 > SURVEY_CAP
        with pytest.raises(DeformError, match="more classes than the cap"):
            enumerate_deformations(a)

    def test_a_period_that_does_not_divide_e_is_refused(self):
        # units mod 9 do not reduce onto units mod 5, so the classes are
        # not the closed form's pairs
        a = hand_adapted((3, 5, None, None), ((1, ((3, 1),)), (2, ((4, 1),))))
        with pytest.raises(DeformError, match="period of generator 2 does "
                                              "not divide"):
            enumerate_deformations(a)

    @pytest.mark.parametrize("name", ADAPTABLE)
    def test_matches_the_walk_on_fixtures(self, name):
        # ZK's refusal included
        assert matches_walk(adapt_basis(ADAPTABLE[name]())) is not None

    def test_matches_the_walk_on_draw_605_and_hand_built_inputs(self):
        assert matches_walk(adapt_basis(draw_605()))
        assert matches_walk(two_by_two())
        for a, _ in REFUSED:
            assert matches_walk(a) is False

    def test_matches_the_walk_on_draws(self):
        # every seed-0 draw with a middle section; the walk refuses 239 at
        # _check_diagonal as the survey does, and 16 are past its case cap
        outcomes = [matches_walk(a) for _, a in adapted_draws()]
        assert [outcomes.count(x) for x in (True, False, None)] == [
            193, 239, 16]

    @pytest.mark.parametrize("k", [2014, 2987])
    def test_one_class_object_per_class(self, monkeypatch, k):
        # n = 3 and e = 27: 48 classes, where the walk made one per
        # (d, c) case, 18^3 * 3! * 2^3 = 279,936 of them
        made = []

        class Spy(dm.ExtClass):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                made.append(args or kwargs)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(dm, "ExtClass", Spy)
        survey = enumerate_deformations(
            adapt_basis(dict(consistent_draws(0))[k]))
        assert len(survey.classes) == len(made) == 48


class TestElementaryEquivalence:
    """Finitely generated nilpotent G and H are elementarily equivalent
    exactly when G x Z and H x Z are isomorphic (F. Oger, J. London Math.
    Soc. (2) 44, 1991).  On an adapted basis G has u_t^(e_t) = w_t f_t for
    its n middle generators u_t, with w_t in Is(G') and the f_t central;
    the deformation H by (d, c) has u_t^(e_t) = w_t prod_k f_k^(K_tk), with
    K_tk = d_k c_tk.  Let s generate the Z factor, and for an n x n integer
    B and a in Z^n put N = [K + diag(e) B | diag(e) a].  When N's maximal
    minors are coprime, N is the top n rows of a unimodular U.  Then
    G x Z -> H x Z sends u_t to u_t f^(B_t) s^(a_t), sends (f_1, ..., f_n,
    s) through U's rows and fixes every other generator.  f^(B_t) s^(a_t)
    is central, so the image of u_t has (e_t)-th power
    w_t f^(K_t + e_t B_t) s^(e_t a_t), which is the image of w_t f_t.  The
    inverse sends (f_1, ..., f_n, s) through the rows of U^-1, and u_t to
    u_t times the inverse of f^(B_t) s^(a_t)'s preimage.  For n = 1,
    B = 0 and a = 1 give N = [k | e], completed by k beta - e alpha = 1.
    """

    @staticmethod
    def completion(K, e):
        """(B, a, U) for the first B in {0, 1, -1}^(n x n), then a in
        {0, 1, 2}^n, whose N has coprime maximal minors, or None.  U is N
        over a Bezout row x of its signed minors, so det U = 1 by cofactor
        expansion along x."""
        n = len(e)
        for flat in product((0, 1, -1), repeat=n * n):
            B = [list(flat[t * n:(t + 1) * n]) for t in range(n)]
            for a in product((0, 1, 2), repeat=n):
                N = [[K[t][k] + e[t] * B[t][k] for k in range(n)]
                     + [e[t] * a[t]] for t in range(n)]
                g, x = 0, []
                for j in range(n + 1):
                    minor = ref_det([row[:j] + row[j + 1:] for row in N])
                    g, y, z = sg._xgcd(g, (-1) ** (n + j) * minor)
                    x = [y * v for v in x] + [z]
                if g == 1:
                    return B, list(a), N + [x]
        return None

    @staticmethod
    def inverse(u):
        """U^-1 for det U = 1: the adjugate."""
        m = len(u)
        return [[(-1) ** (i + j) * ref_det(
            [row[:i] + row[i + 1:] for r, row in enumerate(u) if r != j])
            for j in range(m)] for i in range(m)]

    @staticmethod
    def images(src, dst, moved):
        """Generator images of src in dst: moved[i] gives u_i's image as
        exponents by generator, ascending and so a normal form; every
        other u_i goes to u_i."""
        out = []
        for i in range(1, src.m + 1):
            img = [0] * dst.m
            for j, x in moved.get(i, {i: 1}).items():
                img[j - 1] = x
            out.append(tuple(img))
        return tuple(out)

    def assert_witness(self, a, d, c):
        """Certify the docstring's witness for the class (d, c) of a, and
        its inverse; a class with no completion fails."""
        n, e = a.n, a.pres.periods[a.i0:a.i1]
        found = self.completion(
            [[d[k] * c[t][k] for k in range(n)] for t in range(n)], e)
        assert found, (a.pres.name, d, c)
        b, av, u = found
        v = self.inverse(u)
        g, h = times_z(a.pres), times_z(abdef(a, d, c).pres)
        mid = range(a.i0 + 1, a.i1 + 1)
        z = list(range(a.i1 + 1, a.i1 + n + 1)) + [g.m]  # f_1..f_n, s
        there = {x: dict(zip(z, row)) for x, row in zip(z, u)}
        back = {x: dict(zip(z, row)) for x, row in zip(z, v)}
        for t, ut in enumerate(mid):
            there[ut] = {ut: 1, **dict(zip(z, b[t] + [av[t]]))}
            back[ut] = {ut: 1, **{x: -y for x, y in zip(
                z, vec_mat(b[t] + [av[t]], v))}}
        assert is_inverse_pair(
            hom_from_images(g, h, self.images(g, h, there)),
            hom_from_images(h, g, self.images(h, g, back))), (d, c)

    @pytest.mark.parametrize("name,classes", [("NR", 2), ("ZG", 4),
                                              ("ZH", 4)])
    def test_every_class_times_z_is_g_times_z(self, name, classes):
        a = adapt_basis(ADAPTABLE[name]())
        survey = enumerate_deformations(a).representatives
        assert a.n == 1 and len(survey) == classes
        for _, d, c in survey:
            self.assert_witness(a, d, c)

    def test_draws_times_z_are_g_times_z(self):
        # the first, the last and every 16th class that enumerate prints,
        # for every seed-0 draw with n = 2 or 3 that abdef accepts: 103
        # draws, 4 of them past the parameter walk's old case cap
        checked = 0
        for _, a in adapted_draws():
            if a.n not in (2, 3):
                continue
            try:
                survey = enumerate_deformations(a).representatives
            except DeformError as exc:
                assert "diagonally normalized" in str(exc)
                continue
            checked += 1
            for _, d, c in survey[::16] + survey[-1:]:
                self.assert_witness(a, d, c)
        assert checked == 103
