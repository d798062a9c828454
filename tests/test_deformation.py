"""Adapted bases, power-tail deformations, class enumeration, embeddings."""

import random
from math import gcd

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
    standard_embedding,
    twisted_embedding,
)

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
from oracles import ref_adapted_presentation

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
        p = ADAPTABLE[name]()
        a = adapt_basis(p)
        pres, new_in_old, old_in_new = ref_adapted_presentation(p)
        assert same_presentation(a.pres, pres)
        assert a.new_in_old == new_in_old
        assert a.old_in_new == old_in_new

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


def two_by_two():
    """u1, u2 of period 3 with u1^3 = u3 and u2^3 = u4, u3, u4 free: an
    abelian group already adapted with n = p = 2 and e = 9."""
    pres = pc.PcPresentation(
        name="TWO", periods=(3, 3, None, None),
        powers=((1, ((3, 1),)), (2, ((4, 1),))))
    return AdaptedPresentation(pres=pres, i0=0, i1=2, i2=4, n=2, p=2, e=9)


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
        a = wide_adapted()
        assert 6 ** 6 * 720 * 2 ** 6 > SURVEY_CAP
        with pytest.raises(DeformError, match="cap"):
            enumerate_deformations(a)


class TestEmbeddings:
    def test_standard_zg_to_zk(self):
        a = adapt_basis(zg())
        deformed, images = standard_embedding(a, (2,), ((1,),))
        q = deformed.pres
        assert same_presentation(q, zk())
        for i in (1, 2, 3, 4, 6, 7, 8, 9, 10):
            assert images[i - 1] == pc.generator(q, i)
        assert images[4] == pc.power(q, pc.generator(q, 5), 2)
        sub = sg.induce(q, list(images))
        assert sub.index_in_ambient() == 2

    @pytest.mark.parametrize("j,qval,index", [
        (1, 3, 17),
        (2, 15, 77),
        (3, 105, 527),
        (4, 1155, 5777),
        (5, 15015, 75077),
    ])
    def test_twisted_zg_to_zk(self, j, qval, index):
        a = adapt_basis(zg())
        deformed, images = twisted_embedding(a, (2,), ((1,),), j)
        q = deformed.pres
        assert images[3] == pc.multiply(
            q, pc.generator(q, 4), pc.power(q, pc.generator(q, 5), qval))
        assert images[4] == pc.power(q, pc.generator(q, 5), 2 + 5 * qval)
        sub = sg.induce(q, list(images))
        got = sub.index_in_ambient()
        assert got == index
        assert gcd(got, 5) == 1
