"""Homomorphism certification, inverse pairs, image index, invariants."""

import random

import pytest

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.deformation import abdef, adapt_basis, presentation_on
from nilpc.morphisms import (
    HomError,
    compose,
    evaluate,
    hom_from_images,
    identity_hom,
    image_index,
    invariant_report,
    is_inverse_pair,
    random_element,
    spot_check,
)

from groups_def import (
    ALL_CONSISTENT, heis, nr, random_basis_change, zg, zh, zk)


def phi_zh_to_zk():
    src, dst = zh(), zk()
    g = lambda i: pc.generator(dst, i)
    images = [g(1), g(2), g(3),
              pc.multiply(dst, pc.power(dst, g(4), 3),
                          pc.power(dst, g(5), -1)),
              g(5),
              pc.power(dst, g(6), 3), pc.power(dst, g(7), 3),
              pc.power(dst, g(8), 3),
              g(9), g(10)]
    return hom_from_images(src, dst, tuple(images))


def psi_zk_to_zh():
    src, dst = zk(), zh()
    g = lambda i: pc.generator(dst, i)
    images = [g(1), g(2), g(3),
              pc.power(dst, g(4), 2),
              g(5),
              pc.power(dst, g(6), 2), pc.power(dst, g(7), 2),
              pc.power(dst, g(8), 2),
              g(9), g(10)]
    return hom_from_images(src, dst, tuple(images))


class TestCertification:
    def test_identity_certifies_on_every_fixture(self):
        for make in ALL_CONSISTENT:
            p = make()
            h = identity_hom(p)
            x = random_element(p, random.Random(7))
            assert evaluate(h, x) == x

    def test_collapsing_heis_center_fails(self):
        p = heis()
        images = (pc.generator(p, 1), pc.generator(p, 2),
                  pc.identity_element(p))
        with pytest.raises(HomError) as exc:
            hom_from_images(p, p, images)
        assert exc.value.relation == ("commutator", 2, 1)

    def test_worked_pair_certifies(self):
        phi = phi_zh_to_zk()
        psi = psi_zk_to_zh()
        assert spot_check(phi, pairs=50, seed=3)
        assert spot_check(psi, pairs=50, seed=4)

    def test_noncanonical_image_rejected(self):
        p = zg()
        images = [pc.generator(p, i) for i in range(1, 11)]
        images[3] = (0, 0, 0, 7, 0, 0, 0, 0, 0, 0)  # 7 >= period 5
        with pytest.raises(HomError):
            hom_from_images(p, p, tuple(images))

    def test_wrong_image_count_is_named(self):
        p = heis()
        with pytest.raises(HomError, match="expected 3 images, got 2"):
            hom_from_images(p, p, (pc.generator(p, 1), pc.generator(p, 2)))

    def test_violated_power_relation_is_named(self):
        # u1 of period 2 cannot go to u1 of period 4
        src = pc.PcPresentation("C2", (2,))
        dst = pc.PcPresentation("C4", (4,))
        with pytest.raises(HomError,
                           match="power relation of generator 1 is violated"):
            hom_from_images(src, dst, (pc.generator(dst, 1),))


class TestInversePair:
    def test_worked_pair_is_inverse(self):
        assert is_inverse_pair(phi_zh_to_zk(), psi_zk_to_zh())

    def test_identity_with_identity(self):
        p = heis()
        assert is_inverse_pair(identity_hom(p), identity_hom(p))

    def test_phi_with_itself_is_not(self):
        # shapes line up (same periods) but the composite moves u4
        assert not is_inverse_pair(phi_zh_to_zk(), phi_zh_to_zk())

    def test_shape_mismatch_raises(self):
        with pytest.raises(HomError):
            is_inverse_pair(identity_hom(heis()), identity_hom(zg()))
        with pytest.raises(HomError, match="composition shapes do not"):
            compose(identity_hom(heis()), identity_hom(zg()))

    def test_a_left_inverse_alone_is_not(self):
        # Z -> Z^2 -> Z fixes u1, but Z^2 -> Z -> Z^2 kills u2
        z = pc.PcPresentation("Z", (None,))
        z2 = pc.PcPresentation("Z2", (None, None))
        f = hom_from_images(z, z2, (pc.generator(z2, 1),))
        g = hom_from_images(z2, z, (pc.generator(z, 1),
                                    pc.identity_element(z)))
        assert compose(g, f).images == (pc.generator(z, 1),)
        assert not is_inverse_pair(f, g)

    def test_composition_fixes_generators(self):
        phi, psi = phi_zh_to_zk(), psi_zk_to_zh()
        back = compose(psi, phi)
        assert back.images == tuple(
            pc.generator(back.source, i) for i in range(1, 11))


class TestImageIndex:
    def test_identity_has_index_one(self):
        sub, idx = image_index(identity_hom(zg()))
        assert idx == 1

    def test_finite_index_inclusion_into_heis(self):
        p = heis()
        sub = sg.induce(p, [pc.power(p, pc.generator(p, 1), 2),
                            pc.generator(p, 2)])
        sp = presentation_on(p, "sub", sub.rows, sub.relative_orders(),
                             sub.coefficients_of)
        h = hom_from_images(sp, p, sub.rows)
        image, idx = image_index(h)
        assert idx == 4
        assert image.rows == sub.rows


class TestInvariantReport:
    def test_zg_values(self):
        r = invariant_report(zg())
        assert r.hirsch == 6
        assert r.nilpotency_class == 2
        assert r.ab_invariants == (None, None, None, None)
        assert r.mn_order == 5
        assert (r.p, r.n, r.e) == (1, 1, 5)
        assert not r.regular
        assert not r.tame

    def test_heis_values(self):
        r = invariant_report(heis())
        assert r.hirsch == 3
        assert r.nilpotency_class == 2
        assert r.ab_invariants == (None, None)
        assert r.mn_order == 1
        assert (r.p, r.n, r.e) == (0, 0, 1)
        assert r.regular
        assert r.tame

    def test_nr_values(self):
        r = invariant_report(nr())
        assert r.hirsch == 4
        assert r.ab_invariants == (None, None, None)
        assert (r.p, r.n, r.e) == (1, 1, 3)
        assert not r.regular
        assert not r.tame

    def test_worked_triple_agrees(self):
        assert invariant_report(zg()) == invariant_report(zh())
        assert invariant_report(zg()) == invariant_report(zk())

    def test_stable_under_adapt_and_deform(self):
        base = invariant_report(zg())
        a = adapt_basis(zg())
        assert invariant_report(a.pres) == base
        assert invariant_report(abdef(a, (3,), ((1,),)).pres) == base


class TestBasisIndependence:
    @pytest.mark.parametrize("make", [heis, zg, nr])
    def test_report_survives_random_rebase(self, make):
        p = make()
        base = invariant_report(p)
        rng = random.Random(11)
        for _ in range(3):
            q = random_basis_change(p, rng)
            assert invariant_report(q) == base
