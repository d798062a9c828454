"""Homomorphisms by generator images, with certification and invariants.

A map is certified by checking every defining relation of the source:
power tails and commutator tails must map to relations that hold among
the images.  Since the presentation is defining, that check is complete;
`spot_check` adds a collection-level sanity pass on random pairs.
"""

import random
from collections import namedtuple
from typing import Optional, Tuple

from . import presentation as pc
from . import subgroups as sg
from .presentation import Element, PcPresentation
from .series import hirsch_length, key_subgroups


class HomError(ValueError):
    def __init__(self, message: str, relation: Optional[tuple] = None):
        super().__init__(message)
        self.relation = relation


class GroupHom(namedtuple("GroupHom", "source target images")):
    """The map of source to target that sends u_i to images[i - 1]."""

    __slots__ = ()


def evaluate(h: GroupHom, x: Element) -> Element:
    """Image of the canonical element x = prod u_i^{x_i}."""
    return sg.prod_rows(h.target, h.images, x)


def hom_from_images(src: PcPresentation, dst: PcPresentation,
                    images: Tuple[Element, ...]) -> GroupHom:
    """Certify that the generator assignment extends to a homomorphism."""
    if len(images) != src.m:
        raise HomError(f"expected {src.m} images, got {len(images)}")
    for i, img in enumerate(images, start=1):
        if not pc.is_canonical(dst, img):
            raise HomError(f"image of generator {i} is not canonical")
    # tails are strictly ascending, so each is its own coordinate vector
    for i in range(1, src.m + 1):
        e = src.period(i)
        if e is None:
            continue
        lhs = pc.power(dst, images[i - 1], e)
        rhs = sg.prod_rows(
            dst, images, pc.element_of_word_coords(src, src.power_tail(i)))
        if lhs != rhs:
            raise HomError(
                f"power relation of generator {i} is violated: "
                f"{lhs} != {rhs}",
                relation=("power", i))
    for j in range(2, src.m + 1):
        for i in range(1, j):
            lhs = pc.commutator(dst, images[j - 1], images[i - 1])
            rhs = sg.prod_rows(dst, images, pc.element_of_word_coords(
                src, src.commutator_tail(j, i)))
            if lhs != rhs:
                raise HomError(
                    f"commutator relation [u{j}, u{i}] is violated: "
                    f"{lhs} != {rhs}",
                    relation=("commutator", j, i))
    return GroupHom(source=src, target=dst, images=tuple(images))


def identity_hom(p: PcPresentation) -> GroupHom:
    return GroupHom(source=p, target=p, images=tuple(
        pc.generator(p, i) for i in range(1, p.m + 1)))


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer after inner.  Shapes must agree so coordinates transport."""
    if inner.target.periods != outer.source.periods:
        raise HomError("composition shapes do not line up")
    return GroupHom(
        source=inner.source, target=outer.target,
        images=tuple(evaluate(outer, x) for x in inner.images))


def is_inverse_pair(f: GroupHom, g: GroupHom) -> bool:
    """True iff g after f and f after g both fix every generator."""
    if (f.source.periods != g.target.periods
            or f.target.periods != g.source.periods):
        raise HomError("the two maps do not have opposite shapes")
    for i in range(1, f.source.m + 1):
        if evaluate(g, f.images[i - 1]) != pc.generator(f.source, i):
            return False
    for i in range(1, g.source.m + 1):
        if evaluate(f, g.images[i - 1]) != pc.generator(g.source, i):
            return False
    return True


def image_index(h: GroupHom) -> Tuple[sg.Subgroup, Optional[int]]:
    """Image subgroup and its index in the target (None when infinite)."""
    sub = sg.induce(h.target, list(h.images))
    return sub, sub.index_in_ambient()


def random_element(p: PcPresentation, rng: random.Random,
                   span: int = 50) -> Element:
    return tuple(
        rng.randrange(e) if e is not None else rng.randint(-span, span)
        for e in p.periods)


def spot_check(h: GroupHom, *, pairs: int = 200, seed: int = 0) -> bool:
    """phi(xy) == phi(x)phi(y) on random pairs; defense in depth."""
    rng = random.Random(seed)
    for _ in range(pairs):
        x = random_element(h.source, rng)
        y = random_element(h.source, rng)
        lhs = evaluate(h, pc.multiply(h.source, x, y))
        rhs = pc.multiply(h.target, evaluate(h, x), evaluate(h, y))
        if lhs != rhs:
            return False
    return True


class InvariantReport(namedtuple(
        "InvariantReport", "hirsch nilpotency_class ab_invariants mn_order "
        "p n e regular tame")):
    __slots__ = ()


def invariant_report(p: PcPresentation) -> InvariantReport:
    """Basis-independent profile; equal groups give equal reports."""
    ks = key_subgroups(p)
    return InvariantReport(
        hirsch=hirsch_length(p),
        nilpotency_class=len(ks.lower_central) - 1,
        ab_invariants=ks.abelianized.periods,
        mn_order=ks.mn.order(),
        p=ks.p,
        n=ks.n,
        e=ks.e,
        regular=ks.regular,
        tame=ks.tame,
    )
