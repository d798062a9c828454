"""Finitely generated abelian sections A/B with exact integer coordinates.

FgAbelian(p, a, b) presents the image of a in G/b as a direct sum of
cyclic groups in invariant-factor order (torsion factors first, ascending
divisibility, then free factors).  The periods and coordinates are those
of intlinalg.InvariantFactors on the relation lattice of a's rows in G/b,
which is subgroups.quotient(p, b), kept on p; this module adds only the
sign rule.  Basis elements are ambient representatives; coords/element
convert both ways.
"""

from __future__ import annotations

from typing import Tuple

from . import presentation as pc
from . import subgroups as sg
from .intlinalg import InvariantFactors
from .presentation import Element, PcPresentation
from .subgroups import Subgroup, SubgroupError


class FgAbelian(InvariantFactors):
    """The section a/b of p, read in G/b.

    Each basis element is oriented so that its first nonzero coordinate at
    an infinite-period generator of G/b is positive.
    """

    def __init__(self, p: PcPresentation, a: Subgroup, b: Subgroup,
                 *, name: str = ""):
        qm = sg.quotient(p, b)
        for i, r in enumerate(a.rows):
            for s in a.rows[i + 1:]:
                if not b.contains(pc.commutator(p, r, s)):
                    raise SubgroupError(
                        f"{p.name}: section {name or 'A/B'} is not abelian")
        qp = qm.pres
        self.pres = p
        self.qm = qm
        self.arows = sg.induce(qp, [qm.proj(r) for r in a.rows])
        super().__init__(self.arows.power_relations(), len(self.arows.rows))
        basis = []
        for k, row in enumerate(self.rows):
            h = sg.prod_rows(qp, self.arows.rows, row)
            lead = next((c for idx, c in enumerate(h)
                         if c and qp.period(idx + 1) is None), 0)
            if lead < 0:
                self.negate(k)
                h = pc.inverse(qp, h)
            basis.append(qm.lift(h))
        self.basis: Tuple[Element, ...] = tuple(basis)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.periods if d is None)

    def coords(self, x: Element) -> Tuple[int, ...]:
        coeffs = self.arows.coefficients_of(self.qm.proj(x))
        if coeffs is None:
            raise SubgroupError("element does not lie in the section")
        return super().coords(coeffs)

    def element(self, vec: Tuple[int, ...]) -> Element:
        return sg.prod_rows(self.pres, self.basis, vec)


def abelianization(p: PcPresentation) -> FgAbelian:
    w = sg.whole_subgroup(p)
    der = sg.commutator_subgroup(p, w, w)
    return FgAbelian(p, w, der, name=f"{p.name} abelianized")
