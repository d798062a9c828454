"""Finitely generated abelian sections A/B with exact integer coordinates.

section_basis(p, a, b) presents the image of a in G/b as a direct sum of
cyclic groups in invariant-factor order (torsion factors first, ascending
divisibility, then free factors).  Basis elements are ambient
representatives; coords/element convert both ways.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import presentation as pc
from . import subgroups as sg
from .intlinalg import identity as eye, inverse_unimodular, snf, vec_mat
from .presentation import Element, PcPresentation
from .subgroups import Subgroup, SubgroupError


class FgAbelian:
    def __init__(self, pres: PcPresentation, qm: sg.QuotientMap,
                 arows: Subgroup, v: List[List[int]],
                 kept: Tuple[int, ...], dvals: Tuple[int, ...],
                 signs: Tuple[int, ...], basis: Tuple[Element, ...],
                 basis_q: Tuple[Element, ...]):
        self.pres = pres
        self.qm = qm
        self.arows = arows
        self._v = v
        self._kept = kept
        self._dvals = dvals
        self._signs = signs
        self.basis = basis
        self.basis_q = basis_q
        self.periods: Tuple[Optional[int], ...] = tuple(
            None if d == 0 else d for d in dvals)

    def __len__(self) -> int:
        return len(self.periods)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.periods if d is None)

    def order(self) -> Optional[int]:
        total = 1
        for d in self.periods:
            if d is None:
                return None
            total *= d
        return total

    def reduce(self, vec: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(
            c if d is None else c % d for c, d in zip(vec, self.periods))

    def coords(self, x: Element) -> Tuple[int, ...]:
        y = self.qm.proj(x)
        coeffs = self.arows.coefficients_of(y)
        if coeffs is None:
            raise SubgroupError("element does not lie in the section")
        if not coeffs:
            return ()
        yv = vec_mat(coeffs, self._v)
        out = []
        for pos, (j, d) in enumerate(zip(self._kept, self._dvals)):
            val = self._signs[pos] * yv[j]
            out.append(val if d == 0 else val % d)
        return tuple(out)

    def element(self, vec: Tuple[int, ...]) -> Element:
        return sg.prod_rows(self.pres, self.basis, vec)


def section_basis(p: PcPresentation, a: Subgroup, b: Subgroup,
                  *, name: str = "") -> FgAbelian:
    qm = sg.quotient(p, b, name=name or f"{p.name} section")
    return _section_basis(p, a, b, qm, name=name)


def _section_basis(p: PcPresentation, a: Subgroup, b: Subgroup,
                   qm: sg.QuotientMap, *, name: str = "") -> FgAbelian:
    """section_basis(p, a, b) given qm, the quotient map of p by b."""
    for i, r in enumerate(a.rows):
        for s in a.rows[i + 1:]:
            if not b.contains(pc.commutator(p, r, s)):
                raise SubgroupError(
                    f"{p.name}: section {name or 'A/B'} is not abelian")
    qp = qm.pres
    arows = sg.induce(qp, [qm.proj(r) for r in a.rows])
    rows = arows.rows
    s = len(rows)

    rel = arows.power_relations()
    if rel:
        d, _, v = snf(rel)
        dvals = tuple(d[j][j] if j < len(d) else 0 for j in range(s))
    else:
        v = eye(s)
        dvals = (0,) * s
    vinv = inverse_unimodular(v)

    kept = tuple(j for j in range(s) if dvals[j] != 1)
    signs: List[int] = []
    basis_q: List[Element] = []
    for j in kept:
        h = sg.prod_rows(qp, rows, vinv[j])
        sign = 1
        for idx, c in enumerate(h):
            if c and qp.period(idx + 1) is None:
                if c < 0:
                    sign = -1
                    h = pc.inverse(qp, h)
                break
        signs.append(sign)
        basis_q.append(h)
    basis = tuple(qm.lift(h) for h in basis_q)

    return FgAbelian(p, qm, arows, v, kept,
                     tuple(dvals[j] for j in kept), tuple(signs),
                     basis, tuple(basis_q))


def abelianization(p: PcPresentation) -> FgAbelian:
    w = sg.whole_subgroup(p)
    der = sg.commutator_subgroup(p, w, w)
    return section_basis(p, w, der, name=f"{p.name} abelianized")
