"""Commutator pairings attached to a central series.

Given a descending central series R of G, each layer carries a pairing
induced by the commutator: the i-th one takes a class of x modulo the
radical and a class of y in the i-th upper-companion section, and returns
the class of [x, y] one layer down the lower companion.  Assembling the
layers gives a single bilinear map on abelian groups; everything here is
computed exactly through section coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

from . import subgroups as sg
from .abelian import FgAbelian, section
from .intlinalg import hnf_basis, identity as eye, kernel
from .presentation import Element, PcPresentation
from .subgroups import Subgroup


class SeriesError(ValueError):
    pass


class AssociatedSeries(
        namedtuple("AssociatedSeries", "pres given lower upper")):
    """A central series `given` of pres, as a tuple of Subgroups, with its
    companions: lower[k] is the (k+1)-st lower one, upper[k] the (k+1)-st
    upper one."""

    __slots__ = ()

    @property
    def c(self) -> int:
        return len(self.lower) - 1


def associated_series(p: PcPresentation,
                      series: Optional[Sequence[Subgroup]] = None
                      ) -> AssociatedSeries:
    """The companions of series, the lower central series if None.

    lower[k + 1] = [series[k], G], and upper[k] is its commutation
    preimage, so [upper[k], G] = lower[k + 1] exactly: <= by the
    preimage's maximality, >= as series[k] <= upper[k]. lower ends at 1:
    each lower[k + 1] is checked to lie in series[k + 1], and series ends
    at 1.  series is checked to descend, so lower and upper descend, and
    each of their layers is a section (see abelian.section).
    """
    # the lower central series is its own lower companion, and each of its
    # commutator subgroups is kept on p, so rebuilding it below costs nothing
    series = list(sg.lower_central_series(p) if series is None else series)
    whole = sg.whole_subgroup(p)
    if series[0] != whole:
        raise SeriesError("series must start at the whole group")
    if not series[-1].is_trivial:
        raise SeriesError("series must end at the trivial subgroup")
    lower = [whole]
    for k in range(len(series) - 1):
        if not all(series[k].contains(r) for r in series[k + 1].rows):
            raise SeriesError("input series does not descend")
        nxt = sg.commutator_subgroup(p, series[k], whole)
        for r in nxt.rows:
            if not series[k + 1].contains(r):
                raise SeriesError("input series is not central")
        lower.append(nxt)

    upper = tuple(
        sg.commutation_preimage(p, lower[k + 1])
        for k in range(len(lower) - 1))
    return AssociatedSeries(p, tuple(series), tuple(lower), upper)


class Bilinearization(namedtuple(
        "Bilinearization", "series v_r left right out tables")):
    """The layer pairings of an AssociatedSeries: left is the section G/v_r,
    v_r the radical; layer i pairs it with right[i] into out[i], and
    tables[i][s][t] is the out[i] coordinates of [left basis s, right[i]
    basis t]."""

    __slots__ = ()

    def evaluate(self, block: int, x: Element, y: Element) -> Tuple[int, ...]:
        xs = self.left.coords(x)
        ys = self.right[block].coords(y)
        dim = len(self.out[block].periods)
        acc = [0] * dim
        table = self.tables[block]
        for s, xv in enumerate(xs):
            if not xv:
                continue
            for t, yv in enumerate(ys):
                if not yv:
                    continue
                cell = table[s][t]
                for k in range(dim):
                    acc[k] += xv * yv * cell[k]
        return self.out[block].reduce(tuple(acc))

    def _kernel_trivial(self, side: FgAbelian,
                        eqs: List[Tuple[Dict[int, int], int]]) -> bool:
        for v in kernel(eqs, len(side.periods)):
            for c, d in zip(v, side.periods):
                if d is None:
                    if c:
                        return False
                elif c % d:
                    return False
        return True

    def left_nondegenerate(self) -> bool:
        eqs = []
        for block, (b_i, c_i) in enumerate(zip(self.right, self.out)):
            for t in range(len(b_i.periods)):
                for k, d in enumerate(c_i.periods):
                    eqs.append((
                        {s: row[t][k]
                         for s, row in enumerate(self.tables[block])},
                        0 if d is None else d))
        return self._kernel_trivial(self.left, eqs)

    def right_nondegenerate(self) -> bool:
        for block, (b_i, c_i) in enumerate(zip(self.right, self.out)):
            eqs = []
            for row in self.tables[block]:
                for k, d in enumerate(c_i.periods):
                    eqs.append(({t: cell[k] for t, cell in enumerate(row)},
                                0 if d is None else d))
            if not self._kernel_trivial(b_i, eqs):
                return False
        return True

    def full(self) -> bool:
        """Do the values, together with the target torsion, span each target?"""
        for block, c_i in enumerate(self.out):
            dim = len(c_i.periods)
            if dim == 0:
                continue
            rows = [list(cell) for row in self.tables[block] for cell in row]
            for k, d in enumerate(c_i.periods):
                if d is not None:
                    vec = [0] * dim
                    vec[k] = d
                    rows.append(vec)
            if hnf_basis(rows, dim) != eye(dim):
                return False
        return True


def bilinearize(p: PcPresentation,
                series: Optional[Sequence[Subgroup]] = None) -> Bilinearization:
    s = associated_series(p, series)
    c = s.c
    whole = s.lower[0]

    # [x, upper_i] must land two layers down
    conditions = [(s.upper[i].rows, s.lower[i + 2]) for i in range(c - 1)]
    v_r = sg.constrained_subgroup(p, whole, conditions)
    left = section(p, whole, v_r)

    right: List[FgAbelian] = []
    out: List[FgAbelian] = []
    tables = []
    for i in range(c - 1):
        b_i = section(p, s.upper[i], s.upper[i + 1])
        c_i = section(p, s.lower[i + 1], s.lower[i + 2])
        table = tuple(
            tuple(c_i.coords(sg._comm(p, xs, yt)) for yt in b_i.basis)
            for xs in left.basis)
        right.append(b_i)
        out.append(c_i)
        tables.append(table)

    return Bilinearization(s, v_r, left, tuple(right), tuple(out),
                           tuple(tables))
