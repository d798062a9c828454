"""Commutator pairings attached to a central series.

Given a descending central series R of G, each layer carries a pairing
induced by the commutator: block k takes a class of x in A = G/v_r, v_r
the radical, and a class of y in B_k = upper[k]/upper[k+1], and returns
the class of [x, y] in C_k = lower[k+1]/lower[k+2].  It is bilinear since
[lower[k+1], G] <= lower[k+2].  Assembling the blocks gives a single
bilinear map on abelian groups; everything here is computed exactly
through section coordinates, and nothing is solved.

Theorem.  For every series that associated_series accepts, each block,
and so the assembled map, is left and right nondegenerate and full, as
the largest ring of scalars wants (Myasnikov, Siberian Math. J. 1990):
* Left: v_r is, by its conditions, the subgroup of the x with
  [x, upper[k]] <= lower[k+2] for every k, which is the left radical.
* Right: [v_r, upper[k]] <= lower[k+2], so block k's right radical is the
  y in upper[k] with [y, G] <= lower[k+2]; that is upper[k+1], the full
  commutation preimage of lower[k+2].
* Full: lower[k+1] = [R_k, G], and R_k <= upper[k], so modulo lower[k+2]
  the commutators of A's basis with B_k's basis span C_k.
So the scalars report prints the three properties as true, unchecked.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence

from . import subgroups as sg
from .abelian import FgAbelian, section
from .presentation import PcPresentation
from .subgroups import Subgroup


class SeriesError(ValueError):
    pass


class AssociatedSeries(
        namedtuple("AssociatedSeries", "pres lower upper")):
    """The companions of a central series of pres, as tuples of
    Subgroups: lower[k] is the (k+1)-st lower one, upper[k] the (k+1)-st
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
    return AssociatedSeries(p, tuple(lower), upper)


class Bilinearization(namedtuple(
        "Bilinearization", "series v_r left right out tables")):
    """The layer pairings of an AssociatedSeries: left is the section G/v_r,
    v_r the radical; layer i pairs it with right[i] into out[i], and
    tables[i][s][t] is the out[i] coordinates of [left basis s, right[i]
    basis t]; nondegenerate and full by the module docstring's theorem."""

    __slots__ = ()


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
