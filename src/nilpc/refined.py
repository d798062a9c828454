"""Canonical refinements of a central series, with their scalar actions.

Starting from the graded commutator pairing of a central series, this
module cuts the full scalar ring down to the subring compatible with two
canonical refinements of the series:

* the upper-style chain, refined below its last term by the central parts
  of the lower-style terms, and
* the left-domain chain, starting at the radical of the pairing and
  refined by the intersections with the upper-style terms (pushed up by
  the derived subgroup).

Compatibility is expressed through linear side conditions on the scalar
triples (intertwining with the connecting maps between layers, invariance
of the embedded images).  The final ring is one restriction of the
pairing's ring by all of them together, which is the intersection of the
subrings each set cuts out, since restrictions compose (see
restrict_ring).  refined_ring is this stage alone, which the scalars
report prints.  Each gap of each chain is reported with its section,
built by abelian.section and so the pairing's own where they share one,
and the matrices by which the ring's additive basis acts on it; the one
gap that carries no action (between a chain's graded part and its central
refinement) is marked special and reported without matrices.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

from . import subgroups as sg
from .abelian import FgAbelian, section
from .bilinear import SeriesError, bilinearize
from .intlinalg import kernel
from .presentation import PcPresentation
from .scalars import (
    HomCompat,
    InvariantSubmodule,
    ScalarRingError,
    pairing_of,
    restrict_ring,
    scalar_ring,
)
from .subgroups import Subgroup


class ChainAction(namedtuple(
        "ChainAction", "chain top bottom section kind matrices")):
    """One gap of one refined chain and how the ring acts on it.

    matrices has one entry per additive basis element of the ring (the
    action is additive in the ring element); it is None exactly for the
    special gap, which the ring does not act on.
    """

    __slots__ = ()


class RefinedSeries(namedtuple(
        "RefinedSeries", "pres bilin base_ring ring upper_chain left_chain "
        "gap_section actions")):
    """The refined chains of pres, each a tuple of (label, Subgroup), with
    ring (base_ring restricted by the chains), the special gap's section
    and one ChainAction per gap."""

    __slots__ = ()


def _dedup(terms: Sequence[Tuple[str, Subgroup]]):
    out: List[Tuple[str, Subgroup]] = []
    for label, term in terms:
        if out and out[-1][1] == term:
            continue
        out.append((label, term))
    return tuple(out)


def _embedding_matrix(small: FgAbelian, big: FgAbelian):
    """Columns are the big-section coordinates of the small basis."""
    cols = [big.coords(x) for x in small.basis]
    rows = tuple(
        tuple(col[r] for col in cols) for r in range(len(big.periods)))
    return rows


def _pullback(e_rows, big_periods, small: FgAbelian, block_mat):
    """Matrix of the action on the embedded section: for each small basis
    vector e_k, a solution x of e.x == m.e_k modulo the big periods.

    The right-hand side rhs = m.e_k becomes an unknown s in column 0, with
    the rows (-rhs_r) s + e_r.x == 0 (mod big period r).  The values of s
    on the solutions (s, x) form an ideal dZ.  When d > 0, the first row
    of kernel's Hermite basis has its pivot d in column 0; otherwise that
    row, if any, has 0 there.  So e.x == rhs is solvable exactly when the
    first row has pivot 1 in column 0, and then that row is (1, x).  e
    embeds the small section in the big one, so two solutions agree
    modulo the small periods, and small.reduce makes x canonical."""
    nbig = len(big_periods)
    nsmall = len(small.periods)
    cols = []
    for k in range(nsmall):
        eqs = []
        for r, per in enumerate(big_periods):
            row = {1 + t: v for t, v in enumerate(e_rows[r])}
            row[0] = -sum(block_mat[r][t] * e_rows[t][k] for t in range(nbig))
            eqs.append((row, 0 if per is None else per))
        basis = kernel(eqs, 1 + nsmall)
        if not basis or basis[0][0] != 1:
            raise ScalarRingError(
                "embedded section is not invariant under the ring")
        cols.append(small.reduce(tuple(basis[0][1:])))
    return tuple(
        tuple(cols[k][r] for k in range(nsmall)) for r in range(nsmall))


def refined_ring(p: PcPresentation,
                 series: Optional[Sequence[Subgroup]] = None):
    """(bilin, base_ring, ring, zc, w): refined_series' ring stage, with
    zc[i] the central part of lower[i - 1] and w[i] the radical's
    intersection with upper[i - 1], which its chains read too."""
    b = bilinearize(p, series)
    s = b.series
    c = s.c
    if c == 0:
        # the chains start at U_1 and G', and the gap section at U_c
        raise SeriesError(f"{p.name}: the trivial group has no refined series")
    trivial = sg.trivial_subgroup(p)
    base = scalar_ring(pairing_of(b))

    # compatibility with the connecting maps between consecutive layers
    pl_cons = []
    for i in range(2, c):
        small = b.out[i - 2]
        big = b.right[i - 1]
        if not small.periods or not big.periods:
            continue
        pl_cons.append(HomCompat(
            _embedding_matrix(small, big), c_block=i - 2, b_block=i - 1))

    # central parts of the lower-style terms
    zc = {}
    for i in range(2, c + 2):
        zc[i] = sg.constrained_subgroup(
            p, s.lower[i - 1], [(sg.generating_set(p), trivial)])

    ae_cons = []
    for i in range(2, c + 1):
        sec = b.out[i - 2]
        if not sec.periods or not zc[i].rows:
            continue
        ae_cons.append(InvariantSubmodule(
            "phi0", i - 2, tuple(sec.coords(r) for r in zc[i].rows)))

    # intersections of the radical with the upper-style terms
    vcond = [(s.upper[i].rows, s.lower[i + 2]) for i in range(c - 1)]
    w = {1: b.v_r}
    for i in range(2, c + 1):
        w[i] = sg.constrained_subgroup(p, s.upper[i - 1], vcond)

    ad_cons = []
    for i in range(1, c):
        sec = b.right[i - 1]
        gens_i = tuple(sec.coords(r) for r in w[i].rows)
        gens_i = tuple(g for g in gens_i if any(g))
        if not sec.periods or not gens_i:
            continue
        ad_cons.append(InvariantSubmodule("phi2", i - 1, gens_i))
    ring = restrict_ring(base, pl_cons + ae_cons + ad_cons)
    return b, base, ring, zc, w


def refined_series(p: PcPresentation,
                   series: Optional[Sequence[Subgroup]] = None
                   ) -> RefinedSeries:
    b, base, ring, zc, w = refined_ring(p, series)
    s = b.series
    c = s.c

    # chains
    terms_u: List[Tuple[str, Subgroup]] = []
    for i in range(1, c + 1):
        terms_u.append(("G" if i == 1 else f"U{i}", s.upper[i - 1]))
    for i in range(2, c + 2):
        label = "1" if zc[i].is_trivial else f"Z^L{i}"
        terms_u.append((label, zc[i]))

    terms_l: List[Tuple[str, Subgroup]] = [("G", s.lower[0]), ("V", b.v_r)]
    for i in range(2, c + 1):
        wg = sg.induce(p, list(w[i].rows) + list(s.lower[1].rows))
        terms_l.append((f"W{i}G'", wg))
    for i in range(2, c + 2):
        term = s.lower[i - 1]
        label = "1" if term.is_trivial else ("G'" if i == 2 else f"L{i}")
        terms_l.append((label, term))

    sections = {"phi2": b.right, "phi0": b.out}

    def pullbacks(sec, which, i):
        """The action on sec, a section embedded in block i of `which`."""
        if not sec.periods:
            return ((),) * len(ring.periods)
        big = sections[which][i]
        e = _embedding_matrix(sec, big)
        return tuple(_pullback(e, big.periods, sec, m)
                     for m in ring.block_matrices(which, i))

    def action(chain, idx, sec):
        """The kind of gap idx of chain, and the ring's action on it."""
        if chain == "upper":
            if idx < c - 1:  # (U_i, U_{i+1}), i = idx + 1
                return "phi2", ring.block_matrices("phi2", idx)
            if idx > c - 1:  # (Z^L_i, Z^L_{i+1}), i = idx - c + 2
                return "pullback-phi0", pullbacks(sec, "phi0", idx - c)
        elif idx == 0:
            return "phi1", ring.block_matrices("phi1")
        elif idx < c:  # (W_i G', W_{i+1} G'), i = idx, W_1 G' read as V
            return "pullback-phi2", pullbacks(sec, "phi2", idx - 1)
        elif idx > c:  # (L_i, L_{i+1}), i = idx - c + 1
            return "phi0", ring.block_matrices("phi0", idx - c - 1)
        # between the graded part and its central refinement
        return "special", None

    actions: List[ChainAction] = []
    for chain, terms in (("upper", terms_u), ("left", terms_l)):
        for idx in range(len(terms) - 1):
            (top, x), (bottom, y) = terms[idx], terms[idx + 1]
            if x != y:
                sec = section(p, x, y)
                actions.append(ChainAction(chain, top, bottom, sec,
                                           *action(chain, idx, sec)))

    return RefinedSeries(
        pres=p, bilin=b, base_ring=base, ring=ring,
        upper_chain=_dedup(terms_u), left_chain=_dedup(terms_l),
        gap_section=section(p, s.upper[c - 1], zc[2]),
        actions=tuple(actions))
