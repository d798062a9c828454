"""Canonical refinements of a central series, with their scalar actions.

Starting from the graded commutator pairing of a central series, this
module builds two canonical refinements of the series, on which the
pairing's ring of scalars acts:

* the upper-style chain, refined below its last term by the central parts
  of the lower-style terms, and
* the left-domain chain, starting at the radical of the pairing and
  refined by the intersections with the upper-style terms (pushed up by
  the derived subgroup).

With U_i = upper[i - 1] and L_i = lower[i - 1], the chains want the
subring of the pairing's ring whose triples meet three kinds of linear
condition: phi2 . e == e . phi0 for each connecting map
e: L_i/L_{i+1} -> U_i/U_{i+1}, modulo the periods of U_i/U_{i+1}; phi0
keeps the image S of the central part Z^L_i of L_i in L_i/L_{i+1}; and
phi2 keeps the image S of the radical's part W_i of U_i in U_i/U_{i+1}.
S holds the block's period vectors, as the block matrix M acts on the
block's module, and M keeps S when M g lies in S for each generator g.

Null triples meet every condition.  A null triple has one nonzero entry,
the period e_r of its row's coordinate, at (r, c).  In phi2 it adds e_r
e[c][t] to entry (r, t), which vanishes modulo e_r; in phi0 at (k, c) it
adds e[r][k] e_k to entry (r, c), which vanishes modulo B's period as e
is a homomorphism; in a kept block M g = e_r g_c u_r lies in S, which
holds e_r u_r.  The conditions are linear, and the ring's lattice is
spanned by its additive basis and the null triples.  So they hold on the
whole ring exactly when they hold on each additive basis element, and
then the subring is the pairing's ring itself.  refined_ring checks them
so and raises SeriesError naming the first that fails: a group that
fails one would be the first known to cut the ring.

refined_ring is this ring stage alone, which the scalars report prints.
Each gap of each chain is reported with its section, built by
abelian.section and so the pairing's own where they share one, and the
matrices by which the ring's additive basis acts on it; the one gap that
carries no action (between a chain's graded part and its central
refinement) is marked special and reported without matrices.
refined_series refuses, naming the gap, a left chain gap
W_i G'/W_{i+1} G' with W_i G' outside U_i, as it reads the action in
U_i/U_{i+1}.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

from . import subgroups as sg
from .abelian import FgAbelian, section
from .bilinear import SeriesError, bilinearize
from .intlinalg import InvariantFactors, kernel, mat_mul
from .presentation import PcPresentation
from .scalars import ScalarRingError, pairing_of, scalar_ring
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
        "RefinedSeries", "pres bilin ring upper_chain left_chain "
        "gap_section actions")):
    """The refined chains of pres, each a tuple of (label, Subgroup), with
    ring (the pairing's ring, checked to meet the chains' conditions), the
    special gap's section and one ChainAction per gap."""

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


def _intertwines(ring, e, c_block: int, b_block: int, periods) -> bool:
    """Whether phi2 . e == e . phi0 on every additive basis element of ring,
    entry (r, t) modulo periods[r]: e maps C block c_block into B block
    b_block, whose periods these are."""
    return all(not any((x - y) % per if per else x - y
                       for x, y in zip(row2, row0))
               for m2, m0 in zip(ring.block_matrices("phi2", b_block),
                                 ring.block_matrices("phi0", c_block))
               for per, row2, row0 in zip(periods, mat_mul(m2, e),
                                          mat_mul(e, m0)))


def _keeps(ring, which: str, block: Optional[int], gens, periods) -> bool:
    """Whether `which` of every additive basis element of ring maps each of
    gens, vectors of one block with these periods, into S, the span of
    gens and the block's period vectors: a vector lies in S exactly when
    its InvariantFactors coordinates modulo S are all zero."""
    gens = [list(g) for g in gens if any(g)]
    if not gens:
        return True
    n = len(periods)
    quot = InvariantFactors(gens + [[per if k == r else 0 for k in range(n)]
                                    for r, per in enumerate(periods) if per],
                            n)
    return all(not any(quot.coords([sum(a * x for a, x in zip(row, g))
                                    for row in m]))
               for m in ring.block_matrices(which, block) for g in gens)


def refined_ring(p: PcPresentation,
                 series: Optional[Sequence[Subgroup]] = None):
    """(bilin, ring, zc, w): refined_series' ring stage, with zc[i] the
    central part of lower[i - 1] and w[i] the radical's intersection with
    upper[i - 1], which its chains read too.  ring is the pairing's ring,
    once the module docstring's checks pass; SeriesError names the first
    condition that fails."""
    b = bilinearize(p, series)
    s = b.series
    c = s.c
    if c == 0:
        # the chains start at U_1 and G', and the gap section at U_c
        raise SeriesError(f"{p.name}: the trivial group has no refined series")
    trivial = sg.trivial_subgroup(p)
    ring = scalar_ring(pairing_of(b))

    def check(holds: bool, what: str) -> None:
        if not holds:
            raise SeriesError(f"{p.name}: the pairing ring does not {what}, "
                              "so the refined ring is a proper subring")

    # compatibility with the connecting maps between consecutive layers
    for i in range(2, c):
        small, big = b.out[i - 2], b.right[i - 1]
        if small.periods and big.periods:
            check(_intertwines(ring, _embedding_matrix(small, big), i - 2,
                               i - 1, big.periods),
                  f"commute with the map L{i}/L{i + 1} -> U{i}/U{i + 1}")

    # central parts of the lower-style terms
    zc = {}
    for i in range(2, c + 2):
        zc[i] = sg.constrained_subgroup(
            p, s.lower[i - 1], [(sg.generating_set(p), trivial)])
    for i in range(2, c + 1):
        sec = b.out[i - 2]
        check(_keeps(ring, "phi0", i - 2, [sec.coords(r) for r in zc[i].rows],
                     sec.periods), f"keep Z^L{i} in L{i}/L{i + 1}")

    # intersections of the radical with the upper-style terms
    vcond = [(s.upper[i].rows, s.lower[i + 2]) for i in range(c - 1)]
    w = {1: b.v_r}
    for i in range(2, c + 1):
        w[i] = sg.constrained_subgroup(p, s.upper[i - 1], vcond)
    for i in range(1, c):  # W_1 = V and U_1 = G
        sec = b.right[i - 1]
        check(_keeps(ring, "phi2", i - 1, [sec.coords(r) for r in w[i].rows],
                     sec.periods), f"keep W{i} in U{i}/U{i + 1}")
    return b, ring, zc, w


def refined_series(p: PcPresentation,
                   series: Optional[Sequence[Subgroup]] = None
                   ) -> RefinedSeries:
    b, ring, zc, w = refined_ring(p, series)
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
            if not all(s.upper[idx - 1].contains(x) for x in sec.basis):
                gap = f"{terms_l[idx][0]}/{terms_l[idx + 1][0]}"
                raise SeriesError(
                    f"{p.name}: the left chain's gap {gap} is not a section "
                    f"of U{idx}/U{idx + 1} ({terms_l[idx][0]} does not lie "
                    f"in U{idx}), and its action is not computed")
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
        pres=p, bilin=b, ring=ring,
        upper_chain=_dedup(terms_u), left_chain=_dedup(terms_l),
        gap_section=section(p, s.upper[c - 1], zc[2]),
        actions=tuple(actions))
