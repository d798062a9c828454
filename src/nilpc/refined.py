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
refined_series lists each chain as terms (label, subgroup, kind, block),
kind and block saying how the ring acts on the gap below the term: as
phi1, or as phi2 or phi0 on that block; as pullback-phi2 or
pullback-phi0, on a gap that embeds in that block, each matrix read back
through the embedding by intlinalg.solve; or not at all on the special
gap, between a chain's graded part and its central refinement.  Each gap
whose terms differ is reported with its section, built by
abelian.section and so the pairing's own where they share one, and its
matrices, one per additive basis element of the ring (None on the
special gap).  refined_series refuses, naming the gap, a left chain gap
W_i G'/W_{i+1} G' with W_i G' outside U_i, as it reads the action in
U_i/U_{i+1}.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

from . import subgroups as sg
from .abelian import FgAbelian, section
from .bilinear import SeriesError, bilinearize
from .intlinalg import InvariantFactors, mat_mul, solve, transpose
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
        "RefinedSeries", "ring upper_chain left_chain gap_section actions")):
    """The refined chains of a presentation, each a tuple of (label,
    Subgroup), with ring (the pairing's ring, checked to meet the chains'
    conditions), the special gap's section and one ChainAction per gap."""

    __slots__ = ()


def _dedup(terms):
    """The (label, subgroup) pairs of a chain, each term equal to the one
    before it dropped."""
    out: List[Tuple[str, Subgroup]] = []
    for label, term, _, _ in terms:
        if not out or out[-1][1] != term:
            out.append((label, term))
    return tuple(out)


def _pullback(ring, which: str, block: int, big: FgAbelian,
              small: FgAbelian):
    """The matrices of `which` of the ring's additive basis on small, a
    section embedded in big, the section of block `block`: column k of
    the matrix of m is a solution x of e.x == m.e_k modulo big's periods,
    e the embedding, whose columns are the big coordinates of small's
    basis.  e embeds small in big, so two solutions agree modulo small's
    periods, and small.reduce makes x canonical."""
    e = [big.coords(x) for x in small.basis]
    moduli = [per or 0 for per in big.periods]
    mats = []
    for m in ring.block_matrices(which, block):
        xs, _ = solve(e, moduli, [[sum(a * v for a, v in zip(row, col))
                                   for row in m] for col in e])
        if xs is None:
            raise ScalarRingError(
                "embedded section is not invariant under the ring")
        mats.append(tuple(zip(*(small.reduce(x) for x in xs))))
    return tuple(mats)


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
            e = transpose([big.coords(x) for x in small.basis])
            check(_intertwines(ring, e, i - 2, i - 1, big.periods),
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

    # terms (label, subgroup, kind, block), kind and block saying how the
    # ring acts on the gap below the term; each chain ends at 1, with no
    # gap below it
    upper = [("G" if i == 1 else f"U{i}", s.upper[i - 1],
              "phi2" if i < c else "special", i - 1) for i in range(1, c + 1)]
    upper += [("1" if zc[i].is_trivial else f"Z^L{i}", zc[i],
               "pullback-phi0", i - 2) for i in range(2, c + 2)]
    left = [("G", s.lower[0], "phi1", None)]
    for i in range(1, c + 1):  # W_1 G' is V
        term = b.v_r if i == 1 else sg.induce(
            p, list(w[i].rows) + list(s.lower[1].rows))
        left.append(("V" if i == 1 else f"W{i}G'", term,
                     "pullback-phi2" if i < c else "special", i - 1))
    left += [("1" if s.lower[i - 1].is_trivial else "G'" if i == 2
              else f"L{i}", s.lower[i - 1], "phi0", i - 2)
             for i in range(2, c + 2)]

    sections = {"phi2": b.right, "phi0": b.out}
    actions: List[ChainAction] = []
    for chain, terms in (("upper", upper), ("left", left)):
        for (top, x, kind, block), (bottom, y, _, _) in zip(terms, terms[1:]):
            if x == y:
                continue
            sec = section(p, x, y)
            if kind == "pullback-phi2" and not all(
                    s.upper[block].contains(v) for v in sec.basis):
                raise SeriesError(
                    f"{p.name}: the left chain's gap {top}/{bottom} is not "
                    f"a section of U{block + 1}/U{block + 2} ({top} does "
                    f"not lie in U{block + 1}), and its action is not "
                    "computed")
            if kind == "special":
                matrices = None
            elif kind.startswith("pullback-"):
                which = kind[len("pullback-"):]
                matrices = _pullback(ring, which, block,
                                     sections[which][block], sec)
            else:
                matrices = ring.block_matrices(kind, block)
            actions.append(ChainAction(chain, top, bottom, sec, kind,
                                       matrices))

    return RefinedSeries(
        ring=ring, upper_chain=_dedup(upper), left_chain=_dedup(left),
        gap_section=section(p, s.upper[c - 1], zc[2]),
        actions=tuple(actions))
