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
phi2 keeps, in U_i/U_{i+1}, the image S of the radical's part W_i of U_i
and, for 1 < i < c, the image T of the K_i below.  S and T hold the
block's period vectors, as the block matrix M acts on the block's
module, and M keeps S when M g lies in S for each generator g.

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
pullback-phi0, on a gap read through that block; or not at all on the
special gap, between a chain's graded part and its central refinement.
Each gap whose terms differ is reported with its section, built by
abelian.section and so the pairing's own where they share one, and its
matrices, one per additive basis element of the ring (None on the
special gap).

A pullback gap is read as a section a/k, with a in the block's top
term, that embeds in the block modulo T, the block image of k: an x in
a whose image lies in T lies in k.  a is generated by k and a/k's
basis, so the image S of a is span(e) + T, e the block coordinates of
a/k's basis; the ring keeps S and T, so it acts on S/T, and through the
embedding on a/k.  _pullback reads the matrix of m column by column:
column j is the e-part x of a solution of e.x + T.y == m.e_j modulo the
block's periods.  Every such system can be solved, as m.e_j lies in S.
Two solutions differ in an x whose element of a maps into T, and so
lies in k: x is unique modulo a/k's periods, and a/k's reduce makes it
canonical.  The gaps are:

* upper chain, Z^L_i/Z^L_{i+1} in L_i/L_{i+1}: Z^L_{i+1} = Z^L_i n
  L_{i+1} is k, so T is 0 and the gap embeds.
* left chain, V/W_2 G' in G/U_2: W_1 = V, and W_2 G' <= U_2 (G' <= U_2,
  as [G', G] <= L_3), so T is 0; an x in V with image 0 lies in V n U_2
  = W_2.
* left chain, W_i G'/W_{i+1} G' for 1 < i < c, in U_i/U_{i+1}, where
  W_i G' need not lie in U_i (from class 4 on W_3 G' leaves U_3).
  W_i = V n U_i, so W_{i+1} = W_i n U_{i+1} <= W_i.  W_{i+1} G' holds
  G', so W_i G' = W_i (W_{i+1} G'), and W_i maps onto the gap with
  kernel K_i = W_i n W_{i+1} G'.  By the modular law (A(B n C) = AB n C
  for A <= C), with A = W_{i+1} <= C = W_i and B = G', K_i = W_{i+1}
  (W_i n G'), so K_i holds W_{i+1} and [W_i, W_i], and W_i/K_i is
  isomorphic to the gap through inclusion: the gap is read as a = W_i,
  k = K_i, and its reported section is W_i/K_i.  It embeds modulo T:
  an x in W_i with image in T is k' u with k' in K_i and u in U_{i+1},
  so u = k'^-1 x lies in W_i n U_{i+1} = W_{i+1} <= K_i, and x in K_i.
  refined_ring reads K_i as the kernel of W_i -> W_i G'/W_{i+1} G' on
  W_i's rows: the map is a homomorphism into an abelian group, so the
  exponent vectors of W_i's rows that it kills form a lattice that holds
  every relation among the rows.  intlinalg.solve gives its Hermite
  basis with no right-hand side, and subgroups._lattice_subgroup its
  subgroup.  refined_ring checks that the ring keeps T, as it keeps S,
  and refuses by name when it does not.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

from . import subgroups as sg
from .abelian import FgAbelian, section
from .bilinear import SeriesError, bilinearize
from .intlinalg import mat_mul, solve, transpose
from .presentation import Element, PcPresentation
from .scalars import pairing_of, scalar_ring
from .subgroups import Subgroup


class ChainAction(namedtuple(
        "ChainAction", "chain top bottom section kind matrices")):
    """One gap of one refined chain and how the ring acts on it.

    section is top/bottom, but on a left chain gap W_i G'/W_{i+1} G'
    with 1 < i < c, where it is W_i/K_i, which inclusion maps onto the
    gap (see the module docstring).  matrices has one entry per additive
    basis element of the ring (the action is additive in the ring
    element); it is None exactly for the special gap, which the ring does
    not act on.
    """

    __slots__ = ()


class RefinedSeries(namedtuple(
        "RefinedSeries", "ring upper_chain left_chain gap_section actions")):
    """The refined chains of a presentation, each a tuple of (label,
    Subgroup), with ring (the pairing's ring, checked to meet the chains'
    conditions), the special gap's section and one ChainAction per gap,
    its section read as the module docstring says."""

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
              small: FgAbelian, t: Sequence[Element]):
    """The matrices of `which` of the ring's additive basis on small = a/k,
    which embeds in big, the section of block `block`, modulo T, the span
    of the big coordinates of t, k's rows (none where T is 0): column j of
    the matrix of m is the e-part x of a solution of e.x + T.y == m.e_j
    modulo big's periods, e the big coordinates of small's basis, and
    small.reduce makes x canonical.  The module docstring proves that a
    solution exists and that x is unique modulo small's periods."""
    e = [big.coords(x) for x in small.basis]
    cols = e + [big.coords(x) for x in t]
    moduli = [per or 0 for per in big.periods]
    mats = []
    for m in ring.block_matrices(which, block):
        xs, _ = solve(cols, moduli, [[sum(a * v for a, v in zip(row, col))
                                      for row in m] for col in e])
        mats.append(tuple(zip(*(small.reduce(x[:len(e)]) for x in xs))))
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
    gens and the block's period vectors: exactly when intlinalg.solve
    reaches every image M g modulo the periods."""
    if not any(map(any, gens)):
        return True  # S holds only period vectors, and M keeps those
    images = [[sum(a * x for a, x in zip(row, g)) for row in m]
              for m in ring.block_matrices(which, block) for g in gens]
    xs, _ = solve(gens, [per or 0 for per in periods], images)
    return xs is not None


def refined_ring(p: PcPresentation,
                 series: Optional[Sequence[Subgroup]] = None):
    """(bilin, ring, zc, w, wg, k): refined_series' ring stage, with zc[i]
    the central part of lower[i - 1], w[i] the radical's intersection with
    upper[i - 1], wg[i] = W_i G', and k[i] = K_i for each nonempty gap
    W_i G'/W_{i+1} G' with 1 < i < c, which its chains read too.  ring is
    the pairing's ring, once the module docstring's checks pass;
    SeriesError names the first condition that fails."""
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

    # the left chain's terms W_i G', W_1 G' = V; at class 2, L_3 = 1, so
    # U_2 = V = W_2 = Z(G) holds G', and W_2 G' = W_2
    wg = {1: b.v_r, **{i: w[i] if c == 2 else sg.induce(
        p, list(w[i].rows) + list(s.lower[1].rows)) for i in range(2, c + 1)}}
    # K_i, the kernel of W_i -> W_i G'/W_{i+1} G', for each nonempty gap
    # with 1 < i < c, and its image T in U_i/U_{i+1} (module docstring)
    k = {}
    for i in range(2, c):
        if wg[i] == wg[i + 1]:
            continue
        gap = section(p, wg[i], wg[i + 1])
        _, basis = solve([gap.coords(r) for r in w[i].rows],
                         [per or 0 for per in gap.periods], [])
        k[i] = sg._lattice_subgroup(p, w[i], basis)
        sec = b.right[i - 1]
        check(_keeps(ring, "phi2", i - 1, [sec.coords(r) for r in k[i].rows],
                     sec.periods), f"keep W{i} n W{i + 1}G' in U{i}/U{i + 1}")
    return b, ring, zc, w, wg, k


def refined_series(p: PcPresentation,
                   series: Optional[Sequence[Subgroup]] = None
                   ) -> RefinedSeries:
    b, ring, zc, w, wg, k = refined_ring(p, series)
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
    left += [("V" if i == 1 else f"W{i}G'", wg[i],
              "pullback-phi2" if i < c else "special", i - 1)
             for i in range(1, c + 1)]
    left += [("1" if s.lower[i - 1].is_trivial else "G'" if i == 2
              else f"L{i}", s.lower[i - 1], "phi0", i - 2)
             for i in range(2, c + 2)]
    # a left chain gap W_i G'/W_{i+1} G' with 1 < i < c is read as W_i/K_i,
    # modulo K_i's block image (module docstring); every other gap as itself
    parts = {f"W{i}G'": (w[i], k[i]) for i in k}

    sections = {"phi2": b.right, "phi0": b.out}
    actions: List[ChainAction] = []
    for chain, terms in (("upper", upper), ("left", left)):
        for (top, x, kind, block), (bottom, y, _, _) in zip(terms, terms[1:]):
            if x == y:
                continue
            part = parts.get(top)
            sec = section(p, *(part or (x, y)))
            if kind == "special":
                matrices = None
            elif kind.startswith("pullback-"):
                which = kind[len("pullback-"):]
                matrices = _pullback(ring, which, block,
                                     sections[which][block], sec,
                                     part[1].rows if part else ())
            else:
                matrices = ring.block_matrices(kind, block)
            actions.append(ChainAction(chain, top, bottom, sec, kind,
                                       matrices))

    return RefinedSeries(
        ring=ring, upper_chain=_dedup(upper), left_chain=_dedup(left),
        gap_section=section(p, s.upper[c - 1], zc[2]),
        actions=tuple(actions))
