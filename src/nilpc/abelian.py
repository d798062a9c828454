"""Finitely generated abelian sections A/B with exact integer coordinates,
and the isolators and torsion subgroup they give.

FgAbelian(p, a, b) presents a/b as a direct sum of cyclic groups in
invariant-factor order (torsion factors first, ascending divisibility, then
free factors).  It works on G's elements alone, by the induced polycyclic
sequences of Sims (Computation with Finitely Presented Groups, 1994,
ch. 9): b.coset_rep(x) is the canonical element of the coset x*b, and a's
rows, but those at a lead where b has a row of the same value, are
canonical rows of a/b (see FgAbelian).  The periods and coordinates are
those of intlinalg.InvariantFactors on the relation lattice of the image
rows; this module adds only the sign rule.  Basis elements are elements of
G; coords reads an element's coordinates, and the product of the basis
to coordinates c has coordinates c.  section(p, a, b) is the only builder
of sections: it builds each a/b once per presentation, keyed by a's and
b's rows, and every caller shares it, as a section is immutable once built.

Input is checked at the boundary only.  The public constructors check
a caller's input: FgAbelian(p, a, b) that b lies in a and that a/b is
abelian (SubgroupError), and scalars.ScalarRing(pairing, s_basis) that
its basis spans a ring of scalars (ScalarRingError).  The package's own
builders, section here and scalars.scalar_ring, skip those checks:
their input is made to satisfy them, as each proves in its docstring,
and the tests check every section and ring that a construction builds.

isolator(p, n) is the preimage in G of the torsion of G/n, read off the
sections z/n with z/n the center of G/n.
"""

from __future__ import annotations

from typing import List, Tuple

from . import subgroups as sg
from .intlinalg import InvariantFactors
from .presentation import Element, PcPresentation
from .subgroups import Subgroup, SubgroupError


class FgAbelian(InvariantFactors):
    """The section a/b of p, read in G.

    b must lie in a, and every commutator of a's rows in b.  Then
    [a, a] <= b <= a, so b is normal in a and a/b is abelian; b need not be
    normal in G.  The rows r_1, ..., r_k are a polycyclic sequence with
    [r_m, r_l] in a_{m+1} = <r_{m+1}, ...>, so by induction on m from k
    down the [r_n, r_l] with n >= m generate a normal subgroup of a that
    holds [a_m, a]; for m = 1 that is [a, a].

    rep(x) = b.coset_rep(x) is the canonical element of x*b, which for x in
    a stands for the coset x*b = b*x, and every product in a/b is a
    product in G followed by rep.  The image rows are a's rows but those
    whose lead value is the period of u_lam in G/b, kept by lead; rep
    fixes each, and they are canonical rows of a/b:

    * b <= a, so every lead of b is a lead of a, and a's value there
      divides b's (and is less at a kept row's own lead);
    * a's rows are canonical (Subgroup requires it; induce,
      _lattice_subgroup and whole_subgroup provide it), so each row's
      coordinate at every deeper lead of a lies in [0, a's lead), inside
      [0, b's lead) where b has one;
    * so b.coset_rep multiplies no row by a power of b's rows, and no row
      needs reducing modulo the deeper image rows, which are a's.

    Each basis element is oriented so that its first nonzero coordinate at
    a generator of infinite period in G/b (infinite in G, and no lead of b)
    is positive.
    """

    def __init__(self, p: PcPresentation, a: Subgroup, b: Subgroup):
        if not all(a.contains(r) for r in b.rows):
            raise SubgroupError(f"{p.name}: section A/B has B outside A")
        for i, r in enumerate(a.rows):
            for s in a.rows[i + 1:]:
                if not b.contains(sg._comm(p, r, s)):
                    raise SubgroupError(
                        f"{p.name}: section A/B is not abelian")
        self._assemble(p, a, b)

    def _assemble(self, p: PcPresentation, a: Subgroup, b: Subgroup):
        """Everything but the checks of __init__."""
        self.pres = p
        self.rep = b.coset_rep
        # the period of u_j in G/b: b's lead at j, else u_j's own; a row of
        # a whose lead equals it has an image deeper down
        self._period = {}
        for j in range(1, p.m + 1):
            row = b.row_at(j)
            self._period[j] = row[j - 1] if row is not None else p.period(j)
        self._by_lead = {lam: r for lam, r in a._by_lead.items()
                         if self._period[lam] != r[lam - 1]}
        rows = self.arows = tuple(self._by_lead.values())

        rel = []
        for k, (lam, r) in enumerate(self._by_lead.items()):
            e = self._period[lam]
            if e is None:
                continue
            o = e // r[lam - 1]
            vec = [-c for c in self._sift(sg._pow(p, r, o))]
            vec[k] += o
            rel.append(vec)
        super().__init__(rel, len(rows))

        basis = []
        for k, row in enumerate(self.rows):
            h = self.rep(sg.prod_rows(p, rows, row))
            lead = next((c for j, c in enumerate(h, 1)
                         if c and self._period[j] is None), 0)
            if lead < 0:
                self.negate(k)
                h = self.rep(sg._pow(p, h, -1))
            basis.append(h)
        self.basis: Tuple[Element, ...] = tuple(basis)

    def _sift(self, x: Element) -> List[int]:
        """Exponents c with rep(x) == rep(arows[0]^c0 * arows[1]^c1 * ...),
        stripping from the left and taking rep after each strip."""
        exps, y = sg._strip(self.pres, self.rep(x), self._by_lead, self.rep)
        if any(y):
            raise SubgroupError("element does not lie in the section")
        return [exps.get(lam, 0) for lam in self._by_lead]

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.periods if d is None)

    def coords(self, x: Element) -> Tuple[int, ...]:
        return super().coords(self._sift(x))


def section(p: PcPresentation, a: Subgroup, b: Subgroup) -> FgAbelian:
    """FgAbelian(p, a, b), built once per presentation and pair of row
    tuples, without its checks.  Every caller passes b <= a with
    [a, a] <= b: b holds G', a/b is a layer of the companions of a
    descending central series (associated_series), a lies in the center,
    a/b is the center of G/b (isolator), or a/b is W_i/K_i, K_i holding
    [W_i, W_i] (see refined's docstring)."""
    return sg._once(p, ("section", a.rows, b.rows), _unchecked_section, a, b)


def _unchecked_section(p: PcPresentation, a: Subgroup,
                       b: Subgroup) -> FgAbelian:
    sec = FgAbelian.__new__(FgAbelian)
    sec._assemble(p, a, b)
    return sec


def abelianization(p: PcPresentation) -> FgAbelian:
    w = sg.whole_subgroup(p)
    der = sg.commutator_subgroup(p, w, w)
    return section(p, w, der)


def isolator(p: PcPresentation, n: Subgroup) -> Subgroup:
    """Preimage in G of the torsion of G/n.  n must be normal.

    A nilpotent group whose center has no torsion has none, so each step
    adds to n the torsion of z/n, the center of G/n (z = G once G' <= n),
    and the loop stops when there is none, or after G/n was abelian.
    """
    w = sg.whole_subgroup(p)
    der = sg.commutator_subgroup(p, w, w)
    while True:
        abelian = all(n.contains(r) for r in der.rows)
        z = w if abelian else sg.commutation_preimage(p, n)
        sec = section(p, z, n)
        tors = [x for x, d in zip(sec.basis, sec.periods) if d is not None]
        if not tors:
            return n
        n = sg.induce(p, list(n.rows) + tors)
        if abelian:
            return n


def torsion_subgroup(p: PcPresentation) -> Subgroup:
    return isolator(p, sg.trivial_subgroup(p))
