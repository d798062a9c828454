"""The canonical subgroups of a presented group and the numbers they carry.

key_subgroups computes, exactly: the lower central series, the center,
the derived subgroup G' (the second term of that series) and its
isolator, the abelianization G/G', the products N = Is(G') Z and
M = Is(G' Z) = Is(N), the section invariants (n, p, e) read off
M/N and N/Is(G'), and the split of the center over Is(G'): Z n Is(G'),
central lifts of a basis of N/Is(G'), and the free complement G0 of
Z n Is(G') in Z that they generate, all three from one HNF.  The
sections and isolators are read in G (see abelian.py), the constrained
passes behind them are kept on the presentation (see subgroups.py), and
callers that need the class or the abelianization read them off the
result.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from . import subgroups as sg
from .abelian import abelianization, isolator, section
from .intlinalg import hnf_basis
from .presentation import PcPresentation
from .subgroups import Subgroup


def hirsch_length(p: PcPresentation) -> int:
    return sum(1 for e in p.periods if e is None)


class KeySubgroups(namedtuple(
        "KeySubgroups", "pres lower_central abelianized center derived "
        "derived_isolator iso_center n_sub m_sub g0 mn n_is "
        "central_lifts regular tame n p e")):
    """The canonical subgroups of pres; see the module docstring.

    lower_central runs G = gamma_1 > gamma_2 = G' > ... > 1, so its length
    is the nilpotency class plus one; abelianized is G/G' as a section.
    n_sub is Is(G') Z and m_sub is Is(G' Z), read as Is(N): Is(G') and Z
    lie in the isolated subgroup Is(G'Z), so N <= Is(G'Z), and
    G'Z <= N, so Is(N) = Is(G'Z).  mn is the section M/N, always
    finite, as each element of M has a power in G'Z <= N, and n_is is
    N/Is(G'), always free, as it lies in G/Is(G'), which is torsion-free.
    tame says Z <= Is(G'), that is p = 0.

    iso_center is Z n Is(G'); central_lifts are p elements of Z with the
    unit vectors as n_is coordinates, one lift of each basis element of
    N/Is(G'); g0 is the free complement of iso_center in Z that they
    generate.  One HNF gives all three.  Row j of C is the n_is coordinate
    vector of Z's row z_j, so phi(w) = w C, the coordinates of
    z_1^w_1 z_2^w_2 ..., is a homomorphism from Z^k onto N/Is(G') = Z^p,
    onto as N = Is(G') Z.  The rows (C_j | e_j) span {(w C, w)}, whose
    projection to the first p columns is onto, so the first p rows of its
    Hermite basis are (e_t | x_t): prod z^x_t is a central lift of basis
    element t.  The rest are (0 | y), the Hermite basis of ker phi, the w
    whose product lies in Is(G'), a kernel lattice that holds every
    relation among Z's rows, from which sg._lattice_subgroup reads
    Z n Is(G').  Every w is a sum of the x_t and a y, and a product of
    lifts in Is(G') has phi = 0, so Z is the direct product of
    Z n Is(G') and <lifts>, which is free of rank p.  Reducing a row of
    g0 = <lifts> modulo the deeper rows of Z n Is(G') changes it by a
    central element of Is(G'), so g0 stays a free complement.
    """

    __slots__ = ()


def key_subgroups(pres: PcPresentation) -> KeySubgroups:
    lcs = tuple(sg.lower_central_series(pres))
    whole = lcs[0]
    der = lcs[1] if len(lcs) > 1 else whole
    z = sg.center(pres)
    ab = abelianization(pres)
    iso_der = isolator(pres, der)
    n_sub = sg.induce(pres, list(iso_der.rows) + list(z.rows))
    m_sub = isolator(pres, n_sub)
    mn = section(pres, m_sub, n_sub)
    n_is = section(pres, n_sub, iso_der)
    k, rank = len(z.rows), n_is.free_rank
    h = hnf_basis([list(n_is.coords(r)) + [int(i == j) for i in range(k)]
                   for j, r in enumerate(z.rows)], rank + k)
    lifts = tuple(sg.prod_rows(pres, z.rows, row[rank:]) for row in h[:rank])
    iso_c = sg._lattice_subgroup(pres, z, [row[rank:] for row in h[rank:]])
    deeper = {sg.leading_index(r): r for r in iso_c.rows}
    g0 = Subgroup(pres, tuple(sg._reduce_deeper(pres, r, deeper)
                              for r in sg.induce(pres, lifts).rows))
    return KeySubgroups(
        pres=pres,
        lower_central=lcs,
        abelianized=ab,
        center=z,
        derived=der,
        derived_isolator=iso_der,
        iso_center=iso_c,
        n_sub=n_sub,
        m_sub=m_sub,
        g0=g0,
        mn=mn,
        n_is=n_is,
        central_lifts=lifts,
        regular=(m_sub == n_sub),
        tame=not lifts,
        n=len(mn.periods),
        p=rank,
        e=prod(mn.periods),
    )
