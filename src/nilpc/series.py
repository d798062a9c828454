"""The canonical subgroups of a presented group and the numbers they carry.

key_subgroups computes, exactly: the lower central series, the center,
the derived subgroup G' (the second term of that series) and its
isolator, the abelianization G/G', the torsion subgroup, the
torsion-image part of the center, the products N = Is(G') Z and
M = Is(G' Z), a free complement G0 of the torsion-image part inside the
center, and the section invariants (n, p, e) read off M/N and N/Is(G').
The sections and isolators are read in G (see abelian.py), the
constrained passes behind them are kept on the presentation (see
subgroups.py), and callers that need the class or the abelianization read
them off the result.
"""

from __future__ import annotations

from collections import namedtuple

from . import subgroups as sg
from .abelian import (
    FgAbelian, abelianization, isolator, section, torsion_subgroup)
from .intlinalg import InvariantFactors, kernel
from .presentation import PcPresentation
from .subgroups import Subgroup


def hirsch_length(p: PcPresentation) -> int:
    return sum(1 for e in p.periods if e is None)


def nilpotency_class(p: PcPresentation) -> int:
    return len(sg.lower_central_series(p)) - 1


def _torsion_image_part(p: PcPresentation, z: Subgroup,
                        ab: FgAbelian) -> Subgroup:
    """Elements of z whose abelianization coordinates are pure torsion: the
    kernel of a homomorphism on z, read off its solution lattice."""
    if z.is_trivial:
        return z
    free_pos = [k for k, d in enumerate(ab.periods) if d is None]
    row_coords = [ab.coords(r) for r in z.rows]
    eqs = [(dict(enumerate(rc[k] for rc in row_coords)), 0)
           for k in free_pos]
    if not eqs:
        return z
    return sg._lattice_subgroup(p, z, kernel(eqs, len(z.rows)))


def _free_complement(p: PcPresentation, z: Subgroup,
                     inner: Subgroup) -> Subgroup:
    """Free direct complement of inner inside the abelian subgroup z.

    Requires inner <= z with z/inner free, which holds when inner is the
    torsion-image part: a kernel on z, so the quotient embeds into a free
    abelian group. So every row of inner has coefficients over z, and f,
    which presents z/inner, has no finite period.
    """
    w_rows = [z.coefficients_of(r) for r in inner.rows] + z.power_relations()
    if not w_rows:
        return z
    f = InvariantFactors(w_rows, len(z.rows))
    deeper = {sg.leading_index(r): r for r in inner.rows}
    gens = [sg._reduce_deeper(p, sg.prod_rows(p, z.rows, row), deeper)
            for row in f.rows]
    comp = sg.induce(p, gens)
    return Subgroup(p, tuple(
        sg._reduce_deeper(p, r, deeper) for r in comp.rows))


class KeySubgroups(namedtuple(
        "KeySubgroups", "pres lower_central abelianized center derived "
        "derived_isolator torsion iso_center n_sub m_sub g0 mn n_is regular "
        "tame n p e")):
    """The canonical subgroups of pres; see the module docstring.

    lower_central runs G = gamma_1 > gamma_2 = G' > ... > 1, so its length
    is the nilpotency class plus one; abelianized is G/G' as a section.
    iso_center holds the center elements with torsion abelianized image,
    n_sub is Is(G') Z and m_sub is Is(G' Z); mn is the section M/N, always
    finite, as each element of M has a power in G'Z <= N, and n_is is
    N/Is(G'), always free, as it lies in G/Is(G'), which is torsion-free.
    """

    __slots__ = ()


def key_subgroups(pres: PcPresentation) -> KeySubgroups:
    lcs = tuple(sg.lower_central_series(pres))
    whole = lcs[0]
    der = lcs[1] if len(lcs) > 1 else whole
    z = sg.center(pres)
    ab = abelianization(pres)
    iso_der = isolator(pres, der)
    tors = torsion_subgroup(pres)
    iso_c = _torsion_image_part(pres, z, ab)

    n_sub = sg.induce(pres, list(iso_der.rows) + list(z.rows))
    dz = sg.induce(pres, list(der.rows) + list(z.rows))
    m_sub = isolator(pres, dz)
    mn = section(pres, m_sub, n_sub)
    n_is = section(pres, n_sub, iso_der)

    g0 = _free_complement(pres, z, iso_c)

    e_val = 1
    for d in mn.periods:
        e_val *= d
    return KeySubgroups(
        pres=pres,
        lower_central=lcs,
        abelianized=ab,
        center=z,
        derived=der,
        derived_isolator=iso_der,
        torsion=tors,
        iso_center=iso_c,
        n_sub=n_sub,
        m_sub=m_sub,
        g0=g0,
        mn=mn,
        n_is=n_is,
        regular=(m_sub == n_sub),
        tame=all(iso_der.contains(r) for r in z.rows),
        n=len(mn.periods),
        p=n_is.free_rank,
        e=e_val,
    )
