"""Adapted bases and abelian deformations of the finite middle section.

An adapted basis runs through four segments: a free basis modulo
M = Is(G'Z), invariant-factor generators of the finite section M/N where
N = Is(G')Z, a free basis of N modulo Is(G') taken in the center, and an
induced generating sequence of Is(G') itself.  The free segment can be
central because N = Is(G')Z: each coset of Is(G') in N meets Z.  Then
the free generators occur in no commutator tail and in no power tail but
the middle segment's, so once those land diagonally on the free segment
they can be rescaled and permuted without touching anything else, and
the result is again consistent (abdef); that is the deformation.
"""

from collections import namedtuple
from itertools import count, permutations, product
from math import factorial, gcd, isqrt, prod
from typing import Callable, List, Optional, Sequence, Tuple

from . import intlinalg as il
from . import presentation as pc
from . import subgroups as sg
from .abelian import section
from .presentation import Element, PcPresentation
from .series import key_subgroups


class DeformError(ValueError):
    pass


SURVEY_CAP = 10 ** 6  # classes; every shipped fixture has at most 4


class AdaptedPresentation(namedtuple(
        "AdaptedPresentation", "pres i0 i1 i2 n p e new_in_old old_in_new",
        defaults=(None, None))):
    """A presentation whose generators are grouped i0 | i1 | i2 | rest.

    Segment boundaries are cumulative counts: generators 1..i0 are free
    modulo M, (i0, i1] generate M/N with invariant factors multiplying to
    e, (i1, i2] are free modulo Is(G') and central, and the rest generate
    Is(G').  The free segment can be central as N = Is(G')Z, and
    adapt_basis takes it in the center (KeySubgroups.central_lifts).
    `new_in_old` gives each new generator as an element of the presentation
    it was adapted from; `old_in_new` gives each old generator as an
    exponent vector over the new basis.  Both are absent on presentations
    produced by deformation.
    """

    __slots__ = ()


class ExtClass(namedtuple("ExtClass", "moduli components")):
    """Where each finite-section power lands in the free segment, mod e_i."""

    __slots__ = ()


class DeformationSurvey(
        namedtuple("DeformationSurvey", "bound classes representatives")):
    """The extension classes sorted by components, one (class, d, c)
    representative of each (enumerate_deformations says which), and bound,
    the crude upper bound e^p on their number."""

    __slots__ = ()


def presentation_on(p: PcPresentation, name: str, gens: Sequence[Element],
                    periods: Sequence[Optional[int]],
                    coords: Callable[[Element], Sequence[int]]
                    ) -> PcPresentation:
    """The presentation on gens, elements of p with the given relative
    periods.  coords(x) is the exponent vector over gens of an x in
    <gens>.  The tails are the coords of gens[i-1]^periods[i-1], which must
    lie in <gens[i], ...>, and of [gens[j-1], gens[i-1]], which must lie
    in <gens[j], ...>, in ascending (j, i) order."""

    def tail(x: Element, k: int) -> pc.Word:
        if sg.leading_index(x) is None:
            return ()
        vec = coords(x)
        if any(vec[:k - 1]):
            raise sg.SubgroupError(
                f"{name}: tail escapes below its own generator")
        return tuple((i + 1, c) for i, c in enumerate(vec) if c)

    powers = []
    for i, (g, e) in enumerate(zip(gens, periods), start=1):
        if e is not None:
            word = tail(sg._pow(p, g, e), i + 1)
            if word:
                powers.append((i, word))
    commutators = []
    for j in range(2, len(gens) + 1):
        for i in range(1, j):
            word = tail(sg._comm(p, gens[j - 1], gens[i - 1]), j + 1)
            if word:
                commutators.append(((j, i), word))
    return PcPresentation(name=name, periods=tuple(periods),
                          powers=tuple(powers),
                          commutators=tuple(commutators))


def adapt_basis(p: PcPresentation) -> AdaptedPresentation:
    """Rewrite p on a basis adapted to the M >= N >= Is(G') tower.

    The basis is that of the sections G/M and M/N, as FgAbelian builds
    them, then the central lifts of N/Is(G')'s basis
    (KeySubgroups.central_lifts), then the rows of Is(G').  The
    coordinates of w are read off the three sections: its G/M coordinates
    c1, then the M/N coordinates of w1 = x1^-1 w, x1 the product of the
    G/M generators to c1, the N/Is(G') coordinates of the next remainder,
    and the exponents of the last over Is(G')'s rows.  Each section's
    coordinates are unique (reduced modulo the periods of M/N), so each
    tail is the unique normal form.

    Nothing is checked on the way, as nothing can fail. G/M is free
    abelian, since M = Is(G'Z) is isolated and holds G'. In a section a/b
    the product x of a segment's generators to w's coordinates c has
    coordinates c (the lifts have the unit coordinates, and coordinates
    are additive), so x^-1 w lies in b, and the last remainder in Is(G').
    The result is G on a new polycyclic sequence with its tails read in G,
    so it is consistent (Sims 1994, ch. 9); collecting in it proves it
    first all the same (pc._conj_layers).
    """
    ks = key_subgroups(p)
    seg1 = section(p, ks.lower_central[0], ks.m_sub)
    segments = ((seg1, seg1.basis), (ks.mn, ks.mn.basis),
                (ks.n_is, ks.central_lifts))
    tail = ks.derived_isolator
    n, p_rank, e = ks.n, ks.p, ks.e
    i0 = len(seg1.periods)
    i1, i2 = i0 + n, i0 + n + p_rank
    mseq: List[Element] = [
        x for _, gens in segments for x in gens] + list(tail.rows)

    def expr(w: Element) -> Tuple[int, ...]:
        vec: List[int] = []
        for seg, gens in segments:
            c = seg.coords(w)
            vec += c
            w = sg._mul(p, sg._pow(p, sg.prod_rows(p, gens, c), -1), w)
        return tuple(vec + tail.coefficients_of(w))

    periods: List[Optional[int]] = (
        [None] * i0 + list(ks.mn.periods) + [None] * p_rank
        + list(tail.relative_orders()))
    return AdaptedPresentation(
        pres=presentation_on(p, f"{p.name} adapted", mseq, periods, expr),
        i0=i0, i1=i1, i2=i2, n=n, p=p_rank, e=e,
        new_in_old=tuple(mseq),
        old_in_new=tuple(expr(pc.generator(p, i)) for i in range(1, p.m + 1)))


def _validate_params(a: AdaptedPresentation,
                     d: Tuple[int, ...],
                     c: Tuple[Tuple[int, ...], ...]) -> None:
    if len(d) != a.n:
        raise DeformError("need one multiplier per finite-section generator")
    if len(c) != a.n or any(len(row) != a.n for row in c):
        raise DeformError(f"change matrix must be {a.n}x{a.n}")
    if gcd(prod(d), a.e) != 1:
        raise DeformError(
            "multipliers must be invertible modulo the section exponent")
    if il.hnf_basis(c, a.n) != il.identity(a.n):
        raise DeformError("change matrix must be unimodular")


def _check_diagonal(a: AdaptedPresentation) -> None:
    """Refuse an a outside abdef's argument, reading its relations alone:
    it needs n middle and p >= n free generators, these of infinite period
    and central, the i-th middle power landing exactly on free generator
    i + n, and no other tail holding a free generator.  adapt_basis gives
    all but the diagonal (see the module docstring)."""
    pres, free = a.pres, range(a.i1 + 1, a.i2 + 1)
    if ((a.i1 - a.i0, a.i2 - a.i1) != (a.n, a.p) or a.n > a.p
            or any(pres.periods[k - 1] is not None for k in free)):
        raise DeformError(
            f"{pres.name}: segments do not hold n = {a.n} middle and "
            f"p = {a.p} >= n free generators of infinite period")
    others = list(pres.commutators) + [
        ((i,), w) for i, w in pres.powers if not a.i0 < i <= a.i1]
    for key, w in others:
        if w and (set(key) | {k for k, _ in w}) & set(free):
            raise DeformError(
                f"{pres.name}: a free generator is not central, or occurs "
                "in a tail other than a middle power")
    tails = dict(pres.powers)
    for i in range(a.i0 + 1, a.i1 + 1):
        tail = dict(tails.get(i, ()))
        if [tail.get(k, 0) for k in free] != [int(k == i + a.n) for k in free]:
            raise DeformError(f"{pres.name}: power tail of generator {i} is "
                              "not diagonally normalized")


def abdef(a: AdaptedPresentation,
          d: Tuple[int, ...],
          c: Tuple[Tuple[int, ...], ...]) -> AdaptedPresentation:
    """Deform: middle power i now lands on the free segment via d and c.

    The result is consistent when a.pres is, so no proof runs.  Let G be
    the group of a.pres and A = <f_1, ..., f_p>, its free segment; by
    _check_diagonal A is central, free abelian on the f_t (normal forms
    are unique), in no tail but the middle powers', and middle power
    i0 + t is w f_t, w free of A.  Let phi be the endomorphism of A that
    sends f_t to prod_k f_k^(d_k c_tk), the new tail's free part, for
    t <= n and fixes the rest; H = (G x A)/{(y, phi(y)^-1) : y in A}.
    u_j -> (u_j, 1) and f_t -> (1, f_t) map the deformed group onto H,
    as the images generate H and meet every deformed relation: those
    without an f_t hold in G, the (1, f_t) are central, and
    (u_i, 1)^(e_i) = (w, 1)(f_t, 1) = (w, 1)(1, phi(f_t)).  Collection
    writes each element of the deformed group as a normal form.  Two with
    one image in H give x = x' y and a = a' phi(y)^-1 for some y in A,
    where x, x' are their products in G over the generators outside A and
    a, a' over the f_t.  As y is central, the normal form of x' y in G
    has the exponents of x' off A and those of y on A, so unique normal
    forms in G give x = x', y = 1 and a = a'.  So distinct normal forms
    are distinct elements: the deformed presentation is consistent.
    """
    _validate_params(a, d, c)
    _check_diagonal(a)
    tails = dict(a.pres.powers)
    for t, i in enumerate(range(a.i0 + 1, a.i1 + 1)):
        tails[i] = tuple(sorted(
            [(k, v) for k, v in tails[i] if not a.i1 < k <= a.i2]
            + [(a.i1 + k + 1, d[k] * c[t][k]) for k in range(a.n)
               if d[k] * c[t][k]]))
    pres = PcPresentation(
        f"{a.pres.name} deformed", a.pres.periods,
        tuple((i, w) for i, w in sorted(tails.items()) if w),
        a.pres.commutators)
    return AdaptedPresentation(
        pres=pres, i0=a.i0, i1=a.i1, i2=a.i2, n=a.n, p=a.p, e=a.e)


def ext_class(a: AdaptedPresentation,
              d: Tuple[int, ...],
              c: Tuple[Tuple[int, ...], ...]) -> ExtClass:
    """Class of the deformed extension; equal classes, equal groups."""
    _validate_params(a, d, c)
    _check_diagonal(a)
    moduli = tuple(a.pres.periods[a.i0:a.i1])
    return ExtClass(moduli=moduli, components=tuple(
        tuple((d[k] * c[t][k]) % ei if k < a.n else 0 for k in range(a.p))
        for t, ei in enumerate(moduli)))


def enumerate_deformations(a: AdaptedPresentation) -> DeformationSurvey:
    """The classes of all (d, c), d unit multipliers in [1, e] and c a
    signed permutation, each with the first (d, c) that reaches it when d
    runs in lexicographic order, then the permutations, then the signs
    with 1 before -1; and the crude upper bound e^p on their number.

    A signed permutation (sigma, s) puts one nonzero entry in row t of the
    class, s_t d_sigma(t) mod e_t at column sigma(t).  Each e_t divides e,
    so the units mod e reduce onto the units mod e_t, and the classes are
    exactly the pairs (sigma, (v_t)) with each v_t a unit mod e_t:
    n! prod phi(e_t) of them, all distinct, as e_t >= 2 makes v_t nonzero,
    which fixes sigma.  Constraints on different columns are independent,
    so the first (d, c) of a class is found column by column: d_k is the
    least unit of [1, e] with d_k = +-v_t (mod e_t), t = sigma^-1(k), and
    s_t = 1 exactly when d_k = v_t (mod e_t).  A middle period that does
    not divide e is refused by name, as its classes are not these pairs.

    Past SURVEY_CAP classes it raises DeformError, before listing any unit
    when n! prod isqrt(e_t // 2) already passes the cap, and otherwise as
    soon as the units listed so far show it.  phi(m) >= sqrt(m / 2):
    phi(p^k) >= sqrt(p^k) for every prime power but 2, and
    phi(2) = sqrt(2 / 2).
    """
    moduli = tuple(a.pres.periods[a.i0:a.i1])
    for i, m in enumerate(moduli, start=a.i0 + 1):
        if m is None or a.e % m:
            raise DeformError(f"{a.pres.name}: the period of generator {i} "
                              "does not divide the section exponent")
    capped = DeformError(f"{a.pres.name}: surveying deformations lists "
                         f"more classes than the cap of {SURVEY_CAP}")
    low = {m: isqrt(m // 2) for m in moduli}  # phi(m) >= low[m]
    if factorial(a.n) * prod(low[m] for m in moduli) > SURVEY_CAP:
        raise capped
    units = {}  # m -> {v: (d_k, s_t)} for the units v mod m
    for m in low:
        units[m] = {}
        for v in range(1, m):
            if gcd(v, m) == 1:
                lo, hi = sorted((v, m - v))
                d_k = next(u for j in count(0, m) for u in (j + lo, j + hi)
                           if gcd(u, a.e) == 1)
                units[m][v] = (d_k, 1 if d_k % m == v else -1)
                low[m] = max(low[m], len(units[m]))
                if factorial(a.n) * prod(low[t] for t in moduli) > SURVEY_CAP:
                    raise capped
    _check_diagonal(a)
    found = []
    for sigma in permutations(range(a.n)):
        for vs in product(*(units[m] for m in moduli)):
            d, c = [0] * a.n, [[0] * a.n for _ in range(a.n)]
            for t, (k, v, m) in enumerate(zip(sigma, vs, moduli)):
                d[k], c[t][k] = units[m][v]
            found.append((ExtClass(moduli, tuple(
                tuple(v if k == sigma[t] else 0 for k in range(a.p))
                for t, v in enumerate(vs))), tuple(d), tuple(map(tuple, c))))
    found.sort(key=lambda rep: rep[0].components)
    return DeformationSurvey(bound=a.e ** a.p,
                             classes=tuple(rep[0] for rep in found),
                             representatives=tuple(found))
