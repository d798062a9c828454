"""Adapted bases and abelian deformations of the finite middle section.

An adapted basis runs through four segments: a free basis modulo
M = Is(G'Z), invariant-factor generators of the finite section M/N where
N = Is(G')Z, a free basis of N modulo Is(G'), and an induced generating
sequence of Is(G') itself.  Once the power tails of the middle segment
land diagonally on the free segment below, those tails can be rescaled
and permuted without touching anything else; that is the deformation.
"""

from collections import namedtuple
from itertools import permutations, product
from math import factorial, gcd, isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import intlinalg as il
from . import presentation as pc
from . import subgroups as sg
from .abelian import section
from .presentation import Element, PcPresentation
from .series import key_subgroups


class DeformError(ValueError):
    pass


SURVEY_CAP = 10 ** 6  # (d, c) cases; every shipped fixture needs at most 8


class AdaptedPresentation(namedtuple(
        "AdaptedPresentation", "pres i0 i1 i2 n p e new_in_old old_in_new",
        defaults=(None, None))):
    """A presentation whose generators are grouped i0 | i1 | i2 | rest.

    Segment boundaries are cumulative counts: generators 1..i0 are free
    modulo M, (i0, i1] generate M/N with invariant factors multiplying to
    e, (i1, i2] are free modulo Is(G'), the rest generate Is(G').
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
    """The extension classes in sorted order, one (class, d, c)
    representative of each, and bound, the crude upper bound e^p on their
    number."""

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

    The basis is that of the sections G/M, M/N and N/Is(G'), as FgAbelian
    builds them, then the rows of Is(G').  The coordinates of w are read
    off the same sections: its G/M coordinates c1, then the M/N
    coordinates of w1 = element(c1)^-1 w, the N/Is(G') coordinates of the
    next remainder, and the exponents of the last over Is(G')'s rows.
    Each section's coordinates are unique (reduced modulo the periods of
    M/N), so each tail is the unique normal form.

    Nothing is checked on the way, as nothing can fail. G/M is free
    abelian, since M = Is(G'Z) is isolated and holds G'. A section a/b
    leaves element(c)^-1 w in b, so the last remainder lies in Is(G').
    The result is G on a new polycyclic sequence with its tails read in G,
    so it is consistent (Sims 1994, ch. 9); collecting in it proves it
    first all the same (pc._conj_layers).
    """
    ks = key_subgroups(p)
    seg1 = section(p, ks.lower_central[0], ks.m_sub)
    segments = (seg1, ks.mn, ks.n_is)
    tail = ks.derived_isolator
    n, p_rank, e = ks.n, ks.p, ks.e
    i0 = len(seg1.periods)
    i1, i2 = i0 + n, i0 + n + p_rank
    mseq: List[Element] = [
        x for seg in segments for x in seg.basis] + list(tail.rows)

    def expr(w: Element) -> Tuple[int, ...]:
        vec: List[int] = []
        for seg in segments:
            c = seg.coords(w)
            vec += c
            w = sg._mul(p, sg._inv(p, seg.element(c)), w)
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
    if a.n == 0:
        return
    prod = 1
    for dk in d:
        prod *= abs(dk)
    if gcd(prod, a.e) != 1:
        raise DeformError(
            "multipliers must be invertible modulo the section exponent")
    if il.hnf_basis(c, a.n) != il.identity(a.n):
        raise DeformError("change matrix must be unimodular")


def _check_diagonal(a: AdaptedPresentation) -> None:
    """The i-th middle power must land exactly on free generator i + n."""
    tails = dict(a.pres.powers)
    for i in range(a.i0 + 1, a.i1 + 1):
        tail = dict(tails.get(i, ()))
        for k in range(a.i1 + 1, a.i2 + 1):
            want = 1 if k == i + a.n else 0
            if tail.get(k, 0) != want:
                raise DeformError(
                    f"{a.pres.name}: power tail of generator {i} is not "
                    "diagonally normalized")


def abdef(a: AdaptedPresentation,
          d: Tuple[int, ...],
          c: Tuple[Tuple[int, ...], ...]) -> AdaptedPresentation:
    """Deform: middle power i now lands on the free segment via d and c."""
    _validate_params(a, d, c)
    _check_diagonal(a)
    pres = a.pres
    tails = dict(pres.powers)
    new_powers = []
    for i in range(1, pres.m + 1):
        if pres.periods[i - 1] is None:
            continue
        if a.i0 < i <= a.i1:
            t = i - a.i0 - 1
            tail: Dict[int, int] = {
                k: v for k, v in tails.get(i, ())
                if not a.i1 < k <= a.i2}
            for k in range(1, a.n + 1):
                coef = d[k - 1] * c[t][k - 1]
                if coef:
                    tail[a.i1 + k] = coef
            entries = tuple(sorted(tail.items()))
        else:
            entries = tails.get(i, ())
        if entries:
            new_powers.append((i, entries))
    new_p = PcPresentation(
        name=f"{pres.name} deformed",
        periods=pres.periods,
        powers=tuple(new_powers),
        commutators=pres.commutators,
    )
    report = pc.consistency_check(new_p)
    if not report.ok:
        raise DeformError(
            f"deformation is inconsistent: {report.failures[0]}")
    return AdaptedPresentation(
        pres=new_p, i0=a.i0, i1=a.i1, i2=a.i2, n=a.n, p=a.p, e=a.e)


def ext_class(a: AdaptedPresentation,
              d: Tuple[int, ...],
              c: Tuple[Tuple[int, ...], ...]) -> ExtClass:
    """Class of the deformed extension; equal classes, equal groups."""
    _validate_params(a, d, c)
    _check_diagonal(a)
    return _ext_class(a, d, c)


def _ext_class(a: AdaptedPresentation,
               d: Tuple[int, ...],
               c: Tuple[Tuple[int, ...], ...]) -> ExtClass:
    """ext_class on parameters already known to be valid."""
    moduli = []
    components = []
    for i in range(a.i0 + 1, a.i1 + 1):
        t = i - a.i0 - 1
        ei = a.pres.periods[i - 1]
        assert ei is not None
        moduli.append(ei)
        components.append(tuple(
            (d[k] * c[t][k]) % ei if k < a.n else 0
            for k in range(a.p)))
    return ExtClass(moduli=tuple(moduli), components=tuple(components))


def enumerate_deformations(a: AdaptedPresentation) -> DeformationSurvey:
    """Survey all (d, c) with d unit multipliers and c a signed permutation.

    Groups the parameter space by extension class and returns one
    representative per class, together with the crude upper bound e^p on
    how many classes could exist at all.  There are |units|^n n! 2^n
    cases; past SURVEY_CAP it raises DeformError, before listing any unit
    when isqrt(e // 2)^n n! 2^n already passes the cap, and otherwise as
    soon as the units listed so far show it, instead of looping.
    |units| = phi(e) >= sqrt(e / 2): phi(p^k) >= sqrt(p^k) for every
    prime power but 2, and phi(2) = sqrt(2 / 2).  Every d is a unit and
    every c a signed permutation by construction, so the presentation is
    checked once and no case is validated again.
    """
    per_d = factorial(a.n) * 2 ** a.n
    capped = DeformError(f"{a.pres.name}: surveying deformations takes "
                         f"more cases than the cap of {SURVEY_CAP}")
    if isqrt(a.e // 2) ** a.n * per_d > SURVEY_CAP:
        raise capped
    units = []
    for u in range(1, a.e + 1):
        if gcd(u, a.e) == 1:
            units.append(u)
            if len(units) ** a.n * per_d > SURVEY_CAP:
                raise capped
    _check_diagonal(a)
    found = {}
    for d in product(units, repeat=a.n):
        for perm in permutations(range(a.n)):
            for signs in product((1, -1), repeat=a.n):
                c = tuple(
                    tuple(signs[t] if k == perm[t] else 0
                          for k in range(a.n))
                    for t in range(a.n))
                cls = _ext_class(a, d, c)
                if cls not in found:
                    found[cls] = (d, c)
    classes = tuple(sorted(found, key=lambda cl: cl.components))
    return DeformationSurvey(
        bound=a.e ** a.p,
        classes=classes,
        representatives=tuple((cl,) + found[cl] for cl in classes))


def standard_embedding(
    a: AdaptedPresentation,
    d: Tuple[int, ...],
    c: Tuple[Tuple[int, ...], ...],
) -> Tuple[AdaptedPresentation, Tuple[Element, ...]]:
    """Embed the base group into its deformation, fixing everything but
    the free segment: the free generator that used to receive power i is
    sent to the product its deformed power now lands on."""
    return _embedding(a, d, c, [0] * a.n)


def _prime_product_avoiding(dk: int, j: int) -> int:
    """Product of the first j primes not dividing dk."""
    out = 1
    count = 0
    cand = 2
    while count < j:
        if all(cand % q for q in range(2, cand)) and dk % cand:
            out *= cand
            count += 1
        cand += 1
    return out


def twisted_embedding(
    a: AdaptedPresentation,
    d: Tuple[int, ...],
    c: Tuple[Tuple[int, ...], ...],
    j: int,
) -> Tuple[AdaptedPresentation, Tuple[Element, ...]]:
    """Like the standard embedding but sheared by q = first j primes
    missing from d: the middle segment picks up e/e_i-fold twists and the
    free segment is stretched by d + q e instead of d.  The image index
    grows with j yet stays coprime to e."""
    if j < 1:
        raise DeformError("twist depth must be at least 1")
    return _embedding(
        a, d, c, [_prime_product_avoiding(d[k], j) for k in range(a.n)])


def _embedding(a: AdaptedPresentation, d: Tuple[int, ...],
               c: Tuple[Tuple[int, ...], ...], qs: List[int]
               ) -> Tuple[AdaptedPresentation, Tuple[Element, ...]]:
    """The embedding into abdef(a, d, c) sheared by qs; qs = 0 is the
    standard one."""
    out = abdef(a, d, c)
    q = out.pres
    free = [pc.generator(q, a.i1 + k + 1) for k in range(a.n)]
    images = []
    for i in range(1, q.m + 1):
        if a.i0 < i <= a.i1:
            t = i - a.i0 - 1
            ei = a.pres.periods[i - 1]
            assert ei is not None
            img = sg.prod_rows(
                q, [pc.generator(q, i)] + free,
                [1] + [qs[k] * (a.e // ei) * c[t][k] for k in range(a.n)])
        elif a.i1 < i <= a.i1 + a.n:
            t = i - a.i1 - 1
            img = sg.prod_rows(
                q, free, [(d[k] + qs[k] * a.e) * c[t][k] for k in range(a.n)])
        else:
            img = pc.generator(q, i)
        images.append(img)
    return out, tuple(images)
