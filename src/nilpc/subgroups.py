"""Subgroups of a polycyclic presentation via induced generating rows.

A subgroup is stored as a canonical sequence of rows: at most one row per
ambient generator index, the row's first nonzero coordinate sits at that
index, leads are positive (and divide the generator period when finite),
and every row is reduced modulo the deeper rows.  Membership is a pure
divide-and-strip pass against the rows, so equality of subgroups is
equality of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import presentation as pc
from .intlinalg import InvariantFactors, solve_congruences
from .presentation import Element, PcPresentation


class SubgroupError(ValueError):
    pass


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """g, s, t with s*a + t*b == g and g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def leading_index(x: Element) -> Optional[int]:
    for i, c in enumerate(x):
        if c:
            return i + 1
    return None


@dataclass(frozen=True)
class Subgroup:
    pres: PcPresentation
    rows: Tuple[Element, ...]  # canonical, ascending leading index
    _by_lead: Dict[int, Element] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_by_lead", {leading_index(r): r for r in self.rows}
        )

    def row_at(self, i: int) -> Optional[Element]:
        return self._by_lead.get(i)

    def contains(self, x: Element) -> bool:
        return self.coefficients_of(x) is not None

    def coefficients_of(self, x: Element) -> Optional[List[int]]:
        """Exponents a with x == rows[0]^a0 * rows[1]^a1 * ... , or None."""
        p = self.pres
        order = {leading_index(r): k for k, r in enumerate(self.rows)}
        coeffs = [0] * len(self.rows)
        y = x
        while True:
            lam = leading_index(y)
            if lam is None:
                return coeffs
            row = self._by_lead.get(lam)
            if row is None:
                return None
            a, b = y[lam - 1], row[lam - 1]
            if a % b:
                return None
            q = a // b
            coeffs[order[lam]] = q
            y = pc.multiply(p, pc.power(p, row, -q), y)

    def power_relations(self) -> List[List[int]]:
        """o*e_k minus the coefficients of r^o, for each row r = rows[k] of
        finite relative order o; for an abelian subgroup these span the
        relation lattice of the rows."""
        rel = []
        for k, (r, o) in enumerate(zip(self.rows, self.relative_orders())):
            if o is None:
                continue
            coeffs = self.coefficients_of(pc.power(self.pres, r, o))
            if coeffs is None:
                raise SubgroupError("power of a row left the subgroup")
            vec = [-c for c in coeffs]
            vec[k] += o
            rel.append(vec)
        return rel

    def relative_orders(self) -> Tuple[Optional[int], ...]:
        out = []
        for r in self.rows:
            lam = leading_index(r)
            e = self.pres.period(lam)
            out.append(None if e is None else e // r[lam - 1])
        return tuple(out)

    def index_in_ambient(self) -> Optional[int]:
        total = 1
        for i in range(1, self.pres.m + 1):
            row = self._by_lead.get(i)
            if row is not None:
                total *= row[i - 1]
            else:
                e = self.pres.period(i)
                if e is None:
                    return None
                total *= e
        return total

    @property
    def is_trivial(self) -> bool:
        return not self.rows


def prod_rows(p: PcPresentation, rows: Sequence[Element],
              exps: Sequence[int]) -> Element:
    acc = pc.identity_element(p)
    for r, a in zip(rows, exps):
        if a:
            acc = pc.multiply(p, acc, pc.power(p, r, a))
    return acc


def trivial_subgroup(p: PcPresentation) -> Subgroup:
    return Subgroup(p, ())


def whole_subgroup(p: PcPresentation) -> Subgroup:
    # the generators themselves are canonical rows
    return Subgroup(p, tuple(pc.generator(p, i) for i in range(1, p.m + 1)))


def induce(p: PcPresentation, gens: Sequence[Element], *,
           normal: bool = False) -> Subgroup:
    """Canonical row sequence for the subgroup generated by gens.

    With normal=True the normal closure is taken instead (conjugates by
    the ambient generators are added until the rows stabilise; conjugating
    by u_i alone suffices, see is_normal).
    """
    rows: Dict[int, Element] = {}
    queue: List[Element] = [g for g in gens if leading_index(g) is not None]
    ambient = [pc.generator(p, i) for i in range(1, p.m + 1)]

    def obligations(r: Element) -> None:
        lam = leading_index(r)
        e = p.period(lam)
        if e is not None:
            queue.append(pc.power(p, r, e // r[lam - 1]))
        for other in rows.values():
            if other is not r:
                queue.append(pc.commutator(p, r, other))
        if normal:
            for g in ambient:
                queue.append(pc.conjugate(p, r, g))

    def install(lam: int, g: Element) -> None:
        a = g[lam - 1]
        e = p.period(lam)
        if e is None:
            if a < 0:
                g = pc.inverse(p, g)
        else:
            d, s, _ = _xgcd(a, e)
            if d != a:
                queue.append(g)
                g = pc.power(p, g, s)
        rows[lam] = g
        obligations(g)

    while queue:
        y = queue.pop()
        while True:
            lam = leading_index(y)
            if lam is None:
                break
            a = y[lam - 1]
            h = rows.get(lam)
            if h is None:
                install(lam, y)
                break
            b = h[lam - 1]
            if a % b == 0:
                y = pc.multiply(p, pc.power(p, h, -(a // b)), y)
                continue
            d, s, t = _xgcd(a, b)
            combined = pc.multiply(p, pc.power(p, y, s), pc.power(p, h, t))
            queue.append(h)
            queue.append(y)
            install(lam, combined)
            break

    ordered = [rows[lam] for lam in sorted(rows)]
    return Subgroup(p, tuple(_reduce_deeper(p, r, ordered) for r in ordered))


def _reduce_deeper(p: PcPresentation, x: Element,
                   rows: Sequence[Element]) -> Element:
    """x reduced modulo the rows deeper than its lead, in ascending order of
    lead mu: x becomes x * r^-q with q = x_mu // r_mu."""
    lam = leading_index(x)
    for r in rows:
        mu = leading_index(r)
        if lam is not None and mu <= lam:
            continue
        q = x[mu - 1] // r[mu - 1]
        if q:
            x = pc.multiply(p, x, pc.power(p, r, -q))
    return x


def is_normal(p: PcPresentation, s: Subgroup) -> bool:
    """Is s^{u_i} inside s for every ambient generator u_i?

    One side is enough.  A polycyclic group satisfies the maximal condition
    on subgroups, and s^{u_i} <= s gives the ascending chain
    s <= s^{u_i^-1} <= s^{u_i^-2} <= ...; it stabilises at some k, and
    conjugating s^{u_i^-k} = s^{u_i^-(k+1)} by u_i^(k+1) gives s^{u_i} = s.
    So s is also closed under conjugation by u_i^-1, hence by all of G.
    """
    for r in s.rows:
        for i in range(1, p.m + 1):
            if not s.contains(pc.conjugate(p, r, pc.generator(p, i))):
                return False
    return True


def commutator_subgroup(p: PcPresentation, a: Subgroup, b: Subgroup) -> Subgroup:
    gens = [pc.commutator(p, r, s) for r in a.rows for s in b.rows]
    return induce(p, gens, normal=True)


def lower_central_series(p: PcPresentation) -> List[Subgroup]:
    whole = whole_subgroup(p)
    chain = [whole]
    while not chain[-1].is_trivial:
        nxt = commutator_subgroup(p, chain[-1], whole)
        if nxt == chain[-1]:
            raise SubgroupError(f"{p.name}: lower central series does not reach 1")
        chain.append(nxt)
    return chain


# -- quotients ----------------------------------------------------------------


class QuotientMap:
    """Quotient presentation of p by a normal subgroup, with both directions.

    proj sends an ambient element to its canonical quotient coordinates;
    lift sends quotient coordinates to the canonical coset representative
    (the section used by proj itself), so proj(lift(q)) == q.
    """

    def __init__(self, ambient: PcPresentation, n: Subgroup,
                 pres: PcPresentation, kept: Tuple[int, ...]):
        self.ambient = ambient
        self.n = n
        self.pres = pres
        self.kept = kept
        self._pos = {j: k for k, j in enumerate(kept)}
        self._gens = tuple(pc.generator(ambient, j) for j in kept)

    def proj(self, x: Element) -> Element:
        p, n = self.ambient, self.n
        y = x
        out = []
        for j in range(1, p.m + 1):
            a = y[j - 1]
            row = n.row_at(j)
            if j in self._pos:
                pb = row[j - 1] if row is not None else p.period(j)
                if pb is None:
                    tau, q = a, 0
                else:
                    tau = a % pb
                    q = (a - tau) // pb
                if tau:
                    y = pc.multiply(
                        p, pc.power(p, pc.generator(p, j), -tau), y)
                if q:
                    y = pc.multiply(p, pc.power(p, row, -q), y)
                out.append(tau)
            else:
                if a:
                    y = pc.multiply(p, pc.power(p, row, -a), y)
            if y[j - 1] != 0:
                raise SubgroupError("projection failed to strip a coordinate")
        if leading_index(y) is not None:
            raise SubgroupError("projection left a nontrivial residue")
        return tuple(out)

    def lift(self, q: Element) -> Element:
        return prod_rows(self.ambient, self._gens, q)


def quotient(p: PcPresentation, n: Subgroup, *, name: str = "") -> QuotientMap:
    if n.pres != p:
        raise SubgroupError("subgroup belongs to a different presentation")
    if not is_normal(p, n):
        raise SubgroupError(f"{p.name}: quotient by a non-normal subgroup")

    ebar: List[Optional[int]] = []
    for j in range(1, p.m + 1):
        row = n.row_at(j)
        ebar.append(row[j - 1] if row is not None else p.period(j))
    kept = tuple(j for j in range(1, p.m + 1) if ebar[j - 1] != 1)

    qm = QuotientMap(p, n, None, kept)  # pres filled in below

    periods = tuple(ebar[j - 1] for j in kept)
    pos = {j: k + 1 for k, j in enumerate(kept)}

    def as_word(coords: Element) -> pc.Word:
        return tuple((k + 1, c) for k, c in enumerate(coords) if c)

    powers = []
    for j in kept:
        pb = ebar[j - 1]
        if pb is None:
            continue
        tail = qm.proj(pc.power(p, pc.generator(p, j), pb))
        word = as_word(tail)
        if word:
            powers.append((pos[j], word))
    commutators = []
    for bi, i in enumerate(kept):
        for j in kept[bi + 1:]:
            tail = qm.proj(
                pc.commutator(p, pc.generator(p, j), pc.generator(p, i)))
            word = as_word(tail)
            if word:
                commutators.append(((pos[j], pos[i]), word))

    pres = PcPresentation(
        name=name or f"{p.name}/N",
        periods=periods,
        powers=tuple(powers),
        commutators=tuple(commutators),
    )
    qm.pres = pres
    return qm


# -- constrained subgroups ----------------------------------------------------


Condition = Tuple[Tuple[Element, ...], Subgroup]


def constrained_subgroup(p: PcPresentation, s: Subgroup,
                         conditions: Sequence[Condition]) -> Subgroup:
    """Largest T <= s with [T, h] inside L for every condition (hs, L).

    Works down the generator filtration: after layer j the current rows
    satisfy [x, h] in L*K_{j+1}, where K_{j+1} = <u_{j+1}, ..., u_m>.
    Passing from one layer to the next is a congruence system because
    x -> [x, h] is a homomorphism into the cyclic layer quotient
    L*K_j / L*K_{j+1} on the group where the previous layers' constraints
    hold.  Each L must be normal.

    The layer value needs no quotient, only L's rows.  Let G_j be
    <u_j, ..., u_m> and o_j L's lead at j, or the period of u_j when L has
    no row there.  Right multiplication by K_{j+1} fixes coordinates 1..j,
    so an element of L*K_{j+1} inside G_j is l*k with l in L and G_j, and
    its coordinate j is a multiple of o_j (0 when o_j is infinite).  Hence
    the elements of the coset L*K_{j+1}*[r, h] inside G_j agree in
    coordinate j modulo o_j, and that residue is the layer value.
    Left multiplication by powers of L's rows strips coordinates 1..j-1 of
    [r, h] and reaches one of them; a coordinate the rows cannot strip
    means [r, h] is not in L*K_j, which the earlier layers rule out.
    """
    t = s
    for j in range(1, p.m + 1):
        if t.is_trivial:
            break
        eq_rows: List[List[int]] = []
        moduli: List[int] = []
        for hs, ell in conditions:
            row_j = ell.row_at(j)
            o_j = row_j[j - 1] if row_j is not None else p.period(j)
            if o_j == 1:
                continue
            for h in hs:
                vals = [_layer_value(p, ell, pc.commutator(p, r, h), j, o_j)
                        for r in t.rows]
                if any(vals):
                    eq_rows.append(vals)
                    moduli.append(0 if o_j is None else o_j)
        if not eq_rows:
            continue
        sol = solve_congruences(eq_rows, [0] * len(eq_rows), moduli,
                                len(t.rows))
        if not sol.consistent:
            raise SubgroupError("homogeneous system reported inconsistent")
        gens = [prod_rows(p, t.rows, v) for v in sol.basis]
        t = induce(p, gens)
    return t


def _layer_value(p: PcPresentation, ell: Subgroup, x: Element, j: int,
                 o_j: Optional[int]) -> int:
    """The layer-j value of x in L*K_j / L*K_{j+1}; see above."""
    y = x
    lam = leading_index(y)
    while lam is not None and lam < j:
        row = ell.row_at(lam)
        if row is None or y[lam - 1] % row[lam - 1]:
            raise SubgroupError("layer invariant violated in constraint pass")
        y = pc.multiply(p, pc.power(p, row, -(y[lam - 1] // row[lam - 1])), y)
        lam = leading_index(y)
    return y[j - 1] if o_j is None else y[j - 1] % o_j


def center(p: PcPresentation) -> Subgroup:
    return commutation_preimage(p, trivial_subgroup(p))


def commutation_preimage(p: PcPresentation, ell: Subgroup) -> Subgroup:
    """Largest subgroup T with [T, G] inside ell.  ell must be normal."""
    gens = tuple(pc.generator(p, i) for i in range(1, p.m + 1))
    return constrained_subgroup(p, whole_subgroup(p), [(gens, ell)])


def upper_central_series(p: PcPresentation) -> List[Subgroup]:
    chain = [trivial_subgroup(p)]
    while True:
        nxt = commutation_preimage(p, chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    if chain[-1] != whole_subgroup(p):
        raise SubgroupError(f"{p.name}: upper central series does not reach G")
    return chain


# -- torsion ------------------------------------------------------------------


def _abelian_torsion_gens(p: PcPresentation, s: Subgroup) -> List[Element]:
    """Torsion generators of an abelian subgroup, via its relation lattice."""
    f = InvariantFactors(s.power_relations(), len(s.rows))
    return [prod_rows(p, s.rows, row)
            for row, d in zip(f.rows, f.periods) if d is not None]


def torsion_subgroup(p: PcPresentation) -> Subgroup:
    return _torsion_subgroup(p, center(p))


def _torsion_subgroup(p: PcPresentation, z: Subgroup) -> Subgroup:
    """torsion_subgroup(p) given z, the center of p."""
    tz = induce(p, _abelian_torsion_gens(p, z))
    if tz.is_trivial:
        return tz
    qm = quotient(p, tz, name=f"{p.name} mod central torsion")
    tq = torsion_subgroup(qm.pres)
    gens = list(tz.rows) + [qm.lift(r) for r in tq.rows]
    return induce(p, gens)


def isolator(p: PcPresentation, n: Subgroup) -> Subgroup:
    """Preimage in G of the torsion of G/n.  n must be normal."""
    return _isolator(p, n, quotient(p, n))


def _isolator(p: PcPresentation, n: Subgroup, qm: QuotientMap) -> Subgroup:
    """isolator(p, n) given qm, the quotient map of p by n."""
    tq = torsion_subgroup(qm.pres)
    gens = list(n.rows) + [qm.lift(r) for r in tq.rows]
    return induce(p, gens)


# -- abstract presentation of a subgroup ---------------------------------------


class SubgroupPresentation:
    def __init__(self, sub: Subgroup, pres: PcPresentation):
        self.sub = sub
        self.pres = pres

    def to_sub(self, x: Element) -> Element:
        coeffs = self.sub.coefficients_of(x)
        if coeffs is None:
            raise SubgroupError("element is not in the subgroup")
        return tuple(coeffs)

    def from_sub(self, coords: Element) -> Element:
        return prod_rows(self.sub.pres, self.sub.rows, coords)


def subgroup_presentation(s: Subgroup, *, name: str = "") -> SubgroupPresentation:
    p = s.pres
    rows = s.rows
    orders = s.relative_orders()

    def tail_word(x: Element, above: int) -> pc.Word:
        coeffs = s.coefficients_of(x)
        if coeffs is None:
            raise SubgroupError("closure failure while presenting a subgroup")
        for k in range(above):
            if coeffs[k]:
                raise SubgroupError("tail escapes below its own generator")
        return tuple((k + 1, c) for k, c in enumerate(coeffs) if c)

    powers = []
    for k, (r, o) in enumerate(zip(rows, orders)):
        if o is None:
            continue
        word = tail_word(pc.power(p, r, o), k + 1)
        if word:
            powers.append((k + 1, word))
    commutators = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            word = tail_word(pc.commutator(p, rows[j], rows[i]), j + 1)
            if word:
                commutators.append(((j + 1, i + 1), word))

    pres = PcPresentation(
        name=name or f"{p.name} subgroup",
        periods=orders,
        powers=tuple(powers),
        commutators=tuple(commutators),
    )
    return SubgroupPresentation(s, pres)
