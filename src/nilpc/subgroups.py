"""Subgroups of a polycyclic presentation via induced generating rows.

A subgroup is stored as a canonical sequence of rows: at most one row per
ambient generator index, the row's first nonzero coordinate sits at that
index, leads are positive (and divide the generator period when finite),
and every row is reduced modulo the deeper rows.  Membership is a pure
divide-and-strip pass against the rows, so equality of subgroups is
equality of row tuples.

So rows are a sound cache key.  p._built keeps what this layer builds or
collects on p, each at most once per presentation, whichever caller asks
first, and the values are immutable:

* G (whole_subgroup) and S (generating_set);
* each [A, B] (commutator_subgroup), keyed by a's and b's rows; each
  constrained pass (center, commutation preimages, radical, ...), keyed by
  s's rows and each condition's (generators, rows); each section a/b
  (abelian.section), keyed by a's and b's rows;
* each group operation the layer asks for: _mul, _pow, _comm, _conj and
  _inv are pc.multiply, power, commutator, conjugate and inverse, keyed by
  ("pc", name, *arguments).

An operation's value is the normal form of its result, unique in a
consistent presentation, so it is a function of its key; on an
inconsistent one the collector raises PresentationError before anything
is stored.  The tag "pc" keeps these keys apart from the subgroups': at
rank 0 the identity () equals the trivial subgroup's rows ().  The layer
asks the same questions again and again (induce, coefficients_of,
coset_rep and prod_rows sift by the same rows; passes share their [r, h];
each section checks its rows commute), so each is collected once.  The
public functions of presentation.py keep no table, as arithmetic on
arbitrary elements seldom repeats.  No presentation of a quotient is
built: a section is read in G by coset_rep (see abelian.py), and a
constrained pass by L's rows alone.

A constrained pass needs neither a closure nor a strip per layer: each
[r, h] is collected once per presentation and sifted once per condition
and pass by L.coset_rep, and a binding layer's rows are read off the HNF of its
solution lattice (_lattice_subgroup, also used in series.py).

G is read through a generating set S modulo G' (generating_set), built
once per presentation from the commutator tails alone.  Drop u_l when
some tail leads at l with a unit exponent: +-1 when u_l's period is
infinite, prime to it when finite.  That tail is a commutator of
generators, so G' holds an element that leads at l with a unit
coefficient, and u_l lies in G' G_{l+1}, with G_{l+1} = <u_{l+1}, ...,
u_m>.  By descending induction on l, <S> G' holds every u_l, so
<S> G' = G.  In a nilpotent group G' <= Phi(G) (Robinson, A Course in the
Theory of Groups, ch. 5), whose elements are non-generators, and G' is
finitely generated, so its generators drop out of <S, G'> one at a time:
<S> = G.  S is used where any generating set serves:

* the normal closure (induce) conjugates by S only;
* [A, B] is the normal closure in <A, B> of the commutators of
  generators, so commutator_subgroup reads a side that is G as S;
* for normal L and each x, the g with [x, g] in L form a subgroup, so a
  condition (G's rows, L) says what (S, L) says.  constrained_subgroup
  replaces the former by the latter before it keys the pass, so a pass
  asked for with either is built once (at class 2, bilinearize's radical
  pass, on the condition (G, gamma_3), is the centre's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from . import presentation as pc
from .intlinalg import kernel
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
    _order: Dict[int, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        leads = [leading_index(r) for r in self.rows]
        object.__setattr__(self, "_by_lead", dict(zip(leads, self.rows)))
        object.__setattr__(
            self, "_order", {lam: k for k, lam in enumerate(leads)})

    def row_at(self, i: int) -> Optional[Element]:
        return self._by_lead.get(i)

    def contains(self, x: Element) -> bool:
        return self.coefficients_of(x) is not None

    def coefficients_of(self, x: Element) -> Optional[List[int]]:
        """Exponents a with x == rows[0]^a0 * rows[1]^a1 * ... , or None."""
        p = self.pres
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
            coeffs[self._order[lam]] = q
            y = _mul(p, _pow(p, row, -q), y)

    def coset_rep(self, x: Element) -> Element:
        """The element of x*self whose coordinate at each lead mu of the
        rows lies in [0, lead): x times powers of the rows, in ascending
        order of lead.  It is unique, since right multiplication by a
        nontrivial element of self with lead mu moves coordinate mu by a
        nonzero multiple of the lead and fixes the ones before it."""
        p = self.pres
        for mu, r in self._by_lead.items():
            q = x[mu - 1] // r[mu - 1]
            if q:
                x = _mul(p, x, _pow(p, r, -q))
        return x

    def power_relations(self) -> List[List[int]]:
        """o*e_k minus the coefficients of r^o, for each row r = rows[k] of
        finite relative order o; for an abelian subgroup these span the
        relation lattice of the rows."""
        rel = []
        for k, (r, o) in enumerate(zip(self.rows, self.relative_orders())):
            if o is None:
                continue
            coeffs = self.coefficients_of(_pow(self.pres, r, o))
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
            acc = _mul(p, acc, _pow(p, r, a))
    return acc


def trivial_subgroup(p: PcPresentation) -> Subgroup:
    return Subgroup(p, ())


def whole_subgroup(p: PcPresentation) -> Subgroup:
    """G, built once per presentation: the generators themselves are
    canonical rows."""
    return _once(p, ("whole group",), lambda p: Subgroup(
        p, tuple(pc.generator(p, i) for i in range(1, p.m + 1))))


def generating_set(p: PcPresentation) -> Tuple[Element, ...]:
    """S: the generators u_l but those at which some commutator tail
    leads with a unit exponent; S generates G (see the module docstring).
    Built once per presentation."""
    return _once(p, ("generating set",), _build_generating_set)


def _build_generating_set(p: PcPresentation) -> Tuple[Element, ...]:
    dropped = set()
    for _, tail in p.commutators:
        if tail:
            l, a = tail[0]
            e = p.period(l)
            if abs(a) == 1 if e is None else gcd(a, e) == 1:
                dropped.add(l)
    return tuple(r for l, r in enumerate(whole_subgroup(p).rows, 1)
                 if l not in dropped)


def _read_whole(p: PcPresentation, rows: Sequence[Element]
                ) -> Tuple[Element, ...]:
    """rows, or S when they are the whole group's rows."""
    rows = tuple(rows)
    return generating_set(p) if rows == whole_subgroup(p).rows else rows


def induce(p: PcPresentation, gens: Sequence[Element], *,
           normal: bool = False) -> Subgroup:
    """Canonical row sequence for the subgroup generated by gens.

    With normal=True the normal closure is taken instead: conjugates by
    the elements g of S = generating_set(p) are added until the rows
    stabilise.  One side is enough.  A polycyclic group satisfies the
    maximal condition on subgroups, and s^g <= s gives the ascending chain
    s <= s^{g^-1} <= s^{g^-2} <= ...; it stabilises at some k, and
    conjugating s^{g^-k} = s^{g^-(k+1)} by g^(k+1) gives s^g = s.  So s is
    also closed under conjugation by g^-1, hence by <S> = G.
    """
    rows: Dict[int, Element] = {}
    queue: List[Element] = [g for g in gens if leading_index(g) is not None]
    ambient = generating_set(p) if normal else ()

    def obligations(r: Element) -> None:
        lam = leading_index(r)
        e = p.period(lam)
        if e is not None:
            queue.append(_pow(p, r, e // r[lam - 1]))
        for other in rows.values():
            if other is not r:
                queue.append(_comm(p, r, other))
        for g in ambient:
            queue.append(_conj(p, r, g))

    def install(lam: int, g: Element) -> None:
        a = g[lam - 1]
        e = p.period(lam)
        if e is None:
            if a < 0:
                g = _inv(p, g)
        else:
            d, s, _ = _xgcd(a, e)
            if d != a:
                queue.append(g)
                g = _pow(p, g, s)
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
                y = _mul(p, _pow(p, h, -(a // b)), y)
                continue
            d, s, t = _xgcd(a, b)
            combined = _mul(p, _pow(p, y, s), _pow(p, h, t))
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
            x = _mul(p, x, _pow(p, r, -q))
    return x


def commutator_subgroup(p: PcPresentation, a: Subgroup, b: Subgroup) -> Subgroup:
    """[a, b], built once per presentation and pair of row tuples.

    [A, B] is the normal closure in <A, B> of the commutators of a
    generating set of A with one of B, so a side that is the whole group
    is read through S = generating_set(p); <A, B> is then G, whose normal
    closure induce takes."""
    return _once(p, ("commutator", a.rows, b.rows), _build_commutator, a, b)


def _build_commutator(p: PcPresentation, a: Subgroup, b: Subgroup) -> Subgroup:
    gens = [_comm(p, r, s) for r in _read_whole(p, a.rows)
            for s in _read_whole(p, b.rows)]
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


def _once(p: PcPresentation, key: tuple, build, *args):
    """build(p, *args), made once per presentation and key."""
    if key not in p._built:
        p._built[key] = build(p, *args)
    return p._built[key]


def _collected(name: str):
    """pc.<name>, collected once per presentation and arguments (see the
    module docstring).  pc.<name> is looked up at each call, so whatever
    wraps the public function sees every collection that runs."""
    def op(p: PcPresentation, *args) -> Element:
        return _once(p, ("pc", name) + args, getattr(pc, name), *args)
    return op


_mul, _pow, _comm, _conj, _inv = map(_collected, (
    "multiply", "power", "commutator", "conjugate", "inverse"))


# -- constrained subgroups ----------------------------------------------------


Condition = Tuple[Tuple[Element, ...], Subgroup]


def constrained_subgroup(p: PcPresentation, s: Subgroup,
                         conditions: Sequence[Condition]) -> Subgroup:
    """Largest T <= s with [T, h] inside L for every condition (hs, L).

    Each pass is run once per presentation and key (s, conditions), a
    condition on G's rows keyed and run as one on generating_set(p); see
    the module docstring.  Each L must be normal, so L*K is a subgroup for
    every K <= G and L*x = x*L.

    Works down the generator filtration: after layer j the current rows
    satisfy [x, h] in L*K_{j+1}, where K_{j+1} = <u_{j+1}, ..., u_m>.
    Passing from one layer to the next is a congruence system because
    x -> [x, h] is a homomorphism into the cyclic layer quotient
    L*K_j / L*K_{j+1} on the group t where the previous layers'
    constraints hold.  Its kernel is read off the solution lattice (see
    _lattice_subgroup), which holds every relation among t's rows.

    Layer values.  Let G_j be <u_j, ..., u_m> and o_j L's lead at j, or
    the period of u_j when L has no row there.  Right multiplication by
    K_{j+1} fixes coordinates 1..j, so an element of L*K_{j+1} inside G_j
    is l*k with l in L and G_j, and its coordinate j is a multiple of o_j
    (0 when o_j is infinite).  Hence the elements of the coset
    L*K_{j+1}*[r, h] inside G_j agree in coordinate j modulo o_j, and that
    residue is the layer value.  One element y = L.coset_rep([r, h]) of
    L*[r, h] serves every layer.  While [r, h] is in L*K_j, so is y = l*k
    with l in L and k in K_j, and y agrees with l before j.  Were y
    nonzero there, its first nonzero coordinate i would be l's lead, a
    multiple of the lead b of L's row at i; but coset_rep puts y_i in
    [0, b).  So y is zero before j, and y_j is the layer value, already
    in [0, o_j) by coset_rep or by the normal form.  A nonzero coordinate
    before j means [r, h] is not in L*K_j, which earlier layers rule out.

    Each [r, h] is collected once per presentation through _comm (see the
    module docstring), so the passes share it with each other and with
    every other caller; a row of t that survives a binding layer is the
    same element, a new row a new key.  The pass sifts it once per
    condition position.
    """
    conditions = [(_read_whole(p, hs), ell) for hs, ell in conditions]
    key = ("constrained", s.rows,
           tuple((hs, ell.rows) for hs, ell in conditions))
    return _once(p, key, _build_constrained, s, conditions)


def _build_constrained(p: PcPresentation, s: Subgroup,
                       conditions: Sequence[Condition]) -> Subgroup:
    reps: Dict[Tuple[int, Element, Element], Element] = {}

    def column(c: int, h: Element) -> Tuple[List[Element], int]:
        """The representatives of [r, h] under condition c over t's rows,
        and their least lead."""
        for r in t.rows:
            if (c, r, h) not in reps:
                reps[c, r, h] = conditions[c][1].coset_rep(_comm(p, r, h))
        ys = [reps[c, r, h] for r in t.rows]
        return ys, min(leading_index(y) or p.m + 1 for y in ys)

    pairs = [(c, h) for c, (hs, _) in enumerate(conditions) for h in hs]
    t, columns = s, None
    for j in range(1, p.m + 1):
        if t.is_trivial:
            break
        columns = columns or [column(c, h) for c, h in pairs]
        eqs = []
        for (c, _), (ys, low) in zip(pairs, columns):
            row_j = conditions[c][1].row_at(j)
            o_j = row_j[j - 1] if row_j is not None else p.period(j)
            if o_j == 1:
                continue
            if low < j:
                raise SubgroupError("layer invariant violated in constraint pass")
            vals = {k: y[j - 1] for k, y in enumerate(ys) if y[j - 1]}
            if vals:
                eqs.append((vals, 0 if o_j is None else o_j))
        if not eqs:
            continue
        t, columns = _lattice_subgroup(p, t, kernel(eqs, len(t.rows))), None
    return t


def _lattice_subgroup(p: PcPresentation, t: Subgroup,
                      basis: Sequence[Sequence[int]]) -> Subgroup:
    """The products of t's rows r_k to the exponents w, over w in the
    lattice with Hermite basis `basis` (as kernel returns it), which must
    hold every relation among t's rows, as a homomorphism's kernel lattice
    does.  Let d_k be the pivot in column k and o_k r_k's relative order.
    An x in t with r_k's lead is r_k^w_k times deeper rows, w_k != 0 (in
    (0, o_k) if o_k is finite), and its lead coefficient is w_k times
    r_k's.  x is in the subgroup exactly when w is in the lattice, so d_k
    divides w_k; and d_k divides o_k, as the lattice holds r_k's power
    relation.  So the subgroup has an element with r_k's lead exactly when
    d_k > 0 and d_k != o_k, and the HNF row's product is one with the
    least positive lead coefficient; _reduce_deeper makes the rows
    canonical."""
    orders = t.relative_orders()
    gens = []
    for h in basis:
        k = leading_index(h) - 1
        if h[k] != orders[k]:
            gens.append(prod_rows(p, t.rows, h))
    return Subgroup(p, tuple(_reduce_deeper(p, g, gens) for g in gens))


def center(p: PcPresentation) -> Subgroup:
    return commutation_preimage(p, trivial_subgroup(p))


def commutation_preimage(p: PcPresentation, ell: Subgroup) -> Subgroup:
    """Largest subgroup T with [T, G] inside ell.  ell must be normal, so
    for each x the g with [x, g] in ell form a subgroup, the preimage of
    the centralizer of x*ell in G/ell: [T, G] <= ell exactly when
    [T, g] <= ell for every g in S = generating_set(p)."""
    return constrained_subgroup(p, whole_subgroup(p),
                                [(generating_set(p), ell)])


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
