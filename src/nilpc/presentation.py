"""Polycyclic presentations and the collection engine.

A presentation has generators u_1..u_m, a period e_i (None for infinite,
otherwise >= 2) per generator, a power tail u_i^{e_i} = (word in u_{>i}) for
finite periods, and commutator tails [u_j, u_i] = (word in u_{>j}) for i < j.
Elements are canonical coordinate tuples: u_1^{t_1} * ... * u_m^{t_m} with
0 <= t_i < e_i whenever e_i is finite.

Products are computed by collection from the left: a work stack of
(generator, exponent) letters is merged into the coordinate vector one letter
at a time. A letter u_i^e first moves past the suffix u_{i+1}^{t_{i+1}} ...
u_m^{t_m}, which it conjugates. How it moves is decided by the torsion-free
cover G~: the same generators and commutator tails, with every period and
power tail dropped. Layer i of the cover is accepted when a certificate
proves that G~_i = <u_i, ..., u_m> is a group with those relations (see
"the cover" below), and the accepted layers form a suffix i >= low.

- A letter of an accepted layer moves by one evaluation of the layer's
  conjugation polynomial in G~, at a cost that does not grow with the
  exponents. Each finite coordinate k >= i that left [0, e_k) is then
  reduced, in ascending k, by u_k^a = u_k^d (u_k^{e_k})^q, where the power
  tail's q-th power times the suffix is computed in G~_{k+1}. This is sound
  because u_l -> u_l is a homomorphism G~_i -> G_i (von Dyck: G satisfies
  the cover's relations).
- A letter below the lowest accepted layer rebuilds the conjugation
  automorphism of u_i^e by binary powering (rewriting), and each suffix
  letter's image is raised to its exponent and pushed back onto the stack;
  period overflow of u_i feeds its power tail onto the stack, in front of
  the conjugated suffix.

Popping a letter of index i only ever pushes letters of index > i, which is
what makes the loop terminate. The polynomials come only from
consistency_check, which proves the presentation layer by layer and accepts
each layer of the cover once it has passed; an accepted layer's table is
derived when collection first moves a letter of it past a nonzero suffix,
and stays in the presentation's _layers field. Arithmetic on a
presentation that was never checked runs the proof first and refuses an
inconsistent one with PresentationError, keeping the refusal. The
interpolation is complete by a degree bound from per-generator weights read
off the commutator tails, as in Deep Thought (Leedham-Green & Soicher
1998); see "conjugation polynomials" below.

Commutators and conjugates are left quotients: [x, y] is the z with
(y x) z = x y, and g^-1 x g the z with g z = x g. The canonical z with
a z = b is found one coordinate at a time (_left_quotient). Let w = a u_1^z_1
... u_{i-1}^z_{i-1} agree with b below i. Collecting u_i^c into w leaves
coordinates 1..i-1 alone, adds c to coordinate i, and sends any overflow of
a finite period into the power tail, whose support is > i. So
z_i = b_i - w_i, reduced mod e_i when e_i is finite, is forced, and after
coordinate m, w = b. The division collects one letter per nonzero
coordinate of z, on either path, so a commutator costs two products and at
most m letters instead of a 4m-letter word collected from the identity.

Powers. Let every letter of x lie in an accepted layer, so that x lies in
G~_s for an accepted s: the accepted layers form a suffix. Then each
coordinate of x^n in G~_s is an integer-valued polynomial f_k(n) of degree
at most w(k), the weight of u_k (see "conjugation polynomials"), so at most
d = max w(k). Coordinate k of a product x y in G~_s is x_k + y_k +
q_k(x_<k, y_<k), where q_k has weighted degree at most w(k), counting w(l)
for x_l and for y_l: collecting y letter by letter substitutes the
conjugation polynomials of layers s..m, which are accepted and obey that
bound, into one another, and substitution keeps it. q_k vanishes when x or
y is the identity, so every monomial of q_k mixes both factors. By
induction on k, let f_l have degree at most w(l) for every l < k. Then
f_k(n + 1) - f_k(n) = x_k + q_k(f(n), x), and in each monomial of q_k the
factors from x carry weight at least 1, so those from f(n) carry at most
w(k) - 1 and have degree at most w(k) - 1 in n. Hence f_k has degree at
most w(k). So x^n = sum_{k <= d} binom(n, k) Delta^k, with Delta^k the
k-th forward difference of x^0, x^1, ..., x^d in G~_s at 0, for negative n
as well, since the series is the polynomial itself. Expanding Delta^k =
sum_j (-1)^(k-j) binom(k, j) x^j gives x^n = sum_{1 <= j <= d} c_j x^j
coordinatewise, c_j = sum_{j <= k <= d} (-1)^(k-j) binom(k, j) binom(n, k)
(x^0 has zero coordinates). That costs d - 1 products whatever n is, and
one reduction in G of the finite coordinates maps the result to x^n in G,
because u_k -> u_k is a homomorphism G~_s -> G_s once G_s is a group with
the presentation's relations. Outside the proof it is; inside it, layer s
of the cover is accepted only above the layer being proven, so G_s is
already proven (see consistency_check). Binary powering stays for |n| <=
d, where it costs no more, and for elements with a letter below the lowest
accepted layer, which rewrite.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from operator import sub
from typing import Dict, Iterable, Optional, Tuple, Union


Period = Optional[int]  # None = infinite
Word = Tuple[Tuple[int, int], ...]  # ((generator index, exponent), ...)
Element = Tuple[int, ...]


class PresentationError(ValueError):
    """Raised when a presentation violates the structural contract."""


class PcPresentation:
    """Immutable polycyclic presentation.

    powers: tuple of (i, tail word) pairs, one per finite-period generator
        with a nontrivial tail; the word is the canonical form of u_i^{e_i}.
    commutators: tuple of ((j, i), tail word) pairs with i < j; the word is
        the canonical form of [u_j, u_i]. Absent pairs commute.

    ==, hash and repr read these four fields alone. The other slots are
    caches, kept out of all three:
    - _pow and _comm: the tails by generator and by pair;
    - _layers and _steps: the collector's tables (_conj_layers, _step);
    - _built: what the subgroup layer builds on this presentation, once
      each (see subgroups.py): G and the generating set S, commutator
      subgroups, constrained passes and sections keyed by canonical rows,
      and the products, powers and commutators it collects, keyed by
      ("pc", name, *arguments). It is apart from _layers and _steps,
      which consistency_check must tell apart, and only the subgroup
      layer reads and writes it, through subgroups.py.
      The public operations of this module keep no table.
    """

    __slots__ = ("name", "periods", "powers", "commutators", "_pow", "_comm",
                 "_layers", "_steps", "_built", "__weakref__")

    def __init__(self, name: str, periods: Tuple[Period, ...],
                 powers: Tuple[Tuple[int, Word], ...] = (),
                 commutators: Tuple[Tuple[Tuple[int, int], Word], ...] = ()):
        for slot, value in (("name", name), ("periods", periods),
                            ("powers", powers), ("commutators", commutators),
                            ("_layers", None), ("_steps", {}), ("_built", {})):
            object.__setattr__(self, slot, value)
        m = len(self.periods)
        for e in self.periods:
            if e is not None and e < 2:
                raise PresentationError(
                    f"{self.name}: period {e} not allowed (must be >= 2 or None)"
                )
        pow_map: Dict[int, Word] = {}
        for i, word in self.powers:
            if not (1 <= i <= m):
                raise PresentationError(f"{self.name}: power tail index {i} out of range")
            if self.periods[i - 1] is None:
                raise PresentationError(
                    f"{self.name}: power tail on infinite-period generator {i}"
                )
            if i in pow_map:
                raise PresentationError(f"{self.name}: duplicate power tail for {i}")
            self._check_tail(word, low=i, m=m)
            pow_map[i] = tuple(word)
        comm_map: Dict[Tuple[int, int], Word] = {}
        for (j, i), word in self.commutators:
            if not (1 <= i < j <= m):
                raise PresentationError(
                    f"{self.name}: commutator key ({j},{i}) out of order"
                )
            if (j, i) in comm_map:
                raise PresentationError(f"{self.name}: duplicate commutator ({j},{i})")
            self._check_tail(word, low=j, m=m)
            comm_map[(j, i)] = tuple(word)
        object.__setattr__(self, "_pow", pow_map)
        object.__setattr__(self, "_comm", comm_map)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self):
        return self.name, self.periods, self.powers, self.commutators

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # a copy or unpickled p starts with empty caches
        return PcPresentation, self._key()

    def __repr__(self):
        return (f"PcPresentation(name={self.name!r}, periods={self.periods!r}"
                f", powers={self.powers!r}, commutators={self.commutators!r})")

    def _check_tail(self, word: Word, low: int, m: int) -> None:
        prev = low
        for k, e in word:
            if not (low < k <= m):
                raise PresentationError(
                    f"{self.name}: tail touches generator {k}, needs support > {low}"
                )
            if k <= prev:
                raise PresentationError(
                    f"{self.name}: tail word not strictly ascending")
            prev = k
            ek = self.periods[k - 1]
            if e == 0:
                raise PresentationError(f"{self.name}: zero exponent in tail")
            if ek is not None and not (0 < e < ek):
                raise PresentationError(
                    f"{self.name}: tail exponent {e} outside [1, {ek}) at generator {k}"
                )

    @property
    def m(self) -> int:
        return len(self.periods)

    def period(self, i: int) -> Period:
        return self.periods[i - 1]

    def power_tail(self, i: int) -> Word:
        return self._pow.get(i, ())

    def commutator_tail(self, j: int, i: int) -> Word:
        return self._comm.get((j, i), ())


# ---------------------------------------------------------------------------
# elements and words


def identity_element(p: PcPresentation) -> Element:
    return (0,) * p.m


def generator(p: PcPresentation, i: int) -> Element:
    if not (1 <= i <= p.m):
        raise ValueError(f"generator index {i} out of range")
    return tuple(1 if k == i - 1 else 0 for k in range(p.m))


def word_of(p: PcPresentation, x: Element) -> Word:
    return tuple((i + 1, v) for i, v in enumerate(x) if v)


def element_of_word_coords(p: PcPresentation, word: Word) -> Element:
    """Interpret an ascending canonical word directly as coordinates."""
    t = [0] * p.m
    for k, e in word:
        t[k - 1] = e
    return tuple(t)


def is_canonical(p: PcPresentation, x: Element) -> bool:
    if len(x) != p.m:
        return False
    for e, v in zip(p.periods, x):
        if e is not None and not (0 <= v < e):
            return False
    return True


def _inverse_word(p: PcPresentation, x: Element) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, -e) for i, e in reversed(word_of(p, x)))


# ---------------------------------------------------------------------------
# conjugation automorphisms, by rewriting
#
# Letters below the lowest accepted layer of the cover move by these
# automorphisms; layers=None rewrites every letter, as _step_inv and the
# tests' reference collection do. _step(p, i) maps k > i to the canonical
# form of u_i^-1 u_k u_i, which is also the map c: u_k -> u_k [u_k, u_i]
# whose extension consistency_check proves, collecting its overlaps in
# G_{i+1} on the tables of the layers above i. _step_inv is its inverse,
# solved from the top index downward. Both are kept in the presentation's
# _steps field, under i and -i, and _step_inv is always solved by
# rewriting, so every path reads the same images. The field is separate
# from _layers because its entries depend on the relations alone, whenever
# they were filled, so the check may read them. Larger exponents are
# assembled by binary powering. Every image is a normal form, and a normal
# form collected into the identity is itself, so _apply_aut takes its first
# factor as it is.


def _step(p: PcPresentation, i: int) -> Tuple[Tuple[int, Element], ...]:
    if i not in p._steps:
        out = []
        for k in range(i + 1, p.m + 1):
            v = [0] * p.m
            v[k - 1] = 1
            for l, e in p.commutator_tail(k, i):
                v[l - 1] = e
            out.append((k, tuple(v)))
        p._steps[i] = tuple(out)
    return p._steps[i]


def _step_inv(p: PcPresentation, i: int) -> Tuple[Tuple[int, Element], ...]:
    if -i not in p._steps:
        images: Dict[int, Element] = {}
        for k in range(p.m, i, -1):
            tail = p.commutator_tail(k, i)
            if not tail:
                images[k] = generator(p, k)
                continue
            c = element_of_word_coords(p, tail)
            delta = _apply_aut(p, images, _inverse(p, c, None), None)
            images[k] = _multiply(p, generator(p, k), delta, None)
        p._steps[-i] = tuple(sorted(images.items()))
    return p._steps[-i]


def _apply_aut(
    p: PcPresentation, images: Dict[int, Element], x: Element, layers
) -> Element:
    acc = None
    for k, a in word_of(p, x):
        y = _power(p, images[k], a, layers)
        acc = y if acc is None else _multiply(p, acc, y, layers)
    return identity_element(p) if acc is None else acc


def _compose_aut(
    p: PcPresentation, outer: Dict[int, Element], inner: Dict[int, Element],
    layers,
) -> Dict[int, Element]:
    return {k: _apply_aut(p, outer, img, layers) for k, img in inner.items()}


def _conj_aut(p: PcPresentation, i: int, e: int, layers) -> Dict[int, Element]:
    """Images of u_k (k > i) under conjugation by u_i^e."""
    if e >= 0:
        base = dict(_step(p, i))
        n = e
    else:
        base = dict(_step_inv(p, i))
        n = -e
    result = {k: generator(p, k) for k in range(i + 1, p.m + 1)}
    while n:
        if n & 1:
            result = _compose_aut(p, base, result, layers)
        n >>= 1
        if n:
            base = _compose_aut(p, base, base, layers)
    return result


# ---------------------------------------------------------------------------
# conjugation polynomials
#
# Layer i is polynomial when its layer of the cover is accepted (see "the
# cover" below). Then G~_i = <u_i, ..., u_m> is torsion-free nilpotent, and
# coordinate k of u_i^-e z u_i^e is z_k + h_k(e, z_{i+1}, ..., z_{k-1}), where
# h_k is an integer-valued polynomial (Hall; Leedham-Green & Soicher,
# "Symbolic collection using Deep Thought", 1998). In the binomial basis
# binom(e, b_0) * prod_v binom(z_{i+v}, b_v) its coefficients are integers,
# and the coefficient at b is the finite difference Delta^b h_k(0), taken
# one axis at a time over the values at the lattice points a <= b (Newton
# interpolation).
#
# The degree bound says which lattice points are needed. Over the polynomial
# layers, give generator k a weight w(k) >= 1 with w(l) >= w(i) + w(j) for
# every l in the tail of [u_j, u_i]. Then W_c = <u_k : w(k) >= c> is a
# filtration with [W_a, W_b] <= W_{a+b}, and every monomial of h_k has
# weighted degree at most w(k), counting w(i) for e and w(l) for z_l (the
# Deep Thought bound). A layer therefore needs the points b with b_0 >= 1
# whose weighted degree is at most w(k) for some coordinate k beyond the
# last z that b uses. Their values come from collecting in G~_{i+1} with the
# deeper layers' polynomials, derived first when pending. A letter
# with no tail [u_{i+v}, u_i] commutes with u_i, so it is its own conjugate
# under every u_i^e, and a point's first factor is its conjugate as it is.
#
# the cover
#
# G~ keeps the generators and commutator tails of G and drops every period
# and power tail, so G~_m = <u_m> is infinite cyclic. Suppose the
# presentation of G~_{i+1} is consistent. Then that of G~_i is consistent
# exactly when c: u_l -> u_l [u_l, u_i] (l > i) extends to an automorphism
# of G~_{i+1}: G~_i is then the semidirect product of G~_{i+1} by <u_i>
# acting through c, and conversely conjugation by u_i is such an
# automorphism. By von Dyck, c extends to an endomorphism exactly when it
# respects the relations u_j^-1 u_k u_j = u_k [u_k, u_j] of G~_{i+1}, which
# is the certificate of layer i:
#
#     c(u_j)^-1 c(u_k) c(u_j) == c(u_k [u_k, u_j])   for all i < j < k.
#
# The endomorphism is then bijective. Tails have support > j, so c(u_l)
# lies in u_l G~_{l+1}, and by descending induction on l the image of c
# contains each G~_l: c is onto. Finitely generated nilpotent groups are
# residually finite, hence Hopfian, so c is one-to-one as well, and no
# overlaps with inverses are needed.
#
# The certificate collects in G~_{i+1} with the accepted layers above i,
# never with layer i's own table, and the layers below the first one that
# fails keep rewriting. It is the triple part of the routine (_extends) that
# proves layer i of G in consistency_check, read up to its first failure:
# the cover has no periods, so the other parts do not apply to it. From the
# last finite generator f on, the cover's tables are G's own (G~_{i+1} =
# G_{i+1} for i >= f), so layer i of G, which consistency_check proves
# before it accepts layer i of the cover, includes the certificate, and the
# certificate skips those layers.
#
# _ConjPoly and _Tables are slotted classes, not namedtuples: collection
# reads their fields for every letter, and Python 3.11 reads a slot by a
# specialized instruction but a namedtuple field by a descriptor call, which
# made warm arithmetic about 6% slower. == compares the fields, since the
# tests compare derived tables.


class _ConjPoly:
    """The h_k of one layer, over a chain of binomial monomials.

    monos: one (parent, variable, degree) triple per monomial after the
        constant one: the monomial is its parent times binom(variable,
        degree), where variable 0 is e and variable v is z_{i+v}.
    rows: (0-based coordinate k, ((monomial, coefficient), ...)) pairs.
    """

    __slots__ = ("monos", "rows")

    def __init__(self, monos, rows):
        self.monos, self.rows = monos, rows

    def __eq__(self, other):
        return isinstance(other, _ConjPoly) and (
            (self.monos, self.rows) == (other.monos, other.rows))


_PENDING = _ConjPoly(None, None)  # accepted, not derived yet


class _Tables:
    """What collection in a presentation reads besides its relations.

    cover: the torsion-free cover G~, with no periods or power tails.
    polys: per layer, None where collection rewrites; for an accepted
        layer its _ConjPoly in G~, or _PENDING until collection first
        needs it (derive; see consistency_check).
    finite: the generators with a finite period, ascending; they have none
        in G~, so collection in the cover reduces nothing.
    degree: the largest Deep Thought weight w(k). When every letter of x
        lies in an accepted layer, each coordinate of x^n in G~ is a
        polynomial in n of degree at most this (see "Powers" in the module
        docstring).
    weight, slack: the weights w and the slack of the degree bound
        (_derive_layers).

    == compares the fully derived tables.
    """

    __slots__ = ("cover", "polys", "finite", "degree", "weight", "slack")

    def __init__(self, cover, polys, finite, degree, weight, slack):
        self.cover, self.polys = cover, polys
        self.finite, self.degree = finite, degree
        self.weight, self.slack = weight, slack

    def derive(self, i: int) -> Optional[_ConjPoly]:
        """Layer i's table, derived now if it is pending."""
        poly = self.polys[i - 1]
        if poly is _PENDING:
            poly = self.polys[i - 1] = _derive_layer(self.cover, i, self)
        return poly

    def derived(self) -> tuple:
        """Every layer's table, with the pending ones derived."""
        return tuple(map(self.derive, range(1, len(self.polys) + 1)))

    def __eq__(self, other):
        return isinstance(other, _Tables) and (
            (self.cover, self.derived(), self.finite, self.degree)
            == (other.cover, other.derived(), other.finite, other.degree))


def _conj_layers(p: PcPresentation) -> _Tables:
    """The tables of p. When p was never checked, the proof runs here, and
    an inconsistent p is refused; p._layers then keeps False, so the proof
    runs once."""
    if p._layers is None:
        consistency_check(p)
    if not p._layers:
        raise PresentationError(f"{p.name}: inconsistent presentation")
    return p._layers


def _derive_layers(
    p: PcPresentation, slack: int = 0,
) -> Union[_Tables, Tuple[ConsistencyFailure, ...]]:
    """Prove p consistent layer by layer, deepest first, and accept the
    layers of the cover on the way; at the first layer of p that fails,
    its failing overlaps instead (see consistency_check).

    Layer i of the cover is accepted, as _PENDING, only after layer i of
    p is proven, and the accepted layers stop at the first one whose
    certificate fails. slack raises every degree bound, so more lattice
    points are used; a sound bound leaves the tables unchanged (the tests
    pin it that way).
    The weights w are read off the commutator tails once: they give the
    degree bound and the class bound d = max w (_Tables.degree), above
    which _extends skips the triple overlaps.
    """
    m = p.m
    cover = PcPresentation(p.name, (None,) * m, (), p.commutators)
    finite = tuple(k for k, e in enumerate(p.periods, start=1) if e is not None)
    f = finite[-1] if finite else 1  # from f on, p's layer is the certificate
    weight = [1] * (m + 1)
    for (j, i), tail in sorted(p.commutators):
        for l, _ in tail:
            weight[l] = max(weight[l], weight[i] + weight[j])
    degree = max(weight)
    polys: list = [None] * m
    layers = _Tables(cover, polys, finite, degree, weight, slack)
    low = m + 1  # the lowest accepted layer so far
    for i in range(m, 0, -1):
        failures = tuple(_extends(p, i, layers))
        if failures:
            return failures
        if low == i + 1 and (
                i >= f or not any(_extends(cover, i, layers))):
            polys[i - 1] = _PENDING
            low = i
    return layers


def _extends(q: PcPresentation, i: int, layers: _Tables):
    """Yield the failing overlaps of layer i of q, given that Q_{i+1} =
    <u_{i+1}, ..., u_m> is consistent: the overlaps of layer i, read as
    relations of c: u_l -> u_l [u_l, u_i] (l > i), collected in Q_{i+1}
    with the tables of the layers above i (see consistency_check). Each
    failure carries the two sides of its overlap collected from the left
    (see ConsistencyFailure), in the order triples, then power-gen and
    gen-power by j, then power-power. The cover has no periods, so there
    only the triple part applies, and it is the certificate of layer i
    (see "the cover"). A triple (k, j, i) whose weights sum past the class
    bound layers.degree holds in any consistent Q_{i+1} and is skipped
    (see "Weights" in consistency_check). Sides that c fixes are read off
    the relations (see "Read off" there): c(w_j), c(w_i) and c(u_j)^{e_j}
    with no letter in M, and c^{e_i}(u_j) when M is empty; a gen-power
    overlap whose sides are equal is not collected at all."""
    def at_i(x: Element) -> Element:  # u_i x, for x in Q_{i+1}
        return x[:i - 1] + (1,) + x[i:]

    m = q.m
    weight = layers.weight
    room = layers.degree - weight[i]  # kept: w(j) + w(k) <= room
    if room < 2 and not any(q.periods[i - 1:]):  # no overlap to collect
        return
    c = dict(_step(q, i))
    moved = {k for k in range(i + 1, m + 1) if q.commutator_tail(k, i)}  # M

    def apply_c(x: Element) -> Element:  # read off when x misses M
        return (_apply_aut(q, c, x, layers)
                if any(x[k - 1] for k in moved) else x)

    for j in range(i + 1, m + 1):
        if weight[j] + 1 > room:  # every w(k) >= 1
            continue
        for k, ukj in _step(q, j):  # ukj = u_k [u_k, u_j]
            if weight[j] + weight[k] <= room:
                lhs = _multiply(q, c[k], c[j], layers)
                rhs = _multiply(q, c[j], _apply_aut(q, c, ukj, layers), layers)
                if lhs != rhs:
                    yield ConsistencyFailure(
                        "triple", j, i, k, at_i(lhs), at_i(rhs))
    ei = q.periods[i - 1]
    if ei is not None:
        wi = element_of_word_coords(q, q.power_tail(i))
        rest = None  # c^{e_i - 1}, built when an overlap needs it
    for j in range(i + 1, m + 1):
        ej = q.periods[j - 1]
        if ej is not None:
            wj = element_of_word_coords(q, q.power_tail(j))
            lhs = apply_c(wj)
            rhs = _power(q, c[j], ej, layers) if j in moved else wj
            if lhs != rhs:
                yield ConsistencyFailure(
                    "power-gen", j, i, None, at_i(lhs), at_i(rhs))
        if ei is not None and (j in moved or any(
                q.commutator_tail(max(j, l), min(j, l))
                for l, _ in q.power_tail(i))):
            if rest is None:
                # c^{e_i}(u_j) as c^{e_i - 1}(c(u_j)), the way
                # u_i^{e_i - 1} moves past u_i c(u_j) when collected from
                # the left
                rest = _conj_aut(q, i, ei - 1, layers) if moved else c
            lhs = _multiply(q, generator(q, j), wi, layers)
            rhs = _multiply(q, wi, _apply_aut(q, rest, c[j], layers), layers)
            if lhs != rhs:
                yield ConsistencyFailure("gen-power", j, i, None, lhs, rhs)
    if ei is not None:
        cwi = apply_c(wi)
        if cwi != wi:
            yield ConsistencyFailure(
                "power-power", i, i, None, at_i(wi), at_i(cwi))


def _derive_layer(p: PcPresentation, i: int, layers: _Tables) -> _ConjPoly:
    m = p.m
    n = m - i
    if not any(p.commutator_tail(k, i) for k in range(i + 1, m + 1)):
        return _ConjPoly((), ())
    ws = layers.weight[i:]  # ws[v]: weight of variable v
    top = [0] * (n + 1)  # top[v]: the largest bound beyond variable v
    for v in range(n - 1, -1, -1):
        top[v] = max(top[v + 1], ws[v + 1] + layers.slack)
    step = dict(_step(p, i))
    images: Dict[int, list] = {}

    def image(v: int, e: int) -> Element:
        # u_i^-e u_{i+v} u_i^e, one conjugation at a time
        if v not in images:
            images[v] = [generator(p, i + v)]
        seq = images[v]
        if not p.commutator_tail(i + v, i):  # u_{i+v} commutes with u_i
            return seq[0]
        while len(seq) <= e:
            seq.append(_apply_aut(p, step, seq[-1], layers))
        return seq[e]

    # u_i^-e u^z u_i^e at each lattice point (e, z) with z != 0, from
    # u^z = u^(z - d_v) u_{i+v} for the last variable v that z uses
    conj: Dict[Tuple[int, ...], Element] = {}
    todo = [((0,) * (n + 1), 0, 1)]
    while todo:
        z, zw, last = todo.pop()
        if zw:
            prev = z[:last] + (z[last] - 1,) + z[last + 1:]
            for e in range(1, (top[last] - zw) // ws[0] + 1):
                y = image(last, e)
                conj[(e,) + z[1:]] = _multiply(
                    p, conj[(e,) + prev[1:]], y, layers) if any(prev) else y
        for v in range(last, n + 1):
            if zw + ws[v] + ws[0] <= top[v]:
                todo.append((z[:v] + (z[v] + 1,) + z[v + 1:], zw + ws[v], v))
    h = {b: tuple(map(sub, x[i:], b[1:])) for b, x in conj.items()}
    return _pack(_newton(h), i)


def _newton(h: Dict[Tuple[int, ...], tuple]) -> Dict[Tuple[int, ...], tuple]:
    """Binomial coefficients from values on a lower set of lattice points,
    by forward differences axis by axis; absent points have value 0."""
    for a in range(len(next(iter(h)))):
        line = sorted((b for b in h if b[a]), key=lambda b: -b[a])
        for r in range(1, line[0][a] + 1 if line else 1):
            for b in line:
                if b[a] < r:
                    break
                d = h.get(b[:a] + (b[a] - 1,) + b[a + 1:])
                if d is not None and any(d):
                    h[b] = tuple(map(sub, h[b], d))
    return h


def _pack(coeffs: Dict[Tuple[int, ...], tuple], i: int) -> _ConjPoly:
    """The nonzero coefficients, over a chain of their monomials."""
    def parent(b):
        last = max(v for v, x in enumerate(b) if x)
        return b[:last] + (0,) * (len(b) - last), last

    used = {b for b, c in coeffs.items() if any(c)}
    for b in list(used):
        while any(b):
            b = parent(b)[0]
            used.add(b)
    order = sorted(used, key=lambda b: (sum(1 for x in b if x), b))
    index = {b: j for j, b in enumerate(order)}
    monos = []
    for b in order[1:]:
        up, last = parent(b)
        monos.append((index[up], last, b[last]))
    terms = sorted((index[b], c) for b, c in coeffs.items() if any(c))
    rows = []
    for k in range(len(next(iter(coeffs.values())))):
        row = tuple((j, c[k]) for j, c in terms if c[k])
        if row:
            rows.append((i + k, row))
    return _ConjPoly(tuple(monos), tuple(rows))


def _conj_poly(poly: _ConjPoly, e: int, t: list, i: int) -> None:
    """Replace the suffix t[i:] by its conjugate under u_i^e."""
    x = t[i - 1:]
    x[0] = e
    vals = [1]
    for parent, v, d in poly.monos:
        a = c = x[v]  # binom(a, d), from binom(a, 1) = a
        for r in range(2, d + 1):
            c = c * (a - r + 1) // r
        vals.append(vals[parent] * c)
    for k, terms in poly.rows:
        s = 0
        for j, c in terms:
            s += c * vals[j]
        t[k] += s


# ---------------------------------------------------------------------------
# collection


def _collect(p: PcPresentation, t: list, stack: list,
             layers: Optional[_Tables]) -> None:
    """Collect the letters of stack into t, last letter first, emptying the
    stack; layers is _conj_layers(p), or None to rewrite every letter."""
    m = p.m
    if layers is None:
        polys, last = (None,) * m, 0
    else:
        polys, finite = layers.polys, layers.finite
        last = finite[-1] if finite and p is not layers.cover else 0
    while stack:
        i, e = stack.pop()
        if e == 0:
            continue
        if not (1 <= i <= m):
            raise ValueError(f"letter index {i} out of range")
        poly = polys[i - 1]
        if poly is not None:
            if poly is _PENDING and any(t[i:]):
                poly = layers.derive(i)
            if poly.rows and any(t[i:]):
                _conj_poly(poly, e, t, i)
            t[i - 1] += e
            if i <= last:
                _reduce(p, t, i, layers)
            continue
        suffix = [(k, t[k - 1]) for k in range(i + 1, m + 1) if t[k - 1]]
        if suffix:
            images = _conj_aut(p, i, e, layers)
            moved: list = []
            for k, a in suffix:
                g = _power(p, images[k], a, layers)
                moved.extend(word_of(p, g))
                t[k - 1] = 0
            stack.extend(reversed(moved))
        ei = p.periods[i - 1]
        a = t[i - 1] + e
        if ei is None:
            t[i - 1] = a
            continue
        d = a % ei
        q = (a - d) // ei
        t[i - 1] = d
        if q:
            tail = p.power_tail(i)
            if tail:
                g = _power(p, element_of_word_coords(p, tail), q, layers)
                stack.extend(reversed(word_of(p, g)))


def _reduce(p: PcPresentation, t: list, i: int, layers: _Tables) -> None:
    """Bring the finite coordinates from i on into range, in ascending
    order: u_k^a = u_k^d (u_k^{e_k})^q, where the power tail's q-th power
    times the suffix is collected in the cover G~_{k+1}."""
    m = len(t)
    cover = layers.cover
    for k in layers.finite:
        ek = p.periods[k - 1]
        if k < i or 0 <= t[k - 1] < ek:
            continue
        q, t[k - 1] = divmod(t[k - 1], ek)
        tail = p.power_tail(k)
        if tail:
            s = list(_power(cover, element_of_word_coords(p, tail), q, layers))
            _collect(cover, s, [(l, t[l - 1]) for l in range(m, k, -1)
                                if t[l - 1]], layers)
            t[k:] = s[k:]


def _normal_form(p: PcPresentation, word, layers) -> Element:
    t = [0] * p.m
    stack = list(word)
    stack.reverse()
    _collect(p, t, stack, layers)
    return tuple(t)


def _multiply(p: PcPresentation, x: Element, y: Element, layers) -> Element:
    t = list(x)
    stack = [(k, v) for k, v in enumerate(y, 1) if v]
    stack.reverse()
    _collect(p, t, stack, layers)
    return tuple(t)


def _inverse(p: PcPresentation, x: Element, layers) -> Element:
    return _normal_form(p, _inverse_word(p, x), layers)


def _power(p: PcPresentation, x: Element, n: int, layers) -> Element:
    """x^n: by a Newton series in n over the cover when every letter of x
    lies in an accepted layer and |n| exceeds the degree d (see "Powers"),
    in d - 1 products; otherwise by binary powering, which rewriting needs
    and which costs no more for |n| <= d."""
    if n == 0:
        return identity_element(p)
    if layers is not None and abs(n) > layers.degree and all(
            poly is not None for poly, v in zip(layers.polys, x) if v):
        cover, d = layers.cover, layers.degree
        b = [1]  # b[k] = binom(n, k)
        for k in range(d):
            b.append(b[-1] * (n - k) // (k + 1))
        t = [0] * p.m
        y = x  # x^j in G~
        for j in range(1, d + 1):
            if j > 1:
                y = _multiply(cover, y, x, layers)
            c = sum((-1) ** (k - j) * comb(k, j) * b[k]
                    for k in range(j, d + 1))
            for l, v in enumerate(y):
                if v:
                    t[l] += c * v
        if p is not cover:
            _reduce(p, t, 1, layers)
        return tuple(t)
    if n < 0:
        return _power(p, _inverse(p, x, layers), -n, layers)
    acc = None
    base = x
    while n:
        if n & 1:
            acc = base if acc is None else _multiply(p, acc, base, layers)
        n >>= 1
        if n:
            base = _multiply(p, base, base, layers)
    return acc


def normal_form(p: PcPresentation, word: Iterable[Tuple[int, int]]) -> Element:
    return _normal_form(p, word, _conj_layers(p))


def multiply(p: PcPresentation, x: Element, y: Element) -> Element:
    return _multiply(p, x, y, _conj_layers(p))


def inverse(p: PcPresentation, x: Element) -> Element:
    return _inverse(p, x, _conj_layers(p))


def power(p: PcPresentation, x: Element, n: int) -> Element:
    """x^n for any integer n. When every letter of x lies in an accepted
    layer of the cover this costs _Tables.degree - 1 products for every |n|
    above that degree (see "Powers" in the module docstring)."""
    return _power(p, x, n, _conj_layers(p))


def _left_quotient(p: PcPresentation, a: Element, b: Element,
                    layers) -> Element:
    """The canonical z with a z = b, one coordinate at a time (see the
    module docstring)."""
    t = list(a)
    z = [0] * p.m
    for i, (e, v) in enumerate(zip(p.periods, b)):
        c = v - t[i] if e is None else (v - t[i]) % e
        if c:
            z[i] = c
            _collect(p, t, [(i + 1, c)], layers)
    return tuple(z)


def commutator(p: PcPresentation, x: Element, y: Element) -> Element:
    """[x, y] = x^-1 y^-1 x y, the z with (y x) z = x y."""
    layers = _conj_layers(p)
    return _left_quotient(p, _multiply(p, y, x, layers),
                          _multiply(p, x, y, layers), layers)


def conjugate(p: PcPresentation, x: Element, g: Element) -> Element:
    """g^-1 x g, the z with g z = x g."""
    layers = _conj_layers(p)
    return _left_quotient(p, g, _multiply(p, x, g, layers), layers)


# ---------------------------------------------------------------------------
# consistency


class ConsistencyFailure(
        namedtuple("ConsistencyFailure", "kind j i k lhs rhs")):
    """A failing overlap of layer i, the first layer the proof rejects.

    kind and the indices, with w_l the power tail of u_l:
    - "triple": u_k u_j u_i, for i < j < k;
    - "power-gen": u_j^{e_j} u_i, for j > i with e_j finite;
    - "gen-power": u_j u_i^{e_i}, for j > i with e_i finite;
    - "power-power": u_i^{e_i + 1}, with j = i.
    k is None except for triples.

    lhs and rhs are the two ways of collecting the overlap from the left,
    in G_{i+1} = <u_{i+1}, ..., u_m>, which the proof has shown consistent.
    c is conjugation by u_i, u_l -> u_l [u_l, u_i], applied letter by
    letter, and u_i x is x with coordinate i set to 1:
    - triple: lhs u_i c(u_k) c(u_j), rhs u_i c(u_j) c(u_k [u_k, u_j]);
    - power-gen: lhs u_i c(w_j), rhs u_i c(u_j)^{e_j};
    - gen-power: lhs u_j w_i, rhs w_i c^{e_i}(u_j);
    - power-power: lhs u_i w_i, rhs u_i c(w_i).
    """

    __slots__ = ()


class ConsistencyReport(namedtuple("ConsistencyReport", "ok failures")):
    """ok, and when it is False the failing overlaps of the first layer
    that the proof rejects (ConsistencyFailure)."""

    __slots__ = ()


def consistency_check(p: PcPresentation) -> ConsistencyReport:
    """Prove the presentation consistent layer by layer, from i = m down to
    1, and leave the collector's tables on it, each to be derived when
    collection first needs it; at the first layer that fails, report that
    layer's failing overlaps.

    By descending induction on i, let the presentation of G_{i+1} =
    <u_{i+1}, ..., u_m> be consistent. The overlaps of layer i are
    relations of c: u_l -> u_l [u_l, u_i] (l > i), collected in G_{i+1}
    (_extends):

    - triple: c(u_j)^-1 c(u_k) c(u_j) == c(u_k [u_k, u_j]), i < j < k;
    - power-gen: c(w_j) == c(u_j)^{e_j} for each finite e_j, j > i;
    - gen-power: c^{e_i} is conjugation by w_i on G_{i+1};
    - power-power: c(w_i) == w_i;

    where w_l is the power tail of u_l. The first two say that c respects
    the relations of G_{i+1}, so by von Dyck it extends to an endomorphism
    of G_{i+1}. It moves each u_l only by an element of G_{l+1}, so it is
    onto, and finitely generated nilpotent groups are Hopfian, so c is an
    automorphism. For infinite e_i, G_i is then the semidirect product of
    G_{i+1} by <u_i> acting through c. For finite e_i, the last two are
    what the cyclic extension of G_{i+1} by u_i needs. Either way G_i is
    consistent, and the relations u_i u_l u_i^-1 = c^-1(u_l) hold with no
    check of their own (the overlaps with inverses of Sims 1994, section
    9.8, are redundant here because the tails of [u_j, u_i] have support
    > j). Conversely, in a consistent G_i conjugation by u_i is such an
    automorphism, so every layer passes.

    Weights. Only the triples with w(i) + w(j) + w(k) <= d are collected,
    where w are the weights of "conjugation polynomials" (w(l) >= w(i) +
    w(j) for every l in the tail of [u_j, u_i]) and d = max w bounds the
    class (Vaughan-Lee 1984; Sims 1994, chapter 11); the power overlaps
    are all collected. The others hold in any consistent G_{i+1}. Let W_s
    be the subgroup of G_{i+1} generated by the u_k (k > i) with w(k) >=
    s. For such u_k and any j > i, the commutator of u_k and u_j is a
    tail, or its inverse, whose letters weigh at least w(k) + w(j) > s, so
    u_j^-1 W_s u_j <= W_s, and by the maximal condition (as in
    subgroups.induce) W_s is normal in G_{i+1}. The same tails put the
    commutators of the generators of W_a and W_b in W_{a+b}, and [W_a,
    W_b] is the normal closure in <W_a, W_b> of those, so [W_a, W_b] <=
    W_{a+b}; and W_{d+1} = 1. Write c(u_l) = u_l a_l, where a_l, the tail
    of [u_l, u_i], lies in W_{w(l)+w(i)}. Let s = w(i) + w(j) + w(k) > d,
    so W_s = 1. The left side of the triple is (u_k a_k)^(u_j a_j).
    Conjugating by u_j gives u_k [u_k, u_j] a_k [a_k, u_j] with [a_k, u_j]
    in W_s, and conjugating x = u_k [u_k, u_j] a_k, which lies in
    W_{w(k)}, by a_j moves it by [x, a_j] in W_s. The right side is
    c(u_k) c(t) with t the tail of [u_k, u_j]; each letter u_l of t has
    a_l in W_{w(l)+w(i)} <= W_s, so c(t) = t, and a_k commutes with t, as
    [a_k, t] lies in W_{2w(k)+w(i)+w(j)}. Both sides are u_k [u_k, u_j]
    a_k. Nothing here reads a power tail: W_s is generated by letters, the
    bounds read commutator tails only, and the relations of G_{i+1}, power
    tails included, hold by the induction. So power tails need no weight
    condition. The cover's certificate is the triple part in G~_{i+1},
    which has the same commutator tails and weights, and is pruned the
    same way. So a j with w(j) + 1 > d - w(i) keeps no triple, and a layer
    with none and no finite period from i on has nothing to collect.

    Read off. Let M be the letters k > i with a tail [u_k, u_i]. c fixes
    every letter outside M, and _extends reads these sides off:
    - c(x) is x, for x = w_j in power-gen and x = w_i in power-power, when
      x has no letter in M: x is a product of fixed letters in normal form;
    - c(u_j)^{e_j} is w_j when j is not in M: u_j^{e_j} = w_j in G_{i+1},
      which is consistent, so its normal form is w_j;
    - c^{e_i}(u_j) is u_j when M is empty: c is then the identity;
    - the gen-power overlap (j, i) is skipped when j is not in M and no
      letter of w_i but u_j has a commutator tail with u_j: then
      c^{e_i}(u_j) = u_j, u_j commutes with every letter of w_i, and both
      sides are the normal form of u_j w_i = w_i u_j in G_{i+1}, which is
      consistent. c^{e_i - 1} is composed only when some overlap of
      layer i is still collected.

    The tables of the layers above i may be used at layer i without
    circularity. Layer l's table describes the cover G~_l and is accepted
    only once G~_l is proven: by its certificate below the last finite
    generator f, and from f on by layer l of G itself, which the loop
    proves first (G~_{l+1} = G_{l+1} there, and the triple part is the
    certificate). Collection in G_{i+1} moves a letter by such a table, or
    powers an element of such a G~_l by the Newton series ("Powers" in the
    module docstring), and reduces in G, which is sound because u_l -> u_l
    is a homomorphism G~_l -> G_l once G_l is a group with the
    presentation's relations, and the induction has proven that for every
    l > i. In G_{i+1} every
    collection that applies valid relations ends in the one normal form,
    so layer i is decided as rewriting would decide it. Layer i of the
    cover is accepted only after layer i passes (_derive_layers), so its
    table cannot be derived before then, and p._layers is never read.

    When every layer passes, p._layers keeps the tables for the commands
    that follow; this proof is their only source. A table is derived only
    when a collection, here or later, first moves a letter of its layer
    past a nonzero suffix (_Tables.derive). A table derived late equals
    one derived at once: layer i's values are collected in G~_{i+1} with
    the layers above i, which never change once accepted.

    When layer i0 fails, p._layers keeps False, and the report lists the
    failing overlaps of i0 that the proof found, each with its two sides
    collected from the left (ConsistencyFailure). G_{i0+1} is proven, so
    those sides are well defined, while an overlap of a lower layer would
    be collected in a group already known to be inconsistent and is not
    reported.
    """
    layers = _derive_layers(p)
    if isinstance(layers, _Tables):
        object.__setattr__(p, "_layers", layers)
        return ConsistencyReport(ok=True, failures=())
    object.__setattr__(p, "_layers", False)
    return ConsistencyReport(ok=False, failures=layers)
