"""Polycyclic presentations and the collection engine.

A presentation has generators u_1..u_m, a period e_i (None for infinite,
otherwise >= 2) per generator, a power tail u_i^{e_i} = (word in u_{>i}) for
finite periods, and commutator tails [u_j, u_i] = (word in u_{>j}) for i < j.
Elements are canonical coordinate tuples: u_1^{t_1} * ... * u_m^{t_m} with
0 <= t_i < e_i whenever e_i is finite.

Products are computed by collection from the left: a work stack of
(generator, exponent) letters is merged into the coordinate vector one letter
at a time. A letter u_i^e first moves past the suffix u_{i+1}^{t_{i+1}} ...
u_m^{t_m}, which it conjugates, and the periods alone decide how:

- When u_{i+1}, ..., u_m all have infinite period, one evaluation of layer
  i's conjugation polynomial gives the conjugated suffix, at a cost that
  does not grow with the exponents. The polynomials of all such layers are
  derived together, on first use, and kept in the presentation's _layers
  field.
- Otherwise the conjugation automorphism of u_i^e is built by binary
  powering (rewriting), and each suffix letter's image is raised to its
  exponent and pushed back onto the stack.

Either way, period overflow of u_i feeds its power tail onto the stack, in
front of the conjugated suffix. Popping a letter of index i only ever pushes
letters of index > i, which is what makes the loop terminate.

The polynomials are interpolated from collection in the presentation itself,
so they describe a group only when the presentation is consistent.
consistency_check therefore collects by rewriting alone and never derives
them: an inconsistent presentation cannot pass by agreeing with tables
interpolated from its own relations. The interpolation is complete by a
degree bound from per-generator weights read off the commutator tails, as in
Deep Thought (Leedham-Green & Soicher 1998); see "conjugation polynomials"
below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import sub
from typing import Dict, Iterable, Optional, Sequence, Tuple


Period = Optional[int]  # None = infinite
Word = Tuple[Tuple[int, int], ...]  # ((generator index, exponent), ...)
Element = Tuple[int, ...]


class PresentationError(ValueError):
    """Raised when a presentation violates the structural contract."""


@dataclass(frozen=True)
class PcPresentation:
    """Immutable polycyclic presentation.

    powers: tuple of (i, tail word) pairs, one per finite-period generator
        with a nontrivial tail; the word is the canonical form of u_i^{e_i}.
    commutators: tuple of ((j, i), tail word) pairs with i < j; the word is
        the canonical form of [u_j, u_i]. Absent pairs commute.
    """

    name: str
    periods: Tuple[Period, ...]
    powers: Tuple[Tuple[int, Word], ...] = ()
    commutators: Tuple[Tuple[Tuple[int, int], Word], ...] = ()
    _pow: Dict[int, Word] = field(init=False, repr=False, compare=False, hash=False)
    _comm: Dict[Tuple[int, int], Word] = field(
        init=False, repr=False, compare=False, hash=False
    )
    _layers: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
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

    def _check_tail(self, word: Word, low: int, m: int) -> None:
        prev = low
        for k, e in word:
            if not (low < k <= m):
                raise PresentationError(
                    f"{self.name}: tail touches generator {k}, needs support > {low}"
                )
            if k < prev:
                raise PresentationError(f"{self.name}: tail word not ascending")
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
# Letters whose suffix has a finite period, and every letter that
# consistency_check collects, move by these automorphisms (layers=None
# selects rewriting throughout). _conj_step(p, i) maps k > i to the canonical
# form of u_i^-1 u_k u_i; _conj_step_inv is its inverse, solved from the top
# index downward. Both are cached per presentation, and _conj_step_inv is
# always solved by rewriting, so both paths read the same images. Larger
# exponents are assembled by binary powering.


@lru_cache(maxsize=None)
def _conj_step(p: PcPresentation, i: int) -> Tuple[Tuple[int, Element], ...]:
    out = []
    for k in range(i + 1, p.m + 1):
        v = [0] * p.m
        v[k - 1] = 1
        for l, e in p.commutator_tail(k, i):
            v[l - 1] = e
        out.append((k, tuple(v)))
    return tuple(out)


@lru_cache(maxsize=None)
def _conj_step_inv(p: PcPresentation, i: int) -> Tuple[Tuple[int, Element], ...]:
    images: Dict[int, Element] = {}
    for k in range(p.m, i, -1):
        tail = p.commutator_tail(k, i)
        if not tail:
            images[k] = generator(p, k)
            continue
        c = element_of_word_coords(p, tail)
        delta = _apply_aut(p, images, _inverse(p, c, None), None)
        images[k] = _multiply(p, generator(p, k), delta, None)
    return tuple(sorted(images.items()))


def _apply_aut(
    p: PcPresentation, images: Dict[int, Element], x: Element, layers
) -> Element:
    acc = identity_element(p)
    for k, a in word_of(p, x):
        acc = _multiply(p, acc, _power(p, images[k], a, layers), layers)
    return acc


def _compose_aut(
    p: PcPresentation, outer: Dict[int, Element], inner: Dict[int, Element],
    layers,
) -> Dict[int, Element]:
    return {k: _apply_aut(p, outer, img, layers) for k, img in inner.items()}


def _conj_aut(p: PcPresentation, i: int, e: int, layers) -> Dict[int, Element]:
    """Images of u_k (k > i) under conjugation by u_i^e."""
    if e >= 0:
        base = dict(_conj_step(p, i))
        n = e
    else:
        base = dict(_conj_step_inv(p, i))
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
# Layer i is polynomial when u_{i+1}, ..., u_m all have infinite period. Then
# G_{i+1} = <u_{i+1}, ..., u_m> is torsion-free nilpotent, and coordinate k
# of u_i^-e z u_i^e is z_k + h_k(e, z_{i+1}, ..., z_{k-1}), where h_k is an
# integer-valued polynomial (Hall; Leedham-Green & Soicher, "Symbolic
# collection using Deep Thought", 1998). In the binomial basis
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
# last z that b uses. Their values come from collecting in G_{i+1} with the
# deeper layers' polynomials, so the layers are derived bottom-up.


@dataclass(frozen=True)
class _ConjPoly:
    """The h_k of one layer, over a chain of binomial monomials.

    binoms: (variable, top degree) pairs; variable 0 is e, variable v is
        z_{i+v}.
    monos: one (parent, variable, degree) triple per monomial after the
        constant one: the monomial is its parent times binom(variable,
        degree).
    rows: (0-based coordinate k, ((monomial, coefficient), ...)) pairs.
    """

    binoms: Tuple[Tuple[int, int], ...]
    monos: Tuple[Tuple[int, int, int], ...]
    rows: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]


def _conj_layers(p: PcPresentation) -> tuple:
    """Per layer, its _ConjPoly, or None where collection rewrites."""
    layers = p._layers
    if layers is None:
        layers = _derive_layers(p)
        object.__setattr__(p, "_layers", layers)
    return layers


def _derive_layers(p: PcPresentation, slack: int = 0) -> tuple:
    """Derive every polynomial layer, deepest first.

    slack raises every degree bound, so more lattice points are used; a
    sound bound leaves the tables unchanged (the tests pin it that way).
    """
    m = p.m
    # the layers from the last finite period on have torsion-free suffixes
    first = max(
        [k for k, e in enumerate(p.periods, start=1) if e is not None],
        default=1)
    weight = [1] * (m + 1)
    for (j, i), tail in sorted(p.commutators):
        if i >= first:
            for l, _ in tail:
                weight[l] = max(weight[l], weight[i] + weight[j])
    layers: list = [None] * m
    for i in range(m, first - 1, -1):
        layers[i - 1] = _derive_layer(p, i, weight, layers, slack)
    return tuple(layers)


def _derive_layer(p: PcPresentation, i: int, weight, layers,
                  slack: int) -> _ConjPoly:
    m = p.m
    n = m - i
    if not any(p.commutator_tail(k, i) for k in range(i + 1, m + 1)):
        return _ConjPoly((), (), ())
    ws = weight[i:]  # ws[v]: weight of variable v
    top = [0] * (n + 1)  # top[v]: the largest bound beyond variable v
    for v in range(n - 1, -1, -1):
        top[v] = max(top[v + 1], ws[v + 1] + slack)
    step = dict(_conj_step(p, i))
    images: Dict[int, list] = {}

    def image(v: int, e: int) -> Element:
        # u_i^-e u_{i+v} u_i^e, one conjugation at a time
        if v not in images:
            images[v] = [generator(p, i + v)]
        seq = images[v]
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
                x = conj[(e,) + prev[1:]] if any(prev) else identity_element(p)
                conj[(e,) + z[1:]] = _multiply(p, x, image(last, e), layers)
        for v in range(last, n + 1):
            if zw + ws[v] + ws[0] <= top[v]:
                todo.append((z[:v] + (z[v] + 1,) + z[v + 1:], zw + ws[v], v))
    h = {b: tuple(y - z for y, z in zip(x[i:], b[1:]))
         for b, x in conj.items()}
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
                if d is not None:
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
    binoms: Dict[int, int] = {}
    for b in order[1:]:
        up, last = parent(b)
        monos.append((index[up], last, b[last]))
        binoms[last] = max(binoms.get(last, 0), b[last])
    terms = sorted((index[b], c) for b, c in coeffs.items() if any(c))
    rows = []
    for k in range(len(next(iter(coeffs.values())))):
        row = tuple((j, c[k]) for j, c in terms if c[k])
        if row:
            rows.append((i + k, row))
    return _ConjPoly(tuple(sorted(binoms.items())), tuple(monos), tuple(rows))


def _conj_poly(poly: _ConjPoly, e: int, t: list, i: int) -> None:
    """Replace the suffix t[i:] by its conjugate under u_i^e."""
    x = t[i - 1:]
    x[0] = e
    col: list = [None] * len(x)
    for v, d in poly.binoms:
        a = x[v]
        c = 1
        b = [1]
        for r in range(1, d + 1):
            c = c * (a - r + 1) // r
            b.append(c)
        col[v] = b
    vals = [1]
    for parent, v, d in poly.monos:
        vals.append(vals[parent] * col[v][d])
    for k, terms in poly.rows:
        s = 0
        for j, c in terms:
            s += c * vals[j]
        t[k] += s


# ---------------------------------------------------------------------------
# collection


def _collect(p: PcPresentation, t: list, letters: Iterable[Tuple[int, int]],
             layers) -> None:
    """Collect letters into t; layers is _conj_layers(p), or None to rewrite
    every letter."""
    m = p.m
    stack = list(letters)
    stack.reverse()
    while stack:
        i, e = stack.pop()
        if e == 0:
            continue
        if not (1 <= i <= m):
            raise ValueError(f"letter index {i} out of range")
        poly = layers[i - 1] if layers is not None else None
        if poly is not None:
            if poly.rows and any(t[i:]):
                _conj_poly(poly, e, t, i)
        else:
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
                if poly is not None:
                    # the power tail goes in front of the conjugated suffix
                    moved = [(k, t[k - 1]) for k in range(i + 1, m + 1)
                             if t[k - 1]]
                    t[i:] = [0] * (m - i)
                    stack.extend(reversed(moved))
                g = _power(p, element_of_word_coords(p, tail), q, layers)
                stack.extend(reversed(word_of(p, g)))


def _normal_form(p: PcPresentation, word, layers) -> Element:
    t = [0] * p.m
    _collect(p, t, tuple(word), layers)
    return tuple(t)


def _multiply(p: PcPresentation, x: Element, y: Element, layers) -> Element:
    t = list(x)
    _collect(p, t, word_of(p, y), layers)
    return tuple(t)


def _inverse(p: PcPresentation, x: Element, layers) -> Element:
    return _normal_form(p, _inverse_word(p, x), layers)


def _power(p: PcPresentation, x: Element, n: int, layers) -> Element:
    if n == 0:
        return identity_element(p)
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
    return _power(p, x, n, _conj_layers(p))


def commutator(p: PcPresentation, x: Element, y: Element) -> Element:
    word = (
        _inverse_word(p, x)
        + _inverse_word(p, y)
        + word_of(p, x)
        + word_of(p, y)
    )
    return normal_form(p, word)


def conjugate(p: PcPresentation, x: Element, g: Element) -> Element:
    """g^-1 x g."""
    word = _inverse_word(p, g) + word_of(p, x) + word_of(p, g)
    return normal_form(p, word)


# ---------------------------------------------------------------------------
# consistency


@dataclass(frozen=True)
class ConsistencyFailure:
    kind: str  # "triple" | "power-gen" | "gen-power" | "power-power"
    j: int
    i: int
    k: Optional[int]
    lhs: Element
    rhs: Element


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    failures: Tuple[ConsistencyFailure, ...]


def consistency_check(p: PcPresentation) -> ConsistencyReport:
    """Collect the standard overlap pairs both ways and compare.

    Checked overlaps: u_k(u_j u_i) vs (u_k u_j)u_i for k > j > i;
    u_j^{e_j} u_i against the power tail for finite e_j; u_j u_i^{e_i}
    likewise for finite e_i; and u_i^{e_i + 1} both ways.
    """
    failures = []
    m = p.m

    def nf(word):
        return _normal_form(p, word, None)

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(j + 1, m + 1):
                a = nf(((j, 1), (i, 1)))
                lhs = nf(((k, 1),) + word_of(p, a))
                b = nf(((k, 1), (j, 1)))
                rhs = nf(word_of(p, b) + ((i, 1),))
                if lhs != rhs:
                    failures.append(
                        ConsistencyFailure("triple", j, i, k, lhs, rhs)
                    )
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            ej = p.period(j)
            if ej is not None:
                lhs = nf(p.power_tail(j) + ((i, 1),))
                a = nf(((j, 1), (i, 1)))
                rhs = nf(((j, ej - 1),) + word_of(p, a))
                if lhs != rhs:
                    failures.append(
                        ConsistencyFailure("power-gen", j, i, None, lhs, rhs)
                    )
            ei = p.period(i)
            if ei is not None:
                lhs = nf(((j, 1),) + p.power_tail(i))
                a = nf(((j, 1), (i, 1)))
                rhs = nf(word_of(p, a) + ((i, ei - 1),))
                if lhs != rhs:
                    failures.append(
                        ConsistencyFailure("gen-power", j, i, None, lhs, rhs)
                    )
    for i in range(1, m + 1):
        ei = p.period(i)
        if ei is not None:
            lhs = nf(((i, 1),) + p.power_tail(i))
            rhs = nf(p.power_tail(i) + ((i, 1),))
            if lhs != rhs:
                failures.append(
                    ConsistencyFailure("power-power", i, i, None, lhs, rhs)
                )
    return ConsistencyReport(ok=not failures, failures=tuple(failures))
