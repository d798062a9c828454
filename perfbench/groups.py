"""Closed-form presentations, a matrix oracle and seeded basis changes.

Nothing here is downloaded or read from the package's fixtures: the
scaling family is written down from formulas, and the unitriangular
matrix model is an oracle that shares no code with the collector.

Conventions follow the package: [x, y] = x^-1 y^-1 x y, elements are
canonical coordinate tuples u_1^{t_1} ... u_m^{t_m}.
"""

import random
from typing import Dict, List, Tuple

from nilpc import presentation as pc
from nilpc import subgroups as sg

INF = None


# ---------------------------------------------------------------------------
# UT_n(Z) and H_n with their matrix models


def ut_letters(n: int) -> List[Tuple[int, int]]:
    """Elementary matrices e_ij (i < j), ordered by level j - i, then by i."""
    return [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]


def _pres_from_letters(name, letters, relations):
    """Presentation on `letters` with [u_b, u_a] given by `relations`."""
    pos = {x: k + 1 for k, x in enumerate(letters)}
    comms = sorted(((pos[b], pos[a]), ((pos[target], sign),))
                   for (b, a), (target, sign) in relations.items())
    return pc.PcPresentation(
        name=name, periods=(INF,) * len(letters), commutators=tuple(comms))


def unitriangular(n: int) -> pc.PcPresentation:
    """UT_n(Z): [e_ij, e_jk] = e_ik, all other pairs of letters commute."""
    letters = ut_letters(n)
    pos = {x: k for k, x in enumerate(letters)}
    rel = {}
    for (i, j) in letters:
        for (j2, k) in letters:
            if j2 != j:
                continue
            # [e_ij, e_jk] = e_ik, so [e_jk, e_ij] = e_ik^-1
            if pos[(i, j)] < pos[(j, k)]:
                rel[((j, k), (i, j))] = ((i, k), -1)
            else:
                rel[((i, j), (j, k))] = ((i, k), 1)
    return _pres_from_letters(f"UT_{n}", letters, rel)


def heisenberg_letters(n: int) -> List[Tuple[int, int]]:
    """x_i = e_{1,i+1}, y_i = e_{i+1,n+2}, z = e_{1,n+2} in UT_{n+2}."""
    return ([(1, i + 1) for i in range(1, n + 1)]
            + [(i + 1, n + 2) for i in range(1, n + 1)] + [(1, n + 2)])


def heisenberg(n: int) -> pc.PcPresentation:
    """H_n: x_1..x_n, y_1..y_n, z with [y_i, x_i] = z^-1, z central."""
    letters = heisenberg_letters(n)
    rel = {((i + 1, n + 2), (1, i + 1)): ((1, n + 2), -1)
           for i in range(1, n + 1)}
    return _pres_from_letters(f"H_{n}", letters, rel)


def zg_prime(q: int) -> pc.PcPresentation:
    """The ZG fixture with its period 5 replaced by the prime q."""
    return pc.PcPresentation(
        name=f"ZG_{q}",
        periods=(INF, INF, INF, q, INF, q, q, q, INF, INF),
        powers=((4, ((5, 1),)),),
        commutators=(
            ((2, 1), ((9, -1),)),
            ((3, 1), ((10, -1),)),
            ((3, 2), ((6, 1),)),
            ((4, 1), ((6, 1),)),
            ((4, 2), ((7, 1),)),
            ((4, 3), ((8, 1),)),
        ),
    )


class UnitModel:
    """Group law on a faithful model: subclasses give identity, mul, inv, of."""

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        out = self.identity()
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def comm(self, a, b):
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def conj(self, a, g):
        return self.mul(self.mul(self.inv(g), a), g)


Matrix = Tuple[Tuple[int, ...], ...]


class MatrixModel(UnitModel):
    """Faithful integer matrix image of a presentation built on letters e_ij.

    Each generator u_k is the elementary matrix I + E_{letters[k]} in UT_size,
    so an element maps to the ordered product of powers of those.
    """

    def __init__(self, letters: List[Tuple[int, int]], size: int):
        self.letters = letters
        self.size = size

    def identity(self) -> Matrix:
        s = self.size
        return tuple(tuple(int(r == c) for c in range(s)) for r in range(s))

    def mul(self, a: Matrix, b: Matrix) -> Matrix:
        s = self.size
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(r, c + 1))
                  for c in range(s))
            for r in range(s))

    def inv(self, a: Matrix) -> Matrix:
        # (I + N)^-1 = I - N + N^2 - ... for strictly upper triangular N
        s = self.size
        eye = self.identity()
        nil = tuple(tuple(-(a[r][c] - eye[r][c]) for c in range(s))
                    for r in range(s))
        out, term = eye, eye
        for _ in range(s - 1):
            term = self.mul(term, nil)
            out = tuple(tuple(x + y for x, y in zip(ro, rt))
                        for ro, rt in zip(out, term))
        return out

    def of(self, x) -> Matrix:
        out = self.identity()
        for (i, j), t in zip(self.letters, x):
            if t:
                m = [list(r) for r in self.identity()]
                m[i - 1][j - 1] = t
                out = self.mul(out, tuple(tuple(r) for r in m))
        return out


def ut_model(n: int) -> MatrixModel:
    return MatrixModel(ut_letters(n), n)


def heisenberg_model(n: int) -> MatrixModel:
    return MatrixModel(heisenberg_letters(n), n + 2)


class MagnusModel(UnitModel):
    """Truncated Magnus embedding of F23, the free class-3 group on u1, u2.

    u1 -> 1 + X and u2 -> 1 + Y in Z<<X, Y>> modulo words of length 4; the
    commutator generators u3 = [u2, u1], u4 = [u3, u1], u5 = [u3, u2] are
    computed in the ring. By Magnus' theorem the kernel of a free group in
    this ring is its fourth lower central term, so the map is faithful on
    F23. An element is a dict from words over {0, 1} to coefficients.
    """

    DEPTH = 3

    def __init__(self):
        x, y = {(): 1, (0,): 1}, {(): 1, (1,): 1}
        u3 = self.comm(y, x)
        self.gens = (x, y, u3, self.comm(u3, x), self.comm(u3, y))

    def identity(self):
        return {(): 1}

    def mul(self, a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                if len(wa) + len(wb) <= self.DEPTH:
                    w = wa + wb
                    out[w] = out.get(w, 0) + ca * cb
        return {w: c for w, c in out.items() if c}

    def inv(self, a):
        # (1 + N)^-1 = 1 - N + N^2 - N^3 with N of positive degree
        neg = {w: -c for w, c in a.items() if w}
        out, term = self.identity(), self.identity()
        for _ in range(self.DEPTH):
            term = self.mul(term, neg)
            for w, c in term.items():
                out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c}

    def of(self, x):
        out = self.identity()
        for g, t in zip(self.gens, x):
            if t:
                out = self.mul(out, self.pow(g, t))
        return out


# ---------------------------------------------------------------------------
# seeded elements and basis changes


def rebase(p: pc.PcPresentation, rng: random.Random):
    """Rebase p on u_i * (random word above i): same group, new basis.

    Every coordinate above i is nonzero (+-1, or a nonzero residue below a
    finite period), so the new tails are dense and the cost of working with
    them varies little with the seed.

    Returns (q, forward, backward): q is the rebased presentation, forward
    gives the image in p of each generator of q, backward the image in q of
    each generator of p, both as canonical coordinate tuples.
    """
    rows = []
    for i in range(1, p.m + 1):
        coords = [0] * p.m
        coords[i - 1] = 1
        for k in range(i + 1, p.m + 1):
            per = p.period(k)
            coords[k - 1] = (rng.randrange(1, per) if per is not None
                             else rng.choice((-1, 1)))
        rows.append(tuple(coords))
    sub = sg.Subgroup(p, tuple(rows))

    def tail_of(w, above):
        coeffs = sub.coefficients_of(w)
        if coeffs is None or any(coeffs[:above]):
            raise ValueError(f"{p.name}: rebased tail is not above {above}")
        return tuple((k + 1, v) for k, v in enumerate(coeffs) if v)

    powers = []
    for i, per in enumerate(p.periods, start=1):
        if per is not None:
            entries = tail_of(pc.power(p, rows[i - 1], per), i)
            if entries:
                powers.append((i, entries))
    commutators = []
    for j in range(2, p.m + 1):
        for i in range(1, j):
            w = pc.commutator(p, rows[j - 1], rows[i - 1])
            if any(w):
                commutators.append(((j, i), tail_of(w, j)))
    q = pc.PcPresentation(
        name=f"{p.name} rebased", periods=p.periods,
        powers=tuple(powers), commutators=tuple(commutators))
    backward = tuple(tuple(sub.coefficients_of(pc.generator(p, i)))
                     for i in range(1, p.m + 1))
    return q, tuple(rows), backward


def family() -> Dict[str, pc.PcPresentation]:
    """The scaling family, each presentation seen once per pass."""
    return {
        "UT_4": unitriangular(4), "UT_5": unitriangular(5),
        "H_3": heisenberg(3), "H_4": heisenberg(4),
        "ZG_3": zg_prime(3), "ZG_7": zg_prime(7),
    }
