"""Test-suite copies of the shipped group presentations.

Defined independently of the package's fixture files so that the loader can
be cross-checked against them. Tail words are canonical: entries are
(generator index, exponent), indices ascending.

Generator dictionaries:
  HEIS  u1,u2 free, u3 = [u1,u2] central (discrete Heisenberg).
  ZG    u1..u10 = b, c, d, a, f, [a,b], [a,c], [a,d], [b,c], [b,d]
  ZH    same underlying letters, [u3,u2] changed to the square
  ZK    same letters, a^5 changed to f^2
  NR    u1..u6 = a, b, c, [a,b], [a,c], [b,c] with the last two of order 3
  F23   free 2-generator class-3: u1, u2, u3=[u2,u1], u4=[u3,u1], u5=[u3,u2]
  C4    u1..u6 free, class 4: [u2,u1] = u4, [u3,u2] = u5 u6, [u4,u1] = u6^2,
        [u4,u2] = u5, [u5,u2] = u6

Closed-form families for the collection tests:
  UT_n  unitriangular integer matrices on the letters e_ij (i < j)
  UT_n(Z[i])  the same over Z[i], on the letters e_ij(1), e_ij(i)
  H_n   x_1..x_n, y_1..y_n, z = [x_i, y_i] central, inside UT_{n+2}
  ZG_q  ZG with its period 5 replaced by the prime q

wide_adapted() is a hand-built adapted presentation with n = 6 and e = 7,
whose deformation survey would list 6! * phi(7)^6 (about 3.4e7) classes.

graded_presentation(rng) draws a presentation graded by weights, which
reaches class 4 and 5; graded_draws() keeps a fixed number of them.
"""

import functools
import random

from nilpc import presentation as pc
from nilpc import subgroups as sg
from nilpc.deformation import AdaptedPresentation
from nilpc.presentation import PcPresentation

INF = None


def heis():
    return PcPresentation(
        name="HEIS",
        periods=(INF, INF, INF),
        powers=(),
        commutators=(((2, 1), ((3, -1),)),),
    )


def mutated_heis():
    # period of u1 forced to 2 with a trivial power tail: inconsistent
    return PcPresentation(
        name="HEIS-mutated",
        periods=(2, INF, INF),
        powers=(),
        commutators=(((2, 1), ((3, -1),)),),
    )


def mutated_ut5():
    """UT_5 with [e35, e13] = e14 in place of e15^-1 (u5 = e13, u7 = e35,
    u8 = e14). G_5 stays consistent, but conjugation by e45 (u4) fixes e13
    and e35 and moves e14 to e14 e15, so it breaks the new relation: layer
    4 is the first that fails, and the rewriting reference also finds
    failing overlaps at layers 3 and 1."""
    p = unitriangular(5)
    comms = dict(p.commutators)
    comms[(7, 5)] = ((8, 1),)
    return PcPresentation(name="UT_5 mutated", periods=p.periods,
                          powers=p.powers,
                          commutators=tuple(sorted(comms.items())))


def zg(q=5):
    return PcPresentation(
        name="ZG" if q == 5 else f"ZG_{q}",
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


def zh():
    return PcPresentation(
        name="ZH",
        periods=(INF, INF, INF, 5, INF, 5, 5, 5, INF, INF),
        powers=((4, ((5, 1),)),),
        commutators=(
            ((2, 1), ((9, -1),)),
            ((3, 1), ((10, -1),)),
            ((3, 2), ((6, 2),)),
            ((4, 1), ((6, 1),)),
            ((4, 2), ((7, 1),)),
            ((4, 3), ((8, 1),)),
        ),
    )


def zk():
    return PcPresentation(
        name="ZK",
        periods=(INF, INF, INF, 5, INF, 5, 5, 5, INF, INF),
        powers=((4, ((5, 2),)),),
        commutators=(
            ((2, 1), ((9, -1),)),
            ((3, 1), ((10, -1),)),
            ((3, 2), ((6, 1),)),
            ((4, 1), ((6, 1),)),
            ((4, 2), ((7, 1),)),
            ((4, 3), ((8, 1),)),
        ),
    )


def nr():
    return PcPresentation(
        name="NR",
        periods=(INF, INF, INF, INF, 3, 3),
        powers=(),
        commutators=(
            # inverse tails on the order-3 generators are stored canonically
            ((2, 1), ((4, -1),)),
            ((3, 1), ((5, 2),)),
            ((3, 2), ((6, 2),)),
        ),
    )


def f23():
    return PcPresentation(
        name="F23",
        periods=(INF, INF, INF, INF, INF),
        powers=(),
        commutators=(
            ((2, 1), ((3, 1),)),
            ((3, 1), ((4, 1),)),
            ((3, 2), ((5, 1),)),
        ),
    )


def heis_index2():
    # HEIS on the basis x, x^2, y, z: x has period 2 over <x^2, y, z> and
    # acts on y, so its power tail meets a torsion-free suffix
    return PcPresentation(
        name="HEIS-index2",
        periods=(2, INF, INF, INF),
        powers=((1, ((2, 1),)),),
        commutators=(((3, 1), ((4, -1),)), ((3, 2), ((4, -2),))),
    )


def c4():
    # rank 6, class 4, all periods infinite: the smallest group seen whose
    # refined left chain has a gap, W_3 G'/W_4 G', that is no subsection of
    # its block U_3/U_4; series --kind refined refuses it with a message
    # that names the gap (ROADMAP R)
    return PcPresentation(
        name="C4",
        periods=(INF,) * 6,
        powers=(),
        commutators=(
            ((2, 1), ((4, 1),)),
            ((3, 2), ((5, 1), (6, 1))),
            ((4, 1), ((6, 2),)),
            ((4, 2), ((5, 1),)),
            ((5, 2), ((6, 1),)),
        ),
    )


ALL_CONSISTENT = [heis, zg, zh, zk, nr, f23]


# -- closed-form families ------------------------------------------------------


def ut_letters(n):
    """Elementary matrices e_ij of UT_n, by level j - i, then by i."""
    return [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]


def heisenberg_letters(n):
    """x_i = e_{1,i+1}, y_i = e_{i+1,n+2}, z = e_{1,n+2} in UT_{n+2}."""
    return ([(1, i + 1) for i in range(1, n + 1)]
            + [(i + 1, n + 2) for i in range(1, n + 1)] + [(1, n + 2)])


def _matrix_letters(name, letters, units=1):
    """[x, y] = x^-1 y^-1 x y of elementary matrices over Z (units = 1) or
    over Z[i] (units = 2: the letters e_ij(1), e_ij(i) for each e_ij):
    [e_ij(a), e_jk(b)] = e_ik(ab), and letters that share no index
    commute."""
    gens = [(x, r) for x in letters for r in range(units)]
    pos = {g: k for k, g in enumerate(gens, start=1)}
    comms = []
    for ((i, j), r) in gens:
        for ((j2, k), s) in gens:
            if j2 == j and ((i, k), 0) in pos:
                a, b = pos[((i, j), r)], pos[((j, k), s)]
                # i^r i^s = +-i^((r + s) mod 2)
                c, sign = pos[((i, k), (r + s) % 2)], (-1) ** ((r + s) // 2)
                if a < b:
                    comms.append(((b, a), ((c, -sign),)))
                else:
                    comms.append(((a, b), ((c, sign),)))
    return PcPresentation(name=name, periods=(INF,) * len(gens),
                          commutators=tuple(sorted(comms)))


def unitriangular(n):
    return _matrix_letters(f"UT_{n}", ut_letters(n))


def heisenberg(n):
    return _matrix_letters(f"H_{n}", heisenberg_letters(n))


def ut_gaussian(n):
    """UT_n over Z[i], on two letters per e_ij: its base ring has rank 2."""
    return _matrix_letters(f"UT_{n}(Z[i])", ut_letters(n), units=2)


GRADED_WEIGHTS = ((1, 1, 1, 2, 2, 3), (1, 1, 2, 2, 3, 3),
                  (1, 1, 1, 2, 2, 2, 3), (1, 1, 2, 3, 3), (1, 1, 1, 2, 3, 3),
                  (1, 1, 2, 2, 3, 4), (1, 1, 2, 3, 4), (1, 1, 1, 2, 3, 4),
                  (1, 1, 2, 3, 4, 5))


def graded_presentation(rng):
    """Generators u_1..u_m of weights w from GRADED_WEIGHTS, no power
    relations, and in about 45% of draws periods from {2, 3, 4, 9}.  The
    tail of [u_j, u_i] holds each u_k with w_k >= w_i + w_j with
    probability 1/2, at exponent +-1 or 2 (a nonzero residue when u_k has
    a period), so the group's class is at most the largest weight."""
    w = rng.choice(GRADED_WEIGHTS)
    m = len(w)
    finite = rng.random() < 0.45
    periods = tuple(rng.choice((INF, 2, 3, 4, 9)) if finite else INF
                    for _ in range(m))
    comms = []
    for j in range(2, m + 1):
        for i in range(1, j):
            tail = tuple(
                (k, rng.randrange(1, per) if per else rng.choice((-1, 1, 2)))
                for k, per in enumerate(periods, start=1)
                if w[k - 1] >= w[i - 1] + w[j - 1] and rng.random() < 0.5)
            if tail:
                comms.append(((j, i), tail))
    return PcPresentation(name="graded", periods=periods,
                          commutators=tuple(comms))


@functools.lru_cache(maxsize=None)
def graded_draws(count=30, seed=5):
    """The first `count` consistent draws of graded_presentation on
    Random(seed) whose class is at least 4, chosen by class alone."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = graded_presentation(rng)
        if (pc.consistency_check(p).ok
                and len(sg.lower_central_series(p)) > 4):
            out.append(p)
    return tuple(out)


def random_basis_change(p, rng):
    """Rebase p on u_i * (random word above i); same group, new basis."""
    return rebase(p, random_basis(p, rng))


def random_basis(p, rng):
    """Rows u_i * (random word above i), a basis of p."""
    rows = []
    for i in range(1, p.m + 1):
        coords = [0] * p.m
        coords[i - 1] = 1
        for k in range(i + 1, p.m + 1):
            per = p.period(k)
            coords[k - 1] = (
                rng.randrange(per) if per is not None else rng.randint(-2, 2))
        rows.append(tuple(coords))
    return tuple(rows)


def rebase(p, rows):
    """The presentation of p on the basis rows, checked consistent."""
    sub = sg.Subgroup(p, rows)

    def tail_of(w, above):
        coeffs = sub.coefficients_of(w)
        assert coeffs is not None
        assert all(c == 0 for c in coeffs[:above])
        return tuple((k + 1, v) for k, v in enumerate(coeffs) if v)

    powers = []
    for i, per in enumerate(p.periods, start=1):
        if per is None:
            continue
        entries = tail_of(pc.power(p, rows[i - 1], per), i)
        if entries:
            powers.append((i, entries))
    commutators = []
    for j in range(2, p.m + 1):
        for i in range(1, j):
            w = pc.commutator(p, rows[j - 1], rows[i - 1])
            if w == pc.identity_element(p):
                continue
            commutators.append(((j, i), tail_of(w, j)))
    q = pc.PcPresentation(
        name=f"{p.name} rebased", periods=p.periods,
        powers=tuple(powers), commutators=tuple(commutators))
    assert pc.consistency_check(q).ok
    return q


def wide_adapted():
    """u1..u6 of period 7 with u_i^7 = u_{i+6}, u7..u12 free; declared with
    n = p = 6 and e = 7 (its true section exponent is 7^6: only n and the
    periods size the survey, 720 * 6^6 classes)."""
    pres = PcPresentation(
        name="WIDE", periods=(7,) * 6 + (INF,) * 6,
        powers=tuple((i, ((i + 6, 1),)) for i in range(1, 7)))
    return AdaptedPresentation(pres=pres, i0=0, i1=6, i2=12, n=6, p=6, e=7)
