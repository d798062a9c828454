"""Benchmark of the nilpc command line and of its group arithmetic.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reports|arith|family --seed N \\
        --seconds S --trace 0|1

Every workload is a closed loop with one client: the next operation starts
when the previous one has ended, one at a time.

  reports  Every report command on every shipped fixture, plus
           `check HEIS_MUTATED` and `primes --zmod 30|60|64`. This is the
           traffic users run: subgroup work repeated at small exponents.
  arith    A round-robin of multiply, inverse, power, commutator and
           conjugate in F23, ZG, UT_5 and H_4, in one process with warm
           caches, on seeded elements at exponent span SPAN (every infinite
           coordinate is +-SPAN) and power exponents 0 < |n| <= SPAN. Only
           collection works here, and its cost grows with the exponents.
  family   Presentations built from closed formulas (UT_n, H_n, ZG_q), and
           seeded basis changes certified by `hom` and `inverse-pair`
           against their originals. Rank and class scale, tails are dense,
           and nothing is reused across presentations.

A CLI job is `cli.main(argv)` in a child forked from a parent that has
imported nilpc and computed nothing, so its caches start cold, as they do
for a command-line user. A job is killed after JOB_TIMEOUT seconds and
counted as failed.

A run sets up SETUP_REPS times, each in a fresh interpreter that imports
nilpc, spread over the run, and reports the median as setup_s (see
SetupTimer). It runs the whole number of passes over the workload that
comes nearest to --seconds, as a pass took on the seed commit (PASS_S), so
every run does the same work, and checks every output outside the timed
region: against the golden exit codes and stdout digests in golden.json,
against matrix and Magnus models of UT_5, H_4 and F23, and by group
identities on ZG.

An operation's time is the time inside cli.main for a CLI job and the time
of the call for an arith operation. Every time, set-up's too, is scaled to
the host's speed at that moment, read from a reference loop timed just
before it in the same process (see hostspeed.py); the line before the
result gives the raw and scaled totals. A job's latency is the median of
its scaled times over the passes, and ops_per_s is the operations that
passed their checks over the scaled time of all operations. op_p50_ms and
op_tail_ms are smoothed over a half and a fifth of the samples (see p50 and
tail), because a CLI run has only a few dozen jobs, each timed once or
twice. op_tail_ms sits at the highest percentile with ten samples beyond
it; that percentile and the sample count are printed on the line before the
result. ok_frac is 1 - failed / attempted.

With --trace 1 every job runs once untraced and once traced (see spans.py),
and the run reports per-layer metrics per pass instead; for arith a pass is
one round of the round-robin. trace.overhead_frac compares the two.

The last line of standard output is the JSON result.
"""

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hostspeed import NOMINAL_S, HostSpeed, time_reference
from jobs import run_cli
from spans import DISTINCT, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "nilpc" / "fixtures"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

SPAN = 50
SETUP_REPS = 9
JOB_TIMEOUT = 60.0
HARD_LIMIT = 160.0  # seconds after start: no job starts later than this

FIXTURE_NAMES = ("HEIS", "NR", "F23", "ZG", "ZH", "ZK")
REPORT_COMMANDS = (
    ("check",), ("analyze",), ("series", "--kind", "lower"),
    ("series", "--kind", "upper"), ("series", "--kind", "refined"),
    ("scalars",), ("scalars", "--series", "upper"), ("adapt",),
    ("enumerate",), ("invariants",))
ISOMORPHIC = ("ZH", "ZK")  # to ZG: their invariants print the same bytes
ZMOD = (30, 60, 64)
FAMILY = ("UT_4", "UT_5", "H_3", "H_4", "ZG_3", "ZG_7")  # groups.family()
FAMILY_COMMANDS = (("check",), ("invariants",), ("series", "--kind", "refined"))
REBASED = ("HEIS", "NR", "F23", "UT_4", "H_3")
# Seeded basis changes of each; pass k runs the (k mod REBASINGS)-th, so a
# two-pass family run averages two draws. With one, the draw alone moved
# op_p50_ms by a tenth from seed to seed.
REBASINGS = 2
# `hom --verify` spot-checks 200 products at exponent span 50. On the
# rebased NR that one job took 10 s, 40% of a pass, and on F23, UT_4 and
# H_3 7-23 s, so only HEIS is certified with it; the others, without.
VERIFIED = ("HEIS",)
ARITH_GROUPS = ("F23", "ZG", "UT_5", "H_4")
ARITH_OPS = ("multiply", "inverse", "power", "commutator", "conjugate")
# A pass's scaled time on the seed commit; an arith pass is one round of the
# round-robin. A 20 s arith run is 12 rounds, two whole blocks of STRATA
# power exponents (see power_exponents).
PASS_S = {"reports": 35.0, "family": 12.0, "arith": 1.65}
STRATA = 6


# ---------------------------------------------------------------------------
# jobs


@dataclass(frozen=True)
class Job:
    id: str
    argvs: tuple  # one argv per input variant, all with the same output

    def argv(self, k: int) -> tuple:
        """The argv of pass k."""
        return self.argvs[k % len(self.argvs)]


def _fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def _work(name: str) -> str:
    return str(WORK / f"{name}.json")


def reports_jobs():
    jobs = []
    for name in FIXTURE_NAMES:
        for cmd in REPORT_COMMANDS:
            jobs.append(Job(" ".join(cmd + (name,)),
                            ((cmd[0], _fixture(name)) + cmd[1:],)))
    jobs.append(Job("check HEIS_MUTATED",
                    (("check", _fixture("HEIS_MUTATED")),)))
    for n in ZMOD:
        jobs.append(Job(f"primes --zmod {n}", (("primes", "--zmod", str(n)),)))
    return jobs


def family_jobs():
    jobs = []
    for name in FAMILY:
        for cmd in FAMILY_COMMANDS:
            jobs.append(Job(" ".join(cmd + (name,)),
                            ((cmd[0], _work(name)) + cmd[1:],)))
    for name in REBASED:
        orig = _fixture(name) if name in FIXTURE_NAMES else _work(name)
        inv, hom, pair = [], [], []
        for i in range(REBASINGS):
            reb, fwd, bwd = (_work(f"{name}_{k}{i}")
                             for k in ("rebased", "fwd", "bwd"))
            inv.append(("invariants", reb))
            hom.append(("hom", reb, orig, "--map", fwd)
                       + (("--verify",) if name in VERIFIED else ()))
            pair.append(("inverse-pair", reb, orig, "--forward", fwd,
                         "--backward", bwd))
        jobs.append(Job(f"invariants {name} rebased", tuple(inv)))
        jobs.append(Job(f"hom {name} rebased", tuple(hom)))
        jobs.append(Job(f"inverse-pair {name} rebased", tuple(pair)))
    return jobs


def job_ok(job: Job, r, golden) -> bool:
    """Exit code and stdout digest as recorded in golden.json, which
    record_golden.py writes only after checking the relations between jobs
    (isomorphic invariants, certified maps)."""
    return r.ok and golden.get(job.id) == [r.code, r.sha256]


# ---------------------------------------------------------------------------
# set-up


def _checked(p):
    from nilpc import presentation as pc
    if not pc.consistency_check(p).ok:
        raise SystemExit(f"error: generated presentation {p.name} "
                         "is inconsistent")
    return p


def setup_reports(seed):
    from nilpc import files
    for name in FIXTURE_NAMES:
        files.load(_fixture(name))  # parses and checks consistency
    files.load(_fixture("HEIS_MUTATED"), check=False)


def setup_family(seed):
    """Writes the family, the rebased presentations and their maps."""
    import groups
    from nilpc import files, presentation as pc
    WORK.mkdir(exist_ok=True)
    made = groups.family()
    for name, p in made.items():
        files.save(_checked(p), _work(name))
    rng = random.Random(seed)
    for name in REBASED:
        p = made[name] if name in made else files.load(_fixture(name))
        for i in range(REBASINGS):
            q, fwd, bwd = groups.rebase(p, rng)
            files.save(_checked(q), _work(f"{name}_rebased{i}"))
            for key, images, target in (("fwd", fwd, p), ("bwd", bwd, q)):
                words = [pc.word_of(target, x) for x in images]
                Path(_work(f"{name}_{key}{i}")).write_text(
                    files.emit_hom_map(words))


def setup_arith(seed):
    import groups
    from nilpc import files
    pres = {"F23": files.load(_fixture("F23")),
            "ZG": files.load(_fixture("ZG")),
            "UT_5": _checked(groups.unitriangular(5)),
            "H_4": _checked(groups.heisenberg(4))}
    models = {"F23": groups.MagnusModel(), "ZG": None,
              "UT_5": groups.ut_model(5), "H_4": groups.heisenberg_model(4)}
    for p in pres.values():  # fills the per-presentation caches
        x = (1,) * p.m
        y = tuple(-1 if e is None else 1 for e in p.periods)
        for op, args in (("multiply", (x, y)), ("inverse", (x,)),
                         ("power", (y, -2)), ("commutator", (x, y)),
                         ("conjugate", (y, x))):
            arith_op(p, op, args)
    return pres, models


SETUPS = {"reports": setup_reports, "family": setup_family,
          "arith": setup_arith}
JOBS = {"reports": reports_jobs, "family": family_jobs}


# One set-up rep: a fresh interpreter that imports nilpc and sets up from
# nothing. argv: workload, seed, then the directories to put on sys.path.
SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[3:]; import run; "
               "print(repr(run.setup_seconds(sys.argv[1], int(sys.argv[2]))))")


def setup_seconds(workload, seed) -> float:
    """The set-up's time, scaled to host speed by reference loops timed
    around it (see hostspeed.py)."""
    refs = [time_reference(), time_reference()]
    t0 = time.perf_counter()
    SETUPS[workload](seed)
    dt = time.perf_counter() - t0
    refs.append(time_reference())
    return dt * NOMINAL_S / statistics.median(refs)


class SetupTimer:
    """Set-up reps, each in a fresh interpreter, spread evenly over a run.

    A rep is timed inside its child, from before nilpc is imported to the
    end of the set-up. The first rep runs before the measurement (it writes
    the family's files); the others run between operations, one each time
    another 1/(reps - 1) of --seconds has gone by, so their median sees the
    machine as the operations do. setup_s is that median.
    """

    def __init__(self, workload, seed, seconds, reps=SETUP_REPS):
        self.argv = [sys.executable, "-c", SETUP_CHILD, workload, str(seed),
                     str(HERE), str(SRC)]
        self.reps = reps
        self.every = seconds / max(1, reps - 1)
        self.times = []
        self.spent = 0.0  # wall time of the reps, seen from this process
        self.t0 = time.perf_counter()

    def rep(self):
        t = time.perf_counter()
        r = subprocess.run(self.argv, capture_output=True, text=True,
                           timeout=JOB_TIMEOUT)
        if r.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{r.stderr}")
        self.times.append(float(r.stdout.split()[-1]))
        self.spent += time.perf_counter() - t

    def tick(self):
        """Between two operations: a rep if one is due."""
        due = len(self.times) * self.every
        if (len(self.times) < self.reps
                and time.perf_counter() - self.t0 - self.spent >= due):
            self.rep()

    def median(self) -> float:
        while len(self.times) < self.reps:
            self.rep()
        return statistics.median(self.times)


def prepare(workload, seed, timer: SetupTimer):
    """The first set-up rep, then this process's state.

    For reports and family this process only imports nilpc: it computes
    nothing, so the CLI jobs forked from it start cold. For arith, whose
    operations run here with warm caches, it sets up once more, untimed.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    timer.rep()
    if workload == "arith":
        return setup_arith(seed)
    import nilpc.cli  # noqa: F401  every CLI job is forked from here
    return JOBS[workload]()


# ---------------------------------------------------------------------------
# measurement


class Totals:
    """Per-layer sums over the traced jobs of a run."""

    def __init__(self):
        self.self_s, self.incl_s, self.fn_incl = Counter(), Counter(), Counter()
        self.calls, self.nested, self.distinct = Counter(), Counter(), Counter()
        self.max_cells = self.max_bits = 0

    def add(self, summary, counters):
        for key in ("self_s", "incl_s", "fn_incl", "calls", "nested"):
            getattr(self, key).update(summary[key])
        self.distinct.update(counters["distinct"])
        self.max_cells = max(self.max_cells, counters["max_cells"])
        self.max_bits = max(self.max_bits, counters["max_bits"])


@dataclass
class Outcome:
    latencies: list  # one value per distinct operation, in scaled seconds
    attempted: int
    failed: int
    wrong: int  # operations whose output failed a check
    wall_s: float  # scaled time of all operations
    passes: int
    raw_s: float = 0.0  # the same, unscaled
    reference_s: float = 0.0  # median reference-loop time of the run
    child_rss_kb: int = 0
    totals: Totals = None
    plain_s: float = 0.0  # untraced and traced time of the same work
    traced_s: float = 0.0


def run_passes(workload, seconds) -> int:
    """Passes of a run: the whole number nearest to --seconds over
    PASS_S, at least one. It does not depend on the run's own timing, so
    every run of a workload does the same work. A family run, whose pass
    takes about two thirds of the time a second pass would need to fit,
    would otherwise be one pass or two by chance, and an arith run would
    end part way through a block of power exponents."""
    return max(1, round(seconds / PASS_S[workload]))


def scale_all(speed: HostSpeed, timed, out: Outcome) -> list:
    """Each (moment, seconds) of the run scaled to host speed (see
    hostspeed.py); sets the run's totals."""
    values = [dt * speed.scale(t) for t, dt in timed]
    out.raw_s, out.wall_s = sum(dt for _, dt in timed), sum(values)
    out.reference_s = speed.reference_s()
    return values


def measure_cli(jobs, golden, passes, traced, rng, t_start,
                timer) -> Outcome:
    samples = {job.id: [] for job in jobs}
    out = Outcome([], 0, 0, 0, 0.0, 0, totals=Totals() if traced else None)
    speed, timed, ids = HostSpeed(), [], []
    while out.passes < passes:
        order = list(jobs)
        rng.shuffle(order)
        for job in order:
            timer.tick()
            out.attempted += 1
            left = HARD_LIMIT - (time.perf_counter() - t_start)
            if left < 1:
                out.failed += 1
                continue
            argv = job.argv(out.passes)
            t0 = time.perf_counter()
            r = run_cli(argv, timeout=min(JOB_TIMEOUT, left))
            if r.ok:
                speed.add(t0, r.ref_s)
            timed.append((t0, r.main_s))  # wall time, if the child was killed
            ids.append(job.id)
            out.child_rss_kb = max(out.child_rss_kb, r.maxrss_kb)
            good = job_ok(job, r, golden)
            if r.ok and not good:
                out.wrong += 1
            if traced and good:
                left = HARD_LIMIT - (time.perf_counter() - t_start)
                t = run_cli(argv, timeout=max(1.0, min(JOB_TIMEOUT, left)),
                            traced=True, job=out.attempted)
                good = t.ok and (t.code, t.stdout) == (r.code, r.stdout)
                if t.ok and not good:
                    out.wrong += 1
                if good:
                    out.totals.add(t.summary, t.counters)
                    out.plain_s += r.main_s
                    out.traced_s += t.main_s
            if not good:
                out.failed += 1
        out.passes += 1
        if time.perf_counter() - t_start >= HARD_LIMIT:
            break
    for job_id, value in zip(ids, scale_all(speed, timed, out)):
        samples[job_id].append(value)
    out.latencies = [statistics.median(v) for v in samples.values() if v]
    return out


def span_element(p, rng):
    """Every infinite coordinate is +-SPAN, so operand costs vary little."""
    return tuple(rng.randrange(e) if e is not None
                 else rng.choice((-SPAN, SPAN)) for e in p.periods)


def power_exponents(rng):
    """Exponents 0 < |n| <= SPAN, stratified: each block of STRATA draws
    takes one value from each tenth of the range, in a seeded order."""
    while True:
        strata = list(range(STRATA))
        rng.shuffle(strata)
        for s in strata:
            n = rng.randint(s * SPAN // STRATA + 1, (s + 1) * SPAN // STRATA)
            yield rng.choice((-n, n))


def arith_args(p, op, rng, exponents):
    x = span_element(p, rng)
    if op == "inverse":
        return (x,)
    if op == "power":
        return (x, next(exponents))
    return (x, span_element(p, rng))


def arith_op(p, op, args):
    from nilpc import presentation as pc
    return getattr(pc, op)(p, *args)


def arith_ok(p, model, op, args, r, rng) -> bool:
    """Check one result against a faithful model, or by identities on ZG."""
    from nilpc import presentation as pc
    if not pc.is_canonical(p, r):
        return False
    if model is not None:
        x = model.of(args[0])
        want = {
            "multiply": lambda: model.mul(x, model.of(args[1])),
            "inverse": lambda: model.inv(x),
            "power": lambda: model.pow(x, args[1]),
            "commutator": lambda: model.comm(x, model.of(args[1])),
            "conjugate": lambda: model.conj(x, model.of(args[1])),
        }[op]()
        return model.of(r) == want
    mul, x = pc.multiply, args[0]
    if op == "multiply":  # associativity against a fresh third element
        y, z = args[1], span_element(p, rng)
        return mul(p, r, z) == mul(p, x, mul(p, y, z))
    if op == "inverse":
        return mul(p, x, r) == pc.identity_element(p)
    if op == "power":  # x^n = x^a x^(n-a) along other powering chains
        a = args[1] // 2
        return mul(p, pc.power(p, x, a), pc.power(p, x, args[1] - a)) == r
    if op == "commutator":  # y x [x, y] = x y
        y = args[1]
        return mul(p, mul(p, y, x), r) == mul(p, x, y)
    g = args[1]  # conjugate: g (g^-1 x g) = x g
    return mul(p, g, r) == mul(p, x, g)


def measure_arith(state, passes, traced, rng, t_start,
                  timer) -> Outcome:
    pres, models = state
    out = Outcome([], 0, 0, 0, 0.0, 0, totals=Totals() if traced else None)
    tracer = Tracer() if traced else None
    exponents = {name: power_exponents(rng) for name in ARITH_GROUPS}
    done = []
    speed, timed = HostSpeed(), []
    while out.passes < passes:
        for name in ARITH_GROUPS:
            p = pres[name]
            for op in ARITH_OPS:
                timer.tick()
                args = arith_args(p, op, rng, exponents[name])
                out.attempted += 1
                speed.sample()
                t0 = time.perf_counter()
                try:
                    r = arith_op(p, op, args)
                except Exception:
                    r = None
                dt = time.perf_counter() - t0
                timed.append((t0, dt))
                if traced and r is not None:
                    tracer.job = out.attempted
                    tracer.install()
                    t0 = time.perf_counter()
                    try:
                        r2 = arith_op(p, op, args)
                    except Exception:
                        r2 = None
                    out.traced_s += time.perf_counter() - t0
                    tracer.uninstall()
                    out.plain_s += dt
                    if r2 != r:
                        r = None
                done.append((name, op, args, r))
        out.passes += 1
        if time.perf_counter() - t_start >= HARD_LIMIT:
            break
    out.latencies = scale_all(speed, timed, out)
    check_rng = random.Random(rng.random())
    for name, op, args, r in done:
        if r is None or not arith_ok(pres[name], models[name], op, args, r,
                                     check_rng):
            out.failed += 1
            out.wrong += 1
    if traced:
        out.totals.add(summarize(tracer.spans), tracer.counters())
    return out


# ---------------------------------------------------------------------------
# metrics


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p50(values):
    """Median latency, smoothed: the geometric mean of the middle half."""
    v, k = sorted(values), max(1, len(values) // 2)
    lo = (len(v) - k) // 2
    return _geomean(v[lo:lo + k])


def tail(values):
    """Tail latency and its percentile: the highest percentile with ten
    samples beyond it, smoothed as the geometric mean of the fifth of the
    samples that sits just below the ten slowest."""
    v, k = sorted(values), max(1, len(values) // 5)
    if len(v) <= 10:
        return v[-1], 100.0
    hi = len(v) - 10
    return _geomean(v[max(0, hi - k):hi]), 100.0 * hi / len(v)


def end_to_end(out: Outcome, setup_s: float):
    tail_s, _ = tail(out.latencies)
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": ((out.attempted - out.failed) / out.wall_s, "1/s"),
        "op_p50_ms": (p50(out.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": ((parent_kb + out.child_rss_kb) / 1024, "MB"),
        "ok_frac": (1 - out.failed / out.attempted, "ratio"),
    }


def per_layer(out: Outcome):
    t, per = out.totals, 1.0 / out.passes

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(prefix):
        return sum(v for k, v in t.calls.items() if k.startswith(prefix))

    pc_calls, sg_calls = calls("presentation."), calls("subgroups.")
    m = {
        "presentation.calls": (pc_calls * per, "count"),
        "presentation.self_s": (t.self_s["presentation"] * per, "s"),
        "presentation.us_per_call": (
            ratio(t.self_s["presentation"], pc_calls) * 1e6, "us"),
        "presentation.consistency_check.s": (
            t.fn_incl["presentation.consistency_check"] * per, "s"),
        "subgroups.self_s": (t.self_s["subgroups"] * per, "s"),
        "subgroups.incl_s": (t.incl_s["subgroups"] * per, "s"),
    }
    for f in ("induce", "quotient", "is_normal", "constrained_subgroup"):
        m[f"subgroups.{f}.calls"] = (t.calls[f"subgroups.{f}"] * per, "count")
    m["subgroups.is_normal.s"] = (t.fn_incl["subgroups.is_normal"] * per, "s")
    m["subgroups.collections_per_call"] = (
        ratio(t.nested["subgroups>presentation"], sg_calls), "ratio")
    for name in DISTINCT:
        m[f"{name}.per_distinct"] = (
            ratio(t.calls[name], t.distinct[name]), "ratio")
    for f in ("hnf", "snf", "solve_congruences"):
        m[f"intlinalg.{f}.calls"] = (t.calls[f"intlinalg.{f}"] * per, "count")
    m["intlinalg.self_s"] = (t.self_s["intlinalg"] * per, "s")
    m["intlinalg.max_cells"] = (t.max_cells, "count")
    m["intlinalg.max_entry_bits"] = (t.max_bits, "bits")
    m["scalars.self_s"] = (t.self_s["scalars"] * per, "s")
    m["scalars.prime_decomposition_zero.s"] = (
        t.fn_incl["scalars.prime_decomposition_zero"] * per, "s")
    for layer in ("abelian", "bilinear", "refined", "series", "deformation",
                  "morphisms"):
        m[f"{layer}.self_s"] = (t.self_s[layer] * per, "s")
    m["morphisms.spot_check.s"] = (t.fn_incl["morphisms.spot_check"] * per, "s")
    m["files.load.s"] = (t.fn_incl["files.load"] * per, "s")
    m["cli.self_s"] = (t.self_s["cli"] * per, "s")
    m["trace.overhead_frac"] = (ratio(out.traced_s, out.plain_s) - 1, "ratio")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nilpc" / "__init__.py").is_file():
        print(f"error: no nilpc sources under {SRC}", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    rng = random.Random(args.seed)
    # A traced run reports no setup_s, so it sets up only once.
    timer = SetupTimer(args.workload, args.seed, args.seconds,
                       reps=1 if args.trace else SETUP_REPS)
    try:
        state = prepare(args.workload, args.seed, timer)
        passes = run_passes(args.workload, args.seconds)
        if args.workload == "arith":
            out = measure_arith(state, passes, args.trace, rng, t_start, timer)
        else:
            golden = json.loads(GOLDEN.read_text())
            out = measure_cli(state, golden, passes, args.trace, rng, t_start,
                              timer)
        setup_s = timer.median()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    _, pct = tail(out.latencies)
    print(f"# {args.workload}: seed {args.seed}, {out.passes} passes, "
          f"{out.attempted} ops, {out.failed} failed, {out.wrong} wrong, "
          f"fail_frac {out.failed / out.attempted:.4g}, op_tail_ms at "
          f"p{pct:.1f} of {len(out.latencies)} samples"
          + (f", exponent span {SPAN}" if args.workload == "arith" else ""))
    print(f"# host: reference loop {out.reference_s * 1e3:.3f} ms (nominal "
          f"{NOMINAL_S * 1e3:g} ms); operations took {out.raw_s:.2f} s, "
          f"{out.wall_s:.2f} s scaled")
    metrics = per_layer(out) if args.trace else end_to_end(out, setup_s)
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
