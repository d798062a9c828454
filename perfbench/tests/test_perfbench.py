"""Tests of the benchmark's own parts. Run: python3 -m pytest perfbench/tests"""

import json
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import groups
import hostspeed
import record_golden
import run
from jobs import JobResult, run_cli
from nilpc import cli, files, morphisms
from nilpc import presentation as pc
from spans import Tracer, summarize


@pytest.mark.parametrize("make", [
    lambda: groups.unitriangular(3), lambda: groups.unitriangular(4),
    lambda: groups.unitriangular(5), lambda: groups.heisenberg(2),
    lambda: groups.heisenberg(4), lambda: groups.zg_prime(3),
    lambda: groups.zg_prime(7), lambda: groups.zg_prime(11)])
def test_generators_are_consistent(make):
    assert pc.consistency_check(make()).ok


def test_family_names_match_the_generators():
    assert tuple(groups.family()) == run.FAMILY


def test_zg_prime_5_is_the_fixture():
    zg = files.load(run._fixture("ZG"))
    q = groups.zg_prime(5)
    assert (q.periods, q.powers, q.commutators) == (
        zg.periods, zg.powers, zg.commutators)


def test_matrix_oracle_agrees_with_heis_as_ut3():
    heis = files.load(run._fixture("HEIS"))
    ut3 = groups.unitriangular(3)
    assert (ut3.periods, ut3.powers, ut3.commutators) == (
        heis.periods, heis.powers, heis.commutators)
    model, rng = groups.ut_model(3), random.Random(4)
    for _ in range(20):
        x = morphisms.random_element(heis, rng, 50)
        y = morphisms.random_element(heis, rng, 50)
        assert model.of(pc.multiply(heis, x, y)) == model.mul(
            model.of(x), model.of(y))
        assert model.of(pc.commutator(heis, x, y)) == model.comm(
            model.of(x), model.of(y))


@pytest.mark.parametrize("pres, model", [
    (groups.heisenberg(2), groups.heisenberg_model(2)),
    (groups.unitriangular(4), groups.ut_model(4)),
    (files.load(run._fixture("F23")), groups.MagnusModel())])
def test_models_agree_with_collection(pres, model):
    rng = random.Random(9)
    for _ in range(5):
        x = morphisms.random_element(pres, rng, 20)
        y = morphisms.random_element(pres, rng, 20)
        n = rng.randint(-20, 20)
        assert model.of(pc.multiply(pres, x, y)) == model.mul(
            model.of(x), model.of(y))
        assert model.of(pc.power(pres, x, n)) == model.pow(model.of(x), n)
        assert model.of(pc.conjugate(pres, x, y)) == model.conj(
            model.of(x), model.of(y))


def test_models_separate_elements():
    model = groups.MagnusModel()
    images = {tuple(sorted(model.of(g).items()))
              for g in [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
                        (0, 0, 0, 0, 0)]}
    assert len(images) == 4


def test_rebase_maps_certify_both_ways():
    p = files.load(run._fixture("NR"))
    q, fwd, bwd = groups.rebase(p, random.Random(3))
    assert pc.consistency_check(q).ok
    there = morphisms.hom_from_images(q, p, fwd)
    back = morphisms.hom_from_images(p, q, bwd)
    assert morphisms.is_inverse_pair(there, back)


def test_self_time_on_synthetic_nest():
    # cli [0, 10] > subgroups [1, 9] > presentation [2, 5];
    # subgroups [6, 8] nested in the first subgroups span
    spans = [
        ("cli.main", "cli", 0.0, 10.0, None, 0),
        ("subgroups.center", "subgroups", 1.0, 9.0, 0, 0),
        ("presentation.multiply", "presentation", 2.0, 5.0, 1, 0),
        ("subgroups.induce", "subgroups", 6.0, 8.0, 1, 0),
    ]
    s = summarize(spans)
    assert s["self_s"] == pytest.approx(
        {"cli": 2.0, "subgroups": 5.0, "presentation": 3.0})
    assert s["incl_s"] == pytest.approx(
        {"cli": 10.0, "subgroups": 8.0, "presentation": 3.0})
    assert s["fn_incl"]["subgroups.induce"] == pytest.approx(2.0)
    assert s["nested"] == {"cli>subgroups": 1, "subgroups>presentation": 1,
                           "subgroups>subgroups": 1}


def test_install_rebinds_copies_and_folds_collection():
    tracer = Tracer()
    original = cli.key_subgroups
    tracer.install()
    try:
        assert cli.key_subgroups is not original
        p = groups.heisenberg(1)
        pc.power(p, (1, 2, 3), 5)  # calls multiply inside: folded
        cli.key_subgroups(p)
    finally:
        tracer.uninstall()
    assert cli.key_subgroups is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["presentation.power", "series.key_subgroups"]
    assert all(s[1] != "presentation" or s[4] is None or
               not tracer.spans[s[4]][0].startswith("presentation.")
               for s in tracer.spans)
    assert all(s[4] is not None for s in tracer.spans
               if s[0].startswith("subgroups."))


def test_traced_job_prints_the_same_bytes():
    argv = ("invariants", run._fixture("HEIS"))
    plain = run_cli(argv, timeout=60)
    traced = run_cli(argv, timeout=60, traced=True)
    assert plain.ok and traced.ok
    assert (traced.code, traced.sha256) == (plain.code, plain.sha256)
    assert traced.summary["calls"]["cli.main"] == 1
    assert plain.summary is None


def test_timeout_kills_the_child():
    r = run_cli(("primes", "--zmod", "64"), timeout=0.01)
    assert not r.ok


def test_tail_sits_below_the_ten_slowest():
    values = [float(v) for v in range(1, 101)]
    value, pct = run.tail(values)
    assert pct == pytest.approx(90.0)
    assert 70 < value < 91  # the fifth of samples just below the top ten
    assert run.tail([1.0] * 5) == (1.0, 100.0)


def test_a_run_is_the_nearest_whole_number_of_passes():
    assert run.run_passes("reports", 20) == 1
    assert run.run_passes("reports", 1) == 1
    assert run.run_passes("family", 20) == 2
    assert run.run_passes("arith", 20) % run.STRATA == 0


def test_p50_is_the_middle_half():
    values = [float(v) for v in range(1, 101)]
    assert 40 < run.p50(values) < 61
    assert run.p50([3.0]) == pytest.approx(3.0)


@pytest.mark.parametrize("op", run.ARITH_OPS)
def test_arith_checks_catch_a_wrong_result(op):
    pres, models = run.setup_arith(0)
    rng = random.Random(2)
    for name in run.ARITH_GROUPS:
        p = pres[name]
        args = run.arith_args(p, op, rng, iter([3]))
        r = run.arith_op(p, op, args)
        assert run.arith_ok(p, models[name], op, args, r, rng)
        wrong = r[:-1] + (r[-1] + 1,)
        if not pc.is_canonical(p, wrong):
            wrong = r[:-1] + (0,)
        assert not run.arith_ok(p, models[name], op, args, wrong, rng)


COLD_PARENT = """
import pickle, shutil, sys
sys.path[:0] = sys.argv[1:]
import run
from jobs import fork_call
from nilpc import presentation as pc

def cached():
    return pickle.dumps(pc._conj_step.cache_info().currsize
                        + pc._conj_step_inv.cache_info().currsize)

try:
    for workload in ("reports", "family"):
        run.prepare(workload, 0, run.SetupTimer(workload, 0, 0, reps=1))
        data, _, _ = fork_call(cached, 60)
        print(pickle.loads(data))
finally:
    shutil.rmtree(run.WORK, ignore_errors=True)
"""


def test_cli_jobs_fork_from_a_cold_parent():
    # Inspects the collector's caches only from here; the benchmark itself
    # never names them.
    if not hasattr(pc, "_conj_step"):
        pytest.skip("the collector has no _conj_step cache")
    bench = Path(run.__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", COLD_PARENT, str(bench), str(run.SRC)],
        capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_setup_timer_reports_the_median_of_its_reps():
    timer = run.SetupTimer("reports", 0, seconds=0, reps=3)
    setup_s = timer.median()
    assert len(timer.times) == 3 and setup_s == sorted(timer.times)[1] > 0
    assert timer.spent > 0


def test_record_golden_checks_relations():
    good = JobResult(True, 0, json.dumps({
        "certified": True, "image_index": 1, "spot_check": True,
        "inverse_pair": True}), 0.0, 0.0, 0)
    results = defaultdict(lambda: good)
    assert record_golden.check_relations(results) == []
    results["invariants ZK"] = JobResult(True, 0, "other", 0.0, 0.0, 0)
    results["hom NR rebased"] = JobResult(
        True, 0, json.dumps({"certified": True, "image_index": 2,
                             "spot_check": True}), 0.0, 0.0, 0)
    assert len(record_golden.check_relations(results)) == 2


def test_host_speed_scales_by_the_nearest_samples():
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_S
    # the host runs at full speed, then at half speed from t = 10 on
    for t in range(20):
        speed.at.append(float(t))
        speed.ref.append(nominal if t < 10 else 2 * nominal)
    assert speed.scale(2.5) == pytest.approx(1.0)
    assert speed.scale(16.5) == pytest.approx(0.5)
    assert speed.scale(-1.0) == pytest.approx(1.0)  # before the first sample
    assert speed.scale(99.0) == pytest.approx(0.5)  # after the last
    speed.ref[3] = 10 * nominal  # one slow sample moves no median
    assert speed.scale(3.5) == pytest.approx(1.0)

