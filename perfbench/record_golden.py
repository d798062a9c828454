"""Record golden.json: exit code and stdout sha256 of every CLI job.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_golden.py

Before writing, it checks the relations between jobs that the digests then
carry: ZG, ZH and ZK print the same invariants, each rebased presentation
prints the invariants of its original, every `hom` is certified with image
index 1 (and a passing spot check under --verify), and every
`inverse-pair` holds. Each basis change of a job must print the same report.

The family's basis changes use seed 0; their reports do not depend on the
seed, which the benchmark's golden check confirms on every other seed.
"""

import json
import shutil
import sys

import run
from jobs import run_cli


def check_relations(results) -> list:
    """Broken relations between jobs, given {job id: JobResult}."""
    errors = []

    def same(a, b):
        if (results[a].code, results[a].sha256) != (
                results[b].code, results[b].sha256):
            errors.append(f"{a} differs from {b}")

    def report_has(job_id, **want):
        try:
            report = json.loads(results[job_id].stdout)
        except ValueError:
            errors.append(f"{job_id} printed no JSON report")
            return
        for key, value in want.items():
            if report.get(key) != value:
                errors.append(f"{job_id}: {key} is {report.get(key)!r}")

    for name in run.ISOMORPHIC:
        same(f"invariants {name}", "invariants ZG")
    for name in run.REBASED:
        same(f"invariants {name} rebased", f"invariants {name}")
        checks = {"certified": True, "image_index": 1}
        if name in run.VERIFIED:
            checks["spot_check"] = True
        report_has(f"hom {name} rebased", **checks)
        report_has(f"inverse-pair {name} rebased", inverse_pair=True)
    return errors


def main() -> int:
    results = {}
    try:
        jobs = []
        for workload in ("reports", "family"):
            timer = run.SetupTimer(workload, 0, seconds=0, reps=1)
            jobs += run.prepare(workload, 0, timer)
        for job in jobs:
            variants = [run_cli(argv, timeout=run.JOB_TIMEOUT)
                        for argv in job.argvs]
            if not all(r.ok for r in variants):
                print(f"error: {job.id} did not finish", file=sys.stderr)
                return 1
            if len({(r.code, r.sha256) for r in variants}) > 1:
                print(f"error: the inputs of {job.id} print different "
                      "reports", file=sys.stderr)
                return 1
            results[job.id] = variants[0]
            print(f"{job.id}: exit {variants[0].code}", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    errors = check_relations(results)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        return 1
    golden = {k: [r.code, r.sha256] for k, r in results.items()}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
