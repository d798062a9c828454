"""Run work in forked children, each with a wall-clock timeout.

A CLI job is `cli.main(argv)` in a child forked from a parent that has
imported `nilpc` and computed nothing, so every job starts with the
package's caches cold, as a command-line user does. Cold state comes from
forking alone; nothing in the package is reset by name.
"""

import hashlib
import io
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from hostspeed import time_reference
from spans import Tracer, summarize

CRASH = -1  # exit code recorded when the child raised or was killed


def fork_call(fn, timeout: float):
    """Run fn() -> bytes in a forked child.

    Returns (data or None, wall seconds, peak RSS of the child in KiB).
    The child is killed when it has not finished after `timeout` seconds.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            data = fn()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    deadline = t0 + timeout
    timed_out = False
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if timed_out or status != 0:
        return None, wall, usage.ru_maxrss
    return b"".join(chunks), wall, usage.ru_maxrss


@dataclass
class JobResult:
    ok: bool  # finished within the timeout and sent a result
    code: int
    stdout: str
    main_s: float  # time inside cli.main, measured by the child
    wall_s: float  # fork to reaped child, measured by the parent
    maxrss_kb: int
    summary: Optional[dict] = None
    counters: Optional[dict] = None
    ref_s: float = 0.0  # the child's reference loop, just before cli.main

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def _cli_child(argv, traced: bool, job: int) -> bytes:
    from nilpc import cli
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.job = job
        tracer.install()
    ref_s = time_reference()  # host speed, where and when the job runs
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=err)
        code = CRASH
    main_s = time.perf_counter() - t0
    payload = {"code": code, "main_s": main_s, "stdout": out.getvalue(),
               "ref_s": ref_s}
    if tracer is not None:
        tracer.uninstall()
        payload["summary"] = summarize(tracer.spans)
        payload["counters"] = tracer.counters()
    return pickle.dumps(payload)


def run_cli(argv, *, timeout: float, traced: bool = False,
            job: int = 0) -> JobResult:
    """cli.main(argv) in a fresh child; killed after `timeout` seconds."""
    data, wall, rss = fork_call(lambda: _cli_child(argv, traced, job),
                                timeout)
    if data is None:
        return JobResult(False, CRASH, "", wall, wall, rss)
    payload = pickle.loads(data)
    return JobResult(True, payload["code"], payload["stdout"],
                     payload["main_s"], wall, rss,
                     payload.get("summary"), payload.get("counters"),
                     payload["ref_s"])
