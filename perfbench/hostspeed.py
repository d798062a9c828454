"""Host speed, read from a fixed reference loop timed between operations.

The benchmark gets a few cores of a shared host. Their speed moves by a
third or more within a minute as other tenants load the host, and process
CPU time moves with wall time, so the slowdown is slower cores, not stolen
time. Raw wall times of one program at two moments then differ by more than
any bound a change could be held to.

So a run times a fixed pure-Python loop (integer arithmetic and a dict)
right before every operation, in the process that runs the operation, and
scales the operation's time by NOMINAL_S over the loop's median time among
the NEAREST samples around it. A scaled time reads as the seconds the
operation takes on a host where the loop takes NOMINAL_S. The loop shares
no code with nilpc, so a change to the package moves scaled times exactly
as it moves raw ones; only the host's drift is taken out.
"""

import bisect
import statistics
import time

LOOPS = 9000
# Near the loop's median time on a 2-vCPU x86-64 VM with CPython 3.11, so
# scaled times there read close to raw ones.
NOMINAL_S = 0.004
NEAREST = 7


def reference_loop(n: int = LOOPS) -> int:
    """Integer arithmetic and dict look-ups. It makes no container
    objects, so it never starts the garbage collector, whose cost would
    depend on the heap the benchmark holds."""
    table = {}
    a, b, acc = 1, 2, 0
    for i in range(n):
        a = (a * 31 + b) % 1000003
        b = (b * 17 + a) % 999983
        table[a & 1023] = b
        acc ^= table.get(b & 1023, i)
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples of one run, in time order."""

    def __init__(self):
        self.at, self.ref = [], []

    def add(self, t: float, ref_s: float):
        """A loop that took ref_s seconds at moment t (not before the last)."""
        self.at.append(t)
        self.ref.append(ref_s)

    def sample(self):
        """Times the loop here and now."""
        t = time.perf_counter()
        self.add(t, time_reference())

    def scale(self, t: float) -> float:
        """NOMINAL_S over the median loop time of the NEAREST samples
        nearest to moment t (or of all, when there are fewer; 1 if none)."""
        if not self.ref:
            return 1.0
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return NOMINAL_S / statistics.median(self.ref[lo:lo + NEAREST])

    def reference_s(self) -> float:
        """Median loop time over the run (0 if no loop was timed)."""
        return statistics.median(self.ref) if self.ref else 0.0
