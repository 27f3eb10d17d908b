"""Host-speed calibration of the benchmark's times.

The benchmark runs on shared virtual machines whose speed changes by a
third or more from one minute to the next, for tens of seconds at a time;
the program's own time follows it.  A fixed probe - plain Python that walks
a small graph, formats and sorts strings, so it leans on dicts, sets, lists
and allocation the way the compiler does - is timed between the program's
operations, in the same process and the same stretch of time.  A time is
reported scaled to the reference host speed::

    reported = measured * REFERENCE_PROBE_S / mean probe time of its stretch

so a run in a slow stretch reads about what it would in a calm one.  The
probe uses nothing from ``src/``: a change to the program moves the
reported times by its full effect, and only the host's speed is divided
out.  Each run record keeps the measured times and the factors as well.
"""

import statistics
import time

#: Seconds one probe takes on the reference host (2-CPU VM, Intel Xeon at
#: 2.0 GHz, Python 3.11.7) in a calm stretch.  It only fixes the scale of
#: the reported times.
REFERENCE_PROBE_S = 0.0011

_NODES = 600


def _probe_work() -> int:
    successors = {node: [(node * 7 + k * 13) % _NODES for k in range(3)]
                  for node in range(_NODES)}
    seen, stack, order = set(), [0], []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        stack.extend(successors[node])
    names = ",".join(f"v{node}" for node in order).split(",")
    return len(sorted(names, key=len))


class Calibration:
    """Probe times of one stretch of a run, and its speed factor."""

    def __init__(self):
        self.samples = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference probe time over this stretch's mean probe time: below
        1 when the host ran slow."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)
