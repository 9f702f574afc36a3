"""Host-speed correction of the benchmark's timings (standard library only).

The shared machines this benchmark runs on change speed by up to a factor of
two, in spells that last from a second to minutes, because of what other
tenants run: the process is not descheduled, it executes slower (CPU time
tracks wall time).  Ten runs spread over a few minutes then differ by
10-30 %, whatever the program does.

So while a timed section runs, a SIGALRM timer interrupts it every
INTERVAL_S and times a fixed reference kernel in the handler.  The kernel is
a pure-Python integer loop, this file's own code: no change to geodyn can
make it faster or slower, and it slows with the host the way the engine's
interpreter-bound work does.  A section's time is then reported at a
nominal host speed:

    scaled = (raw - time spent in the handler) * NOMINAL_S / median(kernel)

NOMINAL_S is about the kernel's time on a quiet spell of a 2-vCPU x86 VM
(Python 3.11), which keeps scaled figures close to the raw seconds of a
quiet host.  It is a constant, so it cancels between two commits measured
with the same benchmark.  The raw figures are reported next to the scaled
ones.

The module imports only ``signal``, ``threading`` and ``time``, so loading
it before a timed ``import geodyn`` does not pre-load modules geodyn needs.

The correction assumes one Python thread: a thread holding the GIL would
slow the kernel and make the program look faster.  ``Sampler`` records the
most threads it saw, and the benchmark refuses a run that had more than
one.
"""

from __future__ import annotations

import signal
import threading
import time

NOMINAL_S = 0.0012         # kernel seconds at the nominal host speed
INTERVAL_S = 0.05          # one kernel sample per interval of the section


def _kernel() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Sampler:
    """Times the kernel every INTERVAL_S while the ``with`` block runs."""

    def __init__(self):
        self.samples = []          # kernel seconds
        self.spent_wall = 0.0      # handler seconds, included in the section
        self.spent_cpu = 0.0
        self.max_threads = 1

    def _tick(self, signum, frame):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        _kernel()
        self.samples.append(time.perf_counter() - wall0)
        self.max_threads = max(self.max_threads, threading.active_count())
        self.spent_cpu += time.process_time() - cpu0
        self.spent_wall += time.perf_counter() - wall0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        """Median kernel time over its nominal time; 1.0 without samples."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        median = (ordered[mid] if len(ordered) % 2
                  else (ordered[mid - 1] + ordered[mid]) / 2)
        return median / NOMINAL_S

    def scale(self, wall: float, cpu: float) -> dict:
        """Raw and host-speed-scaled seconds of a section timed around it."""
        factor = self.slowdown()
        return {"raw_wall_s": wall, "raw_cpu_s": cpu,
                "wall_s": (wall - self.spent_wall) / factor,
                "cpu_s": (cpu - self.spent_cpu) / factor,
                "slowdown": factor, "max_threads": self.max_threads}
