"""A fixed unit of pure-Python work that measures how fast the host runs
right now, so end-to-end times can be put on one scale.

On a shared host the same Python code runs up to 1.6x slower in one
minute than in another, and a run's medians follow.  So a run times
this probe between its workers (in ``run.py``) and, inside a pass,
between verdicts and off the clock (in ``worker.py``), and multiplies
its times by ``REFERENCE_S / mean(probe times)``: the time the work
would have taken on a host that runs the probe in ``REFERENCE_S``.  The
mean and not the median, because a pass's time is a sum: slow spells
add to it in proportion to how much of the work they cover, and the
probe times, sampled every few verdicts, weigh them the same way.  The
probe is the benchmark's own code and runs with the cyclic collector
off, so no change to the program moves it.
"""

import gc
import statistics
import time

#: one probe on the reference host: a 2-vCPU Xeon VM running CPython
#: 3.11, in a quiet minute
REFERENCE_S = 0.030
#: steps of the probe's state-tuple walk (tuple building, hashing and
#: dict inserts, the operations the engine's hot loop is made of)
WALK_ROUNDS = 60000


def _walk():
    seen, state = {}, (0, 1, 2, 3, 4)
    for step in range(WALK_ROUNDS):
        state = state[1:] + ((state[0] * 31 + step) & 0xFFFFF,)
        if state not in seen:
            seen[state] = len(seen)


class HostProbe:
    """The probe samples of one process."""

    def __init__(self):
        self.samples = []

    def sample(self, count=2):
        """Time ``count`` probes; returns the seconds spent.  The cyclic
        collector is off while they run, so the caller's heap does not
        slow them."""
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            for _ in range(count):
                begun = time.perf_counter()
                _walk()
                self.samples.append(time.perf_counter() - begun)
        finally:
            if enabled:
                gc.enable()
        return time.perf_counter() - started

    def scale(self):
        """The factor that puts times measured alongside these samples
        on the reference host's scale."""
        return REFERENCE_S / statistics.fmean(self.samples)
