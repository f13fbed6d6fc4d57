"""Machine-speed probe, so that times from a shared machine can be compared.

On a machine shared with other work the interpreter's speed drifts over
seconds to minutes, at times by a factor of two, and a fixed pure-Python
loop slows down with it.  The benchmark times ``reference_loop`` between
commands, at most every PROBE_EVERY_S, and scales each command's measured
time by REF_LOOP_S / (the loop's time around that command).  The result is in
reference-speed seconds (unit ``ref_s``): the time the command would take on
a machine where the loop takes exactly REF_LOOP_S.  Probes run outside the
timed calls, and the unscaled times are printed as well.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REF_LOOP_S = 0.010
PROBE_EVERY_S = 0.25


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    table = {}
    acc = 0
    for i in range(100_000):
        table[i & 1023] = acc
        acc += (i * 7) % 13
    return acc


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Time the reference loop if PROBE_EVERY_S has passed since the last probe."""
        now = perf_counter()
        if force or not self.at or now - self.at[-1] >= PROBE_EVERY_S:
            reference_loop()
            self.at.append(now)
            self.took.append(perf_counter() - now)

    def scale(self, t: float) -> float:
        """Reference-speed seconds per measured second at time t, from the
        median of up to three probes on either side of t."""
        i = bisect.bisect(self.at, t)
        return REF_LOOP_S / statistics.median(self.took[max(0, i - 3): i + 3])

    def median_scale(self) -> float:
        return REF_LOOP_S / statistics.median(self.took)
