"""The speed probe: how fast the host runs plain Python code just now.

The shared host this benchmark was built on runs the same code up to 90%
slower for seconds to minutes at a time, and every kind of code (float
loops, string building, dicts, small numpy solves) slows along with it.
The probe is a fixed float loop, like the circle lift loop.  child.py runs
it before the first timed call and again after every stretch of at least
PROBE_EVERY_S CPU seconds of calls, outside the timed region, and rescales
each stretch to the reference speed:

    ref_s of a stretch = its CPU seconds * REF_PROBE_S / (mean of the two
                         probes around it)

REF_PROBE_S is the probe's time on the reference machine (a 2.0 GHz Xeon
vCPU) when it is not slowed, so ``ref_s`` reads as the seconds the calls
would take there.  ``setup_s`` is rescaled once per run, by the mean of all
the run's probes, because set-up comes before any probe of its own.
"""

from __future__ import annotations

import math
import time

PROBE_ITERS = 50_000
REF_PROBE_S = 0.0105
PROBE_EVERY_S = 0.2


def speed_probe() -> float:
    """CPU seconds of a fixed float loop."""
    start = time.process_time()
    x = total = 0.1
    for _ in range(PROBE_ITERS):
        x = x + 0.3819 + 0.05 * math.sin(6.283 * x)
        total += x - int(x)
    return time.process_time() - start
