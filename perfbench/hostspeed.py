"""Host-speed probe: a fixed reference workload timed around batches.

The benchmark's host is shared: a pure-Python loop on it runs up to 25%
slower or faster from one minute to the next, and whole runs land in a
fast or a slow phase.  Serving is timed in wall-clock seconds, so every
timing carries that phase.  :func:`probe` times a fixed piece of work of
the kind the runtime does (JSON encoding, dict updates, a NumPy sort),
with the collector off so the program's garbage is never collected on
the probe's clock.  Every workload probes right before and right after
each batch, outside the timed section, in the process that hands the
batches over.  A batch's probe time is the mean of its two probes, and
its host factor is the median probe time of the :data:`WINDOW` batches
on either side of it and itself, over :data:`NOMINAL_S`, to the power
:data:`ALPHA`; the harness divides each batch time by its factor.

* Both probes: the after-batch probe runs on the caches a batch leaves,
  as serving does, and tracked a single runtime's phases best; in a
  fleet it also times the parent waking from its wait on the pool, a
  cost a change to the pool could move, which the before-batch probe
  (on warm caches) does not carry.  Their mean did about as well as the
  better of the two on each workload.
* The rolling median follows phases that change within a repeat (they
  matter to ``retention``, which compares two windows of one repeat)
  without following any single probe.
* The power: the probe swings more than serving does (in a fast phase
  the probe ran 1.7x faster and serving ~1.4x; part of a batch is fsync,
  which the probe does not touch).

A program that leaves work running after a call returns (a background
checkpoint, say) would slow the probes and so be credited for that work
twice: once for moving it out of the call, and again through a larger
host factor.  The after-batch probe is the first to feel such work, so
when the after-batch probes of a repeat run more than
:data:`SKEW_LIMIT` times slower than its before-batch probes,
:func:`factors` gives every batch of that repeat a factor of 1: the
repeat is reported in raw wall-clock figures.  Without background work
the ratio stayed between 0.99 and 1.33 for the single runtime and
between 1.15 and 1.67 for the fleets (the parent wakes on a cold core).
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Probe time, in seconds, that defines the nominal host speed (about the
#: median on the 2-core host the benchmark was calibrated on).
NOMINAL_S = 0.003
#: Elasticity of serving time to probe time: the least-squares slope of
#: log serving rate on log probe time over 72 repeats of serve-long on
#: the calibration host was -0.64; 0.7 gave the smallest run-to-run
#: spreads of the four serving metrics.
ALPHA = 0.7
#: Batches on either side of a batch whose probes set its host factor.
WINDOW = 10
#: Largest after-batch over before-batch probe median still trusted.
SKEW_LIMIT = 2.0
_DOC = [
    {"id": i, "x": i * 0.5, "pair": [i, i + 1], "tag": "s" * (i % 11)}
    for i in range(800)
]
_VALUES = np.random.default_rng(0).random(5000)


def probe() -> float:
    """Seconds one run of the reference workload takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        json.dumps(_DOC, sort_keys=True)
        totals: dict = {}
        for i in range(3000):
            totals[i % 101] = totals.get(i % 101, 0.0) + i * 0.25
        np.sort(_VALUES)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factors(before: List[float], after: List[float]) -> Tuple[List[float], float]:
    """Per-batch host factors, and the skew, from the probes taken before
    and after each batch.  A factor is > 1 on a slow host.  The skew is
    the after-batch median over the before-batch one; above
    :data:`SKEW_LIMIT` every factor is exactly 1 (raw figures)."""
    skew = statistics.median(after) / statistics.median(before)
    if skew > SKEW_LIMIT:
        return [1.0] * len(after), skew
    probes = [(b + a) / 2 for b, a in zip(before, after)]
    return [
        (statistics.median(probes[max(0, i - WINDOW) : i + WINDOW + 1]) / NOMINAL_S)
        ** ALPHA
        for i in range(len(probes))
    ], skew
