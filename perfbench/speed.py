"""The machine's speed, gauged by a fixed reference loop timed between rounds.

The benchmark runs on a few cores of a shared host.  Other tenants' load
moves the speed of one process by up to ±20% over tens of seconds, and by
up to a factor of two over an hour, while the work done stays the same.
A fixed loop timed next to the rounds follows that speed: over 5-10 s
windows of one run, log throughput moves with log loop speed at a slope of
0.66-1.14 on the sweeps and on ``mitigate-subset`` (README, "Nominal time").

Every time the benchmark reports is wall time scaled to a nominal machine,
one that runs the reference loop in ``NOMINAL_S``:

    reported = wall * NOMINAL_S / (reference loop's time around the interval)

The reference loop never calls cmcal, so a change to the program moves the
reported times as it moves the wall times; a change of the host's speed
moves both the loop and the program and mostly cancels out.
"""

from time import perf_counter

import numpy as np

# near the loop's time on the 2-CPU Intel Xeon host the bounds were set on
# (17.6 ms when quiet, longer under load), so that reported times there read
# close to wall times
NOMINAL_S = 0.020
# a probe runs between rounds once this much wall time has passed since the
# last one, and repeats the loop for SHARE of the time since then: a round
# of several seconds gets a probe long enough to average over its own noise
EVERY_S = 0.5
SHARE = 0.05
# no probe is shorter than this: one loop takes 18-25 ms, and alone it reads
# a burst of load as a change of speed
MIN_S = 0.03

_KEYS = [format(i * 2654435761 % (1 << 20), "020b") for i in range(3000)]
_INDEX = np.random.default_rng(1).permutation(1 << 12).astype(np.uint64)
_WEIGHTS = np.random.default_rng(2).random(1 << 12)


def reference_loop():
    """Fixed work in the program's mix: string-keyed dicts and bit strings in
    Python, then many numpy calls on 4096-entry arrays (bit masks, gathers,
    boolean selection, concatenation), where the cost per call matters as in
    exact corruption of a 12-qubit register.  Returns a total, so that none
    of it can be skipped."""
    table = {}
    for key in _KEYS:
        table[key] = table.get(key[::-1], 0.0) + int(key, 2) * 0.5
    total = sum(table.values())
    for step in range(180):
        bit = (_INDEX >> np.uint64(step % 12)) & np.uint64(1)
        moved = _INDEX ^ (bit << np.uint64(3))
        keep = _WEIGHTS[moved.astype(np.int64)] > 0.5
        total += float(_WEIGHTS[keep].sum()) + np.concatenate([moved[keep], _INDEX[~keep]]).size
    return total


class Gauge:
    """Probes of the reference loop, each with the time it was taken and the
    loop's mean time in it, and the scale they give an interval of wall time."""

    def __init__(self):
        self.at, self.took = [], []
        self.last_end = None

    def probe(self):
        start = perf_counter()
        budget = MIN_S if self.last_end is None else max(MIN_S, SHARE * (start - self.last_end))
        took = []
        while not took or perf_counter() - start < budget:
            t0 = perf_counter()
            reference_loop()
            took.append(perf_counter() - t0)
        self.last_end = perf_counter()
        self.at.append(0.5 * (start + self.last_end))
        self.took.append(sum(took) / len(took))

    def due(self):
        return perf_counter() - self.last_end >= EVERY_S

    def scaled(self, t0, t1):
        """Wall interval ``[t0, t1]`` in nominal seconds, scaled by the mean
        loop time of the probes around it: the last one before, every one
        inside, and the first one after."""
        at = np.asarray(self.at)
        lo = max(int(np.searchsorted(at, t0)) - 1, 0)
        hi = min(int(np.searchsorted(at, t1)) + 1, at.size)
        return (t1 - t0) * NOMINAL_S / float(np.mean(self.took[lo:hi]))
