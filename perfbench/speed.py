"""Timings rescaled to a reference host speed.

On a shared host the speed of one core drifts: the same pure-Python loop,
timed back to back for a minute, runs up to 20% faster or slower from one
stretch of a few seconds to the next, as other tenants load the machine.
A run of the benchmark cannot choose its stretch, so its raw timings
spread by about as much from run to run.

``SpeedClock`` times a fixed probe (a short pure-Python loop that calls
no dimerlab code, with the garbage collector off so that the program's
heap cannot slow it) between the program's calls.  Each interval the
benchmark reports is rescaled by ``REFERENCE_PROBE_S`` over the mean
probe time within ``WINDOW_S`` of the interval: it reads as the seconds
the interval would have taken at the host's reference speed.  A program
that does more work still takes longer; a neighbour that slows the whole
core slows the probe by as much and drops out.  The mean, not the
median, because a long interval is slowed by every stall that lands in
it, rare ones too.  Probe time inside an interval is not counted in it.
"""

from __future__ import annotations

import functools
import gc
import statistics
from time import perf_counter

# Mean probe time on the reference host (Intel Xeon, 2 vCPUs under KVM,
# Python 3.11.7) in a quiet stretch.  It only sets the scale of the
# reported seconds; comparisons between commits do not depend on it.
REFERENCE_PROBE_S = 0.005
MIN_GAP_S = 0.2  # probes between calls at most this often
WINDOW_S = 1.0  # probes this close to an interval set its speed


def _probe_loop() -> int:
    """Dict, tuple, sort and set work, the mix dimerlab's inner loops do."""
    d: dict = {}
    for i in range(5000):
        k = (i % 97, i % 89, i & 7)
        d[k] = d.get(k, 0) + 1
    s = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
    return len({a for (a, b, c), v in s if v > 1})


class SpeedClock:
    """Probes the host's speed between calls and rescales intervals by it.

    With ``enabled=False`` it never probes and intervals are raw seconds
    (the traced run uses it so that probes cannot land in a layer's span).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.probes: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self._last = float("-inf")

    def probe(self) -> None:
        """Time the probe loop, unless one ran less than MIN_GAP_S ago."""
        if perf_counter() - self._last >= MIN_GAP_S:
            self.probe_now()

    def probe_now(self, count: int = 1) -> None:
        """Time the probe loop ``count`` times."""
        if not self.enabled:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = perf_counter()
                _probe_loop()
                t1 = perf_counter()
                self.probes.append((t0, t1, t1 - t0))
        finally:
            if collecting:
                gc.enable()
        self._last = t1

    def probing(self, fn):
        """``fn`` with a probe (at most every MIN_GAP_S) before each call,
        so that speed is also probed inside the program's long calls."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.probe()
            return fn(*args, **kwargs)

        return wrapper

    def seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] less the probes inside it, at reference speed."""
        if not self.enabled:
            return t1 - t0
        inside = sum(s for a, b, s in self.probes if t0 <= a and b <= t1)
        near = [s for a, b, s in self.probes if t0 - WINDOW_S <= a and b <= t1 + WINDOW_S]
        if not near:
            raise RuntimeError("no speed probe near a timed interval")
        return (t1 - t0 - inside) * REFERENCE_PROBE_S / statistics.mean(near)
