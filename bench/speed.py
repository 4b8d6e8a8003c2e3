"""The machine's speed, sampled while the program runs, and times scaled to it.

The benchmark runs on a shared virtual machine whose speed for pure-Python
code switches between states up to 70 % apart, for stretches of a fraction of
a second to minutes.  Raw wall times of one commit then spread more between
sets of runs than any useful bound.  So every SPEED_PERIOD seconds a SIGALRM
handler (in the benchmark's one thread; no thread or process is started)
times a fixed probe: a loop of dict updates over tuple keys, the operations
the program spends its time in, best of three.  A stretch of the
program's time between two samples is scaled by REFERENCE_PROBE_S over the
probe time that closes it, which gives the time the stretch would have taken
at the machine's reference speed.  The probe's own time is taken out of
both the raw and the scaled time.
"""

from __future__ import annotations

import signal
import time

SPEED_PERIOD = 0.05
# best-of-three probe time on the 2-core virtual machine the reference
# figures in README.md were measured on, in its fast state
REFERENCE_PROBE_S = 0.000165

_KEYS = [(i % 97, i % 13, i & 7) for i in range(1000)]
_clock = time.perf_counter


def _probe_once():
    t0 = _clock()
    acc = {}
    for k in _KEYS:
        acc[k] = acc.get(k, 0) + k[0] * k[1] + 1
    return _clock() - t0


def probe():
    """Best-of-three probe time, in seconds: lower is a faster machine."""
    return min(_probe_once(), _probe_once(), _probe_once())


class SpeedSampler:
    """Samples the probe on a timer; scales intervals to the reference speed."""

    def __init__(self):
        # (time the sample ended, probe seconds, seconds the handler took)
        self.samples = []

    def _handler(self, signum, frame):
        t0 = _clock()
        p = probe()
        t1 = _clock()
        self.samples.append((t1, p, t1 - t0))

    def start(self):
        for _ in range(5):  # warm the probe's code and data
            probe()
        self.samples.append((_clock(), probe(), 0.0))
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD, SPEED_PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.samples.append((_clock(), probe(), 0.0))

    def measure(self, t0, t1):
        """(raw seconds, reference seconds) of the program's time in [t0, t1].

        Call after stop().  Each stretch between samples is charged at the
        probe time of the sample that ends it; handler time is left out.
        """
        raw = scaled = 0.0
        start = t0
        for end, p, cost in self.samples:
            if end <= t0:
                continue
            stop = min(end, t1)
            busy = stop - start
            if end <= t1:
                busy -= cost
            if busy > 0:
                raw += busy
                scaled += busy * REFERENCE_PROBE_S / p
            if end >= t1:
                break
            start = end
        return raw, scaled
