"""Host-speed normalisation of measured times.

The shared host this benchmark was built on runs identical code up to
2x slower for seconds to minutes at a time, in wall and CPU time alike,
so raw times measure the neighbours as much as the program.  While a timed
block runs, a SIGALRM handler times one fixed calibration chunk in the
same process every SAMPLE_PERIOD_S.  ``HostSpeed.clock()`` is wall time
minus the time spent sampling, and ``HostSpeed.scale``, the mean over the
samples of CAL_REF_S / (chunk CPU time), maps a ``clock()`` interval to the
reference speed.
"""

import math
import signal
import time

# One chunk of CAL_ITERS iterations every SAMPLE_PERIOD_S.  CAL_REF_S is one
# chunk's time on the reference host (2-vCPU Xeon at 2.1 GHz, Python
# 3.11.7) in its fast phase.
CAL_ITERS = 10_000
CAL_REF_S = 0.0011
SAMPLE_PERIOD_S = 0.05


def calibration_chunk(n=CAL_ITERS):
    """Fixed interpreter work (float, tuple, dict, big-int gcd) that does
    not touch quadint, so no change to the program can change its cost."""
    x, table, num, den = 0.5, {}, 7**20, 5**20
    for i in range(n):
        x = x * 0.9999999 + 1e-9
        table[i & 63] = (i, x)
        if not i & 63:
            g = math.gcd(num * 3 + i, den * 2 + 1)
            num, den = num // g + 1, den // g + 3
    return x, num, den


class HostSpeed:
    """Context manager sampling the host's speed over a timed block."""

    def __enter__(self):
        self.chunks = []
        self._stolen = 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _sample(self, *_):
        t0, c0 = time.perf_counter(), time.thread_time()
        calibration_chunk()
        # CPU time: with scan's two pool workers busy on two cores, the
        # sample can wait for a core, and that wait is not host speed
        self.chunks.append(time.thread_time() - c0)
        self._stolen += time.perf_counter() - t0

    def clock(self) -> float:
        """Wall time, less the time spent in calibration samples."""
        return time.perf_counter() - self._stolen

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self.scale = sum(CAL_REF_S / c for c in self.chunks) / len(self.chunks)
        return False
