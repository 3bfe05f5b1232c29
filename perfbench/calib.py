"""The reference kernel: fixed bench-side work timed before, during and after
every op, to track how fast the host runs at that moment.

The host this runs on changes speed by 20-40% over seconds to minutes
(other tenants share its caches, memory bandwidth and cores). An op's time
divided by the mean time of the reference kernel around and inside it
cancels most of that. The kernel streams 8 MB through XOR, popcount and a
row sum, so it meets memory bandwidth the way mvhash's numpy code does. Its
buffers are allocated once, so it adds a constant 20 MB to the resident set
instead of noise. It never calls mvhash.
"""

import signal
import time

import numpy as np

_rng = np.random.default_rng(12345)
_WORDS = _rng.integers(0, 2**63, size=(500_000, 2), dtype=np.uint64)
_BUF = np.empty_like(_WORDS)
_SUMS = np.empty(_WORDS.shape[0], dtype=np.uint64)
_LABELS = (_rng.random((100_000, 24)) < 0.1).astype(np.uint8)
_WIDE = np.empty(_LABELS.shape, dtype=np.int64)
_ONES = np.ones(_LABELS.shape[1], dtype=np.int64)


def kernel_seconds():
    t0 = time.perf_counter()
    np.bitwise_xor(_WORDS, _WORDS[0], out=_BUF)
    np.bitwise_count(_BUF, out=_BUF)
    _BUF.sum(axis=1, out=_SUMS)
    np.copyto(_WIDE, _LABELS)
    np.matmul(_WIDE, _ONES, out=_SUMS[:_LABELS.shape[0]].view(np.int64))
    return time.perf_counter() - t0


class Reference:
    """Reference-kernel samples, taken on demand and every `period` seconds
    from SIGALRM while started. `stolen` is the total time the samples took,
    so that callers can take it out of the ops they interrupted."""

    def __init__(self, period=0.5):
        self.period = period
        self.samples = []
        self.stolen = 0.0
        self._busy = False

    def sample(self):
        if self._busy:  # the timer fired while a sample was running
            return
        self._busy = True
        try:
            dt = kernel_seconds()
            self.samples.append(dt)
            self.stolen += dt
        finally:
            self._busy = False

    def _on_timer(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
