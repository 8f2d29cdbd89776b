"""A fixed reference block that gauges how fast the host runs right now.

On a shared host the same code can run twice as slowly in one minute as in
the next, for reasons outside this machine. The benchmark runs this block
just before and just after every set-up and every timed operation, and
scales the operation's wall time by ``REFERENCE_BLOCK_S`` over the mean of
those two block times. A slow spell slows the block and the operation alike
and cancels out; a change to the code under test moves the operation and not
the block. Nothing here calls dbdiag and the inputs are fixed, so the block
does the same work in every run of every commit.

The block mixes the two kinds of work the operations do: an element-by-element
loop over NumPy scalars, like the DTW cause ranking, and whole-array
arithmetic around a matrix product on the BLAS threads, like training and
scoring. It assumes nothing else runs beside the benchmark: under CPU
contention the BLAS part slows far more than a single-threaded diagnosis.
"""

from __future__ import annotations

import time

import numpy as np

# What one block took on the host the benchmark was written on (2 vCPUs of
# an Intel Xeon Sapphire Rapids under KVM, OpenBLAS on 2 threads) in a fast
# spell. Scaled times therefore read as seconds on that host.
REFERENCE_BLOCK_S = 0.2
SEED = 20170808
SCALAR_SIZE = 90
SCALAR_REPEATS = 16
VECTOR_REPEATS = 160


def _scalar_dp(a: np.ndarray, b: np.ndarray) -> float:
    m = b.size
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    cur = np.empty(m + 1)
    for i in range(a.size):
        cur[0] = np.inf
        costs = np.abs(a[i] - b)
        for j in range(1, m + 1):
            cur[j] = costs[j - 1] + min(prev[j - 1], prev[j], cur[j - 1])
        prev, cur = cur, prev
    return float(prev[m])


def _vector(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    # In place: a fresh 600 KB array per step would be mapped and faulted in
    # until the process's allocator had seen larger ones, so the same block
    # would run slower early in a process than later.
    np.matmul(x, w, out=h)
    np.maximum(h, 0.0, out=h)
    h -= h.mean(axis=0)
    h *= h
    return float(h.sum())


class Gauge:
    """Scale factors for timed operations, from reference blocks around them.

    Call ``begin()`` just before an operation (or a run of operations) and
    ``factor()`` just after each one. ``blocks`` keeps every block's seconds.
    """

    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.a = rng.normal(size=SCALAR_SIZE)
        self.b = rng.normal(size=SCALAR_SIZE)
        self.x = rng.normal(size=(1500, 150))
        self.w = rng.normal(size=(150, 50))
        self.h = np.empty((1500, 50))
        self.blocks: list[float] = []
        self._block()       # untimed: BLAS threads start, pages fault in
        self.blocks.clear()
        self._before: float | None = None

    def _block(self) -> float:
        start = time.perf_counter()
        for _ in range(SCALAR_REPEATS):
            _scalar_dp(self.a, self.b)
        for _ in range(VECTOR_REPEATS):
            _vector(self.x, self.w, self.h)
        seconds = time.perf_counter() - start
        self.blocks.append(seconds)
        return seconds

    def begin(self) -> None:
        self._before = self._block()

    def factor(self) -> float:
        """REFERENCE_BLOCK_S over the mean of the blocks before and after the
        operation that just ended; the block after is the next one's before."""
        if self._before is None:
            raise RuntimeError("Gauge.factor() called before begin()")
        after = self._block()
        factor = REFERENCE_BLOCK_S / ((self._before + after) / 2)
        self._before = after
        return factor
