"""How fast the machine runs right now, measured by two fixed numpy kernels.

On a shared host the speed of one thread drifts by up to 2x over minutes,
as other tenants come and go, and that drift moves every timing of a run
together. A run therefore also times kernels that belong to the benchmark,
not to deformgabor, so no change to the library can make them faster or
slower, and scales its timings by the kernel's nominal time over its
measured median: the figures become times at the nominal machine speed.

Drift does not slow all code alike, so there are two kernels, each like the
code it scales:

- `kernel` mixes what the library's hot path does: a small sliding-window
  convolution through `einsum`, a bilinear-style gather over 72 planes, a
  contraction of the gathered taps and a `bincount` scatter. Its gathered
  taps take 5 MB, more than the caches of one core hold. It is timed
  between rounds and scales operation timings.
- `small_kernel` makes many calls on 4x8x8 arrays and reads values back
  one by one, so call overhead dominates, as in set-up, which builds bags
  and models from many small pieces. It is timed right before and right
  after each set-up sample and scales that sample alone, so the scale
  follows the machine's speed at that moment.

On the two-core host the benchmark was tuned on, over 150 s in one process
with the machine drifting, set-up samples scaled by `small_kernel` spread
(IQR over median) 0.18 (`gradcheck`) and 0.08 (`train_dg`) against 0.31 and
0.21 scaled by `kernel`, and 0.40 and 0.47 unscaled; `gradcheck` rounds
scaled by `kernel` spread 0.22, by `small_kernel` 0.30, unscaled 0.26.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one call of each kernel on the two-core host the benchmark
# was tuned on; timings are reported at this speed.
NOMINAL_S = 6.0e-3
NOMINAL_SMALL_S = 1.5e-3
# Share of the measured time spent timing `kernel`.
SHARE = 0.1
# Length of the `small_kernel` slice timed on each side of a set-up sample.
SLICE_S = 0.03


def _time_calls(fn, seconds: float) -> list[float]:
    """Times of calls of `fn` until they add up to `seconds` (at least one call)."""
    times = []
    while not times or sum(times) < seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


class Speed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.random((16, 16, 16))
        self.w = rng.random((8, 16, 3, 3))
        self.planes = rng.random((72, 32, 32))
        self.taps = rng.random((8, 72, 9))
        off = rng.uniform(-1.0, 1.0, size=(2, 9, 32, 32))
        grid = np.arange(32)
        self.yy = np.clip(np.floor(grid[None, :, None] + off[0]), 0, 31).astype(np.int64)
        self.xx = np.clip(np.floor(grid[None, None, :] + off[1]), 0, 31).astype(np.int64)
        self.small = [rng.random((4, 8, 8)) for _ in range(8)]
        self.times: list[float] = []        # `kernel`, over the whole run
        self.small_times: list[float] = []  # `small_kernel`, every slice

    def kernel(self) -> float:
        xp = np.zeros((16, 18, 18))
        xp[:, 1:17, 1:17] = self.x
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
        y = np.einsum("chwkl,ockl->ohw", win, self.w, optimize=True)
        v = self.planes[:, self.yy, self.xx]
        e = np.einsum("ckhw,mck->mhw", v, self.taps, optimize=True)
        g = np.bincount((self.yy * 32 + self.xx).ravel(), weights=v[0].ravel(), minlength=1024)
        return float(np.maximum(y, 0.0).sum() + e.sum() + g.sum())

    def small_kernel(self) -> float:
        acc = 0.0
        for i in range(40):
            a = self.small[i % 8] * 0.5
            b = np.exp(-a)
            c = np.pad(b, ((0, 0), (1, 1), (1, 1)))
            d = c[:, 1:-1, 1:-1] + a
            acc += float(d.sum()) + sum(float(v) for v in d[0, 0])
        return acc

    def top_up(self, op_seconds: float) -> None:
        """Time `kernel` until its calls add up to SHARE of `op_seconds`."""
        self.times += _time_calls(self.kernel, SHARE * op_seconds - sum(self.times))

    def factor(self) -> float:
        """Multiply an operation time measured in this run by this to get it at nominal speed."""
        return NOMINAL_S / statistics.median(self.times)

    def small_slice(self) -> list[float]:
        """`small_kernel` times of one slice, for scaling a set-up sample next to it."""
        times = _time_calls(self.small_kernel, SLICE_S)
        self.small_times += times
        return times

    @staticmethod
    def small_factor(times: list[float]) -> float:
        """Multiply a set-up time by this, given the slices around it, to get it at nominal speed."""
        return NOMINAL_SMALL_S / statistics.median(times)
