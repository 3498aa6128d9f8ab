"""Streaming reference for `lanewatch.smoothing.ar_filter`: one value at a time.

`ar_filter` smooths a whole series with one convolution plus a warm-up
cumulative mean.  `ArStream` keeps a ring buffer of the last order_k raw
values and returns their mean after each push, so it is slow but easy to
read; tests assert that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lanewatch.smoothing import ArFilterConfig


@dataclass
class ArStream:
    """Streaming form of ar_filter: push one raw value, get one smoothed.

    Keeps a ring buffer of the last order_k raw values; a single instance
    is meant to be owned and advanced by one caller.
    """

    cfg: ArFilterConfig = field(default_factory=ArFilterConfig)

    def __post_init__(self):
        self._buffer = np.zeros(self.cfg.order_k)
        self._count = 0

    def push(self, value: float) -> float:
        if not value >= 0.0:
            raise ValueError(f"error values are non-negative, got {value}")
        k = self.cfg.order_k
        self._buffer[self._count % k] = value
        self._count += 1
        # During warm-up this averages what exists so far.
        return float(self._buffer[: min(self._count, k)].mean())
