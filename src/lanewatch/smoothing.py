"""Smoothing of reconstruction-error series.

A trailing moving average over the last k observations including the
current one, each weighted 1/k.  During warm-up, while fewer than k
values exist, the output is the average of the values seen so far, so no
undefined values are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import integer
from .reconstruct import ErrorSeries

__all__ = ["ArFilterConfig", "ar_filter"]

DEFAULT_AR_ORDER = 10


@dataclass
class ArFilterConfig:
    """Filter order: the number of most recent values averaged."""

    order_k: int = DEFAULT_AR_ORDER

    def __post_init__(self):
        self.order_k = integer(self.order_k, "order_k")
        if self.order_k < 1:
            raise ValueError(f"filter order must be at least 1, got {self.order_k}")


def ar_filter(raw: ErrorSeries, cfg: ArFilterConfig | None = None) -> ErrorSeries:
    """Smooth an error series; output has the same length and start index.

    output[t] is the mean of raw[t - order_k + 1 .. t]; positions with
    fewer than order_k values available use the warm-up average instead.
    """
    cfg = cfg or ArFilterConfig()
    values = raw.values
    n = values.size
    if n == 0:
        raise ValueError("cannot smooth an empty series")
    k = cfg.order_k
    out = np.empty(n)
    warm = min(k - 1, n)
    if warm:
        out[:warm] = np.cumsum(values[:warm]) / np.arange(1, warm + 1)
    if n >= k:
        out[k - 1 :] = np.convolve(values, np.full(k, 1.0 / k), mode="valid")
    return ErrorSeries(values=out, start_index=raw.start_index)
