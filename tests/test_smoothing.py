"""Trailing-average filter: hand values, warm-up, streaming equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanewatch.reconstruct import ErrorSeries
from lanewatch.smoothing import ArFilterConfig, ar_filter
from smoothing_reference import ArStream

error_values = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=80
)


def test_hand_example_k3():
    out = ar_filter(ErrorSeries(values=[3.0, 6.0, 9.0]), ArFilterConfig(order_k=3))
    # Warm up over what exists, then the full 3-point average.
    assert list(out.values) == pytest.approx([3.0, 4.5, 6.0])


def test_warm_up_includes_current_value():
    out = ar_filter(ErrorSeries(values=[2.0, 4.0, 0.0, 0.0]), ArFilterConfig(order_k=4))
    assert list(out.values) == pytest.approx([2.0, 3.0, 2.0, 1.5])


def test_k1_is_identity():
    values = [0.5, 0.1, 0.9, 0.3]
    out = ar_filter(ErrorSeries(values=values), ArFilterConfig(order_k=1))
    assert list(out.values) == pytest.approx(values)


def test_length_and_start_index_preserved():
    raw = ErrorSeries(values=[0.1, 0.2, 0.3, 0.4], start_index=3)
    out = ar_filter(raw)
    assert len(out.values) == 4
    assert out.start_index == 3


def test_default_order_is_ten():
    assert ArFilterConfig().order_k == 10
    # Once warmed up, the default output is the mean of the last ten values.
    values = np.arange(12.0)
    out = ar_filter(ErrorSeries(values=values))
    assert list(out.values[9:]) == pytest.approx([4.5, 5.5, 6.5])


def test_constant_series_is_fixed_point():
    out = ar_filter(ErrorSeries(values=[0.7] * 25), ArFilterConfig(order_k=10))
    assert list(out.values) == pytest.approx([0.7] * 25)


def test_variance_reduction_near_one_over_k():
    # Uniform weights over k iid values cut variance by k once warmed up.
    rng = np.random.default_rng(123)
    raw = rng.random(200_000)
    k = 10
    out = ar_filter(ErrorSeries(values=raw), ArFilterConfig(order_k=k))
    ratio = float(np.var(out.values[k - 1 :]) / np.var(raw))
    assert 0.6 / k < ratio < 1.4 / k


@given(error_values, st.integers(min_value=1, max_value=12))
def test_streaming_matches_batch(values, k):
    cfg = ArFilterConfig(order_k=k)
    batch = ar_filter(ErrorSeries(values=values), cfg)
    stream = ArStream(cfg=cfg)
    pushed = [stream.push(v) for v in values]
    assert pushed == pytest.approx(list(batch.values), abs=1e-12)


@given(error_values)
def test_output_within_input_hull(values):
    # A convex combination of past values cannot escape their range.
    out = ar_filter(ErrorSeries(values=values), ArFilterConfig(order_k=5))
    assert np.all(out.values >= min(values) - 1e-12)
    assert np.all(out.values <= max(values) + 1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ArFilterConfig(order_k=0)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        ar_filter(ErrorSeries(values=[]))


def test_stream_rejects_negative():
    with pytest.raises(ValueError):
        ArStream().push(-0.1)
