"""Every numeric field is checked by the type that holds it, through
errors.integer and errors.real, whichever path the value came by."""

from __future__ import annotations

import numpy as np
import pytest

from lanewatch.cli import PipelineConfig
from lanewatch.detector import DetectorConfig
from lanewatch.errors import integer, real
from lanewatch.evalkit import LabellingConfig, WindowKind, WindowLabel
from lanewatch.reconstruct import ErrorSeries, FrameStream, TrainConfig
from lanewatch.scenario import ScenarioSpec
from lanewatch.smoothing import ArFilterConfig


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrainConfig(hidden_sizes=(32.7,)), "hidden_sizes[0] must be an integer, got 32.7"),
        (lambda: TrainConfig(epochs=True), "epochs must be an integer, got True"),
        (lambda: TrainConfig(batch_size=8.9), "batch_size must be an integer, got 8.9"),
        (lambda: ScenarioSpec(n_frames=2.5), "n_frames must be an integer, got 2.5"),
        (lambda: ScenarioSpec(frame_rate_hz="10"), "frame_rate_hz must be a number, got '10'"),
        (lambda: LabellingConfig(window_a=1.5), "window_a must be an integer, got 1.5"),
        (lambda: ArFilterConfig(order_k=True), "order_k must be an integer, got True"),
        (lambda: DetectorConfig(theta=True), "theta must be a number, got True"),
        (lambda: DetectorConfig(theta="0.1"), "theta must be a number, got '0.1'"),
        (lambda: DetectorConfig(theta=0.1, healing_frames_h=2.5),
         "healing_frames_h must be an integer, got 2.5"),
        (lambda: WindowLabel(start=1.5, length=30, kind=WindowKind.NORMAL),
         "start must be an integer, got 1.5"),
        (lambda: WindowLabel(start=0, length=True, kind=WindowKind.NORMAL),
         "length must be an integer, got True"),
        (lambda: ErrorSeries(values=[0.1, 0.2, 0.3], start_index=1.5),
         "start_index must be an integer, got 1.5"),
        (lambda: FrameStream(frames=np.zeros((1, 2, 2, 1)), frame_rate_hz="10"),
         "frame_rate_hz must be a number, got '10'"),
        (lambda: PipelineConfig(epsilon="0.05"), "epsilon must be a number, got '0.05'"),
        (lambda: PipelineConfig(thresholds=[True]), "thresholds[0] must be a number, got True"),
        # inf passes every "> 0" check, so the number check refuses it.
        (lambda: FrameStream(frames=np.zeros((1, 2, 2, 1)), frame_rate_hz=float("inf")),
         "frame_rate_hz must be finite, got inf"),
        (lambda: PipelineConfig(thresholds=[0.1, float("inf")]),
         "thresholds[1] must be finite, got inf"),
    ],
    ids=["hidden-size-fractional", "epochs-boolean", "batch-size-fractional",
         "n-frames-fractional", "frame-rate-string", "window-a-fractional",
         "order-k-boolean", "theta-boolean", "theta-string", "healing-fractional",
         "window-start-fractional", "window-length-boolean", "start-index-fractional",
         "stream-frame-rate-string", "epsilon-string", "threshold-boolean",
         "stream-frame-rate-inf", "threshold-inf"],
)
def test_library_constructors_reject_what_the_config_rejects(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_integral_values_pass_as_ints():
    cfg = TrainConfig(epochs=2.0, hidden_sizes=[np.int64(8)])
    assert type(cfg.epochs) is int and cfg.epochs == 2
    assert cfg.hidden_sizes == (8,) and type(cfg.hidden_sizes[0]) is int
    assert ScenarioSpec(track_seed=np.int64(3)).track_seed == 3


def test_the_two_checks():
    assert [integer(v, "x") for v in (2, 2.0, np.int64(2))] == [2, 2, 2]
    assert [real(v, "x") for v in (2, 2.5, np.float32(0.5))] == [2.0, 2.5, 0.5]
    for value in (2.5, float("inf"), float("nan"), True, "2", None):
        with pytest.raises(ValueError, match="x must be an integer"):
            integer(value, "x")
    for value in (True, np.bool_(False), "2.5", None, [1.0]):
        with pytest.raises(ValueError, match="x must be a number"):
            real(value, "x")
    with pytest.raises(ValueError, match="x is too large for a float"):
        real(10**400, "x")
    for value in (float("inf"), -np.inf, float("nan"), np.float32("nan")):
        with pytest.raises(ValueError, match=f"x must be finite, got {float(value)}"):
            real(value, "x")
