"""Alarm detector: worked decisions, cooldown arithmetic, per-frame reference."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanewatch.detector import (
    Decision,
    DetectorConfig,
    run_detector,
    run_detector_verbose,
)
from lanewatch.reconstruct import ErrorSeries

smoothed_series = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=120
)


def test_worked_sequence():
    cfg = DetectorConfig(theta=0.5, healing_frames_h=3)
    series = ErrorSeries(values=[0.1, 0.7, 0.8, 0.2, 0.9])
    alarms, decisions = run_detector_verbose(series, cfg)
    assert alarms == [1]
    assert decisions == [
        Decision.QUIET,
        Decision.ALARM,
        Decision.SUPPRESSED,
        Decision.QUIET,
        Decision.SUPPRESSED,
    ]


def test_boundary_crossing_fires():
    cfg = DetectorConfig(theta=0.5, healing_frames_h=2)
    assert run_detector(ErrorSeries(values=[0.5]), cfg) == [0]


def test_earliest_realarm_is_h_plus_one_later():
    cfg = DetectorConfig(theta=0.5, healing_frames_h=4)
    hot = ErrorSeries(values=[0.9] * 11)
    assert run_detector(hot, cfg) == [0, 5, 10]


def test_cooldown_expires_without_crossing():
    cfg = DetectorConfig(theta=0.5, healing_frames_h=2)
    series = ErrorSeries(values=[0.9, 0.1, 0.1, 0.1, 0.9])
    alarms, decisions = run_detector_verbose(series, cfg)
    assert alarms == [0, 4]
    assert decisions[1:4] == [Decision.QUIET, Decision.QUIET, Decision.QUIET]


def test_start_index_offsets_alarm_frames():
    cfg = DetectorConfig(theta=0.5, healing_frames_h=3)
    series = ErrorSeries(values=[0.9, 0.1], start_index=40)
    assert run_detector(series, cfg) == [40]


@given(smoothed_series, st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=9))
def test_alarm_spacing_invariant(values, theta, h):
    cfg = DetectorConfig(theta=theta, healing_frames_h=h)
    alarms = run_detector(ErrorSeries(values=values), cfg)
    assert all(b - a >= h + 1 for a, b in zip(alarms, alarms[1:]))
    # Every alarm frame is an actual crossing.
    assert all(values[a] >= theta for a in alarms)


def _per_frame_reference(values, start_index, theta, h):
    """One frame at a time with a cooldown counter: inside a cooldown the
    counter ticks down and crossings are suppressed; outside it a
    crossing alarms and arms the counter with h."""
    alarms, decisions = [], []
    cooldown = 0
    for offset, value in enumerate(values):
        crossing = value >= theta
        if cooldown > 0:
            cooldown -= 1
            decisions.append(Decision.SUPPRESSED if crossing else Decision.QUIET)
        elif crossing:
            cooldown = h
            alarms.append(start_index + offset)
            decisions.append(Decision.ALARM)
        else:
            decisions.append(Decision.QUIET)
    return alarms, decisions


@given(smoothed_series, st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=500))
def test_matches_per_frame_cooldown_loop(values, theta, h, start_index):
    cfg = DetectorConfig(theta=theta, healing_frames_h=h)
    got = run_detector_verbose(ErrorSeries(values=values, start_index=start_index), cfg)
    assert got == _per_frame_reference(values, start_index, theta, h)


def test_decisions_align_with_alarms():
    cfg = DetectorConfig(theta=0.3, healing_frames_h=5)
    values = [0.1, 0.4, 0.6, 0.1, 0.1, 0.1, 0.1, 0.8]
    alarms, decisions = run_detector_verbose(ErrorSeries(values=values), cfg)
    assert [i for i, d in enumerate(decisions) if d is Decision.ALARM] == alarms


def test_validation():
    for theta in (0.0, float("inf")):
        with pytest.raises(ValueError):
            DetectorConfig(theta=theta)
    with pytest.raises(ValueError):
        DetectorConfig(theta=0.5, healing_frames_h=0)
    # The series type refuses what the detector cannot order against theta.
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ErrorSeries(values=[0.1, bad])
