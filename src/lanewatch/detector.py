"""Alarm detector over smoothed reconstruction errors.

A frame whose smoothed error is at or above the threshold is a crossing.
A crossing more than healing_frames_h frames after the last alarm raises
an alarm; every other crossing falls inside the cooldown that alarm
started and is reported as Suppressed, modelling a self-healing reaction
that a second alarm could not improve.  Consequently any two recorded
alarms are separated by strictly more than healing_frames_h frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .reconstruct import ErrorSeries

__all__ = [
    "Decision",
    "DetectorConfig",
    "run_detector",
    "run_detector_verbose",
]

DEFAULT_HEALING_FRAMES = 60


class Decision(str, Enum):
    QUIET = "quiet"
    ALARM = "alarm"
    SUPPRESSED = "suppressed"


@dataclass
class DetectorConfig:
    """Threshold and cooldown length."""

    theta: float
    healing_frames_h: int = DEFAULT_HEALING_FRAMES

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError(f"threshold must be positive, got {self.theta}")
        if self.healing_frames_h < 1:
            raise ValueError(
                f"healing cooldown must be at least 1 frame, got {self.healing_frames_h}"
            )


def run_detector_verbose(
    smoothed: ErrorSeries, cfg: DetectorConfig
) -> tuple[list[int], list[Decision]]:
    """Alarms as frame indices (offset by the series start) and one
    decision per value.  Only the crossings are visited."""
    decisions = [Decision.QUIET] * len(smoothed)
    alarms: list[int] = []
    quiet_until = -1
    for i in np.flatnonzero(smoothed.values >= cfg.theta).tolist():
        if i > quiet_until:
            decisions[i] = Decision.ALARM
            alarms.append(smoothed.start_index + i)
            quiet_until = i + cfg.healing_frames_h
        else:
            decisions[i] = Decision.SUPPRESSED
    return alarms, decisions


def run_detector(smoothed: ErrorSeries, cfg: DetectorConfig) -> list[int]:
    """Frame indices at which alarms fire."""
    return run_detector_verbose(smoothed, cfg)[0]
