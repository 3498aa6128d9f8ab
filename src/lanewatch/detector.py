"""Online alarm detector over smoothed reconstruction errors.

A frame whose smoothed error is at or above the threshold raises an alarm
unless a cooldown is active.  Each alarm starts a cooldown of
healing_frames_h frames during which further threshold crossings are
reported as Suppressed instead, modelling a self-healing reaction that a
second alarm could not improve.  Consequently any two recorded alarms are
separated by strictly more than healing_frames_h frames.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .reconstruct import ErrorSeries

__all__ = [
    "Decision",
    "DetectorConfig",
    "DetectorState",
    "detector_step",
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


@dataclass(frozen=True)
class DetectorState:
    """Progress of one detector run; advanced functionally step by step.

    frames_seen doubles as the index of the next frame, so a run over a
    series that starts at a nonzero frame index seeds it with that index.
    """

    frames_seen: int = 0
    cooldown_remaining: int = 0
    alarms: tuple[int, ...] = ()

    def __post_init__(self):
        if self.frames_seen < 0 or self.cooldown_remaining < 0:
            raise ValueError("detector counters cannot be negative")

    def to_json_dict(self) -> dict:
        return {
            "frames_seen": self.frames_seen,
            "cooldown_remaining": self.cooldown_remaining,
            "alarms": list(self.alarms),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DetectorState":
        return cls(
            frames_seen=int(d["frames_seen"]),
            cooldown_remaining=int(d["cooldown_remaining"]),
            alarms=tuple(int(a) for a in d["alarms"]),
        )


def detector_step(
    state: DetectorState, smoothed_error: float, cfg: DetectorConfig
) -> tuple[DetectorState, Decision]:
    """Consume one smoothed error; return the next state and the decision.

    Inside a cooldown the counter just ticks down and crossings are
    Suppressed; outside it a crossing (error >= theta, boundary included)
    raises an Alarm and arms the cooldown.
    """
    if not smoothed_error >= 0.0:
        raise ValueError(f"smoothed error must be non-negative, got {smoothed_error}")
    index = state.frames_seen
    crossing = smoothed_error >= cfg.theta
    if state.cooldown_remaining > 0:
        next_state = replace(
            state,
            frames_seen=index + 1,
            cooldown_remaining=state.cooldown_remaining - 1,
        )
        return next_state, (Decision.SUPPRESSED if crossing else Decision.QUIET)
    if crossing:
        next_state = replace(
            state,
            frames_seen=index + 1,
            cooldown_remaining=cfg.healing_frames_h,
            alarms=state.alarms + (index,),
        )
        return next_state, Decision.ALARM
    return replace(state, frames_seen=index + 1), Decision.QUIET


def run_detector_verbose(
    smoothed: ErrorSeries, cfg: DetectorConfig
) -> tuple[list[int], list[Decision]]:
    """Fold detector_step over a series; alarms carry frame indices
    (offset by the series start), decisions come one per value."""
    state = DetectorState(frames_seen=smoothed.start_index)
    decisions: list[Decision] = []
    for value in smoothed.values:
        state, decision = detector_step(state, float(value), cfg)
        decisions.append(decision)
    return list(state.alarms), decisions


def run_detector(smoothed: ErrorSeries, cfg: DetectorConfig) -> list[int]:
    """Frame indices at which alarms fire; equals the streaming result."""
    alarms, _ = run_detector_verbose(smoothed, cfg)
    return alarms
