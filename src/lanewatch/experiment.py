"""The seeded self-assessment chain: train on nominal drives, calibrate the
gamma on other nominal drives, score drives for evaluation.  A drive is
named by its track seed, so every step is deterministic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .gammafit import GammaParams, fit_gamma_mle
from .reconstruct import (
    ErrorSeries,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from .scenario import Condition, MisbehaviourLog, ScenarioSpec, generate_scenario
from .smoothing import ar_filter

__all__ = ["ScoredDrive", "train_nominal", "calibrate", "worst_case_spec", "score_drive"]


@dataclass(frozen=True)
class ScoredDrive:
    log: MisbehaviourLog
    raw: ErrorSeries
    smoothed: ErrorSeries


def _nominal_drive(seed: int, n_frames: int) -> FrameStream:
    stream, log, _ = generate_scenario(ScenarioSpec(track_seed=seed, n_frames=n_frames))
    if log.count:
        raise DegenerateDataError(f"nominal drive {seed} has {log.count} misbehaviours")
    return stream


def train_nominal(
    seeds, n_frames: int, kind: ReconstructorKind | str, hyper: TrainConfig
) -> ReconstructorModel:
    """Train on one nominal drive per seed, pooled into one stream."""
    frames = np.concatenate([_nominal_drive(seed, n_frames).frames for seed in seeds])
    return train_reconstructor(FrameStream(frames=frames, frame_rate_hz=10.0), kind, hyper)


def calibrate(model: ReconstructorModel, seeds, n_frames: int) -> GammaParams:
    """Gamma fit on the pooled smoothed errors of one nominal drive per seed."""
    smoothed = [
        ar_filter(error_series(model, _nominal_drive(seed, n_frames))).values
        for seed in seeds
    ]
    return fit_gamma_mle(np.concatenate(smoothed))


def worst_case_spec(seed: int, n_frames: int) -> ScenarioSpec:
    """Every degraded condition at once, at full intensity on a 10 s cycle:
    the drives misbehaviour prediction is evaluated on."""
    return ScenarioSpec(
        track_seed=seed,
        n_frames=n_frames,
        conditions=frozenset(Condition) - {Condition.NOMINAL},
        cycle_period_s=10.0,
        intensity_max=1.0,
    )


def score_drive(model: ReconstructorModel, spec: ScenarioSpec) -> ScoredDrive:
    """Generate the drive `spec` describes and score every frame."""
    stream, log, _ = generate_scenario(spec)
    raw = error_series(model, stream)
    return ScoredDrive(log=log, raw=raw, smoothed=ar_filter(raw))
