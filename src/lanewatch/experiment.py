"""The seeded self-assessment chain, which the CLI runs too: train on nominal
drives, calibrate the gamma on other nominal drives, score drives for
evaluation.  A drive is named by its track seed, so steps are deterministic."""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .smoothing import ArFilterConfig, ar_filter

__all__ = [
    "ScoredDrive",
    "nominal_drive",
    "train_nominal",
    "calibrate",
    "worst_case_spec",
    "score_drive",
    "departures_per_drive",
]


@dataclass(frozen=True)
class ScoredDrive:
    log: MisbehaviourLog
    raw: ErrorSeries
    smoothed: ErrorSeries


def nominal_drive(seed: int, n_frames: int) -> FrameStream:
    """The misbehaviour-free drive on track `seed`."""
    stream, log, _ = generate_scenario(ScenarioSpec(track_seed=seed, n_frames=n_frames))
    if log.count:
        raise DegenerateDataError(f"nominal drive {seed} has {log.count} misbehaviours")
    return stream


def train_nominal(
    seeds, n_frames: int, kind: ReconstructorKind | str, hyper: TrainConfig
) -> ReconstructorModel:
    """Train on one nominal drive per seed, pooled into one stream.  The
    pool is filled drive by drive, so no more than one drive is held
    beside it."""
    pool = None
    for i, seed in enumerate(seeds):
        drive = nominal_drive(seed, n_frames).frames
        if pool is None:
            pool = np.empty((len(seeds), *drive.shape), np.float32)
        pool[i] = drive
        del drive
    frames = pool.reshape(-1, *pool.shape[2:])
    return train_reconstructor(FrameStream(frames=frames, frame_rate_hz=10.0), kind, hyper)


def calibrate(model: ReconstructorModel, drives, ar: ArFilterConfig) -> tuple[GammaParams, int]:
    """Gamma fit on the pooled smoothed errors of nominal drives, and the
    pooled sample count.  A drive is a FrameStream or an io.FrameFile;
    both are scored block by block."""
    # map lets go of each drive before it asks for the next one.
    smoothed = map(lambda d: ar_filter(error_series(model, d), ar).values, drives)
    pooled = np.concatenate(list(smoothed))
    return fit_gamma_mle(pooled), pooled.size


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


def departures_per_drive(
    intensity_max: float, n_drives: int, n_frames: int, cycle_period_s: float = 10.0
) -> list[int]:
    """Lane departures in each of n_drives all-conditions drives peaking at
    intensity_max, at track seeds 4000 onward (disjoint from the seeds the
    tests train, calibrate and evaluate on)."""
    return [
        generate_scenario(
            replace(
                worst_case_spec(seed, n_frames),
                intensity_max=intensity_max,
                cycle_period_s=cycle_period_s,
            )
        )[1].count
        for seed in range(4000, 4000 + n_drives)
    ]
