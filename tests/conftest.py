"""Shared fixtures: one trained reconstructor and the scenario batches the
end-to-end tests score. Everything is seeded, so every fixture is
deterministic across runs; session scope means the expensive pieces are
built once no matter how many tests touch them."""

from __future__ import annotations

import numpy as np
import pytest

from lanewatch.evalkit import label_windows
from lanewatch.gammafit import estimate_threshold, fit_gamma_mle
from lanewatch.reconstruct import (
    FrameStream,
    ReconstructorKind,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.scenario import Condition, ScenarioSpec, generate_scenario
from lanewatch.smoothing import ar_filter

TRAIN_SEEDS = (1000, 1001, 1002, 1003, 1004, 1005)
CALIBRATION_SEEDS = tuple(range(1500, 1508))
HELDOUT_SEEDS = tuple(range(2000, 2010))
EVAL_SEEDS = tuple(range(3000, 3020))
ALL_CONDITIONS = frozenset(
    {Condition.DAY_NIGHT_CYCLE, Condition.RAIN, Condition.SNOW, Condition.FOG}
)
HEALING_H = 60

EVAL_SPEC = dict(
    n_frames=2000,
    conditions=ALL_CONDITIONS,
    cycle_period_s=10.0,
    intensity_max=1.0,
)


@pytest.fixture(scope="session")
def nominal_model():
    """Shallow autoencoder trained on six nominal drives."""
    drives = []
    for seed in TRAIN_SEEDS:
        stream, log, _ = generate_scenario(ScenarioSpec(track_seed=seed, n_frames=900))
        assert log.count == 0, "training streams must be misbehaviour-free"
        drives.append(stream.frames)
    stream = FrameStream(frames=np.concatenate(drives), frame_rate_hz=10.0)
    return train_reconstructor(
        stream, ReconstructorKind.SAE, TrainConfig(epochs=120, seed=0)
    )


@pytest.fixture(scope="session")
def calibration(nominal_model):
    """Gamma fit on pooled smoothed nominal errors plus both thresholds."""
    smoothed = []
    for seed in CALIBRATION_SEEDS:
        stream, log, _ = generate_scenario(ScenarioSpec(track_seed=seed, n_frames=600))
        assert log.count == 0
        smoothed.append(ar_filter(error_series(nominal_model, stream)).values)
    params = fit_gamma_mle(np.concatenate(smoothed))
    return {
        "params": params,
        "th05": estimate_threshold(params, 0.05).theta,
        "th01": estimate_threshold(params, 0.01).theta,
    }


@pytest.fixture(scope="session")
def heldout_nominal(nominal_model):
    """Nominal drives the model never saw, scored and smoothed."""
    runs = []
    for seed in HELDOUT_SEEDS:
        stream, log, _ = generate_scenario(ScenarioSpec(track_seed=seed, n_frames=600))
        raw = error_series(nominal_model, stream)
        runs.append({"log": log, "raw": raw.values, "smooth": ar_filter(raw)})
    return runs


@pytest.fixture(scope="session")
def eval_runs(nominal_model):
    """Twenty max-intensity combined-condition drives with window labels."""
    runs = []
    for seed in EVAL_SEEDS:
        spec = ScenarioSpec(track_seed=seed, **EVAL_SPEC)
        stream, log, _ = generate_scenario(spec)
        raw = error_series(nominal_model, stream)
        runs.append(
            {
                "log": log,
                "raw": raw.values,
                "smooth": ar_filter(raw),
                "labels": label_windows(log),
            }
        )
    return runs


@pytest.fixture(scope="session")
def sweep_grid(eval_runs):
    """Threshold grid: pooled smoothed-error quantiles from the 40th
    percentile up. Below that the grid would sweep the quiet-zone floor,
    where the alarm cooldown decides hits by phase rather than by
    sensitivity."""
    pool = np.concatenate([r["smooth"].values for r in eval_runs])
    return [float(q) for q in np.quantile(pool, np.linspace(0.40, 0.995, 36))]
