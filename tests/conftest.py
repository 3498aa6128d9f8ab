"""Shared fixtures: one trained reconstructor and the scenario batches the
end-to-end tests score. Everything is seeded, so every fixture is
deterministic across runs; session scope means the expensive pieces are
built once no matter how many tests touch them."""

from __future__ import annotations

import numpy as np
import pytest

from lanewatch.evalkit import label_windows, threshold_grid
from lanewatch.experiment import (
    calibrate,
    nominal_drive,
    score_drive,
    train_nominal,
    worst_case_spec,
)
from lanewatch.gammafit import estimate_threshold
from lanewatch.reconstruct import ReconstructorKind, TrainConfig
from lanewatch.scenario import ScenarioSpec
from lanewatch.smoothing import ArFilterConfig

TRAIN_SEEDS = (1000, 1001, 1002, 1003, 1004, 1005)
CALIBRATION_SEEDS = tuple(range(1500, 1508))
HELDOUT_SEEDS = tuple(range(2000, 2010))
EVAL_SEEDS = tuple(range(3000, 3020))


def _scored(model, spec: ScenarioSpec) -> dict:
    drive = score_drive(model, spec)
    return {"log": drive.log, "raw": drive.raw.values, "smooth": drive.smoothed}


@pytest.fixture(scope="session")
def nominal_model():
    """Shallow autoencoder trained on six misbehaviour-free nominal drives."""
    return train_nominal(
        TRAIN_SEEDS, 900, ReconstructorKind.SAE, TrainConfig(epochs=120, seed=0)
    )


@pytest.fixture(scope="session")
def calibration(nominal_model):
    """Gamma fit on pooled smoothed nominal errors plus both thresholds."""
    drives = (nominal_drive(seed, 600) for seed in CALIBRATION_SEEDS)
    params, _ = calibrate(nominal_model, drives, ArFilterConfig())
    return {
        "params": params,
        "th05": estimate_threshold(params, 0.05).theta,
        "th01": estimate_threshold(params, 0.01).theta,
    }


@pytest.fixture(scope="session")
def heldout_nominal(nominal_model):
    """Nominal drives the model never saw, scored and smoothed."""
    return [
        _scored(nominal_model, ScenarioSpec(track_seed=seed, n_frames=600))
        for seed in HELDOUT_SEEDS
    ]


@pytest.fixture(scope="session")
def eval_runs(nominal_model):
    """Twenty max-intensity combined-condition drives with window labels."""
    runs = []
    for seed in EVAL_SEEDS:
        run = _scored(nominal_model, worst_case_spec(seed, 2000))
        run["labels"] = label_windows(run["log"])
        runs.append(run)
    return runs


@pytest.fixture(scope="session")
def sweep_grid(eval_runs):
    """Threshold grid over the pooled smoothed errors of the evaluation drives."""
    return threshold_grid(np.concatenate([r["smooth"].values for r in eval_runs]))
