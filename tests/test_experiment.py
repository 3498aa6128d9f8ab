"""The seeded experiment helpers."""

from __future__ import annotations

import tracemalloc
import weakref

from lanewatch.experiment import calibrate, nominal_drive, train_nominal
from lanewatch.reconstruct import TrainConfig
from lanewatch.smoothing import ArFilterConfig


def test_train_nominal_holds_one_drive_beside_the_pool():
    seeds, n_frames = (7, 8, 9), 600
    drive_bytes = nominal_drive(seeds[0], n_frames).frames.nbytes
    tracemalloc.start()
    try:
        train_nominal(seeds, n_frames, "sae", TrainConfig(epochs=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding every drive beside their np.concatenate would peak at two pools.
    assert peak <= (len(seeds) + 2) * drive_bytes


def test_calibrate_drops_each_drive_before_the_next():
    model = train_nominal((7,), 60, "sae", TrainConfig(epochs=0))
    held = []

    def drives():
        previous = None
        for seed in (7, 8, 9):
            held.append(previous is not None and previous() is not None)
            drive = nominal_drive(seed, 60)
            previous = weakref.ref(drive)
            yield drive
            del drive

    _, n_samples = calibrate(model, drives(), ArFilterConfig())
    assert n_samples == 3 * 60
    assert held == [False, False, False]
