"""The seeded experiment helpers."""

from __future__ import annotations

import tracemalloc

from lanewatch.experiment import _nominal_drive, train_nominal
from lanewatch.reconstruct import TrainConfig


def test_train_nominal_holds_one_drive_beside_the_pool():
    seeds, n_frames = (7, 8, 9), 600
    drive_bytes = _nominal_drive(seeds[0], n_frames).frames.nbytes
    tracemalloc.start()
    try:
        train_nominal(seeds, n_frames, "sae", TrainConfig(epochs=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding every drive beside their np.concatenate would peak at two pools.
    assert peak <= (len(seeds) + 2) * drive_bytes
