"""Single-frame references for `lanewatch.reconstruct.error_series`.

`error_series` scores a whole stream in float64 blocks of samples.  These
helpers reconstruct and score one frame at a time with the model's own
forward pass, so they are slow but easy to read; tests assert that the
blocked scores equal them.
"""

from __future__ import annotations

import numpy as np

from lanewatch.reconstruct import ReconstructorModel, _forward


def reconstruction_error(x: np.ndarray, x_prime: np.ndarray) -> float:
    """Mean pixel-wise squared error between a frame and its reconstruction."""
    if x.shape != x_prime.shape:
        raise ValueError(f"frame shapes differ: {x.shape} vs {x_prime.shape}")
    diff = x - x_prime
    return float(np.mean(diff * diff))


def reconstruct(model: ReconstructorModel, history: np.ndarray) -> np.ndarray:
    """Reconstruct one frame: a (k, height, width, channels) history in, an
    (height, width, channels) frame out, clamped to [0, 1].

    Autoencoders take the frame itself (k = 1); the sequence predictor
    takes its previous history_k frames, oldest first.
    """
    history = np.asarray(history, dtype=np.float64)
    needed = model.input_window
    if history.ndim != 4 or len(history) != needed:
        raise ValueError(
            f"{model.kind.value} needs a ({needed}, height, width, channels) history, "
            f"got shape {history.shape}"
        )
    flat = history.reshape(1, -1)
    if flat.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"input size {flat.shape[1]} does not match model input {model.layer_sizes[0]}"
        )
    _, post = _forward(model.weights, model.biases, model.activation, flat)
    return np.clip(post[-1], 0.0, 1.0)[0].reshape(history.shape[1:])
