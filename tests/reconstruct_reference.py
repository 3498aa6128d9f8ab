"""References for `lanewatch.reconstruct.error_series`.

`error_series` scores a whole stream in float32 blocks of samples, in
buffers it allocates once.  `forward` here is a plain forward pass in the
dtype of its inputs with a fresh array per layer, and `reconstruct`
applies it to one frame.  They are slow but easy to read, and they share
no code with the loop they check.  Given float32 inputs they compute what
`error_series` computes, and tests assert that the blocked scores equal
them; given float64 inputs they are the higher-precision reference the
float32 scores are held close to.
"""

from __future__ import annotations

import numpy as np

from lanewatch.reconstruct import Activation, ReconstructorModel


def reconstruction_error(x: np.ndarray, x_prime: np.ndarray) -> float:
    """Mean pixel-wise squared error between a frame and its reconstruction."""
    if x.shape != x_prime.shape:
        raise ValueError(f"frame shapes differ: {x.shape} vs {x_prime.shape}")
    diff = x - x_prime
    return float(np.mean(diff * diff))


def forward(model: ReconstructorModel, inputs: np.ndarray) -> np.ndarray:
    """Reconstructions of an (n, input size) matrix of samples, computed in
    the matrix's dtype and clamped to [0, 1]: each layer a @ w.T + b, then
    the activation."""
    a = np.asarray(inputs)
    relu = model.activation is Activation.RELU
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.astype(a.dtype).T + b.astype(a.dtype)
        if l < last:
            # The sigmoid in the tanh form the model computes.
            a = np.maximum(a, 0.0) if relu else (np.tanh(a * 0.5) + 1.0) * 0.5
    return np.clip(a, 0.0, 1.0)


def reconstruct(model: ReconstructorModel, history: np.ndarray) -> np.ndarray:
    """Reconstruct one frame: a (k, height, width, channels) history in, an
    (height, width, channels) frame out, clamped to [0, 1], in the
    history's dtype.

    Autoencoders take the frame itself (k = 1); the sequence predictor
    takes its previous history_k frames, oldest first.
    """
    history = np.asarray(history)
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
    return forward(model, flat)[0].reshape(history.shape[1:])
