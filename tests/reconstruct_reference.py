"""References for `lanewatch.reconstruct.error_series`.

`error_series` scores a whole stream in float32 blocks of samples, in
buffers it allocates once.  `forward` here is a plain forward pass in the
dtype of its inputs with a fresh array per layer.  It is slow but easy to
read, and it shares no code with the loop it checks.  Given float32
inputs it computes what `error_series` computes, and tests assert that
the blocked scores equal it; given float64 inputs it is the
higher-precision reference the float32 scores are held close to.
"""

from __future__ import annotations

import numpy as np

from lanewatch.reconstruct import Activation, ReconstructorModel


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

