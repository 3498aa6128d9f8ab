"""Frame streams, image reconstructors, and per-frame reconstruction errors.

Reconstructors are small fully-connected networks trained by mini-batch
SGD to reproduce nominal camera frames: a shallow autoencoder (one hidden
layer), a deep autoencoder (five node layers), and a sequence predictor
that maps the previous k frames to the next one.  The per-frame error is
the mean pixel-wise squared difference between a frame and its
reconstruction.

Training is deterministic given the seed: weight initialization and the
per-epoch batch shuffle both draw from one seeded generator, so two runs
with identical inputs produce bit-identical weights.  Frames are float32
from the generator to the trainer, and the SGD steps run in float32
inside buffers allocated once per training call.  A model holds float32
weights and biases: every weight matrix but an input-major first layer
trains in the model's own array, so no second copy of the weights
exists.  Each training layer takes one of three forms, chosen from its
sizes and the batch rows (see _Workspace): an input-major first layer at
most 64 wide (sae's 1024-32, dae's 1024-64) multiplies a @ W with
W = w.T; a wide layer, both sizes above the batch (seq's one layer,
dae's 64-1024), w @ a.T; every other layer a @ w.T.  A weight larger
than _ROW_BLOCK_BYTES (seq's) is drawn, updated and upcast for scoring
in row blocks of that size; its blocked update has the bits of one
whole update.  The batch loss is one float32 dot of the output delta
with itself.  Scoring runs in float64, every layer as a @ w.T whatever
its form in training, so errors.csv does not depend on that choice, and
SCORE_BLOCK_ROWS samples at a time, so its memory does not grow with the
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, ConvergenceError, integer, real

__all__ = [
    "FrameStream",
    "ErrorSeries",
    "ReconstructorKind",
    "Activation",
    "ReconstructorModel",
    "TrainConfig",
    "train_reconstructor",
    "error_series",
]


class ReconstructorKind(str, Enum):
    SAE = "sae"
    DAE = "dae"
    SEQ = "seq"


class Activation(str, Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"


@dataclass
class FrameStream:
    """Ordered frames sharing one shape; index i is discrete time t = i.

    frames is one C-contiguous float32 array of shape (n_frames, height,
    width, channels): frame-major, row-major, channel last, the same dtype
    and layout as the FRM1 body.  Other input is rounded to float32 once,
    here, and the result is validated once, as a whole: every value must
    be finite and lie in [0, 1].
    """

    frames: np.ndarray
    frame_rate_hz: float = 30.0

    def __post_init__(self):
        self.frame_rate_hz = real(self.frame_rate_hz, "frame_rate_hz")
        if not self.frame_rate_hz > 0.0:
            raise ValueError(f"frame rate must be positive, got {self.frame_rate_hz}")
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 4 or min(self.frames.shape[1:]) <= 0:
            raise ValueError(
                "frames must have shape (n_frames, height, width, channels) with "
                f"positive frame dimensions, got {self.frames.shape}"
            )
        # NaN fails both comparisons, so this also rejects non-finite values.
        if self.frames.size and not (self.frames.min() >= 0.0 and self.frames.max() <= 1.0):
            raise ValueError(
                "pixel values must be finite and lie in [0, 1], found range "
                f"[{self.frames.min()}, {self.frames.max()}]"
            )

    def __len__(self) -> int:
        return self.frames.shape[0]

    def as_matrix(self) -> np.ndarray:
        """View the frames as an (n_frames, n_pixels) matrix."""
        return self.frames.reshape(len(self), math.prod(self.frames.shape[1:]))


@dataclass
class ErrorSeries:
    """Reconstruction errors indexed by frame: values[i] belongs to frame
    start_index + i.  Every value must be finite and non-negative."""

    values: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        self.start_index = integer(self.start_index, "start_index")
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        # NaN fails the comparison, so this also rejects it.
        if not np.all((self.values >= 0.0) & (self.values < np.inf)):
            raise ValueError("reconstruction errors must be finite and non-negative")

    def __len__(self) -> int:
        return int(self.values.size)

    def frame_indices(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + self.values.size)


@dataclass
class TrainConfig:
    """Hyperparameters for reconstructor training.

    hidden_sizes=None selects a per-kind default; an autoencoder takes as
    many sizes as its default has, the sequence predictor any number.  The
    learning rate is fixed per kind:
    the sequence predictor's affine map sees the full concatenated pixel
    vector and diverges at the step size the autoencoders want.
    history_k only applies to the sequence predictor.  Training reads the
    stream's float32 frames and computes in float32; the returned model
    holds the float32 weights and biases SGD updated, and scoring runs in
    float64.
    """

    hidden_sizes: tuple[int, ...] | None = None
    epochs: int = 150
    batch_size: int = 32
    seed: int = 0
    history_k: int = 3
    activation: Activation = Activation.RELU

    def __post_init__(self):
        if self.hidden_sizes is not None:
            self.hidden_sizes = tuple(
                integer(h, f"hidden_sizes[{i}]") for i, h in enumerate(self.hidden_sizes)
            )
            if any(h <= 0 for h in self.hidden_sizes):
                raise ConfigError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        for name in ("epochs", "batch_size", "seed", "history_k"):
            setattr(self, name, integer(getattr(self, name), name))
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.history_k <= 0:
            raise ConfigError(f"history_k must be positive, got {self.history_k}")
        self.activation = Activation(self.activation)


_DEFAULT_HIDDEN = {
    ReconstructorKind.SAE: (32,),
    ReconstructorKind.DAE: (64, 16, 64),
    ReconstructorKind.SEQ: (),
}

# SGD runs in float32: half the memory traffic of float64, and the
# gradient noise of a 32-sample batch is far above float32 rounding.
_TRAIN_DTYPE = np.float32

# A first layer with at most this many outputs trains input-major (see
# _Workspace).  Measured with one BLAS thread at batches of 1 to 1024
# rows, a @ W plus a.T @ delta is as fast as or faster than the other
# forms at 1024- and 3072-wide inputs up to 64 outputs; at 128 outputs
# it wins at 128 rows or fewer but not reliably at 256 and 512.
_INPUT_MAJOR_MAX_OUT = 64

# A weight matrix larger than this is handled in row blocks of this size:
# its float64 initial draws, its float32 gradient, each block held in L2
# between its product and its update (see _Workspace), and its float64
# upcast when scoring (see _forward).  With the defaults only seq's
# 3072-1024 weight is larger: 16 gradient blocks of 64 rows, 32 draw and
# scoring blocks of 32 rows.
_ROW_BLOCK_BYTES = 768 * 1024

# Scoring upcasts this many samples at a time to float64 (one more in a
# last block that would otherwise hold a single sample), so its
# temporaries stay the same size whatever the length of the stream.
SCORE_BLOCK_ROWS = 256

_DEFAULT_LEARNING_RATE = {
    ReconstructorKind.SAE: 10.0,
    ReconstructorKind.DAE: 10.0,
    ReconstructorKind.SEQ: 1.0,
}


@dataclass
class ReconstructorModel:
    """A trained fully-connected reconstructor.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); hidden layers
    apply the activation, the output layer is identity (clamped to [0, 1]
    only at reconstruction time, so training gradients stay exact).
    Weights and biases are float32, as trained or as read back; scoring
    runs in float64.
    """

    kind: ReconstructorKind
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: Activation
    history_k: int | None = None
    epoch_losses: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.kind = ReconstructorKind(self.kind)
        self.activation = Activation(self.activation)
        sizes, losses = self.layer_sizes, self.epoch_losses
        self.layer_sizes = [integer(s, f"layer_sizes[{i}]") for i, s in enumerate(sizes)]
        if self.history_k is not None:
            self.history_k = integer(self.history_k, "history_k")
        if not isinstance(losses, list):
            raise ValueError(f"epoch_losses must be a list, got {losses!r}")
        self.epoch_losses = [real(x, f"epoch_losses[{i}]") for i, x in enumerate(losses)]
        if not all(map(math.isfinite, self.epoch_losses)):
            raise ValueError("epoch_losses must be finite")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        n_links = len(self.layer_sizes) - 1
        if len(self.weights) != n_links or len(self.biases) != n_links:
            raise ValueError(
                f"expected {n_links} weight/bias pairs for {len(self.layer_sizes)} layers"
            )
        for l in range(n_links):
            n_in, n_out = self.layer_sizes[l], self.layer_sizes[l + 1]
            if self.weights[l].shape != (n_out, n_in):
                raise ValueError(
                    f"weight {l} has shape {self.weights[l].shape}, "
                    f"expected {(n_out, n_in)}"
                )
            if self.biases[l].shape != (n_out,):
                raise ValueError(
                    f"bias {l} has shape {self.biases[l].shape}, expected {(n_out,)}"
                )
        if self.kind is not ReconstructorKind.SEQ:
            n_layers = len(_DEFAULT_HIDDEN[self.kind]) + 2
            if len(sizes) != n_layers:
                raise ValueError(f"{self.kind.value} takes {n_layers} layer sizes, got {sizes}")
            if self.layer_sizes[0] != self.layer_sizes[-1]:
                raise ValueError("autoencoder input and output sizes must match")
            if self.history_k not in (None, 1):
                raise ValueError("history_k applies only to the sequence predictor")
        if self.kind is ReconstructorKind.SEQ:
            if self.history_k is None or self.history_k <= 0:
                raise ValueError("sequence predictor needs a positive history_k")
            if self.layer_sizes[0] != self.history_k * self.layer_sizes[-1]:
                raise ValueError(
                    f"sequence input size {self.layer_sizes[0]} must equal "
                    f"history_k * output size = {self.history_k * self.layer_sizes[-1]}"
                )

    @property
    def input_window(self) -> int:
        """Number of past frames one reconstruction consumes."""
        return self.history_k if self.kind is ReconstructorKind.SEQ else 1


def _activate(z: np.ndarray, activation: Activation, out: np.ndarray | None = None) -> np.ndarray:
    if activation is Activation.RELU:
        return np.maximum(z, 0.0, out=out)
    # tanh form of the sigmoid avoids exp overflow for large |z|
    a = np.multiply(z, 0.5, out=out)
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    return a


def _activate_grad(
    z: np.ndarray, a: np.ndarray, activation: Activation, out: np.ndarray
) -> np.ndarray:
    """Derivative of the activation at pre-activation z, whose activation
    is a, written into out."""
    if activation is Activation.RELU:
        return np.greater(z, 0.0, out=out)
    g = np.subtract(1.0, a, out=out)
    g *= a
    return g


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """np.empty, but starting on a 64-byte cache line.  np.empty starts
    where malloc does, on 16 bytes, so a buffer's offset within its cache
    line depended on every allocation made before it: a change elsewhere
    in the package that only defined two functions made seq's SGD steps
    about 5% slower.  Aligned, the step's speed no longer depends on
    unrelated code; the trained bits are the same."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


class _Workspace:
    """Buffers for one SGD step of up to `rows` examples, allocated once.

    A step on m <= rows examples writes into the first m rows of each
    batch-shaped buffer, so a short last batch needs no new arrays.

    Each layer takes one of three forms, chosen from its sizes and `rows`:

    - input-major: the first layer, when its output is narrow
      (n_out <= _INPUT_MAJOR_MAX_OUT, whatever `rows`).  Its training
      weights are held as W, shape (n_in, n_out); _forward computes a @ W
      and the gradient is a.T @ delta into an (n_in, n_out) buffer.
      OpenBLAS multiplies these as fast as or faster than a @ w.T and
      delta.T @ a at these shapes, and the first layer propagates no
      delta, which would be the slow delta @ W.T.  With the defaults this
      is sae's 1024-32 and dae's 1024-64 layer; seq's 3072-1024 layer
      stays wide at any batch size.  Unlike the wide form, a @ W can
      round differently from a @ w.T on a short batch, so a stream whose
      last batch is short may train weights that differ in float32
      rounding from the a @ w.T ones.
    - wide: both sizes exceed `rows`.  The pre-activation buffer is
      feature-major, (n_out, rows), and _forward fills its first m columns
      as w @ a.T, which OpenBLAS computes faster than a @ w.T at these
      shapes and sums in the same order.  With the defaults this is seq's
      one layer and dae's 64-1024 layer.
    - batch-major: every other layer, a @ w.T.

    A layer whose gradient exceeds _ROW_BLOCK_BYTES trains through
    _apply_blocked, block_rows[l] rows (at least two; 0 for every other
    layer) at a time into grad_w[l], which holds one block.  A block is
    rows of the whole product, each element summed over the batch in the
    same order, so the trained bits do not change.

    standard=True keeps every layer batch-major with (n_out, n_in)
    weights and full gradients, for the step that takes no workspace.
    Scoring uses no workspace and keeps a @ w.T (see _forward).
    """

    def __init__(self, layer_sizes: list[int], rows: int, dtype, standard: bool = False):
        outs = layer_sizes[1:]
        self.input_major = not standard and outs[0] <= _INPUT_MAJOR_MAX_OUT
        self.wide = [
            not standard and min(n_in, n_out) > rows and not (l == 0 and self.input_major)
            for l, (n_in, n_out) in enumerate(zip(layer_sizes, outs))
        ]
        self.pre = [
            _aligned_empty((n, rows) if wide else (rows, n), dtype)
            for n, wide in zip(outs, self.wide)
        ]
        # Hidden layers only: the output layer is the identity.
        self.post = [_aligned_empty((rows, n), dtype) for n in outs[:-1]]
        self.act_grad = [_aligned_empty((rows, n), dtype) for n in outs[:-1]]
        self.delta = [_aligned_empty((rows, n), dtype) for n in outs]
        shapes = [
            (n_in, n_out) if l == 0 and self.input_major else (n_out, n_in)
            for l, (n_in, n_out) in enumerate(zip(layer_sizes, outs))
        ]
        blocks = [_block_rows(r, n * np.dtype(dtype).itemsize) for r, n in shapes]
        self.block_rows = [
            0 if standard or br == r else br for (r, _), br in zip(shapes, blocks)
        ]
        # A blocked layer's buffer holds one block and a lone last row.
        self.grad_w = [
            _aligned_empty((br + 1, s[1]) if br else s, dtype)
            for s, br in zip(shapes, self.block_rows)
        ]
        self.grad_b = [_aligned_empty((n,), dtype) for n in outs]


def _block_rows(n_rows: int, row_bytes: int) -> int:
    """Rows per block of an n_rows matrix whose rows take row_bytes each:
    all of them when the matrix fits in _ROW_BLOCK_BYTES, else as many as
    fit, at least two (see _row_ranges)."""
    if n_rows * row_bytes <= _ROW_BLOCK_BYTES:
        return n_rows
    return max(2, _ROW_BLOCK_BYTES // row_bytes)


def _row_ranges(n: int, step: int) -> zip:
    """(start, end) ranges of step rows covering n rows.  A lone last row
    joins the range before it: numpy multiplies a one-row matrix on its
    matrix-vector path, which can round differently."""
    starts = range(0, max(n - 1, 1), step)
    return zip(starts, [*starts[1:], n])


def _forward(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    activation: Activation,
    x: np.ndarray,
    ws: _Workspace | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (pre-activations, post-activations); post[0] is the input.

    Every returned array is batch-major, (m, n).  With a workspace each
    layer is written into its buffers in the form it chose (see
    _Workspace); a wide layer's feature-major buffer is returned as the
    transposed view.  Without one, as when scoring, every layer is a @ w.T
    into fresh arrays in the dtype of a and w together, so scores
    (errors.csv) do not depend on the workspace's choice.  There a weight
    is cast one row block at a time (see _block_rows), each block's product
    written into its columns of z: a float32 weight scored in float64
    needs no whole float64 copy, and a weight that fits in one block
    gives the bits of one product."""
    m = len(x)
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        if ws is None:
            z = np.empty((m, len(w)), np.result_type(a, w))
            step = _block_rows(len(w), w.shape[1] * z.itemsize)
            for r0, r1 in _row_ranges(len(w), step):
                np.matmul(a, w[r0:r1].astype(z.dtype, copy=False).T, out=z[:, r0:r1])
        elif l == 0 and ws.input_major:
            z = np.matmul(a, w, out=ws.pre[0][:m])
        elif ws.wide[l]:
            z = np.matmul(w, a.T, out=ws.pre[l][:, :m]).T
        else:
            z = np.matmul(a, w.T, out=ws.pre[l][:m])
        z += b
        pre.append(z)
        a = z if l == last else _activate(z, activation, None if ws is None else ws.post[l][:m])
        post.append(a)
    return pre, post


def _loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    activation: Activation,
    x: np.ndarray,
    target: np.ndarray,
    ws: _Workspace | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Batch loss (mean over examples of per-pixel mean squared error) and
    its gradients with respect to every weight and bias.

    The arithmetic runs in the dtype of the inputs; the loss is one dot of
    the flat output delta with itself, divided by its size.  Without a
    workspace every weight and gradient is (n_out, n_in), in fresh arrays.
    With one, each layer takes the workspace's form (see _Workspace): an
    input-major first layer's weights and gradient are (n_in, n_out); the
    returned gradient lists are the workspace's own buffers, overwritten
    by its next step; a blocked layer's weight gradient is left to
    _apply_blocked, which reads the layer's delta from ws.delta.
    """
    if ws is None:
        sizes = [x.shape[1], *(len(b) for b in biases)]
        pre, post = _forward(weights, biases, activation, x)
        ws = _Workspace(sizes, len(x), np.result_type(x, *weights), standard=True)
    else:
        pre, post = _forward(weights, biases, activation, x, ws)
    m = len(x)
    delta = np.subtract(post[-1], target, out=ws.delta[-1][:m])
    flat = delta.reshape(-1)
    loss = float(np.dot(flat, flat)) / flat.size
    delta *= 2.0 / delta.size
    for l in range(len(weights) - 1, -1, -1):
        # The gradient is left.T @ right; row r of it is column r of left.
        left, right = (post[l], delta) if l == 0 and ws.input_major else (delta, post[l])
        if not ws.block_rows[l]:
            np.matmul(left.T, right, out=ws.grad_w[l])
        np.sum(delta, axis=0, out=ws.grad_b[l])
        if l > 0:
            grad = _activate_grad(pre[l - 1], post[l], activation, ws.act_grad[l - 1][:m])
            delta = np.matmul(delta, weights[l], out=ws.delta[l - 1][:m])
            delta *= grad
    return loss, ws.grad_w, ws.grad_b


def _apply_blocked(l: int, w: np.ndarray, x: np.ndarray, ws: _Workspace, rate: float) -> None:
    """SGD update of the blocked layer l's training weights w after
    _loss_and_grads on the batch x, one row block of gradient at a time."""
    a = x if l == 0 else ws.post[l - 1][: len(x)]
    delta = ws.delta[l][: len(x)]
    left, right = (a, delta) if l == 0 and ws.input_major else (delta, a)
    for start, end in _row_ranges(len(w), ws.block_rows[l]):
        g = ws.grad_w[l][: end - start]
        np.matmul(left[:, start:end].T, right, out=g)
        g *= rate
        w[start:end] -= g


def _sample_count(n_frames: int, history_k: int | None) -> int:
    """The number of samples n_frames frames hold.  An autoencoder
    (history_k None) has one sample per frame, its own target; sample i
    of the sequence predictor reads frames i ... i+k-1 (oldest first) and
    targets frame i+k."""
    if history_k is None:
        return n_frames
    if n_frames <= history_k:
        raise ValueError(
            f"sequence predictor needs more than history_k={history_k} frames, got {n_frames}"
        )
    return n_frames - history_k


def train_reconstructor(
    stream: FrameStream,
    kind: ReconstructorKind | str,
    hyper: TrainConfig | None = None,
) -> ReconstructorModel:
    """Fit a reconstructor to a nominal stream with mini-batch SGD in float32."""
    kind = ReconstructorKind(kind)
    hyper = hyper or TrainConfig()
    if len(stream) == 0:
        raise ValueError("cannot train on an empty stream")
    history_k = hyper.history_k if kind is ReconstructorKind.SEQ else None
    frames = stream.as_matrix()
    n_samples = _sample_count(len(frames), history_k)
    n_pixels = frames.shape[1]
    window = history_k or 1  # frames per input row
    hidden = hyper.hidden_sizes if hyper.hidden_sizes is not None else _DEFAULT_HIDDEN[kind]
    depth = len(_DEFAULT_HIDDEN[kind])
    if kind is not ReconstructorKind.SEQ and len(hidden) != depth:
        raise ConfigError(f"{kind.value} takes hidden_sizes of length {depth}, got {hidden}")
    layer_sizes = [window * n_pixels, *hidden, n_pixels]
    learning_rate = _DEFAULT_LEARNING_RATE[kind]

    rng = np.random.default_rng(hyper.seed)
    # The model's arrays are allocated first, before any training buffer:
    # allocated last, they would sit above the memory training frees and
    # keep the allocator from returning later temporaries to the system.
    # Each weight is drawn in float64 one row block at a time and rounded
    # as it is stored, so no whole float64 weight exists.
    weights: list[np.ndarray] = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(n_in)
        w = np.empty((n_out, n_in), _TRAIN_DTYPE)
        for start, end in _row_ranges(n_out, _block_rows(n_out, n_in * 8)):
            w[start:end] = rng.uniform(-bound, bound, size=(end - start, n_in))
        weights.append(w)
    biases = [np.zeros(n_out, _TRAIN_DTYPE) for n_out in layer_sizes[1:]]

    rows = min(hyper.batch_size, n_samples)
    ws = _Workspace(layer_sizes, rows, _TRAIN_DTYPE)
    # An input-major first layer trains as a copy W = w.T (see _Workspace),
    # every other weight in its model array.
    trained = list(weights)
    if ws.input_major:
        trained[0] = np.ascontiguousarray(weights[0].T)
    # Each batch is gathered from the float32 frame matrix straight into
    # these buffers; an autoencoder's target batch is its input batch.
    x_rows = _aligned_empty((rows, layer_sizes[0]), _TRAIN_DTYPE)
    t_rows = x_rows if history_k is None else _aligned_empty((rows, n_pixels), _TRAIN_DTYPE)
    lags = np.arange(window)
    epoch_losses: list[float] = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n_samples)
        batch_losses: list[float] = []
        for start in range(0, n_samples, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            m = len(idx)
            x, target = x_rows[:m], t_rows[:m]
            # The indices are all in range; mode="clip" lets take write into
            # out directly, where the default mode would buffer a copy.
            np.take(frames, idx[:, None] + lags, axis=0,
                    out=x.reshape(m, window, n_pixels), mode="clip")
            if history_k is not None:
                np.take(frames, idx + history_k, axis=0, out=target, mode="clip")
            loss, grad_w, grad_b = _loss_and_grads(
                trained, biases, hyper.activation, x, target, ws
            )
            batch_losses.append(loss)
            for l in range(len(trained)):
                if ws.block_rows[l]:
                    _apply_blocked(l, trained[l], x, ws, learning_rate)
                else:
                    grad_w[l] *= learning_rate
                    trained[l] -= grad_w[l]
                grad_b[l] *= learning_rate
                biases[l] -= grad_b[l]
        epoch_losses.append(float(np.mean(batch_losses)))

    if ws.input_major:
        weights[0][...] = trained[0].T
    # A float64 sum of float32 cells is finite exactly when every cell is.
    cells = sum(a.sum(dtype=np.float64) for a in trained + biases)
    if not math.isfinite(sum(epoch_losses) + cells):
        raise ConvergenceError(f"{kind.value} training diverged: non-finite loss or weights")
    return ReconstructorModel(
        kind=kind,
        layer_sizes=layer_sizes,
        weights=weights,
        biases=biases,
        activation=hyper.activation,
        history_k=history_k,
        epoch_losses=epoch_losses,
    )


def _block_errors(
    model: ReconstructorModel, inputs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Float64 errors of one block of float32 samples; its temporaries are
    freed before the next block allocates."""
    _, post = _forward(model.weights, model.biases, model.activation, inputs.astype(np.float64))
    diff = np.clip(post[-1], 0.0, 1.0, out=post[-1])
    np.subtract(targets, diff, out=diff)
    diff *= diff
    return np.mean(diff, axis=1)


def error_series(model: ReconstructorModel, stream) -> ErrorSeries:
    """Per-frame reconstruction errors over a stream, computed in float64.

    Autoencoders score every frame (start_index 0); the sequence predictor
    has no prediction for the first history_k frames, so its series starts
    at index history_k.  The samples are scored SCORE_BLOCK_ROWS at a
    time, each block from its own slice of stream.frames, so stream may
    also be an io.FrameFile, which reads each slice from disk.  Each error
    depends only on its own sample, so the values are those of scoring
    the whole stream at once.
    """
    if len(stream) == 0:
        raise ValueError("cannot score an empty stream")
    k = model.history_k if model.kind is ReconstructorKind.SEQ else None
    n_samples = _sample_count(len(stream), k)
    k = k or 0
    blocks = []
    for a, b in _row_ranges(n_samples, SCORE_BLOCK_ROWS):
        # Samples a ... b-1 read frames a ... b+k-1.
        frames = stream.frames[a : b + k].reshape(b - a + k, -1)
        n_pixels = frames.shape[1]
        # Row i of the inputs holds sample a+i's frames, oldest first: a
        # strided view of the block, not a copy.
        inputs = np.lib.stride_tricks.sliding_window_view(
            frames.reshape(-1), model.input_window * n_pixels
        )[::n_pixels]
        blocks.append(_block_errors(model, inputs[: b - a], frames[k:]))
    return ErrorSeries(values=np.concatenate(blocks), start_index=k)
