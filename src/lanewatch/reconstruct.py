"""Frame streams, image reconstructors, and per-frame reconstruction errors.

Reconstructors are small fully-connected networks that reproduce nominal
camera frames: a shallow autoencoder (one hidden layer), a deep
autoencoder (five node layers), and a sequence predictor, an affine map
(no hidden layer) from the previous k frames to the next one.  The
per-frame error is the mean pixel-wise squared difference between a
frame and its reconstruction.

The autoencoders are trained by mini-batch SGD in float32, in buffers
allocated once per call; initialization and the per-epoch shuffle draw
from one seeded generator.  The sequence predictor is a least-squares
problem, solved in closed form (see _fit_sequence).  Either way two runs
with identical inputs give bit-identical weights.  Frames are float32
from the generator to the trainer, and a model holds float32 weights and
biases and is scored in float32.

SGD's _forward writes each layer into a workspace in one of three forms
chosen from its sizes and the batch rows (see _Workspace): input-major
a @ W with W = w.T, wide w @ a.T, or a @ w.T.  error_series runs its own
float32 loop, every layer as a @ w.T whatever its form in training, so
errors.csv does not depend on that choice, SCORE_BLOCK_ROWS samples at a
time in buffers allocated once per call, so its memory does not grow
with the stream.  Each frame's mean squared error is summed in float64.
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


@dataclass
class TrainConfig:
    """Hyperparameters for reconstructor training.

    hidden_sizes=None selects a per-kind default; every kind takes as many
    sizes as its default has (see _DEFAULT_HIDDEN).  The autoencoders run
    `epochs` epochs of SGD on batches of `batch_size`, at a learning rate
    fixed per kind.  The sequence predictor is fitted in closed form: it
    ignores epochs and batch_size, seed seeds its principal basis, and
    history_k, which only it reads, is how many past frames it maps to
    the next one.
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

# Scoring and the sequence fit read this many samples at a time (one
# more in a last block that would otherwise hold a single sample), so
# their buffers stay the same size whatever the length of the stream.
SCORE_BLOCK_ROWS = 256

_DEFAULT_LEARNING_RATE = {
    ReconstructorKind.SAE: 10.0,
    ReconstructorKind.DAE: 10.0,
}

# The sequence predictor's rank and ridge factor (see _fit_sequence),
# chosen on held-out nominal drives with bits independent of BLAS threads.
_SEQ_RANK = 16
_SEQ_RIDGE = 0.01


@dataclass
class ReconstructorModel:
    """A trained fully-connected reconstructor.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); hidden layers
    apply the activation, the output layer is identity (clamped to [0, 1]
    only at reconstruction time, so training gradients stay exact).
    Weights and biases are float32, as trained or as read back; the
    model is trained and scored in float32.
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
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        n_layers = len(_DEFAULT_HIDDEN[self.kind]) + 2
        if len(sizes) != n_layers:
            raise ValueError(f"{self.kind.value} takes {n_layers} layer sizes, got {sizes}")
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
        if self.kind is ReconstructorKind.SEQ:
            if self.history_k is None or self.history_k <= 0:
                raise ValueError("sequence predictor needs a positive history_k")
            if self.layer_sizes[0] != self.history_k * self.layer_sizes[-1]:
                raise ValueError(
                    f"sequence input size {self.layer_sizes[0]} must equal "
                    f"history_k * output size = {self.history_k * self.layer_sizes[-1]}"
                )
        elif self.history_k is not None:
            raise ValueError("history_k applies only to the sequence predictor")
        elif self.layer_sizes[0] != self.layer_sizes[-1]:
            raise ValueError("autoencoder input and output sizes must match")

    @property
    def input_window(self) -> int:
        """Number of past frames one reconstruction consumes."""
        return self.history_k or 1


def _activate(z: np.ndarray, activation: Activation, out: np.ndarray) -> np.ndarray:
    if activation is Activation.RELU:
        return np.maximum(z, 0.0, out=out)
    # tanh form of the sigmoid avoids exp overflow for large |z|
    a = np.multiply(z, 0.5, out=out)
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    return a


def _activate_grad(z: np.ndarray, a: np.ndarray, activation: Activation) -> np.ndarray:
    """Derivative of the activation at pre-activation z, whose activation
    is a, written over z."""
    if activation is Activation.RELU:
        return np.greater(z, 0.0, out=z)
    g = np.subtract(1.0, a, out=z)
    g *= a
    return g


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """np.empty, but starting on a 64-byte cache line.  np.empty starts
    where malloc does, on 16 bytes, so a buffer's offset within its cache
    line depends on every allocation made before it.  With plain np.empty
    for the SGD buffers, the README quick-start's sae training ran about
    17% slower in the pipeline process; the trained bits are the same."""
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
      is sae's 1024-32 and dae's 1024-64 layer.  Unlike the wide form,
      a @ W can round differently from a @ w.T on a short batch, so a
      stream whose last batch is short may train weights that differ in
      float32 rounding from the a @ w.T ones.
    - wide: both sizes exceed `rows`.  The pre-activation buffer is
      feature-major, (n_out, rows), and _forward fills its first m columns
      as w @ a.T, which OpenBLAS computes faster than a @ w.T at these
      shapes and sums in the same order.  With the defaults this is dae's
      64-1024 layer.
    - batch-major: every other layer, a @ w.T.

    standard=True keeps every layer batch-major with (n_out, n_in)
    weights and gradients, for the step that takes no workspace.
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
        self.delta = [_aligned_empty((rows, n), dtype) for n in outs]
        self.grad_w = [
            _aligned_empty((n_in, n_out) if l == 0 and self.input_major else (n_out, n_in), dtype)
            for l, (n_in, n_out) in enumerate(zip(layer_sizes, outs))
        ]
        self.grad_b = [_aligned_empty((n,), dtype) for n in outs]


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
    ws: _Workspace,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (pre-activations, post-activations); post[0] is the input.

    Each layer is written into the workspace's buffers in the form it
    chose (see _Workspace).  Every returned array is batch-major, (m, n):
    a wide layer's feature-major buffer is returned as the transposed
    view."""
    m = len(x)
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        if l == 0 and ws.input_major:
            z = np.matmul(a, w, out=ws.pre[0][:m])
        elif ws.wide[l]:
            z = np.matmul(w, a.T, out=ws.pre[l][:, :m]).T
        else:
            z = np.matmul(a, w.T, out=ws.pre[l][:m])
        z += b
        pre.append(z)
        a = z if l == last else _activate(z, activation, ws.post[l][:m])
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
    workspace the step makes a standard one: every weight and gradient
    (n_out, n_in).  With one, each layer takes the workspace's form (see
    _Workspace): an input-major first layer's weights and gradient are
    (n_in, n_out), and the returned gradient lists are the workspace's
    own buffers, overwritten by its next step.
    """
    if ws is None:
        sizes = [x.shape[1], *(len(b) for b in biases)]
        ws = _Workspace(sizes, len(x), np.result_type(x, *weights), standard=True)
    pre, post = _forward(weights, biases, activation, x, ws)
    m = len(x)
    delta = np.subtract(post[-1], target, out=ws.delta[-1][:m])
    flat = delta.reshape(-1)
    loss = float(np.dot(flat, flat)) / flat.size
    delta *= 2.0 / delta.size
    for l in range(len(weights) - 1, -1, -1):
        # The gradient is left.T @ right; row r of it is column r of left.
        left, right = (post[l], delta) if l == 0 and ws.input_major else (delta, post[l])
        np.matmul(left.T, right, out=ws.grad_w[l])
        np.sum(delta, axis=0, out=ws.grad_b[l])
        if l > 0:
            # pre[l - 1] is not read again, so the gradient overwrites it.
            grad = _activate_grad(pre[l - 1], post[l], activation)
            delta = np.matmul(delta, weights[l], out=ws.delta[l - 1][:m])
            delta *= grad
    return loss, ws.grad_w, ws.grad_b


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


def _train_sgd(frames: np.ndarray, layer_sizes: list[int], hyper: TrainConfig, rate: float):
    """An autoencoder's float32 weights, biases and per-epoch mean batch
    losses after hyper.epochs epochs of mini-batch SGD on the frames."""
    rng = np.random.default_rng(hyper.seed)
    # The model's arrays are allocated first, before any training buffer:
    # allocated last, they would sit above the memory training frees and
    # keep the allocator from returning later temporaries to the system.
    weights: list[np.ndarray] = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)).astype(_TRAIN_DTYPE))
    biases = [np.zeros(n_out, _TRAIN_DTYPE) for n_out in layer_sizes[1:]]

    rows = min(hyper.batch_size, len(frames))
    ws = _Workspace(layer_sizes, rows, _TRAIN_DTYPE)
    # An input-major first layer trains as a copy W = w.T (see _Workspace),
    # every other weight in its model array.
    trained = list(weights)
    if ws.input_major:
        trained[0] = np.ascontiguousarray(weights[0].T)
    # Each batch is gathered into this buffer and is its own target.
    x_rows = _aligned_empty((rows, layer_sizes[0]), _TRAIN_DTYPE)
    epoch_losses: list[float] = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(frames))
        batch_losses: list[float] = []
        for start in range(0, len(frames), hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            # The indices are all in range; mode="clip" lets take write into
            # out directly, where the default mode would buffer a copy.
            x = np.take(frames, idx, axis=0, out=x_rows[: len(idx)], mode="clip")
            loss, grad_w, grad_b = _loss_and_grads(trained, biases, hyper.activation, x, x, ws)
            batch_losses.append(loss)
            for l in range(len(trained)):
                grad_w[l] *= rate
                trained[l] -= grad_w[l]
                grad_b[l] *= rate
                biases[l] -= grad_b[l]
        epoch_losses.append(float(np.mean(batch_losses)))

    if ws.input_major:
        weights[0][...] = trained[0].T
    return weights, biases, epoch_losses


def _block_gram(a: np.ndarray) -> np.ndarray:
    """a.T @ a summed over SCORE_BLOCK_ROWS row blocks.  Threaded OpenBLAS
    splits a sum over a few hundred rows or more differently from one
    thread, so one product would round differently with the thread count."""
    return sum(a[i:j].T @ a[i:j] for i, j in _row_ranges(len(a), SCORE_BLOCK_ROWS))


def _principal_basis(frames: np.ndarray, rank: int, seed: int):
    """An (n, d) float32 frame matrix's float32 mean frame, and in float64
    its top `rank` principal directions (orthonormal columns, by falling
    variance), each frame's code in them and squared distance to the mean.

    Block subspace iteration (Halko, Martinsson & Tropp, SIAM Review
    2011): from a seeded d x (rank + 8) normal draw Q, 4 rounds of
    Q <- qr(sum of Xc.T @ (Xc @ Q)) over row blocks Xc of the centred
    frames, each centred into one reused float32 buffer, then Rayleigh-Ritz:
    with V the eigenvectors of Y.T @ Y, Y = Xc @ Q, the basis is Q @ V and
    the codes Y @ V.  No d x d matrix is formed."""
    n, d = frames.shape
    ranges = list(_row_ranges(n, SCORE_BLOCK_ROWS))
    mean = sum(frames[a:b].sum(axis=0, dtype=np.float64) for a, b in ranges) / n
    mean = mean.astype(np.float32)
    block = np.empty((min(n, SCORE_BLOCK_ROWS + 1), d), np.float32)

    def centred():
        for a, b in ranges:
            yield a, b, np.subtract(frames[a:b], mean, out=block[: b - a])

    q = np.random.default_rng(seed).standard_normal((d, min(rank + 8, d)))
    for _ in range(4):
        q32, s = q.astype(np.float32), np.zeros_like(q)
        for _, _, xc in centred():
            s += xc.T @ (xc @ q32)
        q = np.linalg.qr(s)[0]
    q32, y, sq_dist = q.astype(np.float32), np.empty((n, q.shape[1])), np.empty(n)
    for a, b, xc in centred():
        y[a:b] = xc @ q32
        sq_dist[a:b] = np.square(xc, out=xc).sum(axis=1, dtype=np.float64)
    v = np.linalg.eigh(_block_gram(y))[1][:, : -rank - 1 : -1]
    return mean, q @ v, y @ v, sq_dist


def _fit_sequence(frames: np.ndarray, history_k: int, seed: int):
    """The sequence predictor's float32 weight and bias, and the mean
    per-pixel squared error of its training targets predicted by the
    pool's mean frame and by the fit.

    Principal-components regression (Massy, JASA 1965): a frame's code is
    U.T @ (f - mean) in the pool's top _SEQ_RANK principal directions U
    (at most d and the sample count), and a ridge regression, shrinking
    toward the mean frame, maps a sample's k input codes to its target
    code: a (k*r)^2 system.  The weight's block j, for frame i+j, is
    U @ M_j.T @ U.T, formed as one float32 matmul; the bias is worked out
    in r-space."""
    n_frames, d = frames.shape
    k, n = history_k, _sample_count(n_frames, history_k)
    rank = min(_SEQ_RANK, d, n)
    mean, basis, codes, sq_dist = _principal_basis(frames, rank, seed)
    # Row i: sample i's input codes i ... i+k-1, oldest first, then code i+k.
    cov = _block_gram(np.concatenate([codes[j : n + j] for j in range(k + 1)], axis=1))
    kr = k * rank
    gram, rhs = cov[:kr, :kr], cov[:kr, kr:]
    # A pool without variation has a zero Gram matrix and right-hand side,
    # so any positive ridge gives it the zero map.
    ridge = _SEQ_RIDGE * np.trace(gram) / kr or 1.0
    coef = np.linalg.solve(gram + ridge * np.eye(kr), rhs)
    # M_j, rows j*r ... (j+1)*r - 1 of coef, maps input code j to the target code.
    right = np.hstack([m_j.T @ basis.T for m_j in coef.reshape(k, rank, rank)], dtype=np.float32)
    weight = basis.astype(np.float32) @ right
    bias = mean - basis @ (coef.T @ np.tile(basis.T @ mean, k))
    # The fit's squared error is the targets' squared distance to the mean
    # less what the regression explains of their codes, which by the
    # normal equations is <coef, rhs> + ridge |coef|^2.
    frame_loss = sq_dist[k:].sum()
    fit_loss = frame_loss - (coef * rhs).sum() - ridge * np.square(coef).sum()
    losses = [float(frame_loss) / (n * d), float(fit_loss) / (n * d)]
    return [weight], [bias.astype(np.float32)], losses


def train_reconstructor(
    stream: FrameStream,
    kind: ReconstructorKind | str,
    hyper: TrainConfig | None = None,
) -> ReconstructorModel:
    """Fit a reconstructor to a nominal stream: an autoencoder by
    mini-batch SGD in float32, the sequence predictor in closed form."""
    kind = ReconstructorKind(kind)
    hyper = hyper or TrainConfig()
    if len(stream) == 0:
        raise ValueError("cannot train on an empty stream")
    history_k = hyper.history_k if kind is ReconstructorKind.SEQ else None
    frames = stream.as_matrix()
    hidden = hyper.hidden_sizes if hyper.hidden_sizes is not None else _DEFAULT_HIDDEN[kind]
    depth = len(_DEFAULT_HIDDEN[kind])
    if len(hidden) != depth:
        raise ConfigError(f"{kind.value} takes hidden_sizes of length {depth}, got {hidden}")
    layer_sizes = [(history_k or 1) * frames.shape[1], *hidden, frames.shape[1]]
    weights, biases, epoch_losses = (
        _fit_sequence(frames, history_k, hyper.seed) if history_k
        else _train_sgd(frames, layer_sizes, hyper, _DEFAULT_LEARNING_RATE[kind])
    )
    # A float64 sum of float32 cells is finite exactly when every cell is.
    cells = sum(a.sum(dtype=np.float64) for a in weights + biases)
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


def error_series(model: ReconstructorModel, stream) -> ErrorSeries:
    """Per-frame reconstruction errors over a stream, computed in float32,
    the model's dtype, each frame's mean summed in float64.

    Autoencoders score every frame (start_index 0); the sequence predictor
    has no prediction for the first history_k frames, so its series starts
    at index history_k.  The samples are scored SCORE_BLOCK_ROWS at a
    time, each block from its own slice of stream.frames, so stream may
    also be an io.FrameFile, which reads each slice from disk.  Each error
    depends only on its own sample, so the values are those of scoring
    the whole stream at once.  The buffers are allocated once per call,
    and a block of m samples writes into their first m rows.
    """
    if len(stream) == 0:
        raise ValueError("cannot score an empty stream")
    n_samples = _sample_count(len(stream), model.history_k)
    k = model.history_k or 0
    rows = min(n_samples, SCORE_BLOCK_ROWS + 1)
    x = np.empty((rows, model.layer_sizes[0]), np.float32)
    layers = [np.empty((rows, n), np.float32) for n in model.layer_sizes[1:]]
    values = np.empty(n_samples)
    for a, b in _row_ranges(n_samples, SCORE_BLOCK_ROWS):
        m = b - a
        # Samples a ... b-1 read frames a ... b+k-1.
        frames = stream.frames[a : b + k].reshape(m + k, -1)
        n_pixels = frames.shape[1]
        # Row i of the inputs holds sample a+i's frames, oldest first: a
        # strided view of the block, copied into x.
        x[:m] = np.lib.stride_tricks.sliding_window_view(
            frames.reshape(-1), model.input_window * n_pixels
        )[::n_pixels][:m]
        out = x[:m]
        for l, (w, bias) in enumerate(zip(model.weights, model.biases)):
            out = np.matmul(out, w.T, out=layers[l][:m])
            out += bias
            if l < len(layers) - 1:
                _activate(out, model.activation, out)
        np.clip(out, 0.0, 1.0, out=out)
        np.subtract(frames[k:], out, out=out)
        out *= out
        np.mean(out, axis=1, dtype=np.float64, out=values[a:b])
    return ErrorSeries(values=values, start_index=k)
