"""Frame streams, image reconstructors, and per-frame reconstruction errors.

Reconstructors are small fully-connected networks that reproduce nominal
camera frames: a shallow autoencoder (one hidden layer), a deep
autoencoder (five node layers), and a sequence predictor, an affine map
(no hidden layer) from the previous k frames to the next one.  The
per-frame error is the mean pixel-wise squared difference between a
frame and its reconstruction.

Every reconstructor is fitted in closed form on the pool's top principal
directions (see _fit_autoencoder and _fit_sequence), reading the frames a
block of rows at a time; the basis draws its start from one seeded
generator, so two runs with identical inputs give bit-identical weights.
Frames are float32 from the generator to the fit, and a model holds
float32 weights and biases and is scored in float32.

error_series runs every layer as a @ w.T, SCORE_BLOCK_ROWS samples at a
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
    sizes as its default has (see _DEFAULT_HIDDEN).  Every kind is fitted
    in closed form, and seed seeds its principal basis.  epochs and
    batch_size are validated and ignored: configs and callers written for
    SGD training still pass them.  history_k, which only the sequence
    predictor reads, is how many past frames it maps to the next one.
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

# Scoring and the fits read this many samples at a time (one more in a
# last block that would otherwise hold a single sample), so their buffers
# stay the same size whatever the length of the stream.
SCORE_BLOCK_ROWS = 256

# The fits sum every product over pixels this many pixels at a time.
# Threaded OpenBLAS splits a sum of more than 512 float32 (384 float64)
# terms differently from one thread, so one product over the pixels of a
# frame of 30x30 rounds differently with the thread count.
_PIXEL_BLOCK = 256

# The sequence predictor's rank and ridge factor (see _fit_sequence),
# chosen on held-out nominal drives with bits independent of BLAS threads.
_SEQ_RANK = 16
_SEQ_RIDGE = 0.01

# A sigmoid autoencoder's hidden unit sees at most this |z| on a training
# frame, where sigmoid(z) - 1/2 is z/4 to within 0.1% (see _fit_autoencoder).
_SIGMOID_REACH = 0.1


@dataclass
class ReconstructorModel:
    """A trained fully-connected reconstructor.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); hidden layers
    apply the activation, the output layer is identity (clamped to [0, 1]
    only at reconstruction time, so the loss's gradients stay exact).
    Weights and biases are float32, as fitted or as read back; the model
    is scored in float32.
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


def _row_ranges(n: int, step: int) -> zip:
    """(start, end) ranges of step rows covering n rows.  A lone last row
    joins the range before it: numpy multiplies a one-row matrix on its
    matrix-vector path, which can round differently."""
    starts = range(0, max(n - 1, 1), step)
    return zip(starts, [*starts[1:], n])


def _loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    activation: Activation,
    x: np.ndarray,
    target: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Batch loss (mean over examples of per-pixel mean squared error) and
    its gradients with respect to every weight and bias, each shaped like
    its weight or bias.  Every layer is a @ w.T in the dtype of the
    inputs; the loss is one dot of the flat output delta with itself,
    divided by its size.  The fits minimise this loss in closed form, so
    no fit calls it: it is the network's gradient, checked against finite
    differences."""
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = post[-1] @ w.T + b
        pre.append(z)
        post.append(z if l == last else _activate(z, activation, np.empty_like(z)))
    delta = post[-1] - target
    flat = delta.reshape(-1)
    loss = float(np.dot(flat, flat)) / flat.size
    delta *= 2.0 / delta.size
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    for l in range(last, -1, -1):
        grad_w[l], grad_b[l] = delta.T @ post[l], delta.sum(axis=0)
        if l > 0:
            # pre[l - 1] is not read again, so the gradient overwrites it.
            delta = (delta @ weights[l]) * _activate_grad(pre[l - 1], post[l], activation)
    return loss, grad_w, grad_b


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


def _block_gram(a: np.ndarray) -> np.ndarray:
    """a.T @ a summed over SCORE_BLOCK_ROWS row blocks.  Threaded OpenBLAS
    splits a sum over a few hundred rows or more differently from one
    thread, so one product would round differently with the thread count."""
    return sum(a[i:j].T @ a[i:j] for i, j in _row_ranges(len(a), SCORE_BLOCK_ROWS))


def _pixel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed over the pixel axis, a's last and b's first, in blocks
    of _PIXEL_BLOCK pixels, so its bits do not depend on the thread count."""
    return sum(a[..., i : i + _PIXEL_BLOCK] @ b[i : i + _PIXEL_BLOCK]
               for i in range(0, len(b), _PIXEL_BLOCK))


def _principal_basis(frames, rank: int, seed: int):
    """The float32 mean frame of n frames, and in float64 their top `rank`
    principal directions (orthonormal columns, by falling variance), each
    frame's code in them and squared distance to the mean.  frames is
    anything whose frames[a:b] gives frames a ... b-1 as a float32 array,
    such as a (n, height, width, channels) array or an io.FrameFile; it is
    read SCORE_BLOCK_ROWS frames at a time.

    Block subspace iteration (Halko, Martinsson & Tropp, SIAM Review
    2011): from a seeded d x (rank + 8) normal draw Q, 4 rounds of
    Q <- qr(sum of Xc.T @ (Xc @ Q)) over row blocks Xc of the centred
    frames, each centred into one reused float32 buffer, then Rayleigh-Ritz:
    with V the eigenvectors of Y.T @ Y, Y = Xc @ Q, the basis is Q @ V and
    the codes Y @ V.  No d x d matrix is formed."""
    n, d = len(frames), math.prod(frames.shape[1:])
    ranges = list(_row_ranges(n, SCORE_BLOCK_ROWS))
    mean = sum(frames[a:b].reshape(b - a, d).sum(axis=0, dtype=np.float64) for a, b in ranges)
    mean = (mean / n).astype(np.float32)
    block = np.empty((min(n, SCORE_BLOCK_ROWS + 1), d), np.float32)

    def centred():
        for a, b in ranges:
            yield a, b, np.subtract(frames[a:b].reshape(b - a, d), mean, out=block[: b - a])

    q = np.random.default_rng(seed).standard_normal((d, min(rank + 8, d)))
    for _ in range(4):
        q32, s = q.astype(np.float32), np.zeros_like(q)
        for _, _, xc in centred():
            s += xc.T @ _pixel_dot(xc, q32)
        q = np.linalg.qr(s)[0]
    q32, y, sq_dist = q.astype(np.float32), np.empty((n, q.shape[1])), np.empty(n)
    for a, b, xc in centred():
        y[a:b] = _pixel_dot(xc, q32)
        sq_dist[a:b] = np.square(xc, out=xc).sum(axis=1, dtype=np.float64)
    v = np.linalg.eigh(_block_gram(y))[1][:, : -rank - 1 : -1]
    return mean, q @ v, y @ v, sq_dist


def _fit_autoencoder(frames, hidden: tuple[int, ...], activation: Activation, seed: int):
    """An autoencoder's float32 weights and biases, for hidden layers of
    the given sizes, and the mean per-pixel squared error of its training
    frames reconstructed by the pool's mean frame and by the fit.

    A linear autoencoder's optimum at any depth projects onto the top
    principal subspace of its narrowest layer (Baldi & Hornik, Neural
    Networks 1989).  Unit j of every hidden layer holds the code of the
    pool's principal direction u_j (see _principal_basis), j < rank =
    min(hidden, d, n), so the model scores as any other.  With ReLU units,
    each code is shifted up by c_j = 2 max|code_j| on the way in and back
    on the way out, so the ReLU is the identity on every training frame:
    W0 = U.T, b0 = c - U.T mean, W_last = U, b_last = mean - U c, and
    each inner layer carries the code with W = I, b = 0.  With sigmoid
    units, code j is scaled by s_j = _SIGMOID_REACH / max|code_j| into the
    sigmoid's near-linear middle and scaled back: W0 = diag(s) U.T,
    b0 = -diag(s) U.T mean, W_last = 4 U diag(1/s), b_last = mean - 2 U (1/s),
    and each inner layer undoes the sigmoid's 1/2 + z/4 with W = 4 I,
    b = -2.  A direction that explains no more than float32's resolution
    of the pool's variance is rounding noise (past what the pool holds, or
    a constant pool), and its unit, like any unit past the rank, gets zero
    weights in and out of the first and last layers."""
    n, d = len(frames), math.prod(frames.shape[1:])
    rank = min(*hidden, d, n)
    mean, basis, codes, sq_dist = _principal_basis(frames, rank, seed)
    explained = np.square(codes).sum(axis=0)
    live = explained > np.finfo(np.float32).eps * sq_dist.sum()
    u = np.where(live, basis, 0.0)
    reach = np.where(live, np.abs(codes).max(axis=0), 0.0)
    projected_mean = _pixel_dot(mean, u)
    sizes = [d, *hidden, d]
    weights = [np.zeros((n_out, n_in), np.float32) for n_in, n_out in zip(sizes, sizes[1:])]
    biases = [np.zeros(n_out, np.float32) for n_out in sizes[1:]]
    w0, b0, w_last, b_last = weights[0], biases[0], weights[-1], biases[-1]
    if activation is Activation.RELU:
        c = 2.0 * reach
        w0[:rank], b0[:rank], w_last[:, :rank] = u.T, c - projected_mean, u
        b_last[:] = mean - u @ c
        carry_w, carry_b = 1.0, 0.0
    else:
        s = np.divide(_SIGMOID_REACH, reach, out=np.zeros(rank), where=live)
        inv_s = reach / _SIGMOID_REACH
        w0[:rank], b0[:rank] = s[:, None] * u.T, -s * projected_mean
        w_last[:, :rank], b_last[:] = u * (4.0 * inv_s), mean - u @ (2.0 * inv_s)
        carry_w, carry_b = 4.0, -2.0
    for w, b in zip(weights[1:-1], biases[1:-1]):
        w[range(rank), range(rank)], b[:rank] = carry_w, carry_b
    # What the basis explains is the codes' squared length; a pool it
    # explains whole can round that a little past its squared distance.
    frame_loss = sq_dist.sum()
    fit_loss = max(frame_loss - explained[live].sum(), 0.0)
    losses = [float(frame_loss) / (n * d), float(fit_loss) / (n * d)]
    return weights, biases, losses


def _fit_sequence(frames, history_k: int, seed: int):
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
    n_frames, d = len(frames), math.prod(frames.shape[1:])
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
    bias = mean - basis @ (coef.T @ np.tile(_pixel_dot(mean, basis), k))
    # The fit's squared error is the targets' squared distance to the mean
    # less what the regression explains of their codes, which by the
    # normal equations is <coef, rhs> + ridge |coef|^2.
    frame_loss = sq_dist[k:].sum()
    fit_loss = frame_loss - (coef * rhs).sum() - ridge * np.square(coef).sum()
    losses = [float(frame_loss) / (n * d), float(fit_loss) / (n * d)]
    return [weight], [bias.astype(np.float32)], losses


def train_reconstructor(
    stream,
    kind: ReconstructorKind | str,
    hyper: TrainConfig | None = None,
) -> ReconstructorModel:
    """Fit a reconstructor to a nominal stream in closed form: an
    autoencoder on the pool's principal basis, the sequence predictor by
    principal-components regression.  stream is a FrameStream or an
    io.FrameFile; the fits read SCORE_BLOCK_ROWS frames of stream.frames at
    a time, so from a FrameFile they never hold the drive."""
    kind = ReconstructorKind(kind)
    hyper = hyper or TrainConfig()
    if len(stream) == 0:
        raise ValueError("cannot train on an empty stream")
    history_k = hyper.history_k if kind is ReconstructorKind.SEQ else None
    frames = stream.frames
    n_pixels = math.prod(frames.shape[1:])
    hidden = hyper.hidden_sizes if hyper.hidden_sizes is not None else _DEFAULT_HIDDEN[kind]
    depth = len(_DEFAULT_HIDDEN[kind])
    if len(hidden) != depth:
        raise ConfigError(f"{kind.value} takes hidden_sizes of length {depth}, got {hidden}")
    layer_sizes = [(history_k or 1) * n_pixels, *hidden, n_pixels]
    if kind is ReconstructorKind.SEQ:
        weights, biases, epoch_losses = _fit_sequence(frames, history_k, hyper.seed)
    else:
        weights, biases, epoch_losses = _fit_autoencoder(
            frames, hidden, hyper.activation, hyper.seed
        )
    # A float64 sum of float32 cells is finite exactly when every cell is.
    cells = sum(a.sum(dtype=np.float64) for a in weights + biases)
    if not math.isfinite(sum(epoch_losses) + cells):
        raise ConvergenceError(f"{kind.value} fit is not finite: non-finite loss or weights")
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
