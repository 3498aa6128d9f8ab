"""Reconstructors: gradient exactness, memorization, the sequence fit, scoring
conventions."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lanewatch import reconstruct
from lanewatch.errors import ConfigError, ConvergenceError
from lanewatch.experiment import nominal_drive
from lanewatch.io import FrameFile, read_model_json, write_frames, write_model_json
from lanewatch.reconstruct import (
    Activation,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.reconstruct import (
    _DAE_LEARNING_RATE,
    _SEQ_RANK,
    _SEQ_RIDGE,
    SCORE_BLOCK_ROWS,
    _Workspace,
    _forward,
    _loss_and_grads,
)
from reconstruct_reference import forward


def _frame(pixels: np.ndarray, w: int = 4, h: int = 4) -> np.ndarray:
    return np.asarray(pixels, float).reshape(h, w, 1)


def _noise_stream(seed: int, n: int, w: int = 4, h: int = 4) -> FrameStream:
    rng = np.random.default_rng(seed)
    return FrameStream(frames=rng.random((n, h, w, 1)), frame_rate_hz=10.0)


# ---------------------------------------------------------------- gradients

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    sizes = [6, 4, 6]
    weights = [rng.standard_normal((4, 6)) * 0.5, rng.standard_normal((6, 4)) * 0.5]
    biases = [rng.standard_normal(4) * 0.1, rng.standard_normal(6) * 0.1]
    x = rng.random((3, 6))
    # tanh-free sigmoid path plus relu path both checked
    for act in (Activation.SIGMOID, Activation.RELU):
        loss, grad_w, grad_b = _loss_and_grads(weights, biases, act, x, x)
        eps = 1e-6
        for l in range(2):
            for i, j in [(0, 0), (1, 2)]:
                w_hi = [w.copy() for w in weights]
                w_lo = [w.copy() for w in weights]
                w_hi[l][i, j] += eps
                w_lo[l][i, j] -= eps
                hi, _, _ = _loss_and_grads(w_hi, biases, act, x, x)
                lo, _, _ = _loss_and_grads(w_lo, biases, act, x, x)
                numeric = (hi - lo) / (2.0 * eps)
                assert grad_w[l][i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-9)
            b_hi = [b.copy() for b in biases]
            b_lo = [b.copy() for b in biases]
            b_hi[l][0] += eps
            b_lo[l][0] -= eps
            hi, _, _ = _loss_and_grads(weights, b_hi, act, x, x)
            lo, _, _ = _loss_and_grads(weights, b_lo, act, x, x)
            numeric = (hi - lo) / (2.0 * eps)
            assert grad_b[l][0] == pytest.approx(numeric, rel=1e-4, abs=1e-9)


def _layer0_as(ws, arrays):
    """Layer 0 of a weight or gradient list in the workspace's layout:
    transposed when the workspace holds it input-major."""
    return [a.T if l == 0 and ws.input_major else a for l, a in enumerate(arrays)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("act", [Activation.RELU, Activation.SIGMOID])
def test_reused_workspace_matches_fresh_buffers(dtype, act):
    rng = np.random.default_rng(1)
    # The first layer is input-major when its output is at most
    # _INPUT_MAJOR_MAX_OUT = 64 wide, whatever the rows; at 6 rows any other
    # layer is wide when both its sizes exceed 6; every remaining layer is
    # batch-major.
    cases = [
        ([8, 5, 3, 5, 8], True, [False, False, False, False]),
        ([40, 12, 40], True, [False, True]),
        ([20, 64, 20], True, [False, True]),
        ([48, 16], True, [False]),
        ([20, 65], False, [True]),
        ([8, 70, 8], False, [True, True]),
        ([4, 70, 4], False, [False, False]),
    ]
    rtol = 1e-5 if dtype == np.float32 else 1e-12
    for sizes, input_major, wide in cases:
        weights = [rng.standard_normal((o, i)).astype(dtype) for i, o in zip(sizes, sizes[1:])]
        biases = [rng.standard_normal(o).astype(dtype) for o in sizes[1:]]
        ws = _Workspace(sizes, 6, dtype)
        assert (ws.input_major, ws.wide) == (input_major, wide)
        held = [np.ascontiguousarray(w) for w in _layer0_as(ws, weights)]
        # A full batch, then a short one and a single row written into the
        # first rows (the first columns of a wide layer's buffer).
        for rows in (6, 4, 1):
            x = rng.random((rows, sizes[0])).astype(dtype)
            target = rng.random((rows, sizes[-1])).astype(dtype)
            fresh = _loss_and_grads(held, biases, act, x, target, _Workspace(sizes, 6, dtype))
            reused = _loss_and_grads(held, biases, act, x, target, ws)
            assert reused[0] == fresh[0]
            for a, b in zip(reused[1] + reused[2], fresh[1] + fresh[2]):
                assert a.dtype == dtype
                np.testing.assert_array_equal(a, b)
            # The returned gradients are the workspace's own buffers.
            assert reused[1][0] is ws.grad_w[0]
            # Against the standard five-argument step: a wide layer's
            # w @ a.T sums in the same order as a @ w.T, so without an
            # input-major layer the step is bit-identical; the input-major
            # a @ W rounds differently on some short batches, so with one
            # the step agrees to a tolerance set by the dtype.
            plain = _loss_and_grads(weights, biases, act, x, target)
            got_grads = _layer0_as(ws, reused[1]) + reused[2]
            if not input_major:
                assert reused[0] == plain[0]
                for got, want in zip(got_grads, plain[1] + plain[2]):
                    np.testing.assert_array_equal(got, want)
                continue
            assert reused[0] == pytest.approx(plain[0], rel=rtol)
            for got, want in zip(got_grads, plain[1] + plain[2]):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_loss_is_mean_squared_residual(dtype, rtol):
    # sae's default shape; the float32 loss is one float32 dot per batch.
    rng = np.random.default_rng(2)
    sizes = [1024, 32, 1024]
    weights = [
        rng.uniform(-1.0, 1.0, (o, i)).astype(dtype) / math.sqrt(i)
        for i, o in zip(sizes, sizes[1:])
    ]
    biases = [np.zeros(o, dtype) for o in sizes[1:]]
    ws = _Workspace(sizes, 32, dtype)
    held = [np.ascontiguousarray(w) for w in _layer0_as(ws, weights)]
    for rows in (32, 13):
        x = rng.random((rows, sizes[0])).astype(dtype)
        target = rng.random((rows, sizes[-1])).astype(dtype)
        standard = _Workspace(sizes, rows, dtype, standard=True)
        out = _forward(weights, biases, Activation.RELU, x, standard)[1][-1]
        want = float(np.mean((out.astype(np.float64) - target.astype(np.float64)) ** 2))
        plain = _loss_and_grads(weights, biases, Activation.RELU, x, target)[0]
        stepped = _loss_and_grads(held, biases, Activation.RELU, x, target, ws)[0]
        assert plain == pytest.approx(want, rel=rtol)
        assert stepped == pytest.approx(want, rel=rtol)


# ----------------------------------------------------------------- training

def _reference_sgd(stream, cfg):
    """Float64 SGD of the deep autoencoder with train_reconstructor's draws
    and batches: the same seeded initialization and per-epoch
    permutations, fresh buffers."""
    rng = np.random.default_rng(cfg.seed)
    data = targets = stream.as_matrix().astype(np.float64)
    sizes = [data.shape[1], *cfg.hidden_sizes, targets.shape[1]]
    weights, biases = [], []
    for n_in, n_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    rate = _DAE_LEARNING_RATE
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        batch_losses = []
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad_w, grad_b = _loss_and_grads(
                weights, biases, cfg.activation, data[idx], targets[idx]
            )
            batch_losses.append(loss)
            for l in range(len(weights)):
                weights[l] -= rate * grad_w[l]
                biases[l] -= rate * grad_b[l]
        losses.append(float(np.mean(batch_losses)))
    return weights, biases, losses


def test_dae_training_tracks_float64_reference():
    # 45 frames in batches of 8 end each epoch with a short batch of 5.
    cfg = TrainConfig(hidden_sizes=(8, 4, 8), epochs=12, batch_size=8, seed=4,
                      activation=Activation.SIGMOID)
    stream = _noise_stream(14, 45)
    model = train_reconstructor(stream, "dae", cfg)
    weights, biases, losses = _reference_sgd(stream, cfg)
    for got, want in zip(model.weights + model.biases, weights + biases):
        assert got.dtype == np.float32
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(model.epoch_losses, losses, rtol=1e-4)
    assert model.epoch_losses[-1] < model.epoch_losses[0]


@pytest.mark.skipif(sys.platform != "linux", reason="minor-fault counts are read on Linux")
@pytest.mark.parametrize("kind", ["dae"])
def test_training_steps_do_not_churn_allocations(kind):
    # dae is the one kind trained by SGD.  A 32x32 frame makes each 32-row
    # float32 batch array 128 KiB.  The count runs in a fresh process with
    # one BLAS thread and glibc's mmap threshold fixed at 128 KiB, so every
    # array that large is mapped fresh and faults in its pages: at the
    # default threshold, which rises after the first large free, the heap
    # would reuse a freed array unseen.  dae's one wide layer (64-1024)
    # writes the short last batch (200 = 6 * 32 + 8) into a column slice of
    # its feature-major buffer.
    script = """
import resource, sys
import numpy as np
from lanewatch.reconstruct import FrameStream, TrainConfig, train_reconstructor
stream = FrameStream(frames=np.random.default_rng(15).random((200, 32, 32, 1)))
def minor_faults(epochs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_reconstructor(stream, sys.argv[1], TrainConfig(epochs=epochs, seed=0))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
minor_faults(1)
print(minor_faults(1), minor_faults(11))
"""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        MALLOC_MMAP_THRESHOLD_=str(128 * 1024),
        PYTHONPATH=os.pathsep.join(sys.path),
    )
    out = subprocess.run(
        [sys.executable, "-c", script, kind], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    one, eleven = map(int, out.stdout.split())
    extra_steps = 10 * math.ceil(200 / TrainConfig().batch_size)
    assert (eleven - one) / extra_steps < 5.0


def _reference_pcr(stream, k):
    """Float64 principal-components regression by exact SVD: the top
    _SEQ_RANK right singular vectors U of the centred frames, then a
    ridge regression of each target code on its k input codes, solved by
    np.linalg.solve.  Returns the predictor of the next frame from an
    (m, k*d) matrix of k frames each, clamped to [0, 1] as scoring
    clamps it."""
    frames = stream.as_matrix().astype(np.float64)
    n, d = len(frames) - k, frames.shape[1]
    mean = frames.mean(axis=0)
    u = np.linalg.svd(frames - mean, full_matrices=False)[2][:_SEQ_RANK].T
    codes = (frames - mean) @ u
    x = np.concatenate([codes[j : n + j] for j in range(k)], axis=1)
    gram = x.T @ x
    ridge = _SEQ_RIDGE * np.trace(gram) / len(gram)
    coef = np.linalg.solve(gram + ridge * np.eye(len(gram)), x.T @ codes[k:])

    def predict(inputs):
        z = np.concatenate([(inputs[:, j * d : (j + 1) * d] - mean) @ u for j in range(k)], axis=1)
        return np.clip(mean + z @ coef @ u.T, 0.0, 1.0)

    return predict


def _smooth_stream(n_frames, n_components, noise, seed=21, side=8):
    """0.5 plus n_components sinusoids in time, each on its own random
    spatial pattern, plus Gaussian noise of the given standard deviation:
    a stream whose centred frames have n_components large singular values
    and a floor of noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames)[:, None]
    waves = np.sin(rng.uniform(0.02, 0.3, n_components) * t + rng.uniform(0, 6, n_components))
    patterns = rng.uniform(-1.0, 1.0, (n_components, side * side)) * 0.3 / n_components
    frames = 0.5 + waves @ patterns + rng.normal(0.0, noise, (n_frames, side * side))
    return FrameStream(frames=frames.reshape(n_frames, side, side, 1), frame_rate_hz=10.0)


def test_seq_fit_tracks_float64_reference():
    # Six components below the rank of 16, so the fit's basis past the
    # sixth direction spans noise, which the ridge keeps out of the map.
    k = 3
    stream = _smooth_stream(400, 6, 1e-3)
    model = train_reconstructor(stream, "seq", TrainConfig(history_k=k, seed=7))
    predict = _reference_pcr(stream, k)
    # Held-out frames: the same waves, continued.
    later = _smooth_stream(700, 6, 1e-3).as_matrix()[400:].astype(np.float64)
    inputs = np.concatenate([later[j : len(later) - k + j] for j in range(k)], axis=1)
    want = predict(inputs)
    got = forward(model, inputs)
    # The two bases differ only past the sixth direction, in noise: the
    # predictions agree to a third of the noise's standard deviation.
    np.testing.assert_allclose(got, want, rtol=0.0, atol=3e-4)
    # Both leave under 1% of the mean frame's error, in training and held out.
    mean_frame_error = np.mean((later[k:] - stream.as_matrix().mean(axis=0)) ** 2)
    assert np.mean((later[k:] - want) ** 2) < 0.01 * mean_frame_error
    assert np.mean((later[k:] - got) ** 2) < 0.01 * mean_frame_error
    assert model.epoch_losses[1] < 0.01 * model.epoch_losses[0]


def test_seq_fit_predicts_a_constant_stream():
    # The centred pool is zero: a zero Gram matrix, made regular by the
    # ridge, and the map that predicts the mean frame.
    stream = FrameStream(frames=np.full((30, 4, 4, 1), 0.3), frame_rate_hz=10.0)
    model = train_reconstructor(stream, "seq", TrainConfig(history_k=2))
    assert np.all(np.isfinite(model.weights[0]))
    assert float(error_series(model, stream).values.max()) < 1e-10
    assert model.epoch_losses == [0.0, 0.0]


def test_seq_fit_ignores_epochs_and_batch_size():
    stream = _noise_stream(22, 40, w=6, h=6)
    base = train_reconstructor(stream, "seq", TrainConfig(seed=3))
    assert len(base.epoch_losses) == 2
    assert base.epoch_losses[1] < base.epoch_losses[0]
    for cfg in (TrainConfig(epochs=0, seed=3), TrainConfig(epochs=7, batch_size=5, seed=3)):
        other = train_reconstructor(stream, "seq", cfg)
        for a, b in zip(other.weights + other.biases, base.weights + base.biases):
            np.testing.assert_array_equal(a, b)
        assert other.epoch_losses == base.epoch_losses


def test_seq_fit_beats_the_mean_frame_on_held_out_drives():
    # A pool of the train_seq benchmark's shape: two 600-frame nominal drives.
    pool = FrameStream(
        frames=np.concatenate([nominal_drive(s, 600).frames for s in (1000, 1001)]),
        frame_rate_hz=10.0,
    )
    model = train_reconstructor(pool, "seq", TrainConfig(seed=0))
    k = model.history_k
    mean_frame = pool.as_matrix().mean(axis=0, dtype=np.float64)
    errors, baseline = [], []
    for seed in (2000, 2001):
        drive = nominal_drive(seed, 600)
        errors.append(error_series(model, drive).values)
        baseline.append(np.mean((drive.as_matrix()[k:] - mean_frame) ** 2, axis=1))
    assert np.mean(np.concatenate(errors)) <= 0.7 * np.mean(np.concatenate(baseline))


def test_seq_fit_memory_holds_the_model_and_one_block():
    import tracemalloc

    stream = FrameStream(
        frames=np.random.default_rng(20).random((600, 32, 32, 1)), frame_rate_hz=10.0
    )
    tracemalloc.start()
    try:
        model = train_reconstructor(stream, "seq")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    model_bytes = sum(a.nbytes for a in model.weights + model.biases)
    # The 3072-1024 weight is 12 MiB; one float32 block of the pool is
    # 1 MiB.  A float64 weight, or a d x d matrix per lag, would add 4 MiB
    # or more.
    assert peak <= model_bytes + 2 * 2**20


def test_sae_fit_tracks_float64_reference():
    # Six components and six hidden units: the exact basis by SVD and the
    # fit's both span the six waves.  The reference reconstructs a frame as
    # its projection onto them, clamped to [0, 1] as scoring clamps it.
    stream = _smooth_stream(400, 6, 1e-3)
    frames = stream.as_matrix().astype(np.float64)
    mean = frames.mean(axis=0)
    u = np.linalg.svd(frames - mean, full_matrices=False)[2][:6].T
    later = _smooth_stream(700, 6, 1e-3).as_matrix()[400:].astype(np.float64)
    want = np.clip(mean + (later - mean) @ u @ u.T, 0.0, 1.0)
    mean_frame_loss = np.mean((frames - mean) ** 2)
    fit_loss = np.mean((frames - mean - (frames - mean) @ u @ u.T) ** 2)
    # The ReLU is exact on the codes; the sigmoid's cubic term,
    # z^3 / 48 at |z| <= 0.1, costs up to 1e-3 of a code.
    for activation, atol in ((Activation.RELU, 1e-6), (Activation.SIGMOID, 3e-4)):
        cfg = TrainConfig(hidden_sizes=(6,), seed=7, activation=activation)
        model = train_reconstructor(stream, "sae", cfg)
        got = forward(model, later)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        assert np.mean((later - got) ** 2) < 0.01 * np.mean((later - mean) ** 2)
        assert model.epoch_losses[0] == pytest.approx(mean_frame_loss, rel=1e-8)
        assert model.epoch_losses[1] == pytest.approx(fit_loss, rel=1e-4)


def test_sae_fit_past_the_pool_rank_leaves_zero_units():
    # Five centred frames span four directions: of 32 units, four are
    # live, the fifth direction is rounding noise and 27 are past the rank.
    stream = _noise_stream(23, 5, w=32, h=32)
    for activation in Activation:
        model = train_reconstructor(stream, "sae", TrainConfig(activation=activation))
        for a in model.weights + model.biases:
            assert np.all(np.isfinite(a))
        live = np.any(model.weights[0] != 0.0, axis=1)
        assert live.sum() == 4
        assert not np.any(model.weights[1][:, ~live])
        if activation is Activation.RELU:
            assert not np.any(model.biases[0][~live])
        assert np.all(np.isfinite(error_series(model, stream).values))
        assert model.epoch_losses[1] < 1e-6 * model.epoch_losses[0]


def _held_out_ratio(model, pool, drives):
    """The model's mean error on drives over that of the pool's mean frame."""
    mean_frame = pool.as_matrix().mean(axis=0, dtype=np.float64)
    k = model.history_k or 0
    errors = np.concatenate([error_series(model, drive).values for drive in drives])
    baseline = np.concatenate(
        [np.mean((drive.as_matrix()[k:] - mean_frame) ** 2, axis=1) for drive in drives]
    )
    return np.mean(errors) / np.mean(baseline)


@pytest.fixture(scope="module")
def nominal_pool_and_held_out():
    """The train benchmarks' pool, two 600-frame nominal drives, and two
    600-frame nominal drives it does not hold."""
    pool = FrameStream(
        frames=np.concatenate([nominal_drive(s, 600).frames for s in (1000, 1001)]),
        frame_rate_hz=10.0,
    )
    return pool, [nominal_drive(seed, 600) for seed in (2000, 2001)]


def test_sae_fit_beats_the_mean_frame_on_held_out_drives(nominal_pool_and_held_out):
    # SGD at rate 10 ended at the mean frame: a ratio of 1.0004 on this pool.
    pool, held_out = nominal_pool_and_held_out
    model = train_reconstructor(pool, "sae", TrainConfig(seed=0))
    assert _held_out_ratio(model, pool, held_out) <= 0.9


def test_sigmoid_sae_fit_matches_the_relu_fit(nominal_pool_and_held_out):
    pool, held_out = nominal_pool_and_held_out
    relu, sigmoid = (
        _held_out_ratio(train_reconstructor(pool, "sae", TrainConfig(activation=a)), pool,
                        held_out)
        for a in (Activation.RELU, Activation.SIGMOID)
    )
    assert sigmoid == pytest.approx(relu, rel=0.01)


def test_model_bits_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits long sums differently at one thread and at two.  On
    # this 1000-frame pool, seq's Gram matrix as one product over every
    # sample, not summed block by block, writes a loss that differs in its
    # last bit.  On its 30x30 crop, 900 pixels, a product over every pixel
    # of a frame, not summed block by block, changes the sae and seq fits.
    script = """
import sys
from lanewatch.experiment import nominal_drive
from lanewatch.io import write_model_json
from lanewatch.reconstruct import FrameStream, TrainConfig, train_reconstructor
stream = nominal_drive(1000, 1000)
crop = FrameStream(frames=stream.frames[:, :30, :30])
for kind in ("sae", "dae", "seq"):
    model = train_reconstructor(stream, kind, TrainConfig(epochs=2))
    write_model_json(f"{sys.argv[1]}/{kind}.bin", model)
for kind in ("sae", "seq"):
    model = train_reconstructor(crop, kind, TrainConfig(epochs=2))
    write_model_json(f"{sys.argv[1]}/{kind}-30x30.bin", model)
"""
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
    for name in ("sae", "dae", "seq", "sae-30x30", "seq-30x30"):
        one = (tmp_path / "1" / f"{name}.bin").read_bytes()
        assert (tmp_path / "2" / f"{name}.bin").read_bytes() == one, name


def test_shallow_autoencoder_memorizes_constant_frame():
    # The centred pool is zero: every unit is dead, and the output bias is
    # the frame itself.
    frame = _frame(np.full(16, 0.3))
    stream = FrameStream(frames=[frame] * 40, frame_rate_hz=10.0)
    model = train_reconstructor(
        stream, ReconstructorKind.SAE, TrainConfig(hidden_sizes=(8,), epochs=200, seed=1)
    )
    errors = error_series(model, stream)
    assert float(errors.values.max()) == 0.0
    assert model.epoch_losses == [0.0, 0.0]


def test_training_is_deterministic():
    stream = _noise_stream(5, 30)
    cfg = TrainConfig(hidden_sizes=(6,), epochs=15, seed=42)
    a = train_reconstructor(stream, ReconstructorKind.SAE, cfg)
    b = train_reconstructor(stream, ReconstructorKind.SAE, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.epoch_losses == b.epoch_losses


def test_kind_defaults_resolve():
    stream = _noise_stream(6, 25)
    sae = train_reconstructor(stream, "sae", TrainConfig(epochs=1))
    assert sae.layer_sizes == [16, 32, 16]
    dae = train_reconstructor(stream, "dae", TrainConfig(epochs=1))
    assert dae.layer_sizes == [16, 64, 16, 64, 16]
    seq = train_reconstructor(stream, "seq", TrainConfig(epochs=1, history_k=3))
    assert seq.layer_sizes == [48, 16]
    assert seq.input_window == 3


def test_hidden_size_arity_enforced():
    stream = _noise_stream(7, 10)
    with pytest.raises(ConfigError):
        train_reconstructor(stream, "sae", TrainConfig(hidden_sizes=(8, 8), epochs=1))
    with pytest.raises(ConfigError):
        train_reconstructor(stream, "dae", TrainConfig(hidden_sizes=(8,), epochs=1))
    # seq is affine: it takes no hidden size.
    with pytest.raises(ConfigError, match="seq takes hidden_sizes of length 0"):
        train_reconstructor(stream, "seq", TrainConfig(hidden_sizes=(8,), epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "rate, n_frames, epochs",
    [(1e6, 200, 3), (1e40, 64, 1)],
    ids=["non-finite-loss", "finite-loss-non-finite-weights"],
)
def test_diverged_training_raises_convergence_error(monkeypatch, rate, n_frames, epochs):
    # dae is the one kind trained by SGD.  At rate 1e6 the epoch losses
    # overflow.  At 1e40 (inf in float32) the one batch's loss is computed
    # before its update and stays finite, but the update leaves non-finite
    # weights.
    monkeypatch.setattr(reconstruct, "_DAE_LEARNING_RATE", rate)
    with pytest.raises(ConvergenceError, match="dae training diverged"):
        train_reconstructor(_noise_stream(9, n_frames), "dae",
                            TrainConfig(epochs=epochs, batch_size=64))


# ------------------------------------------------------------------ scoring

# The float32 references below reconstruct every sample in one product:
# a one-row product takes numpy's matrix-vector path, which can round
# differently from the rows of a larger one.

def test_error_series_is_mean_pixel_squared_error():
    stream = _noise_stream(8, 12)
    model = train_reconstructor(stream, "sae", TrainConfig(hidden_sizes=(6,), epochs=3, seed=2))
    errors = error_series(model, stream)
    recons = forward(model, stream.as_matrix())
    for i, frame in enumerate(stream.frames):
        diff = frame.ravel() - recons[i]
        by_hand = float(np.mean(diff * diff, dtype=np.float64))
        assert errors.values[i] == pytest.approx(by_hand, rel=1e-12)
    assert errors.start_index == 0


def test_sequence_scoring_skips_history():
    stream = _noise_stream(9, 20)
    model = train_reconstructor(stream, "seq", TrainConfig(epochs=3, history_k=4, seed=3))
    errors = error_series(model, stream)
    assert errors.start_index == 4
    assert len(errors.values) == 16
    # Row i of the windowed inputs holds frames i ... i+3, oldest first.
    recons = forward(model, np.stack([stream.frames[i : i + 4].ravel() for i in range(16)]))
    for i in range(16):
        diff = stream.frames[i + 4].ravel() - recons[i]
        by_hand = float(np.mean(diff * diff, dtype=np.float64))
        assert errors.values[i] == pytest.approx(by_hand, rel=1e-12)


def _whole_stream_errors(model, stream, dtype=np.float32):
    """Errors of every sample at once, computed in dtype with each mean
    summed in float64: the lagged inputs built by concatenation, one
    forward pass over all of them."""
    frames = stream.as_matrix().astype(dtype)
    k = model.history_k or 0
    n = len(frames)
    inputs = np.concatenate([frames[j : n - k + j] for j in range(k)], axis=1) if k else frames
    diffs = frames[k:] - forward(model, inputs)
    return np.mean(diffs * diffs, axis=1, dtype=np.float64)


@pytest.mark.parametrize(
    "kind, activation",
    [("sae", Activation.RELU), ("dae", Activation.SIGMOID), ("seq", Activation.RELU)],
)
@pytest.mark.parametrize(
    "n_samples",
    [1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS + 1],
)
def test_blocked_error_series_matches_whole_stream(tmp_path, kind, activation, n_samples):
    # For seq, one sample is a stream of history_k + 1 frames.
    cfg = TrainConfig(epochs=2, seed=5, history_k=3, activation=activation)
    model = train_reconstructor(_noise_stream(16, 40, w=8, h=8), kind, cfg)
    shift = cfg.history_k if kind == "seq" else 0
    stream = _noise_stream(17, n_samples + shift, w=8, h=8)
    # The same frames scored in memory and read from an FRM1 file block
    # by block, by the model and by its read-back from model.bin.
    path = tmp_path / "frames.frm1"
    write_frames(path, stream)
    write_model_json(tmp_path / "model.bin", model)
    read_back = read_model_json(tmp_path / "model.bin")
    assert model.weights[0].dtype == read_back.weights[0].dtype == np.float32
    expected = _whole_stream_errors(model, stream)
    for scored, frames in [(model, stream), (model, FrameFile(path)), (read_back, stream)]:
        errors = error_series(scored, frames)
        assert errors.start_index == shift
        np.testing.assert_array_equal(errors.values, expected)


@pytest.mark.parametrize("kind", ["sae", "dae", "seq"])
@pytest.mark.parametrize("activation", [Activation.RELU, Activation.SIGMOID])
def test_float32_scores_track_float64_reference(kind, activation):
    # Three sample blocks, the last one holding the lone last sample.
    cfg = TrainConfig(epochs=2, seed=6, history_k=3, activation=activation)
    model = train_reconstructor(_noise_stream(19, 40, w=8, h=8), kind, cfg)
    shift = cfg.history_k if kind == "seq" else 0
    stream = _noise_stream(20, 2 * SCORE_BLOCK_ROWS + 1 + shift, w=8, h=8)
    want = _whole_stream_errors(model, stream, np.float64)
    np.testing.assert_allclose(error_series(model, stream).values, want, rtol=1e-5, atol=0.0)


@pytest.mark.parametrize("kind", ["sae", "dae", "seq"])
def test_error_series_memory_does_not_grow_with_the_stream(kind):
    import tracemalloc

    stream = FrameStream(
        frames=np.random.default_rng(18).random((2000, 32, 32, 1)), frame_rate_hz=10.0
    )
    model = train_reconstructor(stream, kind, TrainConfig(epochs=0))
    tracemalloc.start()
    try:
        error_series(model, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One float64 copy of the stream is 16.4 MB.  Whole-stream scoring
    # peaks at two to five such copies, float64 scoring blocks at 0.56 of
    # one (seq), and float32 ones at 0.26.
    assert peak < 0.35 * stream.frames.size * 8


# --------------------------------------------------------------- containers

def test_frame_stream_validation():
    bad_shapes = [
        np.zeros(3),
        np.zeros((2, 2, 2)),
        np.zeros((1, 2, 0, 1)),
        [np.zeros((2, 2, 1)), np.zeros((2, 3, 1))],
    ]
    bad_values = [
        np.array([0.0, 0.1, bad, 0.2]).reshape(1, 2, 2, 1)
        for bad in (np.nan, np.inf, -np.inf, 1.5, -0.1)
    ]
    for frames in bad_shapes + bad_values:
        with pytest.raises(ValueError):
            FrameStream(frames=frames, frame_rate_hz=10.0)


def test_frame_stream_from_list_of_frames():
    # The form a stream built by extending a list of per-frame arrays takes.
    stream = _noise_stream(13, 6, w=3, h=2)
    rebuilt = FrameStream(frames=list(stream.frames), frame_rate_hz=stream.frame_rate_hz)
    assert rebuilt.frames.dtype == np.float32
    assert rebuilt.frames.flags.c_contiguous
    np.testing.assert_array_equal(rebuilt.frames, stream.frames)
    assert rebuilt.frame_rate_hz == stream.frame_rate_hz


def test_model_shape_validation():
    with pytest.raises(ValueError):
        ReconstructorModel(
            kind=ReconstructorKind.SAE,
            layer_sizes=[4, 2, 4],
            weights=[np.zeros((2, 4)), np.zeros((4, 3))],
            biases=[np.zeros(2), np.zeros(4)],
            activation=Activation.RELU,
        )
    with pytest.raises(ValueError):
        ReconstructorModel(
            kind=ReconstructorKind.SEQ,
            layer_sizes=[8, 4],
            weights=[np.zeros((4, 8))],
            biases=[np.zeros(4)],
            activation=Activation.RELU,
            history_k=3,  # 3 * 4 != 8
        )
    # An autoencoder has no history, even a history of one frame.
    with pytest.raises(ValueError, match="history_k applies only to the sequence predictor"):
        ReconstructorModel(
            kind=ReconstructorKind.SAE,
            layer_sizes=[4, 2, 4],
            weights=[np.zeros((2, 4)), np.zeros((4, 2))],
            biases=[np.zeros(2), np.zeros(4)],
            activation=Activation.RELU,
            history_k=1,
        )
    # seq is affine: two layer sizes, even with weights that fit three.
    with pytest.raises(ValueError, match="seq takes 2 layer sizes"):
        ReconstructorModel(
            kind=ReconstructorKind.SEQ,
            layer_sizes=[8, 2, 4],
            weights=[np.zeros((2, 8)), np.zeros((4, 2))],
            biases=[np.zeros(2), np.zeros(4)],
            activation=Activation.RELU,
            history_k=2,
        )


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        train_reconstructor(FrameStream(frames=np.empty((0, 4, 4, 1)), frame_rate_hz=10.0), "sae")
