"""Reconstructors: gradient exactness, memorization, scoring conventions."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lanewatch.reconstruct as reconstruct_module
from lanewatch.errors import ConfigError, ConvergenceError
from lanewatch.io import FrameFile, read_model_json, write_frames, write_model_json
from lanewatch.reconstruct import (
    Activation,
    ErrorSeries,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.reconstruct import (
    _DEFAULT_LEARNING_RATE,
    SCORE_BLOCK_ROWS,
    _block_rows,
    _Workspace,
    _forward,
    _loss_and_grads,
    _row_ranges,
)
from reconstruct_reference import reconstruct, reconstruction_error


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
        out = _forward(weights, biases, Activation.RELU, x)[1][-1]
        want = float(np.mean((out.astype(np.float64) - target.astype(np.float64)) ** 2))
        plain = _loss_and_grads(weights, biases, Activation.RELU, x, target)[0]
        stepped = _loss_and_grads(held, biases, Activation.RELU, x, target, ws)[0]
        assert plain == pytest.approx(want, rel=rtol)
        assert stepped == pytest.approx(want, rel=rtol)


# ----------------------------------------------------------------- training

def _reference_sgd(stream, kind, cfg):
    """Float64 SGD with train_reconstructor's draws and batches: the same
    seeded initialization and per-epoch permutations, fresh buffers.  A
    sequence predictor's sample i is frames i ... i+k-1 concatenated,
    oldest first, and its target is frame i+k."""
    rng = np.random.default_rng(cfg.seed)
    frames = stream.as_matrix().astype(np.float64)
    if kind == "seq":
        k, n = cfg.history_k, len(frames)
        data = np.concatenate([frames[j : n - k + j] for j in range(k)], axis=1)
        targets = frames[k:]
    else:
        data = targets = frames
    sizes = [data.shape[1], *(cfg.hidden_sizes or ()), targets.shape[1]]
    weights, biases = [], []
    for n_in, n_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    rate = _DEFAULT_LEARNING_RATE[ReconstructorKind(kind)]
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


@pytest.mark.parametrize(
    "kind, cfg",
    [
        ("sae", TrainConfig(hidden_sizes=(6,), epochs=12, batch_size=8, seed=3)),
        ("dae", TrainConfig(hidden_sizes=(8, 4, 8), epochs=12, batch_size=8, seed=4,
                            activation=Activation.SIGMOID)),
        ("seq", TrainConfig(epochs=12, batch_size=8, seed=5, history_k=2)),
    ],
)
def test_float32_training_tracks_float64_reference(kind, cfg):
    # 45 frames in batches of 8 end each epoch with a short batch: 5
    # samples for the autoencoders, 3 for seq (43 lagged samples).
    # 9x9 frames make seq's one layer (162-81) wide, as at full size.
    side = 9 if kind == "seq" else 4
    stream = _noise_stream(14, 45, w=side, h=side)
    model = train_reconstructor(stream, kind, cfg)
    weights, biases, losses = _reference_sgd(stream, kind, cfg)
    for got, want in zip(model.weights + model.biases, weights + biases):
        assert got.dtype == np.float32
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(model.epoch_losses, losses, rtol=1e-4)
    assert model.epoch_losses[-1] < model.epoch_losses[0]


@pytest.mark.skipif(sys.platform != "linux", reason="minor-fault counts are read on Linux")
@pytest.mark.parametrize("kind", ["sae", "dae", "seq"])
def test_training_steps_do_not_churn_allocations(kind):
    # A 32x32 frame makes each 32-row float32 batch array 128 KiB.  The
    # count runs in a fresh process with one BLAS thread and glibc's mmap
    # threshold fixed at 128 KiB, so every array that large is mapped
    # fresh and faults in its pages: at the default threshold, which rises
    # after the first large free, the heap would reuse a freed array
    # unseen.  dae's one wide layer (64-1024) writes the short last batch
    # (200 = 6 * 32 + 8) into a column slice of its feature-major buffer;
    # seq's 3072-1024 layer computes its gradient a 768 KiB block at a
    # time, each into the same buffer.
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


@pytest.mark.parametrize(
    "kind, side, n_frames, block_bytes, block_rows, ranges",
    [
        # seq at 10x10 frames: its wide 300-100 layer (117 KiB of float32
        # gradient) in blocks of 32 rows with a ragged last one, and of 33
        # rows, where the lone 100th row joins the last block.
        ("seq", 10, 45, 32 * 1200, [32], [(0, 32), (32, 64), (64, 96), (96, 100)]),
        ("seq", 10, 45, 33 * 1200, [33], [(0, 33), (33, 66), (66, 100)]),
        # seq's default 3072-1024 layer at the default 768 KiB.
        ("seq", 32, 45, 768 * 1024, [64], [(r, r + 64) for r in range(0, 1024, 64)]),
        # dae at 32x32 frames: its input-major 1024-64 and wide 64-1024
        # layers (256 KiB each) in blocks of 400 rows.
        ("dae", 32, 200, 400 * 256, [400, 0, 0, 400], [(0, 400), (400, 800), (800, 1024)]),
    ],
)
def test_blocked_update_is_bit_identical(
    monkeypatch, kind, side, n_frames, block_bytes, block_rows, ranges
):
    # seq's 42 samples in batches of 8 and dae's 200 in batches of 32
    # both end each epoch with a short batch.
    stream = _noise_stream(19, n_frames, w=side, h=side)
    hyper = TrainConfig(epochs=3, batch_size=8 if kind == "seq" else 32, seed=6)
    monkeypatch.setattr(reconstruct_module, "_ROW_BLOCK_BYTES", 2**62)
    whole = train_reconstructor(stream, kind, hyper)
    assert not any(_Workspace(whole.layer_sizes, hyper.batch_size, np.float32).block_rows)
    monkeypatch.setattr(reconstruct_module, "_ROW_BLOCK_BYTES", block_bytes)
    ws = _Workspace(whole.layer_sizes, hyper.batch_size, np.float32)
    assert ws.block_rows == block_rows
    assert list(_row_ranges(ranges[-1][1], block_rows[0])) == ranges
    split = train_reconstructor(stream, kind, hyper)
    for a, b in zip(split.weights + split.biases, whole.weights + whole.biases):
        np.testing.assert_array_equal(a, b)
    assert split.epoch_losses == whole.epoch_losses


def test_seq_training_memory_holds_one_gradient_block():
    import tracemalloc

    stream = FrameStream(
        frames=np.random.default_rng(20).random((200, 32, 32, 1)), frame_rate_hz=10.0
    )
    tracemalloc.start()
    try:
        model = train_reconstructor(stream, "seq", TrainConfig(epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    model_bytes = sum(a.nbytes for a in model.weights + model.biases)
    # The float32 training weights are the model's arrays; a separate
    # float32 copy of the 3072-1024 layer would add 12 MiB, and so would a
    # full float32 gradient of it.
    assert peak <= model_bytes + 2 * 2**20


def test_shallow_autoencoder_memorizes_constant_frame():
    frame = _frame(np.full(16, 0.3))
    stream = FrameStream(frames=[frame] * 40, frame_rate_hz=10.0)
    model = train_reconstructor(
        stream, ReconstructorKind.SAE, TrainConfig(hidden_sizes=(8,), epochs=200, seed=1)
    )
    errors = error_series(model, stream)
    assert float(errors.values.max()) < 1e-4
    assert model.epoch_losses[-1] < model.epoch_losses[0]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "rate, n_frames, epochs",
    [(1e6, 200, 3), (1e40, 64, 1)],
    ids=["non-finite-loss", "finite-loss-non-finite-weights"],
)
def test_diverged_training_raises_convergence_error(monkeypatch, rate, n_frames, epochs):
    # At rate 1e6 the epoch losses overflow.  At 1e40 (inf in float32) the
    # one batch's loss is computed before its update and stays finite, but
    # the update leaves non-finite weights.
    monkeypatch.setitem(_DEFAULT_LEARNING_RATE, ReconstructorKind.SAE, rate)
    with pytest.raises(ConvergenceError, match="sae training diverged"):
        train_reconstructor(_noise_stream(9, n_frames), "sae",
                            TrainConfig(epochs=epochs, batch_size=64))


# ------------------------------------------------------------------ scoring

def test_error_series_is_mean_pixel_squared_error():
    stream = _noise_stream(8, 12)
    model = train_reconstructor(stream, "sae", TrainConfig(hidden_sizes=(6,), epochs=3, seed=2))
    errors = error_series(model, stream)
    for i, frame in enumerate(stream.frames):
        recon = reconstruct(model, stream.frames[i : i + 1])
        by_hand = float(np.mean((frame - recon) ** 2))
        assert errors.values[i] == pytest.approx(by_hand, rel=1e-12)
    assert errors.start_index == 0


def test_sequence_scoring_skips_history():
    stream = _noise_stream(9, 20)
    model = train_reconstructor(stream, "seq", TrainConfig(epochs=3, history_k=4, seed=3))
    errors = error_series(model, stream)
    assert errors.start_index == 4
    assert len(errors.values) == 16
    # Row i of the windowed inputs holds frames i ... i+3, oldest first.
    for i in range(16):
        recon = reconstruct(model, stream.frames[i : i + 4])
        by_hand = float(np.mean((stream.frames[i + 4] - recon) ** 2))
        assert errors.values[i] == pytest.approx(by_hand, rel=1e-12)


def _whole_stream_errors(model, stream):
    """Float64 errors of every sample at once: the lagged inputs built by
    concatenation, one forward pass over all of them."""
    frames = stream.as_matrix().astype(np.float64)
    k = model.history_k if model.kind is ReconstructorKind.SEQ else 0
    n = len(frames)
    inputs = np.concatenate([frames[j : n - k + j] for j in range(k)], axis=1) if k else frames
    relu = model.activation is Activation.RELU
    a = inputs
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.astype(np.float64).T + b
        if l < len(model.weights) - 1:
            # The sigmoid in the tanh form the model computes.
            a = np.maximum(a, 0.0) if relu else (np.tanh(a * 0.5) + 1.0) * 0.5
    diffs = frames[k:] - np.clip(a, 0.0, 1.0)
    return np.mean(diffs * diffs, axis=1)


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
    # by block.
    path = tmp_path / "frames.frm1"
    write_frames(path, stream)
    expected = _whole_stream_errors(model, stream)
    for frames in (stream, FrameFile(path)):
        errors = error_series(model, frames)
        assert errors.start_index == shift
        np.testing.assert_array_equal(errors.values, expected)


@pytest.mark.parametrize("kind, block_rows", [("sae", [9, 18]), ("seq", [3])])
@pytest.mark.parametrize("n_samples", [1, 2, 5, 21, 255, 257])
def test_multi_block_scoring_matches_one_block(tmp_path, monkeypatch, kind, block_rows, n_samples):
    # At 8x8 frames every weight fits in one 768 KiB block.  At three
    # float64 rows of seq's 192-64 weight, that weight is scored in 21
    # blocks (the lone last row joins the 21st), and sae's 64-32 and 32-64
    # weights in 4 each, the last one ragged.
    cfg = TrainConfig(epochs=2, seed=5, history_k=3)
    model = train_reconstructor(_noise_stream(16, 40, w=8, h=8), kind, cfg)
    shift = cfg.history_k if kind == "seq" else 0
    stream = _noise_stream(23, n_samples + shift, w=8, h=8)
    one_block = error_series(model, stream).values
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    read_back = read_model_json(path)
    monkeypatch.setattr(reconstruct_module, "_ROW_BLOCK_BYTES", 3 * 192 * 8)
    assert [_block_rows(len(w), w.shape[1] * 8) for w in model.weights] == block_rows
    in_memory = error_series(model, stream).values
    # Short sample blocks may round the column-blocked product differently
    # in the last bit.
    np.testing.assert_allclose(in_memory, one_block, rtol=1e-12, atol=0.0)
    # The float32 model and its float32 read-back score to the same bits.
    assert model.weights[0].dtype == read_back.weights[0].dtype == np.float32
    np.testing.assert_array_equal(error_series(read_back, stream).values, in_memory)


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
    # One float64 copy of the stream is 16.4 MB; whole-stream scoring
    # peaked at two to five such copies.
    assert peak < 0.6 * stream.frames.size * 8


def test_reconstruct_checks_history_length():
    stream = _noise_stream(10, 10)
    model = train_reconstructor(stream, "sae", TrainConfig(hidden_sizes=(6,), epochs=1))
    with pytest.raises(ValueError):
        reconstruct(model, stream.frames[:2])


def test_reconstruction_error_hand_value():
    a = _frame([0.0, 0.5, 1.0, 0.0] * 4)
    b = _frame([0.5, 0.5, 0.0, 0.0] * 4)
    # squared diffs: 0.25, 0, 1.0, 0 repeating -> mean 0.3125
    assert reconstruction_error(a, b) == pytest.approx(0.3125, rel=1e-15)
    assert reconstruction_error(a, a) == 0.0


def test_reconstruction_clamped_to_unit_interval():
    stream = _noise_stream(12, 15)
    model = train_reconstructor(stream, "sae", TrainConfig(hidden_sizes=(6,), epochs=0, seed=4))
    out = reconstruct(model, stream.frames[:1])
    assert out.shape == (4, 4, 1)
    assert float(out.min()) >= 0.0
    assert float(out.max()) <= 1.0


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


def test_error_series_frame_indices():
    es = ErrorSeries(values=[0.1, 0.2, 0.3], start_index=7)
    assert list(es.frame_indices()) == [7, 8, 9]


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


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        train_reconstructor(FrameStream(frames=np.empty((0, 4, 4, 1)), frame_rate_hz=10.0), "sae")
