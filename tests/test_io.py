"""Round trips and corruption handling for every on-disk artifact."""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanewatch.cli import load_config
from lanewatch.detector import Decision
from lanewatch.errors import FormatError
from lanewatch.evalkit import WindowKind, WindowLabel
from lanewatch.gammafit import GammaParams, ThresholdSpec
from lanewatch.io import (
    FRAME_MAGIC,
    MODEL_MAGIC,
    FrameFile,
    read_error_csv,
    read_frames,
    read_labels_csv,
    read_misbehaviour_csv,
    read_model_json,
    read_params_json,
    write_curve_csv,
    write_decision_csv,
    write_error_csv,
    write_frames,
    write_labels_csv,
    write_misbehaviour_csv,
    write_model_json,
    write_params_json,
)
from lanewatch.reconstruct import (
    SCORE_BLOCK_ROWS,
    Activation,
    ErrorSeries,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.scenario import MisbehaviourLog


def _stream(n=5, w=4, h=3, c=1, seed=0):
    rng = np.random.default_rng(seed)
    return FrameStream(frames=rng.random((n, h, w, c)), frame_rate_hz=10.0)


# ------------------------------------------------------------------- frames

def test_frames_round_trip_exact(tmp_path):
    stream = _stream()
    path = tmp_path / "frames.frm1"
    write_frames(path, stream)
    back = read_frames(path)
    assert len(back) == 5
    assert back.frames.shape == (5, 3, 4, 1)
    # Streams and FRM1 both hold float32, so the round trip is exact.
    np.testing.assert_array_equal(back.frames, stream.frames)


def test_read_frames_is_a_float32_view_of_the_body(tmp_path):
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream())
    frames = read_frames(path).frames
    assert frames.dtype == np.float32
    assert frames.flags.c_contiguous
    assert not frames.flags.owndata


def test_read_frames_is_read_only(tmp_path):
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream())
    assert not read_frames(path).frames.flags.writeable
    assert not FrameFile(path)[0:3].flags.writeable


def test_read_frames_validates_the_body_once(tmp_path, monkeypatch):
    # Each FrameStream takes one min/max pass over its frames; a second
    # stream around the first would read a drive's body twice.
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream())
    built = []
    validate = FrameStream.__post_init__

    def counted(self):
        built.append(len(self.frames))
        validate(self)

    monkeypatch.setattr(FrameStream, "__post_init__", counted)
    read_frames(path)
    assert built == [5]


def test_frames_rewrite_is_byte_identical(tmp_path):
    stream = _stream(seed=7)
    a, b = tmp_path / "a.frm1", tmp_path / "b.frm1"
    write_frames(a, stream)
    write_frames(b, read_frames(a))
    assert a.read_bytes() == b.read_bytes()


def test_frames_bad_magic(tmp_path):
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream())
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as exc_info:
        read_frames(path)
    assert exc_info.value.byte_offset == 0


def test_frames_truncated_body(tmp_path):
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream())
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(FormatError):
        read_frames(path)


def test_frames_truncated_header(tmp_path):
    path = tmp_path / "frames.frm1"
    path.write_bytes(FRAME_MAGIC + b"\x01\x00")
    with pytest.raises(FormatError):
        read_frames(path)


def test_frames_empty_stream(tmp_path):
    path = tmp_path / "frames.frm1"
    write_frames(path, FrameStream(frames=np.empty((0, 3, 4, 1)), frame_rate_hz=10.0))
    assert read_frames(path).frames.shape == (0, 3, 4, 1)


def test_frames_zero_count_zero_dimensions(tmp_path):
    path = tmp_path / "frames.frm1"
    path.write_bytes(FRAME_MAGIC + struct.pack("<IIII", 0, 0, 0, 0))
    with pytest.raises(FormatError) as exc_info:
        read_frames(path)
    assert exc_info.value.byte_offset == 4


@pytest.mark.parametrize("value", [np.nan, np.inf, 1.5, -0.1])
@pytest.mark.parametrize("frame", [0, 3])
def test_frames_bad_cell(tmp_path, value, frame):
    n, w, h, c = 5, 4, 3, 1
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream(n=n, w=w, h=h, c=c))
    data = bytearray(path.read_bytes())
    frame_start = 4 + 16 + frame * w * h * c * 4
    cell = frame_start + 7 * 4  # a cell inside the frame, not its first
    data[cell : cell + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as exc_info:
        read_frames(path)
    assert exc_info.value.byte_offset == frame_start


def _zero_model(n_pixels: int) -> ReconstructorModel:
    """An sae that reconstructs every frame as zeros, for any frame size."""
    return ReconstructorModel(
        kind=ReconstructorKind.SAE,
        layer_sizes=[n_pixels, 1, n_pixels],
        weights=[np.zeros((1, n_pixels)), np.zeros((n_pixels, 1))],
        biases=[np.zeros(1), np.zeros(n_pixels)],
        activation=Activation.RELU,
    )


def test_frame_file_slices_equal_read_frames(tmp_path):
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream(n=9))
    frames = FrameFile(path)
    assert len(frames) == 9 and frames.shape == (9, 3, 4, 1)
    whole = read_frames(path).frames
    for a, b in [(0, 9), (2, 5), (7, 20), (4, 4)]:
        np.testing.assert_array_equal(frames.frames[a:b], whole[a:b])


@pytest.mark.parametrize("frame", [0, SCORE_BLOCK_ROWS + 40])
def test_frame_file_bad_cell_raises_like_read_frames(tmp_path, frame):
    # Frame 0 lies in the first scoring block, the other one past it.
    n, w, h, c = 2 * SCORE_BLOCK_ROWS + 5, 4, 3, 1
    path = tmp_path / "frames.frm1"
    write_frames(path, _stream(n=n, w=w, h=h, c=c))
    data = bytearray(path.read_bytes())
    cell = 4 + 16 + (frame * w * h * c + 5) * 4
    data[cell : cell + 4] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as whole:
        read_frames(path)
    with pytest.raises(FormatError) as blocked:
        error_series(_zero_model(w * h * c), FrameFile(path))
    assert str(blocked.value) == str(whole.value)
    assert blocked.value.byte_offset == whole.value.byte_offset == cell - 5 * 4


def test_frame_file_scoring_holds_less_than_the_body(tmp_path):
    import tracemalloc

    path = tmp_path / "frames.frm1"
    stream = FrameStream(
        frames=np.random.default_rng(3).random((4000, 32, 32, 1)), frame_rate_hz=10.0
    )
    write_frames(path, stream)
    body_bytes = stream.frames.nbytes  # one float32 copy of the body, 16.4 MB
    del stream
    model = _zero_model(32 * 32)
    tracemalloc.start()
    try:
        error_series(model, FrameFile(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < body_bytes


# --------------------------------------------------------------------- CSVs

def test_error_csv_round_trip(tmp_path):
    series = ErrorSeries(values=np.array([0.1, 0.25, 1e-17, 3.0]), start_index=3)
    path = tmp_path / "errors.csv"
    write_error_csv(path, series)
    back = read_error_csv(path)
    assert back.start_index == 3
    np.testing.assert_array_equal(back.values, series.values)


def test_error_csv_rejects_gap(tmp_path):
    # The gap is reported at its own line, also when a bad number follows it.
    path = tmp_path / "errors.csv"
    for after in ("", "3,0.3\n4,x\n"):
        path.write_text("frame_index,smoothed_error\n0,0.1\n2,0.2\n" + after)
        with pytest.raises(FormatError, match="line 3: frame index 2, expected 1"):
            read_error_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-0.1"])
def test_error_csv_rejects_non_finite_or_negative(tmp_path, cell):
    # The bad value is reported at its own line, ahead of a bad cell or a
    # gap further down.
    path = tmp_path / "errors.csv"
    for after in ("", "3,x\n", "4,0.3\n"):
        path.write_text(f"frame_index,smoothed_error\n0,0.1\n1,0.2\n2,{cell}\n" + after)
        with pytest.raises(
            FormatError, match=f"errors.csv: line 4: bad finite non-negative number '{cell}'"
        ):
            read_error_csv(path)


def test_error_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "errors.csv"
    path.write_text("frame,err\n0,0.1\n")
    with pytest.raises(FormatError):
        read_error_csv(path)


def test_misbehaviour_csv_round_trip(tmp_path):
    flags = np.zeros(10, dtype=bool)
    flags[[2, 7]] = True
    path = tmp_path / "mis.csv"
    write_misbehaviour_csv(path, MisbehaviourLog(flags=flags))
    back = read_misbehaviour_csv(path)
    np.testing.assert_array_equal(back.flags, flags)


def test_misbehaviour_csv_rejects_bad_flag(tmp_path):
    path = tmp_path / "mis.csv"
    path.write_text("frame_index,misbehaviour\n0,2\n")
    with pytest.raises(FormatError, match="line 2: bad flag"):
        read_misbehaviour_csv(path)


def test_misbehaviour_csv_rejects_gap(tmp_path):
    # A log counts from frame 0; a gap names its line before a bad flag after it.
    path = tmp_path / "mis.csv"
    for rows, message in (("1,0\n", "line 2: frame index 1, expected 0"),
                          ("0,0\n2,1\n3,x\n", "line 3: frame index 2, expected 1")):
        path.write_text("frame_index,misbehaviour\n" + rows)
        with pytest.raises(FormatError, match=message):
            read_misbehaviour_csv(path)


def test_labels_csv_round_trip(tmp_path):
    labels = [
        WindowLabel(start=0, length=30, kind=WindowKind.NORMAL),
        WindowLabel(start=120, length=30, kind=WindowKind.ANOMALOUS),
        WindowLabel(start=150, length=50, kind=WindowKind.REACTION),
        WindowLabel(start=201, length=60, kind=WindowKind.HEALING),
    ]
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    back = read_labels_csv(path)
    assert [(w.start, w.length, w.kind) for w in back] == [
        (w.start, w.length, w.kind) for w in labels
    ]


def test_labels_csv_rejects_unknown_kind(tmp_path):
    # label never writes "unlabelled": frames outside every window get no row.
    path = tmp_path / "labels.csv"
    for kind in ("bogus", "unlabelled"):
        path.write_text(f"start,length,kind\n0,30,{kind}\n")
        with pytest.raises(FormatError, match=f"unknown kind '{kind}'"):
            read_labels_csv(path)


@pytest.mark.parametrize("row", ["-1,5,normal", "1,0,normal"])
def test_labels_csv_rejects_bad_window(tmp_path, row):
    # A negative start or an empty window names the line it is on.
    path = tmp_path / "labels.csv"
    path.write_text(f"start,length,kind\n0,30,normal\n{row}\n")
    with pytest.raises(FormatError, match="line 3"):
        read_labels_csv(path)


def test_decision_csv_layout(tmp_path):
    path = tmp_path / "alarms.csv"
    write_decision_csv(path, 3, [Decision.QUIET, Decision.ALARM, Decision.SUPPRESSED])
    assert path.read_text() == (
        "frame_index,decision\n3,quiet\n4,alarm\n5,suppressed\n"
    )


def test_curve_csv_layout(tmp_path):
    path = tmp_path / "roc.csv"
    write_curve_csv(path, "theta,fpr,tpr", [(0.5, 0.25, 1.0)])
    assert path.read_text() == "theta,fpr,tpr\n0.5,0.25,1.0\n"


# -------------------------------------------------------------------- model

def _model_file(header, arrays=()) -> bytes:
    """An LWM1 file: header is a JSON document or its raw bytes."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    body = b"".join(np.asarray(a, dtype="<f4").tobytes() for a in arrays)
    return MODEL_MAGIC + struct.pack("<I", len(text)) + text + body


def _model_parts(path) -> tuple[dict, bytes]:
    """The header document and the body bytes of an LWM1 file."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 4)
    return json.loads(data[8 : 8 + length]), data[8 + length :]


def _tiny_model(kind=ReconstructorKind.SAE, **hyper) -> ReconstructorModel:
    # Each kind takes as many hidden sizes as its default has: sae one.
    hidden = (2,) if kind is ReconstructorKind.SAE else None
    cfg = TrainConfig(**{"hidden_sizes": hidden, "epochs": 1, **hyper})
    return train_reconstructor(_stream(n=12, w=2, h=2), kind, cfg)


def test_model_json_round_trip_exact(tmp_path):
    stream = _stream(n=12, w=4, h=4)
    model = train_reconstructor(
        stream,
        ReconstructorKind.DAE,
        TrainConfig(hidden_sizes=(4, 2, 4), epochs=3, batch_size=4, seed=1),
    )
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    back = read_model_json(path)
    assert back.kind is model.kind
    assert back.layer_sizes == model.layer_sizes
    for w0, w1 in zip(model.weights, back.weights):
        assert w1.dtype == np.float32
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(model.biases, back.biases):
        np.testing.assert_array_equal(b0, b1)
    assert len(model.epoch_losses) == 3
    assert back.epoch_losses == model.epoch_losses


@pytest.mark.parametrize(
    "kind, epochs",
    [("sae", 2), ("dae", 2), ("seq", 2), ("dae", 0)],
    ids=["sae", "dae", "seq", "no-epoch-losses"],
)
def test_model_json_bytes_are_json_dumps_of_the_document(tmp_path, kind, epochs):
    # The header is json.dumps of the model's document; the weights, then
    # the biases, follow as raw little-endian float32.
    cfg = TrainConfig(hidden_sizes=(3,) if kind == "sae" else None, epochs=epochs, seed=4,
                      history_k=3)
    model = train_reconstructor(_stream(n=12, w=4, h=4), kind, cfg)
    assert (model.history_k is None) == (kind != "seq")
    # sae and seq are fitted in closed form: [mean-frame loss, fitted loss].
    assert len(model.epoch_losses) == (epochs if kind == "dae" else 2)
    doc = {
        "kind": model.kind.value,
        "layer_sizes": model.layer_sizes,
        "activation": model.activation.value,
        "history_k": model.history_k,
        "epoch_losses": model.epoch_losses,
    }
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    assert path.read_bytes() == _model_file(doc, [*model.weights, *model.biases])


def test_model_json_without_epoch_losses_still_reads(tmp_path):
    model = _tiny_model(epochs=2)
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    doc, body = _model_parts(path)
    del doc["epoch_losses"]
    path.write_bytes(_model_file(doc) + body)
    back = read_model_json(path)
    assert back.epoch_losses == []
    np.testing.assert_array_equal(back.weights[0], model.weights[0])


@pytest.mark.parametrize("kind", [ReconstructorKind.SAE, ReconstructorKind.SEQ])
def test_model_json_without_history_k(tmp_path, kind):
    # history_k has a default, so the header may leave it out: an
    # autoencoder reads back without one, a sequence predictor is refused.
    path = tmp_path / "model.bin"
    write_model_json(path, _tiny_model(kind, history_k=1))
    doc, body = _model_parts(path)
    del doc["history_k"]
    path.write_bytes(_model_file(doc) + body)
    if kind is ReconstructorKind.SAE:
        assert read_model_json(path).history_k is None
    else:
        with pytest.raises(FormatError, match="sequence predictor needs a positive history_k"):
            read_model_json(path)


@pytest.mark.parametrize(
    "losses", ["0.5", {"0": 0.5}, None, ["NaN"], ["Infinity"], [0.5, "x"], [[0.5]]],
    ids=["string", "object", "null", "nan", "inf", "string-entry", "nested"],
)
def test_model_json_rejects_bad_epoch_losses(tmp_path, losses):
    path = tmp_path / "model.bin"
    write_model_json(path, _tiny_model())
    doc, body = _model_parts(path)
    doc["epoch_losses"] = "TOKEN"
    token = json.dumps(losses).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")
    path.write_bytes(_model_file(json.dumps(doc).replace('"TOKEN"', token).encode()) + body)
    with pytest.raises(FormatError, match="epoch_losses") as exc_info:
        read_model_json(path)
    assert exc_info.value.byte_offset == 8


def test_model_json_missing_field(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(_model_file({"kind": "sae"}))
    with pytest.raises(FormatError, match="missing model fields"):
        read_model_json(path)


def test_model_json_invalid_json(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(_model_file(b"{not json"))
    with pytest.raises(FormatError, match="invalid JSON header") as exc_info:
        read_model_json(path)
    assert exc_info.value.byte_offset == 9


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["weights", "biases"])
def test_model_json_rejects_non_finite(tmp_path, token, where):
    model = _tiny_model()
    getattr(model, where)[1].flat[-1] = float(token)
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    # The last cell of the second weight, or of the second bias.
    cells = [*model.weights, *model.biases]
    index = sum(a.size for a in cells[: 2 if where == "weights" else 4]) - 1
    body_at = path.stat().st_size - 4 * sum(a.size for a in cells)
    with pytest.raises(FormatError, match="model.bin: weights must be finite") as exc_info:
        read_model_json(path)
    assert exc_info.value.byte_offset == body_at + 4 * index


@pytest.mark.parametrize(
    "field, value",
    [("layer_sizes", [4.9, 2, 4]), ("layer_sizes", [4, True, 4]), ("history_k", 1.5),
     ("history_k", True)],
    ids=["fractional-size", "boolean-size", "fractional-history-k", "boolean-history-k"],
)
def test_model_json_integer_fields_must_be_integers(tmp_path, field, value):
    # Truncated or read as 1, each value would give the sizes the weights have.
    kind = ReconstructorKind.SAE if field == "layer_sizes" else ReconstructorKind.SEQ
    model = _tiny_model(kind, history_k=1)
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    doc, body = _model_parts(path)
    assert doc[field] == ([4, 2, 4] if field == "layer_sizes" else 1)
    doc[field] = value
    path.write_bytes(_model_file(doc) + body)
    with pytest.raises(FormatError, match=field):
        read_model_json(path)


def test_write_model_json_refuses_to_round(tmp_path):
    # A float64 weight is written only if float32 holds its values exactly.
    model = _tiny_model()
    model.weights[0] = model.weights[0].astype(np.float64)
    write_model_json(tmp_path / "exact.bin", model)
    model.weights[0][0, 0] = 0.1
    with pytest.raises(ValueError, match="change when rounded to float32"):
        write_model_json(tmp_path / "rounded.bin", model)


@pytest.mark.parametrize("kind", ["sae", "dae", "seq"])
def test_model_read_back_scores_like_the_trained_model(tmp_path, kind):
    model = train_reconstructor(_stream(n=40, w=8, h=8, seed=2), kind,
                                TrainConfig(epochs=2, seed=6, history_k=3))
    write_model_json(tmp_path / "model.bin", model)
    stream = _stream(n=30, w=8, h=8, seed=3)
    write_error_csv(tmp_path / "trained.csv", error_series(model, stream))
    write_error_csv(tmp_path / "read.csv",
                    error_series(read_model_json(tmp_path / "model.bin"), stream))
    assert (tmp_path / "read.csv").read_bytes() == (tmp_path / "trained.csv").read_bytes()


def _seq_model_3072_1024() -> ReconstructorModel:
    rng = np.random.default_rng(11)
    return ReconstructorModel(
        kind=ReconstructorKind.SEQ,
        layer_sizes=[3072, 1024],
        weights=[rng.standard_normal((1024, 3072), dtype=np.float32)],
        biases=[rng.standard_normal(1024, dtype=np.float32)],
        activation=Activation.RELU,
        history_k=3,
        epoch_losses=[0.5, 0.25],
    )


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_model_json_peak_is_the_model(tmp_path):
    # 12.6 MB of float32: the read holds one body, not a parse of it.
    model = _seq_model_3072_1024()
    nbytes = sum(a.nbytes for a in (*model.weights, *model.biases))
    path = tmp_path / "model.bin"
    write_model_json(path, model)
    del model
    assert _traced_peak(lambda: read_model_json(path)) <= 1.25 * nbytes


def test_write_model_json_copies_no_weight(tmp_path):
    model = _seq_model_3072_1024()
    peak = _traced_peak(lambda: write_model_json(tmp_path / "model.bin", model))
    assert peak < model.weights[0].nbytes / 100


# --------------------------------------------------------------------- JSON

def test_params_json_round_trip_exact(tmp_path):
    params = GammaParams(shape_alpha=2.5530000000000013, rate_beta=1234.567890123456)
    threshold = ThresholdSpec(epsilon=0.05, theta=0.0028251111111111117)
    path = tmp_path / "params.json"
    write_params_json(path, params, threshold, 4800)
    back_params, back_threshold, n = read_params_json(path)
    # 17 significant digits is enough for an exact float64 round trip.
    assert back_params.shape_alpha == params.shape_alpha
    assert back_params.rate_beta == params.rate_beta
    assert back_threshold.theta == threshold.theta
    assert n == 4800


def test_params_json_missing_field(tmp_path):
    path = tmp_path / "params.json"
    fields = '"alpha": 2.0, "rate": 3.0, "epsilon": 0.05, "theta": 0.01'
    # A missing field, then a present but non-integer sample count.
    for doc in (
        '{"alpha": 2.0, "rate": 3.0}',
        '{' + fields + ', "sample_count": null}',
        '{' + fields + ', "sample_count": "abc"}',
    ):
        path.write_text(doc + "\n")
        with pytest.raises(FormatError):
            read_params_json(path)


@pytest.mark.parametrize(
    "token, expected",
    [("400", 400), ("2.0", 2), ("2.5", None), ("true", None), ("false", None),
     ('"400"', None), ("1e999", None), ("-5", None)],
    ids=["int", "integral-float", "fractional", "true", "false", "string", "infinite",
         "negative"],
)
def test_params_json_sample_count_must_be_integral(tmp_path, token, expected):
    path = tmp_path / "params.json"
    path.write_text(
        '{"alpha": 2.0, "rate": 3.0, "epsilon": 0.05, "theta": 0.01, '
        f'"sample_count": {token}}}\n'
    )
    if expected is None:
        with pytest.raises(FormatError, match="sample_count"):
            read_params_json(path)
    else:
        assert read_params_json(path)[2] == expected


@pytest.mark.parametrize(
    "field, token",
    [("alpha", '"2.5"'), ("rate", "true"), ("epsilon", '"0.05"'), ("theta", "true"),
     ("alpha", "1" + "0" * 400)],
    ids=["alpha-string", "rate-true", "epsilon-string", "theta-true", "alpha-huge-int"],
)
def test_params_json_numbers_must_be_numbers(tmp_path, field, token):
    # A string or a boolean is not read as a number.
    tokens = {"alpha": "2.0", "rate": "3.0", "epsilon": "0.05", "theta": "0.01",
              "sample_count": "400", field: token}
    path = tmp_path / "params.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in tokens.items()) + "}\n")
    with pytest.raises(FormatError, match=field):
        read_params_json(path)


# ----------------------------------------------------------------- fuzzing
#
# Each reader gets a valid file that a strategy then damages: cut short,
# a byte flipped, the magic or header replaced, a cell made NaN or Inf.
# Whatever the damage, the reader returns a valid object or raises
# FormatError, never another exception.

@st.composite
def _damaged(draw, data: bytes, header_size: int) -> bytes:
    kind = draw(st.sampled_from(["intact", "truncate", "flip", "header", "append"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    if kind == "flip" and data:
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    if kind == "header":
        return draw(st.binary(max_size=2 * header_size)) + data[header_size:]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    return data


_cells = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 1.5, np.float32(1e-45)]),
)


@st.composite
def _frame_files(draw) -> bytes:
    n, h, w, c = (draw(st.integers(lo, 3)) for lo in (0, 1, 1, 1))
    cells = draw(st.lists(_cells, min_size=n * h * w * c, max_size=n * h * w * c))
    body = np.asarray(cells, dtype="<f4").tobytes()
    data = FRAME_MAGIC + struct.pack("<IIII", n, w, h, c) + body
    return draw(_damaged(data, 4 + 16))


def _scored(open_frames, path):
    """The errors of a zero model over the opened frames, "empty" for a
    file without frames, or the FormatError raised on the way."""
    try:
        frames = open_frames(path)
        if not len(frames):
            return "empty"
        return error_series(_zero_model(math.prod(frames.frames.shape[1:])), frames).values
    except FormatError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(_frame_files())
def test_read_frames_fuzz_raises_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "frames.frm1"
    path.write_bytes(data)
    # Scoring the file block by block fails exactly when reading it whole
    # does, with the same error.
    whole, blocked = _scored(read_frames, path), _scored(FrameFile, path)
    if isinstance(whole, FormatError):
        assert isinstance(blocked, FormatError)
        assert (str(blocked), blocked.byte_offset) == (str(whole), whole.byte_offset)
        return
    assert not isinstance(blocked, FormatError)
    np.testing.assert_array_equal(blocked, whole)
    stream = read_frames(path)
    n, w, h, c = struct.unpack_from("<IIII", data, 4)
    assert stream.frames.shape == (n, h, w, c)
    assert len(data) == 4 + 16 + stream.frames.size * 4


_error_cells = st.one_of(
    st.floats(0.0, 10.0).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.1", "", "x",
                     "0x1p-3", "1_0", " 0.5", "0.5,0.5"]),
)


@st.composite
def _error_files(draw) -> bytes:
    start = draw(st.integers(-3, 3))
    cells = draw(st.lists(_error_cells, max_size=6))
    header = draw(st.sampled_from(["frame_index,smoothed_error", "frame_index,error", ""]))
    lines = [header] + [f"{start + i},{cell}" for i, cell in enumerate(cells)]
    data = ("\n".join(lines) + "\n").encode()
    return draw(_damaged(data, len(header)))


@settings(max_examples=300, deadline=None)
@given(_error_files())
def test_read_error_csv_fuzz_raises_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "errors.csv"
    path.write_bytes(data)
    try:
        series = read_error_csv(path)
    except FormatError:
        return
    assert len(series) >= 1
    assert np.all(np.isfinite(series.values)) and np.all(series.values >= 0.0)


_odd_cells = st.sampled_from(["", "x", "-1", "2", "1.0", "1e3", " 1", "0x1", "9" * 5000, "normal"])


@st.composite
def _misbehaviour_files(draw) -> bytes:
    header = "frame_index,misbehaviour"
    cells = draw(st.lists(st.one_of(st.sampled_from(["0", "1"]), _odd_cells), max_size=6))
    lines = [header] + [f"{i},{cell}" for i, cell in enumerate(cells)]
    return draw(_damaged(("\n".join(lines) + "\n").encode(), len(header)))


@settings(max_examples=300, deadline=None)
@given(_misbehaviour_files())
def test_read_misbehaviour_csv_fuzz_raises_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "misbehaviour.csv"
    path.write_bytes(data)
    try:
        log = read_misbehaviour_csv(path)
    except FormatError:
        return
    assert log.flags.dtype == bool


_label_rows = st.tuples(
    st.one_of(st.integers(0, 500).map(str), _odd_cells),
    st.one_of(st.integers(1, 60).map(str), _odd_cells),
    st.one_of(st.sampled_from([k.value for k in WindowKind]), _odd_cells),
)


@st.composite
def _label_files(draw) -> bytes:
    header = "start,length,kind"
    rows = draw(st.lists(_label_rows, max_size=6))
    lines = [header] + [",".join(row) for row in rows]
    return draw(_damaged(("\n".join(lines) + "\n").encode(), len(header)))


@settings(max_examples=300, deadline=None)
@given(_label_files())
def test_read_labels_csv_fuzz_raises_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "labels.csv"
    path.write_bytes(data)
    try:
        labels = read_labels_csv(path)
    except FormatError:
        return
    assert all(w.start >= 0 and w.length >= 1 for w in labels)


# A JSON artifact is damaged twice: one value anywhere in the document is
# replaced by an odd one or its key deleted, then the bytes are damaged.

_odd_values = st.sampled_from(
    [None, True, "x", "0.5", [], {}, [[]], -1, 0, 2.5, 10**400, math.inf, -math.inf, math.nan]
)


def _json_paths(node, prefix=()):
    """Every path into a JSON document, the root's first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _json_paths(child, (*prefix, key))


@st.composite
def _json_files(draw, doc: dict) -> bytes:
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_json_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit = draw(st.sampled_from(["keep", "replace", "delete"]))
    if edit == "replace":
        parent[path[-1]] = draw(_odd_values)
    elif edit == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    return draw(_damaged(json.dumps(doc).encode(), 16))


@functools.cache
def _model_header_and_body() -> tuple[dict, np.ndarray]:
    model = train_reconstructor(
        _stream(n=6, w=2, h=1), ReconstructorKind.SAE, TrainConfig(hidden_sizes=(1,), epochs=2)
    )
    header = {
        "kind": "sae",
        "layer_sizes": model.layer_sizes,
        "activation": "relu",
        "history_k": None,
        "epoch_losses": model.epoch_losses,
    }
    return header, np.concatenate([a.ravel() for a in (*model.weights, *model.biases)])


@st.composite
def _model_files(draw) -> bytes:
    header, body = _model_header_and_body()
    text = json.dumps(header).encode()
    damage = draw(st.sampled_from(["intact", "header", "cell", "truncate", "magic", "length",
                                   "bytes"]))
    if damage == "header":
        text = draw(_json_files(header))
    if damage == "cell":
        body = body.copy()
        body[draw(st.integers(0, body.size - 1))] = draw(st.sampled_from([np.nan, np.inf,
                                                                          -np.inf]))
    data = _model_file(text, [body])
    if damage == "truncate":
        # Cut inside the magic, the length, the header or the body.
        lo, hi = draw(st.sampled_from([(0, 4), (4, 8), (8, 8 + len(text)),
                                       (8 + len(text), len(data))]))
        return data[: draw(st.integers(lo, hi - 1))]
    if damage == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != MODEL_MAGIC))
        return magic + data[4:]
    if damage == "length":
        # Past the end of the file, or short of the header.
        length = draw(st.one_of(st.integers(len(data) - 7, 2**32 - 1),
                                st.integers(0, len(text) - 1)))
        return data[:4] + struct.pack("<I", length) + data[8:]
    if damage == "bytes":
        return draw(_damaged(data, 8 + len(text)))
    return data


@settings(max_examples=300, deadline=None)
@given(_model_files())
def test_read_model_json_fuzz_raises_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    path.write_bytes(data)
    try:
        model = read_model_json(path)
    except FormatError as exc:
        assert exc.byte_offset is not None
        return
    arrays = (*model.weights, *model.biases)
    assert all(a.dtype == np.float32 and np.isfinite(a).all() for a in arrays)
    assert all(math.isfinite(x) for x in model.epoch_losses)
    (length,) = struct.unpack_from("<I", data, 4)
    assert len(data) == 8 + length + 4 * sum(a.size for a in arrays)


_PARAMS_DOC = {"alpha": 2.5, "rate": 40.0, "epsilon": 0.05, "theta": 0.11, "sample_count": 400}


@settings(max_examples=300, deadline=None)
@given(_json_files(_PARAMS_DOC))
def test_read_params_json_fuzz_raises_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "params.json"
    path.write_bytes(data)
    try:
        params, threshold, _ = read_params_json(path)
    except FormatError:
        return
    assert math.isfinite(params.shape_alpha) and 0.0 < threshold.epsilon < 1.0


# ------------------------------------------------------------ text decoding

def _load_config(path):
    return load_config(str(path), argparse.Namespace())


@pytest.mark.parametrize(
    "reader, data",
    [
        (read_error_csv, b"frame_index,smoothed_error\n0,0.5\xff\n"),
        (read_misbehaviour_csv, b"frame_index,misbehaviour\n0,\xff\n"),
        (read_labels_csv, b"start,length,kind\n0,30,\xff\n"),
        (read_params_json, b'{"alpha": "\xff"}\n'),
        (read_model_json, _model_file(b'{"kind": "\xff"}')),
        (_load_config, b'{"seed": "\xff"}\n'),
    ],
    ids=["errors.csv", "misbehaviour.csv", "labels.csv", "params.json", "model.json",
         "config"],
)
def test_reader_rejects_non_utf8(tmp_path, reader, data):
    # The \xff byte is never valid UTF-8.
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="not UTF-8"):
        reader(path)
