"""File formats: frame binaries, CSV logs, and JSON artifacts.

Frame stream binary ("FRM1"): 4 magic bytes, then four little-endian u32
fields (count, width, height, channels), then count*W*H*C little-endian
IEEE-754 32-bit floats, frame-major, row-major, channel-last.  Read
errors carry the byte offset of the problem.

CSV files are LF-terminated with a fixed header; floats use Python's
shortest round-trip representation.  The fitted-parameters JSON instead
prints 17 significant digits so the decimal literals are exact float64
round-trips even for consumers with naive parsers.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .detector import Decision
from .errors import FormatError
from .evalkit import WindowLabel, WindowKind
from .gammafit import GammaParams, ThresholdSpec
from .reconstruct import (
    Activation,
    ErrorSeries,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
)
from .scenario import MisbehaviourLog

__all__ = [
    "write_frames",
    "read_frames",
    "FrameFile",
    "write_error_csv",
    "read_error_csv",
    "write_misbehaviour_csv",
    "read_misbehaviour_csv",
    "write_intensity_csv",
    "write_decision_csv",
    "write_labels_csv",
    "read_labels_csv",
    "write_model_json",
    "read_model_json",
    "write_params_json",
    "read_params_json",
    "write_report_json",
    "write_curve_csv",
]

FRAME_MAGIC = b"FRM1"
_HEADER = struct.Struct("<IIII")
_BODY_OFFSET = len(FRAME_MAGIC) + _HEADER.size


def write_frames(path: str | Path, stream: FrameStream) -> None:
    count, height, width, channels = stream.frames.shape
    with open(path, "wb") as f:
        f.write(FRAME_MAGIC + _HEADER.pack(count, width, height, channels))
        # The stream's float32 frames are the body; "<f4" copies only on a
        # big-endian host.
        f.write(np.ascontiguousarray(stream.frames, dtype="<f4").data)


def _frame_shape(path, f) -> tuple[int, int, int, int]:
    """(count, height, width, channels) from the FRM1 file f, left at the
    start of its body.  Checks the magic, the dimensions, and that the
    body holds exactly the bytes they call for."""
    size = os.fstat(f.fileno()).st_size
    head = f.read(_BODY_OFFSET)
    if size < 4:
        raise FormatError(f"{path}: truncated before magic", byte_offset=size)
    if head[:4] != FRAME_MAGIC:
        raise FormatError(
            f"{path}: bad magic {head[:4]!r}, expected {FRAME_MAGIC!r}", byte_offset=0
        )
    if size < _BODY_OFFSET:
        raise FormatError(f"{path}: truncated header", byte_offset=size)
    count, width, height, channels = _HEADER.unpack_from(head, 4)
    if width == 0 or height == 0 or channels == 0:
        raise FormatError(
            f"{path}: zero frame dimension {width}x{height}x{channels}", byte_offset=4
        )
    expected = count * width * height * channels * 4
    actual = size - _BODY_OFFSET
    if actual != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes of frame data, found {actual}",
            byte_offset=_BODY_OFFSET + min(actual, expected),
        )
    return count, height, width, channels


def _read_body(path, f, buffer) -> None:
    """Fill buffer from f; a file cut short since its size was checked
    raises FormatError rather than leaving the rest unfilled."""
    if f.readinto(buffer) != memoryview(buffer).nbytes:
        raise FormatError(f"{path}: truncated while reading", byte_offset=f.tell())


def _frame_stream(path, frames: np.ndarray, first: int, frame_rate_hz: float) -> FrameStream:
    """frames, frame first onwards of the file at path, as a FrameStream,
    which validates every cell.  Only when that fails is the first bad
    cell looked for, to name its frame and byte offset."""
    try:
        return FrameStream(frames=frames, frame_rate_hz=frame_rate_hz)
    except ValueError:
        cells = frames.reshape(-1)
        # NaN fails both comparisons, so this also finds non-finite cells.
        bad = np.flatnonzero(~((cells >= 0.0) & (cells <= 1.0)))
        if not bad.size:
            raise
        per_frame = math.prod(frames.shape[1:])
        i = first + int(bad[0]) // per_frame
        raise FormatError(
            f"{path}: frame {i}: pixel values must be finite and lie in [0, 1], "
            f"found {cells[bad[0]]}",
            byte_offset=_BODY_OFFSET + i * per_frame * 4,
        ) from None


def read_frames(path: str | Path, frame_rate_hz: float = 30.0) -> FrameStream:
    """Load an FRM1 file; frame_rate_hz is caller-supplied metadata, the
    format itself does not store it.  The stream's frames are a read-only
    view of the body, read into an anonymous mmap of its own: the memory
    goes back to the system when the stream is dropped, where a freed
    bytes object of a drive's size can stay in the heap under later
    allocations."""
    with open(path, "rb") as f:
        shape = _frame_shape(path, f)
        nbytes = math.prod(shape) * 4
        body = mmap.mmap(-1, nbytes) if nbytes else bytearray()
        _read_body(path, f, body)
    frames = np.frombuffer(body, dtype="<f4").reshape(shape)
    frames.flags.writeable = False
    return _frame_stream(path, frames, 0, frame_rate_hz)


class FrameFile:
    """An FRM1 file read a few frames at a time, so that scoring it holds
    one block of frames rather than the drive.

    Opening checks the header and the file size as read_frames does.
    error_series takes a FrameFile in place of a FrameStream: frames is
    the file itself, and frames[a:b] reads frames a ... b-1 from disk and
    validates only those, raising the FormatError read_frames would give
    for the first bad cell among them.
    """

    def __init__(self, path: str | Path, frame_rate_hz: float = 30.0):
        with open(path, "rb") as f:
            self.shape = _frame_shape(path, f)
        self.path, self.frame_rate_hz = path, frame_rate_hz

    @property
    def frames(self) -> FrameFile:
        return self

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, frames: slice) -> np.ndarray:
        start, stop, step = frames.indices(len(self))
        if step != 1:
            raise ValueError(f"FrameFile reads contiguous frames only, got step {step}")
        block = np.empty((max(stop - start, 0), *self.shape[1:]), dtype="<f4")
        with open(self.path, "rb") as f:
            f.seek(_BODY_OFFSET + start * math.prod(self.shape[1:]) * 4)
            _read_body(self.path, f, block)
        return _frame_stream(self.path, block, start, self.frame_rate_hz).frames


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text", byte_offset=exc.start) from exc


def _read_rows(path: str | Path, header: str) -> list[tuple[int, list[str]]]:
    """CSV rows as (line_number, cells); verifies the header line."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file, expected header '{header}'")
    if lines[0] != header:
        raise FormatError(f"{path}: line 1: header '{lines[0]}', expected '{header}'")
    return [(i, line.split(",")) for i, line in enumerate(lines[1:], start=2) if line]


def _parse_int(path, line_no, cell: str) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise FormatError(f"{path}: line {line_no}: bad integer '{cell}'") from exc


def _parse_float(path, line_no, cell: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise FormatError(f"{path}: line {line_no}: bad number '{cell}'") from exc


def write_error_csv(path: str | Path, series: ErrorSeries) -> None:
    lines = ["frame_index,error"]
    for idx, value in zip(series.frame_indices(), series.values):
        lines.append(f"{idx},{float(value)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def read_error_csv(path: str | Path) -> ErrorSeries:
    rows = _read_rows(path, "frame_index,error")
    indices: list[int] = []
    values: list[float] = []
    for line_no, cells in rows:
        if len(cells) != 2:
            raise FormatError(f"{path}: line {line_no}: expected 2 columns")
        indices.append(_parse_int(path, line_no, cells[0]))
        values.append(_parse_float(path, line_no, cells[1]))
    if not indices:
        raise FormatError(f"{path}: no data rows")
    start = indices[0]
    for offset, idx in enumerate(indices):
        if idx != start + offset:
            raise FormatError(
                f"{path}: frame indices must be contiguous, "
                f"saw {idx} where {start + offset} was expected"
            )
    try:
        return ErrorSeries(values=np.asarray(values), start_index=start)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_misbehaviour_csv(path: str | Path, log: MisbehaviourLog) -> None:
    lines = ["frame_index,misbehaviour"]
    for idx, flag in enumerate(log.flags):
        lines.append(f"{idx},{int(flag)}")
    _write_text(path, "\n".join(lines) + "\n")


def read_misbehaviour_csv(path: str | Path) -> MisbehaviourLog:
    rows = _read_rows(path, "frame_index,misbehaviour")
    flags: list[bool] = []
    for line_no, cells in rows:
        if len(cells) != 2:
            raise FormatError(f"{path}: line {line_no}: expected 2 columns")
        idx = _parse_int(path, line_no, cells[0])
        if idx != len(flags):
            raise FormatError(
                f"{path}: line {line_no}: frame index {idx}, expected {len(flags)}"
            )
        value = _parse_int(path, line_no, cells[1])
        if value not in (0, 1):
            raise FormatError(f"{path}: line {line_no}: flag must be 0 or 1, got {value}")
        flags.append(bool(value))
    return MisbehaviourLog(flags=np.asarray(flags, dtype=bool))


def write_intensity_csv(path: str | Path, trace: np.ndarray) -> None:
    lines = ["frame_index,intensity"]
    for idx, value in enumerate(np.asarray(trace, dtype=float)):
        lines.append(f"{idx},{float(value)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def write_decision_csv(
    path: str | Path, start_index: int, decisions: list[Decision]
) -> None:
    lines = ["frame_index,decision"]
    for offset, decision in enumerate(decisions):
        lines.append(f"{start_index + offset},{decision.value}")
    _write_text(path, "\n".join(lines) + "\n")


def write_labels_csv(path: str | Path, labels: list[WindowLabel]) -> None:
    lines = ["start,length,kind"]
    for w in labels:
        lines.append(f"{w.start},{w.length},{w.kind.value}")
    _write_text(path, "\n".join(lines) + "\n")


def read_labels_csv(path: str | Path) -> list[WindowLabel]:
    rows = _read_rows(path, "start,length,kind")
    labels: list[WindowLabel] = []
    for line_no, cells in rows:
        if len(cells) != 3:
            raise FormatError(f"{path}: line {line_no}: expected 3 columns")
        try:
            kind = WindowKind(cells[2])
        except ValueError as exc:
            raise FormatError(f"{path}: line {line_no}: unknown kind '{cells[2]}'") from exc
        start = _parse_int(path, line_no, cells[0])
        length = _parse_int(path, line_no, cells[1])
        try:
            labels.append(WindowLabel(start=start, length=length, kind=kind))
        except ValueError as exc:
            raise FormatError(f"{path}: line {line_no}: {exc}") from exc
    return labels


def write_model_json(path: str | Path, model: ReconstructorModel) -> None:
    """Write the model's JSON document, json.dumps' text of it plus a
    newline, as it goes: one json.dumps call per weight row, so that no
    float list or text of a whole weight matrix is held at once."""
    head = {
        "kind": model.kind.value,
        "layer_sizes": model.layer_sizes,
        "history_k": model.history_k,
        "activation": model.activation.value,
    }
    tail = {"biases": [b.tolist() for b in model.biases], "epoch_losses": model.epoch_losses}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(head)[:-1] + ', "weights": [')
        for l, w in enumerate(model.weights):
            f.write(", [" if l else "[")
            for r, row in enumerate(w):
                f.write((", " if r else "") + json.dumps(row.tolist()))
            f.write("]")
        # The tail's object opens where the head's closed.
        f.write("], " + json.dumps(tail)[1:] + "\n")


def _load_json(path: str | Path) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc.msg}", byte_offset=exc.pos) from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def read_model_json(path: str | Path) -> ReconstructorModel:
    """Load a model; the epoch_losses training curve is optional."""
    doc = _load_json(path)
    missing = {"kind", "layer_sizes", "history_k", "activation", "weights", "biases"} - set(doc)
    if missing:
        raise FormatError(f"{path}: missing model fields {sorted(missing)}")
    try:
        weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        # json.loads accepts the NaN and Infinity tokens.
        if not all(np.isfinite(a).all() for a in (*weights, *biases)):
            raise ValueError("weights and biases must be finite")
        losses = doc.get("epoch_losses", [])
        if not isinstance(losses, list) or not all(
            type(x) in (int, float) and math.isfinite(x) for x in losses
        ):
            raise ValueError("epoch_losses must be a list of finite numbers")
        return ReconstructorModel(
            kind=ReconstructorKind(doc["kind"]),
            layer_sizes=[int(s) for s in doc["layer_sizes"]],
            weights=weights,
            biases=biases,
            activation=Activation(doc["activation"]),
            history_k=None if doc["history_k"] is None else int(doc["history_k"]),
            epoch_losses=[float(x) for x in losses],
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_params_json(
    path: str | Path,
    params: GammaParams,
    threshold: ThresholdSpec,
    sample_count: int,
) -> None:
    text = (
        "{\n"
        f'  "alpha": {params.shape_alpha:.17g},\n'
        f'  "rate": {params.rate_beta:.17g},\n'
        f'  "epsilon": {threshold.epsilon:.17g},\n'
        f'  "theta": {threshold.theta:.17g},\n'
        f'  "sample_count": {int(sample_count)}\n'
        "}\n"
    )
    _write_text(path, text)


def read_params_json(path: str | Path) -> tuple[GammaParams, ThresholdSpec, int]:
    doc = _load_json(path)
    missing = {"alpha", "rate", "epsilon", "theta", "sample_count"} - set(doc)
    if missing:
        raise FormatError(f"{path}: missing parameter fields {sorted(missing)}")
    try:
        params = GammaParams(shape_alpha=float(doc["alpha"]), rate_beta=float(doc["rate"]))
        threshold = ThresholdSpec(epsilon=float(doc["epsilon"]), theta=float(doc["theta"]))
        sample_count = doc["sample_count"]
        # 400 and 400.0 pass; a fractional, boolean or string count does not.
        if type(sample_count) not in (int, float) or (
            isinstance(sample_count, float) and not sample_count.is_integer()
        ):
            raise ValueError(f"sample_count must be an integer, got {sample_count!r}")
        sample_count = int(sample_count)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return params, threshold, sample_count


def write_report_json(path: str | Path, report: dict) -> None:
    _write_text(path, json.dumps(report, indent=1) + "\n")


def write_curve_csv(
    path: str | Path, header: str, rows: list[tuple[float, float, float]]
) -> None:
    lines = [header]
    for theta, x, y in rows:
        lines.append(f"{float(theta)!r},{float(x)!r},{float(y)!r}")
    _write_text(path, "\n".join(lines) + "\n")
