"""File formats: frame and model binaries, CSV logs, and JSON artifacts.

Frame stream binary ("FRM1"): 4 magic bytes, then four little-endian u32
fields (count, width, height, channels), then count*W*H*C little-endian
IEEE-754 32-bit floats, frame-major, row-major, channel-last.  FrameFile
is its one reader; read_frames loads a whole file through it.

Model binary ("LWM1"): 4 magic bytes, a little-endian u32 header length,
a UTF-8 JSON header of that length, then each weight (row-major (n_out,
n_in)), then each bias, in layer order, as little-endian 32-bit floats.
The header holds ReconstructorModel's non-array fields in declaration
order; a field with a default may be absent.  read_model_json checks the
header, then that the body holds exactly the bytes layer_sizes call for,
and reads the body in one piece.  Read errors of both binaries carry the
byte offset of the problem.

CSV files are LF-terminated with a fixed header; floats use Python's
shortest round-trip representation.  The error CSV's header names the
smoothed series, frame_index,smoothed_error, so a raw frame_index,error
file is refused.  Every CSV is written by _write_csv and read by
_read_rows, which checks each row's column count, with cells parsed by
_parse; the per-frame ones, frame_index,<column>, by _write_series and
_read_series, which checks each row's frame index.  The fitted-parameters
JSON instead prints 17 significant digits so the decimal literals are
exact float64 round-trips even for consumers with naive parsers.  The
numbers of a JSON artifact are checked by the type they build
(errors.integer and errors.real).
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .detector import Decision
from .errors import FormatError, integer
from .evalkit import WindowLabel, WindowKind
from .gammafit import GammaParams, ThresholdSpec
from .reconstruct import ErrorSeries, FrameStream, ReconstructorModel
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
MODEL_MAGIC = b"LWM1"
_LENGTH = struct.Struct("<I")
_MODEL_JSON_OFFSET = len(MODEL_MAGIC) + _LENGTH.size
# The LWM1 header's fields; the weights and biases are the body.
_MODEL_HEADER = [f for f in fields(ReconstructorModel) if f.name not in ("weights", "biases")]


def write_frames(path: str | Path, stream: FrameStream) -> None:
    count, height, width, channels = stream.frames.shape
    with open(path, "wb") as f:
        f.write(FRAME_MAGIC + _HEADER.pack(count, width, height, channels))
        # The stream's float32 frames are the body; "<f4" copies only on a
        # big-endian host.
        f.write(np.ascontiguousarray(stream.frames, dtype="<f4").data)


def read_frames(path: str | Path) -> FrameStream:
    """Load a whole FRM1 file as FrameFile(path)[:] reads it."""
    return FrameFile(path)._read(slice(None))


def _head(f, magic: bytes, n: int) -> tuple[int, bytes]:
    """The size of the binary file f and its first n bytes, which must
    start with magic."""
    size, head = os.fstat(f.fileno()).st_size, f.read(n)
    if size < 4:
        raise FormatError(f"{f.name}: truncated before magic", byte_offset=size)
    if head[:4] != magic:
        raise FormatError(f"{f.name}: bad magic {head[:4]!r}, expected {magic!r}", byte_offset=0)
    if size < n:
        raise FormatError(f"{f.name}: truncated header", byte_offset=size)
    return size, head


class FrameFile:
    """An FRM1 file, the one reader of the format, read a few frames at a
    time so that scoring it holds one block of frames rather than the drive.

    Opening checks the magic, the dimensions, and that the body holds
    exactly the bytes they call for.  error_series takes a FrameFile in
    place of a FrameStream: frames is the file itself, and frames[a:b]
    reads frames a ... b-1 from disk, validates only those, and returns
    them as a read-only "<f4" view of an anonymous mmap of their own.
    That memory goes back to the system when the view is dropped, where a
    freed bytes object of a drive's size can stay in the heap under later
    allocations.
    """

    def __init__(self, path: str | Path):
        self.path = path
        with open(path, "rb") as f:
            size, head = _head(f, FRAME_MAGIC, _BODY_OFFSET)
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
        self.shape = (count, height, width, channels)

    @property
    def frames(self) -> FrameFile:
        return self

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, frames: slice) -> np.ndarray:
        return self._read(frames).frames

    def _read(self, frames: slice) -> FrameStream:
        """The frames of the slice, validated once, as a FrameStream."""
        start, stop, step = frames.indices(len(self))
        if step != 1:
            raise ValueError(f"FrameFile reads contiguous frames only, got step {step}")
        shape = (max(stop - start, 0), *self.shape[1:])
        per_frame = math.prod(shape[1:])
        nbytes = shape[0] * per_frame * 4
        body = mmap.mmap(-1, nbytes) if nbytes else bytearray()
        with open(self.path, "rb") as f:
            f.seek(_BODY_OFFSET + start * per_frame * 4)
            # A file cut short since its size was checked.
            if f.readinto(body) != nbytes:
                raise FormatError(f"{self.path}: truncated while reading", byte_offset=f.tell())
        block = np.frombuffer(body, dtype="<f4").reshape(shape)
        block.flags.writeable = False
        try:
            return FrameStream(frames=block)
        except ValueError:
            # Only now is the first bad cell looked for, to name its frame
            # and byte offset.  NaN fails both comparisons, so this also
            # finds non-finite cells.
            cells = block.reshape(-1)
            bad = np.flatnonzero(~((cells >= 0.0) & (cells <= 1.0)))
            if not bad.size:
                raise
            i = start + int(bad[0]) // per_frame
            raise FormatError(
                f"{self.path}: frame {i}: pixel values must be finite and lie in [0, 1], "
                f"found {cells[bad[0]]}",
                byte_offset=_BODY_OFFSET + i * per_frame * 4,
            ) from None


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text", byte_offset=exc.start) from exc


def _write_csv(path: str | Path, header: str, lines) -> None:
    """The header line, then one line per item of lines."""
    _write_text(path, "\n".join([header, *lines]) + "\n")


def _read_rows(path: str | Path, header: str):
    """Yield the CSV rows as (line_number, cells), blank lines skipped,
    after verifying the header line.  A row whose column count differs
    from the header's raises FormatError when it is reached, so a file's
    errors come in row order."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file, expected header '{header}'")
    if lines[0] != header:
        raise FormatError(f"{path}: line 1: header '{lines[0]}', expected '{header}'")
    columns = header.count(",") + 1
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != columns:
            raise FormatError(f"{path}: line {line_no}: expected {columns} columns")
        yield line_no, cells


def _flag(cell: str) -> bool:
    """A misbehaviour flag: the integer 0 or 1."""
    if int(cell) not in (0, 1):
        raise ValueError(cell)
    return int(cell) == 1


def _error(cell: str) -> float:
    """A reconstruction error: a finite, non-negative number."""
    value = float(cell)
    if not 0.0 <= value < math.inf:
        raise ValueError(cell)
    return value


def _parse(path, line_no, cell: str, kind) -> int | float | bool:
    """cell parsed by kind: int, _error or _flag."""
    try:
        return kind(cell)
    except ValueError as exc:
        noun = {int: "integer", _error: "finite non-negative number"}.get(kind, "flag (0 or 1)")
        raise FormatError(f"{path}: line {line_no}: bad {noun} '{cell}'") from exc


def _write_series(path: str | Path, column: str, start: int, cells) -> None:
    """A per-frame CSV: one frame_index,<column> row per cell, the first
    at frame start.  A Python float's str is its shortest round trip."""
    rows = enumerate(cells, start)
    _write_csv(path, f"frame_index,{column}", (f"{i},{cell}" for i, cell in rows))


def _read_series(path: str | Path, column: str, kind, start: int | None = None):
    """The first frame index and the cells, parsed as kind, of a per-frame
    CSV.  Each row's index must be one more than the row's before it,
    counting from start, or from the first row's index when start is None;
    a row that breaks the count names its line, before its cell is read."""
    cells = []
    for line_no, (index, cell) in _read_rows(path, f"frame_index,{column}"):
        idx = _parse(path, line_no, index, int)
        start = idx if start is None else start
        if idx != start + len(cells):
            raise FormatError(
                f"{path}: line {line_no}: frame index {idx}, expected {start + len(cells)}"
            )
        cells.append(_parse(path, line_no, cell, kind))
    return start, cells


def write_error_csv(path: str | Path, series: ErrorSeries) -> None:
    _write_series(path, "smoothed_error", series.start_index, series.values.tolist())


def read_error_csv(path: str | Path) -> ErrorSeries:
    start, values = _read_series(path, "smoothed_error", _error)
    if not values:
        raise FormatError(f"{path}: no data rows")
    return ErrorSeries(values=np.asarray(values), start_index=start)


def write_misbehaviour_csv(path: str | Path, log: MisbehaviourLog) -> None:
    _write_series(path, "misbehaviour", 0, log.flags.astype(int).tolist())


def read_misbehaviour_csv(path: str | Path) -> MisbehaviourLog:
    _, flags = _read_series(path, "misbehaviour", _flag, start=0)
    return MisbehaviourLog(flags=np.asarray(flags, dtype=bool))


def write_intensity_csv(path: str | Path, trace: np.ndarray) -> None:
    _write_series(path, "intensity", 0, np.asarray(trace, dtype=float).tolist())


def write_decision_csv(path: str | Path, start_index: int, decisions: list[Decision]) -> None:
    _write_series(path, "decision", start_index, (d.value for d in decisions))


def write_labels_csv(path: str | Path, labels: list[WindowLabel]) -> None:
    _write_csv(path, "start,length,kind", (f"{w.start},{w.length},{w.kind.value}" for w in labels))


def read_labels_csv(path: str | Path) -> list[WindowLabel]:
    labels: list[WindowLabel] = []
    for line_no, (start, length, kind) in _read_rows(path, "start,length,kind"):
        try:
            window = WindowKind(kind)
        except ValueError as exc:
            raise FormatError(f"{path}: line {line_no}: unknown kind '{kind}'") from exc
        start, length = _parse(path, line_no, start, int), _parse(path, line_no, length, int)
        try:
            labels.append(WindowLabel(start=start, length=length, kind=window))
        except ValueError as exc:
            raise FormatError(f"{path}: line {line_no}: {exc}") from exc
    return labels


def write_model_json(path: str | Path, model: ReconstructorModel) -> None:
    """Write the model as LWM1.  A float32 model's arrays are written as
    they are; a weight or bias whose values change when rounded to
    float32 raises ValueError."""
    # A str enum dumps as its value.
    header = json.dumps({f.name: getattr(model, f.name) for f in _MODEL_HEADER}).encode("utf-8")
    arrays = []
    for a in (*model.weights, *model.biases):
        cells = np.ascontiguousarray(a, dtype="<f4")
        if cells.dtype != a.dtype and not np.array_equal(cells, a):
            raise ValueError(f"{path}: model values change when rounded to float32")
        arrays.append(cells)
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC + _LENGTH.pack(len(header)) + header)
        for cells in arrays:
            f.write(cells.data)


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
    """Load an LWM1 model; its arrays are float32 views of one read of the
    body."""
    with open(path, "rb") as f:
        size, head = _head(f, MODEL_MAGIC, _MODEL_JSON_OFFSET)
        (length,) = _LENGTH.unpack_from(head, 4)
        body_at = _MODEL_JSON_OFFSET + length
        if body_at > size:
            raise FormatError(f"{path}: header length {length} runs past the end", byte_offset=4)
        try:
            text = f.read(length).decode("utf-8")
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ValueError("the header must be a JSON object")
            missing = {f.name for f in _MODEL_HEADER if f.name not in doc
                       and f.default is MISSING and f.default_factory is MISSING}
            if missing:
                raise ValueError(f"missing model fields {sorted(missing)}")
            sizes = [integer(s, f"layer_sizes[{i}]") for i, s in enumerate(doc["layer_sizes"])]
            if min(sizes, default=1) <= 0:
                raise ValueError(f"layer sizes must be positive, got {sizes}")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text", _MODEL_JSON_OFFSET + exc.start) from exc
        except json.JSONDecodeError as exc:
            at = _MODEL_JSON_OFFSET + len(text[: exc.pos].encode("utf-8"))
            raise FormatError(f"{path}: invalid JSON header: {exc.msg}", at) from exc
        except (ValueError, TypeError) as exc:
            raise FormatError(f"{path}: {exc}", _MODEL_JSON_OFFSET) from exc
        # Each weight (n_out, n_in), then each bias, in layer order.
        shapes = [(o, i) for i, o in zip(sizes, sizes[1:])] + [(o,) for o in sizes[1:]]
        cells = sum(map(math.prod, shapes))
        if size - body_at != 4 * cells:
            raise FormatError(
                f"{path}: expected {4 * cells} bytes of weights, found {size - body_at}",
                byte_offset=body_at + min(size - body_at, 4 * cells),
            )
        body = np.fromfile(f, dtype="<f4", count=cells)
    if len(body) != cells:
        raise FormatError(f"{path}: truncated while reading", body_at + 4 * len(body))
    # A float64 sum of float32 cells cannot overflow, so it is finite
    # exactly when every cell is, and it needs no array of flags.
    if not math.isfinite(body.sum(dtype=np.float64)):
        i = int(np.flatnonzero(~np.isfinite(body))[0])
        raise FormatError(f"{path}: weights must be finite", byte_offset=body_at + 4 * i)
    arrays, at = [], 0
    for shape in shapes:
        arrays.append(body[at : at + math.prod(shape)].reshape(shape))
        at += math.prod(shape)
    n_links = len(sizes) - 1
    header = {f.name: doc[f.name] for f in _MODEL_HEADER if f.name in doc}
    try:
        return ReconstructorModel(
            **{**header, "layer_sizes": sizes}, weights=arrays[:n_links], biases=arrays[n_links:]
        )
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}", _MODEL_JSON_OFFSET) from exc


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
        params = GammaParams(shape_alpha=doc["alpha"], rate_beta=doc["rate"])
        threshold = ThresholdSpec(epsilon=doc["epsilon"], theta=doc["theta"])
        sample_count = integer(doc["sample_count"], "sample_count")
        if sample_count < 0:
            raise ValueError(f"sample_count must be non-negative, got {sample_count}")
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return params, threshold, sample_count


def write_report_json(path: str | Path, report: dict) -> None:
    _write_text(path, json.dumps(report, indent=1) + "\n")


def write_curve_csv(
    path: str | Path, header: str, rows: list[tuple[float, float, float]]
) -> None:
    _write_csv(path, header, (f"{float(t)!r},{float(x)!r},{float(y)!r}" for t, x, y in rows))
