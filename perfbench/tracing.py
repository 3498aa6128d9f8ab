"""Span recording around the lanewatch package's public functions.

The tracer replaces a function at every module attribute in the package
that refers to it (for example `evalkit.run_detector` and
`cli.train_reconstructor`), so calls nested inside the package are
recorded as well as the benchmark's own calls.  Each call becomes one span
with a name, a start, an end and a parent.  Spans stay in memory until
the caller writes them out.

Per-frame functions (`detector_step`, the `FrameTensor` constructor,
`ArStream.push`) get no spans: a span costs about a microsecond, which
would swamp them.  Their work is counted from input sizes instead.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _train_attrs(args, kwargs, model) -> dict:
    """Shapes of one training run, for step counts and computed FLOPs."""
    from lanewatch.reconstruct import ReconstructorKind, TrainConfig

    stream = args[0]
    hyper = kwargs.get("hyper", args[2] if len(args) > 2 else None) or TrainConfig()
    n_samples = len(stream) - (model.history_k if model.kind is ReconstructorKind.SEQ else 0)
    sizes = model.layer_sizes
    weight_elems = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return {
        "kind": model.kind.value,
        "samples": n_samples * hyper.epochs,
        "steps": hyper.epochs * math.ceil(n_samples / hyper.batch_size),
        "batch": hyper.batch_size,
        # Forward 2 FLOPs per weight per example, backward (grad_w and the
        # propagated delta) another 4.
        "flop": 6.0 * n_samples * hyper.epochs * weight_elems,
    }


def _io_path_bytes(args, kwargs, result) -> dict:
    # Called after the read or write succeeded, so the file exists.
    return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}


# (module, function, span name, attribute extractor).  The span name is the
# per-layer metric family; csv/json readers and writers share one family.
TARGETS = [
    ("scenario", "generate_scenario", "scenario.generate_scenario",
     lambda a, k, r: {"frames": a[0].n_frames}),
    ("reconstruct", "train_reconstructor", "reconstruct.train_reconstructor", _train_attrs),
    ("reconstruct", "error_series", "reconstruct.error_series",
     lambda a, k, r: {"kind": a[0].kind.value, "frames": len(r)}),
    ("smoothing", "ar_filter", "smoothing.ar_filter", None),
    ("gammafit", "fit_gamma_mle", "gammafit.fit_gamma_mle", None),
    ("gammafit", "estimate_threshold", "gammafit.estimate_threshold", None),
    # run_detector delegates to run_detector_verbose, and cli calls the
    # verbose form directly, so this one span sees every detector fold.
    ("detector", "run_detector_verbose", "detector.run_detector",
     lambda a, k, r: {"frames": len(a[0]), "alarms": len(r[0])}),
    ("evalkit", "label_windows", "evalkit.label_windows",
     lambda a, k, r: {"windows": len(r)}),
    ("evalkit", "score_windows", "evalkit.score_windows", None),
    ("evalkit", "sweep_curves", "evalkit.sweep_curves", None),
    ("io", "write_frames", "io.write_frames", _io_path_bytes),
    ("io", "read_frames", "io.read_frames", _io_path_bytes),
    ("io", "write_model_json", "io.write_model_json", _io_path_bytes),
    ("io", "read_model_json", "io.read_model_json", _io_path_bytes),
    *[
        ("io", fn, "io.csv_json_writes", None)
        for fn in (
            "write_error_csv", "write_misbehaviour_csv", "write_intensity_csv",
            "write_decision_csv", "write_labels_csv", "write_params_json",
            "write_report_json", "write_curve_csv",
        )
    ],
    *[
        ("io", fn, "io.csv_json_reads", None)
        for fn in ("read_error_csv", "read_misbehaviour_csv", "read_labels_csv",
                   "read_params_json")
    ],
    *[
        ("cli", f"cmd_{stage}", f"cli.cmd_{stage}", None)
        for stage in ("simulate", "train", "fit", "detect", "eval")
    ],
]


class Tracer:
    """Records nested spans around patched package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, attrs_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every package module attribute that refers to a target."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("lanewatch")]
        for module_name, fn_name, span_name, attrs_fn in TARGETS:
            original = getattr(sys.modules[f"lanewatch.{module_name}"], fn_name)
            wrapper = self._wrap(original, span_name, attrs_fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


KINDS = ("sae", "dae", "seq")

# Every per-layer metric: name -> (unit, better, how it is obtained).
# measured: span timings; derived: arithmetic on measured times;
# computed: worked out from layer shapes, input sizes and file sizes.
PER_LAYER: dict[str, tuple[str, str, str]] = {}
for _k in KINDS:
    PER_LAYER.update({
        f"reconstruct.train_reconstructor.ms_per_step.{_k}": ("ms", "lower", "measured"),
        f"reconstruct.train_reconstructor.gflop.{_k}": ("GFLOP", "lower", "computed"),
        f"reconstruct.train_reconstructor.gflops_per_s.{_k}": ("GFLOP/s", "higher", "derived"),
        f"reconstruct.train_reconstructor.fwd_ms_per_step.{_k}": ("ms", "lower", "derived"),
        f"reconstruct.train_reconstructor.bwd_update_ms_per_step.{_k}": ("ms", "lower", "derived"),
        f"reconstruct.error_series.us_per_frame.{_k}": ("us", "lower", "measured"),
    })
PER_LAYER.update({
    "scenario.generate_scenario.us_per_frame": ("us", "lower", "measured"),
    "scenario.generate_scenario.frames": ("count", "lower", "computed"),
    "detector.run_detector.us_per_frame": ("us", "lower", "measured"),
    "detector.run_detector.calls": ("count", "lower", "computed"),
    "detector.run_detector.frames": ("count", "lower", "computed"),
    "detector.run_detector.alarms": ("count", "lower", "computed"),
    "evalkit.label_windows.s": ("s", "lower", "measured"),
    "evalkit.score_windows.s": ("s", "lower", "measured"),
    "evalkit.sweep_curves.self_s": ("s", "lower", "measured"),
    "evalkit.windows": ("count", "lower", "computed"),
    "evalkit.auc_roc": ("ratio", "higher", "computed"),
    "evalkit.auc_pr": ("ratio", "higher", "computed"),
    "evalkit.youden_j": ("ratio", "higher", "computed"),
    "smoothing.ar_filter.s": ("s", "lower", "measured"),
    "gammafit.fit_gamma_mle.s": ("s", "lower", "measured"),
    "gammafit.estimate_threshold.s": ("s", "lower", "measured"),
    **{
        f"io.{op}.{q}": unit
        for op in ("write_frames", "read_frames", "write_model_json", "read_model_json")
        for q, unit in (("s", ("s", "lower", "measured")),
                        ("bytes", ("bytes", "lower", "computed")))
    },
    "io.csv_json_writes.s": ("s", "lower", "measured"),
    "io.csv_json_reads.s": ("s", "lower", "measured"),
    **{
        f"cli.cmd_{stage}.{q}": ("s", "lower", "measured")
        for stage in ("simulate", "train", "fit", "detect", "eval")
        for q in ("s", "self_s")
    },
    "trace.spans": ("count", "lower", "computed"),
    "trace.overhead_s": ("s", "lower", "derived"),
})


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced process.  A layer the workload
    never calls reads 0.  Quality and overhead are filled in by the caller."""
    own = tracer.self_times()
    total: dict[tuple[str, str], float] = {}

    def add(name: str, key: str, value: float) -> None:
        total[name, key] = total.get((name, key), 0.0) + value

    for span, self_s in zip(tracer.spans, own):
        name = span.name
        if "kind" in span.attrs:
            name = f"{name}.{span.attrs['kind']}"
        add(name, "s", span.duration)
        add(name, "self_s", self_s)
        add(name, "calls", 1)
        for key, value in span.attrs.items():
            if key != "kind":
                add(name, key, value)

    def get(name: str, key: str) -> float:
        return total.get((name, key), 0.0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    out = dict.fromkeys(PER_LAYER, 0.0)
    for k in KINDS:
        train, score = f"reconstruct.train_reconstructor.{k}", f"reconstruct.error_series.{k}"
        ms_step = per(get(train, "s"), get(train, "steps"), 1e3)
        us_frame = per(get(score, "s"), get(score, "frames"), 1e6)
        fwd = us_frame * per(get(train, "batch"), get(train, "calls")) / 1e3
        out.update({
            f"reconstruct.train_reconstructor.ms_per_step.{k}": ms_step,
            f"reconstruct.train_reconstructor.gflop.{k}": get(train, "flop") / 1e9,
            f"reconstruct.train_reconstructor.gflops_per_s.{k}":
                per(get(train, "flop"), get(train, "s"), 1e-9),
            f"reconstruct.train_reconstructor.fwd_ms_per_step.{k}": fwd if ms_step else 0.0,
            f"reconstruct.train_reconstructor.bwd_update_ms_per_step.{k}":
                ms_step - fwd if ms_step and us_frame else 0.0,
            f"reconstruct.error_series.us_per_frame.{k}": us_frame,
        })
    gen, det = "scenario.generate_scenario", "detector.run_detector"
    out.update({
        f"{gen}.us_per_frame": per(get(gen, "s"), get(gen, "frames"), 1e6),
        f"{gen}.frames": get(gen, "frames"),
        f"{det}.us_per_frame": per(get(det, "s"), get(det, "frames"), 1e6),
        f"{det}.calls": get(det, "calls"),
        f"{det}.frames": get(det, "frames"),
        f"{det}.alarms": get(det, "alarms"),
        "evalkit.label_windows.s": get("evalkit.label_windows", "s"),
        "evalkit.score_windows.s": get("evalkit.score_windows", "s"),
        "evalkit.sweep_curves.self_s": get("evalkit.sweep_curves", "self_s"),
        "evalkit.windows": get("evalkit.label_windows", "windows"),
        "trace.spans": float(len(tracer.spans)),
    })
    for name in ("smoothing.ar_filter", "gammafit.fit_gamma_mle",
                 "gammafit.estimate_threshold", "io.csv_json_writes", "io.csv_json_reads"):
        out[f"{name}.s"] = get(name, "s")
    for op in ("write_frames", "read_frames", "write_model_json", "read_model_json"):
        out[f"io.{op}.s"] = get(f"io.{op}", "s")
        out[f"io.{op}.bytes"] = get(f"io.{op}", "bytes")
    for stage in ("simulate", "train", "fit", "detect", "eval"):
        out[f"cli.cmd_{stage}.s"] = get(f"cli.cmd_{stage}", "s")
        out[f"cli.cmd_{stage}.self_s"] = get(f"cli.cmd_{stage}", "self_s")
    return out
