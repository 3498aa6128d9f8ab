"""Command-line pipeline: simulate, train, fit, detect, label, eval.

simulate writes the evaluation drive and two nominal drives; train and fit
run the `experiment` chain on the nominal ones, and fit then scores the
evaluation drive and smooths it with the filter theta was calibrated on.
detect and eval read that series from errors.csv as it is.

One JSON config file feeds every subcommand; a handful of flags override
single values for ad-hoc sweeps (flags win over the file).  COMMANDS and
_FLAGS are the only tables of subcommands and flags; PipelineConfig holds
the defaults and checks its own fields.  Exit codes: 0 success, 2
usage/config/file-format error, 3 numerical or degenerate-data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import io
from .detector import DetectorConfig, run_detector_verbose
from .errors import ConfigError, ConvergenceError, DegenerateDataError, FormatError, integer, real
from .evalkit import LabellingConfig, WindowKind, evaluate, label_windows, threshold_grid
from .experiment import calibrate, nominal_drive
from .gammafit import estimate_threshold
from .reconstruct import ReconstructorKind, TrainConfig, error_series, train_reconstructor
from .scenario import ScenarioSpec, generate_scenario
from .smoothing import ArFilterConfig, ar_filter

_DEFAULT_FILES = {
    "frames": "frames.frm1",
    "train": "train.frm1",
    "calibration": "calibration.frm1",
    "model": "model.bin",
    "params": "params.json",
    "errors": "errors.csv",
    "misbehaviour": "misbehaviour.csv",
    "intensity": "intensity.csv",
    "alarms": "alarms.csv",
    "labels": "labels.csv",
    "report": "report.json",
    "roc": "roc.csv",
    "pr": "pr.csv",
}


@dataclass
class PipelineConfig:
    """Everything the subcommands need, with spec-mirroring defaults; files
    overrides some of _DEFAULT_FILES.  Each section type checks itself."""

    workdir: Path = Path(".")
    files: dict = field(default_factory=dict)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    train_kind: ReconstructorKind = ReconstructorKind.SAE
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon: float = 0.05
    ar: ArFilterConfig = field(default_factory=ArFilterConfig)
    labelling: LabellingConfig = field(default_factory=LabellingConfig)
    thresholds: list[float] | None = None
    reaction_sweep: list[int] | None = None

    def __post_init__(self):
        _take(self.files, _DEFAULT_FILES, "paths")
        for key, value in self.files.items():
            if not isinstance(value, str):
                raise ConfigError(f"paths.{key} must be a JSON string, got {value!r}")
        self.files = {**_DEFAULT_FILES, **self.files}
        # Two artifacts in one file would overwrite each other, or calibrate
        # theta on the drive the model was trained on.
        named: dict[str, str] = {}
        for key, value in self.files.items():
            other = named.setdefault(os.path.normpath(value), key)
            if other != key:
                raise ConfigError(f"paths.{other} and paths.{key} name the same file {value!r}")
        if not isinstance(self.workdir, (str, Path)):
            raise ConfigError(f"workdir must be a JSON string, got {self.workdir!r}")
        self.workdir = Path(self.workdir)
        self.train_kind = ReconstructorKind(self.train_kind)
        self.epsilon = real(self.epsilon, "epsilon")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.thresholds is not None:
            listed = _array(self.thresholds, "thresholds")
            self.thresholds = [real(t, f"thresholds[{i}]") for i, t in enumerate(listed)]
            if not self.thresholds:
                raise ConfigError("threshold list is empty")
            for i, t in enumerate(self.thresholds):
                if not t > 0.0:
                    raise ConfigError(f"thresholds[{i}] must be positive, got {t}")

    def path(self, name: str) -> Path:
        return self.workdir / self.files[name]


_SECTIONS = {"scenario": ScenarioSpec, "train": TrainConfig, "labelling": LabellingConfig}
_TOP_LEVEL_KEYS = {"seed", "workdir", "epsilon", "ar_k", "thresholds", "paths", *_SECTIONS}

# Each flag: its config key and argparse dest -> its argparse spec.
_FLAGS = {
    "seed": {"type": int, "help": "override the global seed"},
    "epsilon": {"type": float, "help": "target nominal false-alarm rate"},
    "ar_k": {"type": int, "help": "smoothing window length"},
    "reaction_r": {"help": "reaction period override; eval accepts a comma list for a sweep"},
    "thresholds": {"help": "comma list of sweep thresholds"},
}


def _take(section: dict, known, where: str) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {value!r}")
    return value


def _section(cls, section: dict, where: str):
    """Build one config section: its keys are the field names of cls, its
    list fields are JSON arrays, and cls checks every value, with the
    section name put in front of its message (scenario.n_frames ...)."""
    _take(section, [f.name for f in fields(cls)], where)
    if "conditions" in section:
        _array(section["conditions"], f"{where}.conditions")
    if section.get("hidden_sizes") is not None:
        _array(section["hidden_sizes"], f"{where}.hidden_sizes")
    try:
        return cls(**section)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def load_config(path: str | None, args: argparse.Namespace) -> PipelineConfig:
    """Build the pipeline config in one pass: merge the flags into the JSON
    document (flags win over the file), then parse the document (the file
    wins over the defaults)."""
    doc = io._load_json(path) if path is not None else {}
    _take(doc, _TOP_LEVEL_KEYS, "config")
    for name in ("paths", *_SECTIONS):
        if not isinstance(doc.setdefault(name, {}), dict):
            raise ConfigError(f"{name} must be a JSON object")
    flags = {k: getattr(args, k) for k in _FLAGS if getattr(args, k, None) is not None}
    if "thresholds" in flags:
        listed = flags["thresholds"]
        try:
            flags["thresholds"] = [float(t) for t in listed.split(",") if t]
        except ValueError as exc:
            raise ConfigError(f"thresholds: {exc} in '{listed}'") from exc
    if "reaction_r" in flags:
        # Empty items come from stray commas.
        listed = flags.pop("reaction_r")
        try:
            periods = [int(r) for r in listed.split(",") if r]
        except ValueError as exc:
            raise ConfigError(f"bad reaction period list '{listed}'") from exc
        if not periods or min(periods) < 1:
            raise ConfigError(f"reaction periods must be positive integers, got '{listed}'")
        # A sweep of one reaction period is that period.
        if len(periods) == 1:
            doc["labelling"]["reaction_r"] = periods[0]
        else:
            flags["reaction_sweep"] = periods
    doc.update(flags)
    try:
        # The top-level seed fills in the scenario and training seeds the
        # file leaves out; --seed sets both.
        seed = integer(doc.get("seed", 0), "seed")
        for name, key in (("scenario", "track_seed"), ("train", "seed")):
            if "seed" in flags or key not in doc[name]:
                doc[name][key] = seed
        return _config_from_doc(doc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _config_from_doc(doc: dict) -> PipelineConfig:
    """The config of the keys the document sets; PipelineConfig fills in
    the rest and checks its own fields."""
    keys = ("workdir", "epsilon", "thresholds", "reaction_sweep")
    values = {k: doc[k] for k in keys if k in doc}
    if "kind" in doc["train"]:
        values["train_kind"] = doc["train"].pop("kind")
    for name, cls in _SECTIONS.items():
        values[name] = _section(cls, doc[name], name)
    if "ar_k" in doc:
        values["ar"] = ArFilterConfig(order_k=integer(doc["ar_k"], "ar_k"))
    return PipelineConfig(files=doc["paths"], **values)


def _require_workdir(cfg: PipelineConfig) -> None:
    if not cfg.workdir.is_dir():
        raise ConfigError(f"output directory does not exist: {cfg.workdir}")


def cmd_simulate(cfg: PipelineConfig) -> None:
    stream, log, intensities = generate_scenario(cfg.scenario)
    io.write_frames(cfg.path("frames"), stream)
    io.write_misbehaviour_csv(cfg.path("misbehaviour"), log)
    io.write_intensity_csv(cfg.path("intensity"), intensities)
    del stream
    # Each nominal drive is written and dropped before the next is generated.
    # Neither reuses the evaluation drive's track seed s, not even at s = 0.
    seed, n_frames = 1000 * cfg.scenario.track_seed, cfg.scenario.n_frames
    for name, track_seed in (("train", seed + 1), ("calibration", seed + 100)):
        io.write_frames(cfg.path(name), nominal_drive(track_seed, n_frames))
    print(f"simulated {n_frames} frames, {log.count} misbehaviours -> {cfg.path('frames')}; "
          f"nominal drives -> {cfg.path('train')}, {cfg.path('calibration')}")


def cmd_train(cfg: PipelineConfig) -> None:
    # The fits read the drive from disk a block at a time; dae reads it whole.
    drive = io.FrameFile(cfg.path("train"))
    model = train_reconstructor(drive, cfg.train_kind, cfg.train)
    io.write_model_json(cfg.path("model"), model)
    # What training bought: the first loss, then the last.  For the fits
    # these are the mean frame's loss and the fitted one.
    losses = model.epoch_losses or [float("nan")]
    print(
        f"trained {cfg.train_kind.value} on {len(drive)} nominal frames, "
        f"loss {losses[0]:.6g} -> {losses[-1]:.6g} -> {cfg.path('model')}"
    )


def cmd_fit(cfg: PipelineConfig) -> None:
    model = io.read_model_json(cfg.path("model"))
    params, n_samples = calibrate(model, [io.FrameFile(cfg.path("calibration"))], cfg.ar)
    threshold = estimate_threshold(params, cfg.epsilon)
    io.write_params_json(cfg.path("params"), params, threshold, n_samples)
    raw = error_series(model, io.FrameFile(cfg.path("frames")))
    io.write_error_csv(cfg.path("errors"), ar_filter(raw, cfg.ar))
    print(
        f"fitted gamma shape {params.shape_alpha:.6g} rate {params.rate_beta:.6g}; "
        f"theta {threshold.theta:.6g} at epsilon {threshold.epsilon:g} "
        f"-> {cfg.path('params')}"
    )


def cmd_detect(cfg: PipelineConfig) -> None:
    smoothed = io.read_error_csv(cfg.path("errors"))
    _, threshold, _ = io.read_params_json(cfg.path("params"))
    detector = DetectorConfig(
        theta=threshold.theta, healing_frames_h=cfg.labelling.healing_h
    )
    alarms, decisions = run_detector_verbose(smoothed, detector)
    io.write_decision_csv(cfg.path("alarms"), smoothed.start_index, decisions)
    print(f"{len(alarms)} alarms over {len(decisions)} frames -> {cfg.path('alarms')}")


def cmd_label(cfg: PipelineConfig) -> None:
    if cfg.reaction_sweep is not None:
        raise ConfigError("label takes a single --reaction-r value")
    log = io.read_misbehaviour_csv(cfg.path("misbehaviour"))
    labels = label_windows(log, cfg.labelling)
    io.write_labels_csv(cfg.path("labels"), labels)
    print(f"{len(labels)} labelled windows -> {cfg.path('labels')}")


def cmd_eval(cfg: PipelineConfig) -> None:
    smoothed = io.read_error_csv(cfg.path("errors"))
    _, threshold, _ = io.read_params_json(cfg.path("params"))
    log = io.read_misbehaviour_csv(cfg.path("misbehaviour"))
    end = smoothed.start_index + len(smoothed)
    if end != len(log):
        raise FormatError(f"{cfg.path('errors')} covers frames {smoothed.start_index} to "
                          f"{end - 1} but {cfg.path('misbehaviour')} holds {len(log)}; rerun fit")
    thetas = cfg.thresholds if cfg.thresholds is not None else threshold_grid(smoothed.values)
    swept = cfg.reaction_sweep or []
    (labels, report, sweep), *swept_results = evaluate(
        [log], [smoothed], threshold.theta, thetas, cfg.labelling,
        [cfg.labelling.reaction_r, *swept],
    )
    doc = report.to_json_dict(sweep)
    doc["epsilon"] = threshold.epsilon
    doc["theta"] = threshold.theta
    doc["reaction_r"] = cfg.labelling.reaction_r
    # Header-only without a sweep, so no curve of an earlier run is left.
    roc_rows, pr_rows = (sweep.roc_rows, sweep.pr_rows) if sweep else ([], [])
    io.write_curve_csv(cfg.path("roc"), "threshold,fpr,tpr", roc_rows)
    io.write_curve_csv(cfg.path("pr"), "threshold,recall,precision", pr_rows)
    if cfg.reaction_sweep is not None:
        doc["reaction_sweep"] = [
            {"reaction_r": r, "auc_roc": r_sweep.auc_roc if r_sweep else None,
             "auc_pr": r_sweep.auc_pr if r_sweep else None,
             "counts": {"tp": r_counts.tp, "fp": r_counts.fp, "tn": r_counts.tn,
                        "fn": r_counts.fn}}
            for r, (_, r_counts, r_sweep) in zip(swept, swept_results, strict=True)
        ]
    io.write_report_json(cfg.path("report"), doc)
    tpr = "n.a." if report.tpr is None else f"{report.tpr:.3f}"
    fpr = "n.a." if report.fpr is None else f"{report.fpr:.3f}"
    # Only anomalous and normal windows are scored; a normal window can
    # still be excluded, so TP + FP + TN + FN may fall short of this count.
    scored = sum(w.kind in (WindowKind.ANOMALOUS, WindowKind.NORMAL) for w in labels[0])
    print(
        f"eval: {scored} scored (anomalous + normal) of {len(labels[0])} labelled windows, "
        f"TP {report.tp} FP {report.fp} "
        f"TN {report.tn} FN {report.fn}, TPR {tpr} FPR {fpr} -> {cfg.path('report')}"
    )


def cmd_pipeline(cfg: PipelineConfig) -> None:
    cmd_simulate(cfg)
    cmd_train(cfg)
    cmd_fit(cfg)
    cmd_detect(cfg)
    cmd_eval(cfg)


# Each subcommand: name -> (handler, help line, the _FLAGS it takes).
COMMANDS = {
    "simulate": (cmd_simulate, "generate the evaluation drive (frames, misbehaviour log, "
                 "intensity trace) and the nominal training and calibration drives", {"seed"}),
    "train": (cmd_train, "train the reconstructor on the nominal training drive", {"seed"}),
    "fit": (cmd_fit, "fit the gamma to the nominal calibration drive's smoothed errors, derive "
            "the alarm threshold, and score and smooth the evaluation drive", {"epsilon", "ar_k"}),
    "detect": (cmd_detect, "run the online detector, writing per-frame decisions", set()),
    "label": (cmd_label, "label evaluation windows from the misbehaviour log", {"reaction_r"}),
    "eval": (cmd_eval, "score detector output against labelled windows and sweep curves",
             {"reaction_r", "thresholds"}),
    "pipeline": (cmd_pipeline, "simulate, train, fit, detect, and eval in one go",
                 {"seed", "epsilon", "ar_k"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanewatch",
        description=(
            "Predict lane-keeping misbehaviours from reconstruction error: "
            "synthesize driving scenarios, "
            "train frame reconstructors, calibrate alarm thresholds, detect, "
            "and evaluate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; defaults apply without it")
        # In _FLAGS order, whatever the order of the set.
        for flag, spec in _FLAGS.items():
            if flag in flags:
                p.add_argument("--" + flag.replace("_", "-"), dest=flag, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        _require_workdir(cfg)
        COMMANDS[args.command][0](cfg)
        return 0
    # DegenerateDataError is a ValueError, so it is caught first;
    # ConfigError and FormatError are ValueErrors too.
    except (DegenerateDataError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
