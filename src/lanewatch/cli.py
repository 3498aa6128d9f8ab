"""Command-line pipeline: simulate, train, fit, detect, label, eval.

One JSON config file feeds every subcommand; a handful of flags override
single values for ad-hoc sweeps (flags win over the file).  Exit codes:
0 success, 2 usage/config/file-format error, 3 numerical or
degenerate-data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import io
from .detector import DetectorConfig, run_detector, run_detector_verbose
from .errors import ConfigError, ConvergenceError, DegenerateDataError, FormatError
from .evalkit import (
    LabellingConfig,
    label_windows,
    pooled_counts,
    pooled_sweep,
    threshold_grid,
)
from .gammafit import estimate_threshold, fit_gamma_mle
from .reconstruct import (
    Activation,
    ReconstructorKind,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from .scenario import ScenarioSpec, generate_scenario
from .smoothing import ArFilterConfig, ar_filter

_DEFAULT_FILES = {
    "frames": "frames.frm1",
    "model": "model.json",
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
    """Everything the subcommands need, with spec-mirroring defaults."""

    seed: int = 0
    workdir: Path = Path(".")
    files: dict = field(default_factory=lambda: dict(_DEFAULT_FILES))
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    train_kind: ReconstructorKind = ReconstructorKind.SAE
    train: TrainConfig = field(default_factory=TrainConfig)
    epsilon: float = 0.05
    ar_k: int = 10
    healing_h: int = 60
    labelling: LabellingConfig = field(default_factory=LabellingConfig)
    thresholds: list[float] | None = None

    def path(self, name: str) -> Path:
        return self.workdir / self.files[name]

    @property
    def ar(self) -> ArFilterConfig:
        return ArFilterConfig(order_k=self.ar_k)


def _take(section: dict, known: set[str], where: str) -> None:
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")


def load_config(path: str | None, overrides: argparse.Namespace) -> PipelineConfig:
    """Build the pipeline config from an optional JSON file plus flag
    overrides; flags win over file values, file values over defaults."""
    doc: dict = {}
    if path is not None:
        doc = io._load_json(path)
    _take(
        doc,
        {
            "seed",
            "workdir",
            "paths",
            "scenario",
            "train",
            "epsilon",
            "ar_k",
            "healing_h",
            "labelling",
            "thresholds",
        },
        "config",
    )
    try:
        cfg = _config_from_doc(doc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return _apply_overrides(cfg, overrides)


def _config_from_doc(doc: dict) -> PipelineConfig:
    seed = int(doc.get("seed", 0))
    workdir = Path(doc.get("workdir", "."))
    files = dict(_DEFAULT_FILES)
    paths_doc = doc.get("paths", {})
    _take(paths_doc, set(_DEFAULT_FILES), "paths")
    files.update({k: str(v) for k, v in paths_doc.items()})

    scenario_doc = dict(doc.get("scenario", {}))
    scenario_doc.setdefault("track_seed", seed)
    scenario = ScenarioSpec.from_json_dict(scenario_doc)

    train_doc = dict(doc.get("train", {}))
    _take(
        train_doc,
        {
            "kind",
            "hidden_sizes",
            "learning_rate",
            "epochs",
            "batch_size",
            "seed",
            "history_k",
            "activation",
        },
        "train",
    )
    train_kind = ReconstructorKind(train_doc.pop("kind", "sae"))
    train_doc.setdefault("seed", seed)
    if train_doc.get("hidden_sizes") is not None:
        train_doc["hidden_sizes"] = tuple(train_doc["hidden_sizes"])
    train = TrainConfig(**train_doc)

    labelling_doc = dict(doc.get("labelling", {}))
    _take(labelling_doc, {"window_a", "window_b", "reaction_r", "healing_h"}, "labelling")
    labelling = LabellingConfig(**{k: int(v) for k, v in labelling_doc.items()})

    epsilon = float(doc.get("epsilon", 0.05))
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    ar_k = int(doc.get("ar_k", 10))
    if ar_k < 1:
        raise ConfigError(f"ar_k must be at least 1, got {ar_k}")
    healing_h = int(doc.get("healing_h", 60))
    if healing_h < 1:
        raise ConfigError(f"healing_h must be at least 1, got {healing_h}")
    thresholds = doc.get("thresholds")
    if thresholds is not None:
        thresholds = [float(t) for t in thresholds]

    return PipelineConfig(
        seed=seed,
        workdir=workdir,
        files=files,
        scenario=scenario,
        train_kind=train_kind,
        train=train,
        epsilon=epsilon,
        ar_k=ar_k,
        healing_h=healing_h,
        labelling=labelling,
        thresholds=thresholds,
    )


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.scenario = replace(cfg.scenario, track_seed=args.seed)
        cfg.train.seed = args.seed
    if getattr(args, "epsilon", None) is not None:
        if not 0.0 < args.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {args.epsilon}")
        cfg.epsilon = args.epsilon
    if getattr(args, "ar_k", None) is not None:
        if args.ar_k < 1:
            raise ConfigError(f"ar_k must be at least 1, got {args.ar_k}")
        cfg.ar_k = args.ar_k
    if getattr(args, "thresholds", None) is not None:
        try:
            cfg.thresholds = [float(t) for t in args.thresholds.split(",") if t]
        except ValueError as exc:
            raise ConfigError(f"bad threshold list '{args.thresholds}'") from exc
        if not cfg.thresholds:
            raise ConfigError("threshold list is empty")
    return cfg


def _reaction_overrides(args: argparse.Namespace) -> list[int] | None:
    raw = getattr(args, "reaction_r", None)
    if raw is None:
        return None
    try:
        values = [int(r) for r in str(raw).split(",") if r]
    except ValueError as exc:
        raise ConfigError(f"bad reaction period list '{raw}'") from exc
    if not values or any(r < 1 for r in values):
        raise ConfigError(f"reaction periods must be positive integers, got '{raw}'")
    return values


def _require_workdir(cfg: PipelineConfig) -> None:
    if not cfg.workdir.is_dir():
        raise ConfigError(f"output directory does not exist: {cfg.workdir}")


def _smoothed_errors(cfg: PipelineConfig):
    """The errors fit wrote, smoothed; errors.csv holds repr floats, so
    this equals smoothing the freshly computed series."""
    return ar_filter(io.read_error_csv(cfg.path("errors")), cfg.ar)


def cmd_simulate(cfg: PipelineConfig) -> None:
    _require_workdir(cfg)
    stream, log, intensities = generate_scenario(cfg.scenario)
    io.write_frames(cfg.path("frames"), stream)
    io.write_misbehaviour_csv(cfg.path("misbehaviour"), log)
    io.write_intensity_csv(cfg.path("intensity"), intensities)
    print(
        f"simulated {len(stream)} frames, {log.count} misbehaviours "
        f"-> {cfg.path('frames')}"
    )


def cmd_train(cfg: PipelineConfig) -> None:
    _require_workdir(cfg)
    stream = io.read_frames(cfg.path("frames"), frame_rate_hz=cfg.scenario.frame_rate_hz)
    model = train_reconstructor(stream, cfg.train_kind, cfg.train)
    io.write_model_json(cfg.path("model"), model)
    final = model.epoch_losses[-1] if model.epoch_losses else float("nan")
    print(
        f"trained {cfg.train_kind.value} on {len(stream)} frames, "
        f"final epoch loss {final:.6g} -> {cfg.path('model')}"
    )


def cmd_fit(cfg: PipelineConfig) -> None:
    _require_workdir(cfg)
    stream = io.read_frames(cfg.path("frames"), frame_rate_hz=cfg.scenario.frame_rate_hz)
    raw = error_series(io.read_model_json(cfg.path("model")), stream)
    io.write_error_csv(cfg.path("errors"), raw)
    smoothed = ar_filter(raw, cfg.ar)
    params = fit_gamma_mle(smoothed)
    threshold = estimate_threshold(params, cfg.epsilon)
    io.write_params_json(cfg.path("params"), params, threshold, len(smoothed))
    print(
        f"fitted gamma shape {params.shape_alpha:.6g} rate {params.rate_beta:.6g}; "
        f"theta {threshold.theta:.6g} at epsilon {threshold.epsilon:g} "
        f"-> {cfg.path('params')}"
    )


def cmd_detect(cfg: PipelineConfig) -> None:
    _require_workdir(cfg)
    smoothed = _smoothed_errors(cfg)
    _, threshold, _ = io.read_params_json(cfg.path("params"))
    detector = DetectorConfig(theta=threshold.theta, healing_frames_h=cfg.healing_h)
    alarms, decisions = run_detector_verbose(smoothed, detector)
    io.write_decision_csv(cfg.path("alarms"), smoothed.start_index, decisions)
    print(f"{len(alarms)} alarms over {len(decisions)} frames -> {cfg.path('alarms')}")


def cmd_label(cfg: PipelineConfig, reaction_rs: list[int] | None = None) -> None:
    _require_workdir(cfg)
    lab = cfg.labelling
    if reaction_rs is not None:
        if len(reaction_rs) != 1:
            raise ConfigError("label takes a single --reaction-r value")
        lab = replace(lab, reaction_r=reaction_rs[0])
    log = io.read_misbehaviour_csv(cfg.path("misbehaviour"))
    labels = label_windows(log, lab)
    io.write_labels_csv(cfg.path("labels"), labels)
    print(f"{len(labels)} labelled windows -> {cfg.path('labels')}")


def cmd_eval(cfg: PipelineConfig, reaction_rs: list[int] | None = None) -> None:
    _require_workdir(cfg)
    smoothed = _smoothed_errors(cfg)
    _, threshold, _ = io.read_params_json(cfg.path("params"))
    log = io.read_misbehaviour_csv(cfg.path("misbehaviour"))
    base_lab = cfg.labelling
    if reaction_rs is not None and len(reaction_rs) == 1:
        base_lab = replace(base_lab, reaction_r=reaction_rs[0])
    # Detector output does not depend on the reaction period, so every
    # labelling below is scored against these same alarm lists.
    detector = DetectorConfig(theta=threshold.theta, healing_frames_h=cfg.healing_h)
    alarms = [run_detector_verbose(smoothed, detector)[0]]
    thetas = cfg.thresholds if cfg.thresholds is not None else threshold_grid(smoothed.values)
    h = base_lab.healing_h
    grid_alarms = [
        [run_detector(smoothed, DetectorConfig(theta=theta, healing_frames_h=h))]
        for theta in thetas
    ]

    def evaluate(labelling: LabellingConfig):
        labels = [label_windows(log, labelling)]
        report = pooled_counts(labels, alarms, h)
        try:
            sweep = pooled_sweep(labels, thetas, grid_alarms, h)
        except DegenerateDataError:
            # e.g. a nominal log with no anomalous windows; report stands alone
            return labels[0], report, None
        report.roc_points = sweep.roc_curve
        report.pr_points = sweep.pr_curve
        report.auc_roc = sweep.auc_roc
        report.auc_pr = sweep.auc_pr
        return labels[0], report, sweep

    labels, report, sweep = evaluate(base_lab)
    doc = report.to_json_dict()
    doc["epsilon"] = threshold.epsilon
    doc["theta"] = threshold.theta
    doc["reaction_r"] = base_lab.reaction_r
    if sweep is not None:
        io.write_curve_csv(cfg.path("roc"), "threshold,fpr,tpr", sweep.roc_rows)
        io.write_curve_csv(cfg.path("pr"), "threshold,recall,precision", sweep.pr_rows)
    if reaction_rs is not None and len(reaction_rs) > 1:
        table = []
        for r in reaction_rs:
            _, r_report, _ = evaluate(replace(base_lab, reaction_r=r))
            table.append(
                {
                    "reaction_r": r,
                    "auc_roc": r_report.auc_roc,
                    "auc_pr": r_report.auc_pr,
                    "counts": r_report.to_json_dict()["counts"],
                }
            )
        doc["reaction_sweep"] = table
    io.write_report_json(cfg.path("report"), doc)
    tpr = "n.a." if report.tpr is None else f"{report.tpr:.3f}"
    fpr = "n.a." if report.fpr is None else f"{report.fpr:.3f}"
    print(
        f"eval: {len(labels)} windows, TP {report.tp} FP {report.fp} "
        f"TN {report.tn} FN {report.fn}, TPR {tpr} FPR {fpr} -> {cfg.path('report')}"
    )


def cmd_pipeline(cfg: PipelineConfig) -> None:
    cmd_simulate(cfg)
    cmd_train(cfg)
    cmd_fit(cfg)
    cmd_detect(cfg)
    cmd_eval(cfg)


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

    def add(name: str, help_text: str, *, seed=False, epsilon=False, ar_k=False,
            reaction=False, thresholds=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; defaults apply without it")
        if seed:
            p.add_argument("--seed", type=int, help="override the global seed")
        if epsilon:
            p.add_argument("--epsilon", type=float, help="target nominal false-alarm rate")
        if ar_k:
            p.add_argument("--ar-k", dest="ar_k", type=int, help="smoothing window length")
        if reaction:
            p.add_argument(
                "--reaction-r",
                help="reaction period override; eval accepts a comma list for a sweep",
            )
        if thresholds:
            p.add_argument("--thresholds", help="comma list of sweep thresholds")
        return p

    add("simulate", "generate a scenario: frames, misbehaviour log, intensity trace",
        seed=True)
    add("train", "train the reconstructor on the frame file", seed=True)
    add("fit", "fit the nominal error distribution and derive the alarm threshold",
        epsilon=True, ar_k=True)
    add("detect", "run the online detector, writing per-frame decisions", ar_k=True)
    add("label", "label evaluation windows from the misbehaviour log", reaction=True)
    add("eval", "score detector output against labelled windows and sweep curves",
        ar_k=True, reaction=True, thresholds=True)
    add("pipeline", "simulate, train, fit, detect, and eval in one go",
        seed=True, epsilon=True, ar_k=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "fit":
            cmd_fit(cfg)
        elif args.command == "detect":
            cmd_detect(cfg)
        elif args.command == "label":
            cmd_label(cfg, _reaction_overrides(args))
        elif args.command == "eval":
            cmd_eval(cfg, _reaction_overrides(args))
        elif args.command == "pipeline":
            cmd_pipeline(cfg)
        return 0
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateDataError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
