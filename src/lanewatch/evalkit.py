"""Window labelling, detector scoring, metrics, and threshold sweeps.

Ground truth is a per-frame misbehaviour flag.  Frames are carved into
windows relative to each misbehaviour at frame t:

  healing    [t+1, t+h]      cut short by the next misbehaviour or the
                             stream end; these frames are never scored
  reaction   [t-r, t-1]      reserved for a countermeasure to act; an
                             alarm here is neither rewarded nor punished
  anomalous  [t-r-a, t-r-1]  an alarm here is a true positive
  normal     b-frame tiles   filling backwards from each anomalous window
                             and forwards after the last healing period

Later rules never steal frames from earlier ones: healing is carved
first, then reaction, then anomalous, then normal fill.  A window that
would overlap already-labelled frames, contain a misbehaviour frame, or
run off the stream is dropped whole, not truncated.  Remaining frames
stay unlabelled and never contribute counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .detector import DEFAULT_HEALING_FRAMES, DetectorConfig, run_detector
from .errors import DegenerateDataError, integer
from .reconstruct import ErrorSeries
from .scenario import MisbehaviourLog

__all__ = [
    "LabellingConfig",
    "WindowKind",
    "WindowLabel",
    "EvalReport",
    "ThresholdSweep",
    "label_windows",
    "score_windows",
    "compute_metrics",
    "pooled_counts",
    "pooled_sweep",
    "sweep_curves",
    "alarms_per_theta",
    "evaluate",
    "threshold_grid",
]


@dataclass
class LabellingConfig:
    """Window geometry: anomalous length a, normal length b, reaction r,
    healing h (frames)."""

    window_a: int = 30
    window_b: int = 30
    reaction_r: int = 50
    healing_h: int = DEFAULT_HEALING_FRAMES

    def __post_init__(self):
        for name in ("window_a", "window_b", "reaction_r", "healing_h"):
            setattr(self, name, integer(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


class WindowKind(str, Enum):
    ANOMALOUS = "anomalous"
    NORMAL = "normal"
    REACTION = "reaction"
    HEALING = "healing"


@dataclass(frozen=True)
class WindowLabel:
    start: int
    length: int
    kind: WindowKind

    def __post_init__(self):
        for name in ("start", "length"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.start < 0:
            raise ValueError(f"window start cannot be negative, got {self.start}")
        if self.length < 1:
            raise ValueError(f"window length must be positive, got {self.length}")

    @property
    def end(self) -> int:
        """Last frame index inside the window (inclusive)."""
        return self.start + self.length - 1


def label_windows(m: MisbehaviourLog, cfg: LabellingConfig | None = None) -> list[WindowLabel]:
    """Carve a misbehaviour log into labelled windows, sorted by start."""
    cfg = cfg or LabellingConfig()
    flags = m.flags
    n = flags.size
    a, b, r, h = cfg.window_a, cfg.window_b, cfg.reaction_r, cfg.healing_h
    mis = np.flatnonzero(flags)
    taken = np.zeros(n, dtype=bool)
    labels: list[WindowLabel] = []

    def try_claim(start: int, end: int, kind: WindowKind, misbehaviour_free: bool) -> bool:
        """Claim [start, end] if it fits in the stream, overlaps nothing
        already claimed, and (when required) holds no misbehaviour frame."""
        if start < 0 or end >= n or end < start:
            return False
        span = slice(start, end + 1)
        if taken[span].any():
            return False
        if misbehaviour_free and flags[span].any():
            return False
        taken[span] = True
        labels.append(WindowLabel(start=start, length=end - start + 1, kind=kind))
        return True

    # Healing first: [t+1, t+h], cut short by the next misbehaviour or the
    # stream end.  Healing frames may follow another misbehaviour's flag
    # frame directly, so no misbehaviour-free requirement here.
    for j, t in enumerate(mis):
        end = min(t + h, n - 1)
        if j + 1 < mis.size:
            end = min(end, int(mis[j + 1]) - 1)
        if t + 1 <= end:
            try_claim(int(t) + 1, int(end), WindowKind.HEALING, misbehaviour_free=False)

    # Reaction windows, then their anomalous windows.  A dropped reaction
    # drops its anomalous window too: without a reserved reaction period an
    # early alarm could not have been acted on.
    anomalous_starts: list[int] = []
    for t in mis:
        t = int(t)
        if try_claim(t - r, t - 1, WindowKind.REACTION, misbehaviour_free=True):
            if try_claim(t - r - a, t - r - 1, WindowKind.ANOMALOUS, misbehaviour_free=True):
                anomalous_starts.append(t - r - a)

    # Normal fill part one: b-frame tiles stepping backwards from each
    # anomalous window; blocked tiles are skipped, the grid continues.
    for s in anomalous_starts:
        start = s - b
        while start + b - 1 >= 0:
            try_claim(start, start + b - 1, WindowKind.NORMAL, misbehaviour_free=True)
            start -= b

    # Normal fill part two: tiles after the last healing period.  Starts
    # beyond n - r - a - 1 are skipped: a misbehaviour just past the end of
    # the stream would claim those frames as its reaction/anomalous zone,
    # so their true label is unknowable.
    k = int(min(mis[-1] + h, n - 1)) + 1 if mis.size else 0
    last_allowed_start = n - r - a - 1
    start = k
    while start <= last_allowed_start and start + b - 1 <= n - 1:
        try_claim(start, start + b - 1, WindowKind.NORMAL, misbehaviour_free=True)
        start += b

    labels.sort(key=lambda w: w.start)
    return labels


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts with the metrics that compute_metrics derives
    from them; a ratio is None when its denominator is zero."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    tpr: float | None = field(init=False)
    fpr: float | None = field(init=False)
    precision: float | None = field(init=False)
    f1: float | None = field(init=False)

    def __post_init__(self):
        metrics = compute_metrics(self.tp, self.fp, self.tn, self.fn)
        for name, value in zip(("tpr", "fpr", "precision", "f1"), metrics):
            object.__setattr__(self, name, value)

    def to_json_dict(self, sweep: ThresholdSweep | None = None) -> dict:
        """Counts and metrics, with the curves and areas of sweep; the
        curves are empty and the areas null without one."""
        return {
            "counts": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "metrics": {
                "tpr": self.tpr,
                "fpr": self.fpr,
                "precision": self.precision,
                "f1": self.f1,
            },
            "curves": {
                "roc_points": [list(p) for p in sweep.roc_curve] if sweep else [],
                "pr_points": [list(p) for p in sweep.pr_curve] if sweep else [],
                "auc_roc": sweep.auc_roc if sweep else None,
                "auc_pr": sweep.auc_pr if sweep else None,
            },
        }


def score_windows(
    labels: list[WindowLabel], alarms: list[int], h: int
) -> EvalReport:
    """Count the confusion matrix over labelled windows.

    An anomalous window with at least one alarm inside is a true positive,
    otherwise a false negative.  A normal window with an alarm is a false
    positive and one without is a true negative, except that a normal
    window whose first alarm lands within h frames of the previous counted
    false positive window's first alarm is excluded outright: the healing
    triggered by that earlier false alarm would still be in progress, so
    the repeat alarm has no separate effect.  Reaction, healing, and
    unlabelled frames never contribute counts.
    """
    if h < 1:
        raise ValueError(f"suppression span must be at least 1 frame, got {h}")
    alarm_list = [int(x) for x in alarms]
    if any(alarm_list[i] >= alarm_list[i + 1] for i in range(len(alarm_list) - 1)):
        raise ValueError("alarms must be sorted strictly ascending")
    alarm_arr = np.asarray(alarm_list, dtype=np.int64)
    tp = fp = tn = fn = 0
    last_fp_alarm: int | None = None
    for w in sorted(labels, key=lambda w: w.start):
        if w.kind is WindowKind.ANOMALOUS:
            lo = np.searchsorted(alarm_arr, w.start, side="left")
            if lo < alarm_arr.size and alarm_arr[lo] <= w.end:
                tp += 1
            else:
                fn += 1
        elif w.kind is WindowKind.NORMAL:
            lo = np.searchsorted(alarm_arr, w.start, side="left")
            if lo < alarm_arr.size and alarm_arr[lo] <= w.end:
                first = int(alarm_arr[lo])
                if last_fp_alarm is not None and first - last_fp_alarm <= h:
                    continue  # excluded: neither FP nor TN
                fp += 1
                last_fp_alarm = first
            else:
                tn += 1
    return EvalReport(tp=tp, fp=fp, tn=tn, fn=fn)


def compute_metrics(
    tp: int, fp: int, tn: int, fn: int
) -> tuple[float | None, float | None, float | None, float | None]:
    """TPR, FPR, precision, and F1 from counts; None where undefined."""
    if min(tp, fp, tn, fn) < 0:
        raise ValueError("confusion counts cannot be negative")
    tpr = tp / (tp + fn) if tp + fn > 0 else None
    fpr = fp / (fp + tn) if fp + tn > 0 else None
    precision = tp / (tp + fp) if tp + fp > 0 else None
    f1 = None
    if precision is not None and tpr is not None and precision + tpr > 0:
        f1 = 2.0 * precision * tpr / (precision + tpr)
    return tpr, fpr, precision, f1


@dataclass
class ThresholdSweep:
    """Per-threshold operating points plus anchored curves and their areas.

    roc_rows and pr_rows carry (theta, x, y) for external plotting;
    roc_curve and pr_curve are the anchored polylines the areas integrate.
    """

    roc_rows: list[tuple[float, float, float]]
    pr_rows: list[tuple[float, float, float]]
    roc_curve: list[tuple[float, float]]
    pr_curve: list[tuple[float, float]]
    auc_roc: float
    auc_pr: float


def pooled_counts(
    labels_per_drive: list[list[WindowLabel]],
    alarms_per_drive: list[list[int]],
    h: int,
) -> EvalReport:
    """Confusion counts summed over drives, with the metrics of the sums."""
    tp = fp = tn = fn = 0
    for labels, alarms in zip(labels_per_drive, alarms_per_drive, strict=True):
        drive = score_windows(labels, alarms, h)
        tp, fp, tn, fn = tp + drive.tp, fp + drive.fp, tn + drive.tn, fn + drive.fn
    return EvalReport(tp=tp, fp=fp, tn=tn, fn=fn)


def pooled_sweep(
    labels_per_drive: list[list[WindowLabel]],
    thetas: list[float],
    alarms_per_theta: list[list[list[int]]],
    h: int,
) -> ThresholdSweep:
    """ROC and PR curves over drives pooled per threshold.

    alarms_per_theta[i][j] holds the alarms of drive j at thetas[i], so
    one detector pass per threshold can be scored against several
    labellings.  Rows come in ascending theta.  The ROC polyline is
    anchored at (0,0) and (1,1).  The PR polyline is anchored at recall 0
    with the precision of the lowest-recall point and ends at recall 1
    with the label prevalence (anomalous windows over anomalous plus
    normal windows), after any real recall-1 points.  Areas are
    trapezoidal, integrated in curve order.
    """
    if not thetas:
        raise ValueError("threshold sweep needs at least one threshold")
    kinds = [w.kind for labels in labels_per_drive for w in labels]
    n_anomalous = kinds.count(WindowKind.ANOMALOUS)
    n_normal = kinds.count(WindowKind.NORMAL)
    if n_anomalous == 0 or n_normal == 0:
        raise DegenerateDataError(
            "threshold sweep needs at least one anomalous and one normal window, "
            f"got {n_anomalous} anomalous and {n_normal} normal"
        )
    roc_rows: list[tuple[float, float, float]] = []
    pr_rows: list[tuple[float, float, float]] = []
    by_theta = sorted(zip(thetas, alarms_per_theta, strict=True), key=lambda pair: pair[0])
    for theta, alarms_per_drive in by_theta:
        report = pooled_counts(labels_per_drive, alarms_per_drive, h)
        # tpr and fpr are always defined here: both window kinds exist and
        # the first alarmed normal window of each drive is never excluded.
        roc_rows.append((theta, report.fpr, report.tpr))
        if report.precision is not None:
            pr_rows.append((theta, report.tpr, report.precision))
    prevalence = n_anomalous / (n_anomalous + n_normal)
    roc_curve = sorted({(fpr, tpr) for _, fpr, tpr in roc_rows} | {(0.0, 0.0), (1.0, 1.0)})
    pr_points = {(recall, precision) for _, recall, precision in pr_rows}
    # No PR point means no threshold alarmed inside a counted window; the
    # flat prevalence line is then the only honest curve left.
    lowest_recall_precision = min(pr_points)[1] if pr_points else prevalence
    pr_curve = sorted(pr_points | {(0.0, lowest_recall_precision)})
    pr_curve.append((1.0, prevalence))
    auc_roc, auc_pr = (
        float(np.trapezoid([y for _, y in curve], [x for x, _ in curve]))
        for curve in (roc_curve, pr_curve)
    )
    return ThresholdSweep(roc_rows, pr_rows, roc_curve, pr_curve, auc_roc, auc_pr)


def alarms_per_theta(
    smoothed_per_drive: list[ErrorSeries], thetas: list[float], h: int
) -> list[list[list[int]]]:
    """Detector alarms with cooldown h; element [i][j] holds drive j at
    thetas[i], the layout pooled_sweep takes."""
    return [
        [run_detector(smoothed, DetectorConfig(theta=theta, healing_frames_h=h))
         for smoothed in smoothed_per_drive]
        for theta in thetas
    ]


def sweep_curves(
    labels: list[WindowLabel],
    smoothed: ErrorSeries,
    thetas: list[float],
    h: int = DEFAULT_HEALING_FRAMES,
) -> ThresholdSweep:
    """Run the detector on one drive at every threshold and sweep the
    curves with pooled_sweep."""
    return pooled_sweep([labels], thetas, alarms_per_theta([smoothed], thetas, h), h)


def evaluate(
    logs: list[MisbehaviourLog],
    smoothed_per_drive: list[ErrorSeries],
    theta: float,
    thetas: list[float],
    labelling: LabellingConfig,
    reaction_rs: list[int],
) -> list[tuple[list[list[WindowLabel]], EvalReport, ThresholdSweep | None]]:
    """(labels per drive, pooled counts at theta, sweep over thetas) for
    each period in reaction_rs; the sweep is None when the pool lacks an
    anomalous or a normal window.  Alarms do not depend on the reaction
    period, so the detector runs once per drive and threshold."""
    h = labelling.healing_h
    at_theta, *on_grid = alarms_per_theta(smoothed_per_drive, [theta, *thetas], h)
    results = []
    for r in reaction_rs:
        labels = [label_windows(log, replace(labelling, reaction_r=r)) for log in logs]
        try:
            sweep = pooled_sweep(labels, thetas, on_grid, h)
        except DegenerateDataError:
            sweep = None
        results.append((labels, pooled_counts(labels, at_theta, h), sweep))
    return results


def threshold_grid(values: np.ndarray, size: int = 36) -> list[float]:
    """Sweep thresholds: distinct positive quantiles of smoothed errors.

    The grid starts at the 40th percentile: below it every threshold sits
    under the quiet-zone noise floor, where the alarm cooldown turns
    sweeps into phase lotteries rather than sensitivity trades.
    """
    qs = np.quantile(values, np.linspace(0.40, 0.995, size))
    return [float(q) for q in np.unique(qs[qs > 0.0])]
