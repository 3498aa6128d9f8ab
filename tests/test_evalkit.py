"""Window labelling, scoring, metrics, and curve sweeps.

The labelling fixtures were worked out by hand from the carving rules:
healing first, then reaction, then anomalous, then normal fill;
windows that collide, cross the stream edge, or contain a flag are
dropped whole.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanewatch.detector import DetectorConfig, run_detector
from lanewatch.errors import DegenerateDataError
from lanewatch.evalkit import (
    EvalReport,
    LabellingConfig,
    ThresholdSweep,
    WindowKind,
    WindowLabel,
    compute_metrics,
    evaluate,
    label_windows,
    pooled_counts,
    pooled_sweep,
    score_windows,
    sweep_curves,
    threshold_grid,
)
from lanewatch.reconstruct import ErrorSeries
from lanewatch.scenario import MisbehaviourLog


def _log(n: int, marks: list[int]) -> MisbehaviourLog:
    flags = np.zeros(n, dtype=bool)
    flags[marks] = True
    return MisbehaviourLog(flags=flags)


def _windows(labels, kind):
    return [(w.start, w.end) for w in labels if w.kind is kind]


# ------------------------------------------------------- labelling fixtures

def test_single_event_mid_stream():
    labels = label_windows(_log(400, [200]))
    assert _windows(labels, WindowKind.HEALING) == [(201, 260)]
    assert _windows(labels, WindowKind.REACTION) == [(150, 199)]
    assert _windows(labels, WindowKind.ANOMALOUS) == [(120, 149)]
    assert _windows(labels, WindowKind.NORMAL) == [
        (0, 29), (30, 59), (60, 89), (90, 119), (261, 290), (291, 320),
    ]


def test_close_pair_drops_second_reaction():
    labels = label_windows(_log(400, [200, 220]))
    # Healing of the first event is cut short by the second; the second
    # event's reaction would overlap that healing, so it and its anomalous
    # window are dropped whole.
    assert _windows(labels, WindowKind.HEALING) == [(201, 219), (221, 280)]
    assert _windows(labels, WindowKind.REACTION) == [(150, 199)]
    assert _windows(labels, WindowKind.ANOMALOUS) == [(120, 149)]
    assert _windows(labels, WindowKind.NORMAL) == [
        (0, 29), (30, 59), (60, 89), (90, 119), (281, 310), (311, 340),
    ]


def test_event_too_early_for_reaction():
    labels = label_windows(_log(300, [30]))
    assert _windows(labels, WindowKind.HEALING) == [(31, 90)]
    assert _windows(labels, WindowKind.REACTION) == []
    assert _windows(labels, WindowKind.ANOMALOUS) == []
    # Trailing fill stops where a just-past-the-end event could still have
    # claimed frames.
    assert _windows(labels, WindowKind.NORMAL) == [
        (91, 120), (121, 150), (151, 180), (181, 210), (211, 240),
    ]


def test_event_near_stream_end():
    labels = label_windows(_log(400, [380]))
    assert _windows(labels, WindowKind.HEALING) == [(381, 399)]
    assert _windows(labels, WindowKind.REACTION) == [(330, 379)]
    assert _windows(labels, WindowKind.ANOMALOUS) == [(300, 329)]
    assert _windows(labels, WindowKind.NORMAL) == [
        (i, i + 29) for i in range(0, 300, 30)
    ]


def test_no_events_tiles_prefix_only():
    labels = label_windows(_log(200, []))
    assert _windows(labels, WindowKind.NORMAL) == [(0, 29), (30, 59), (60, 89), (90, 119)]
    assert len(labels) == 4


def test_custom_geometry():
    cfg = LabellingConfig(window_a=10, window_b=20, reaction_r=5, healing_h=15)
    labels = label_windows(_log(100, [50]), cfg)
    assert _windows(labels, WindowKind.HEALING) == [(51, 65)]
    assert _windows(labels, WindowKind.REACTION) == [(45, 49)]
    assert _windows(labels, WindowKind.ANOMALOUS) == [(35, 44)]
    assert _windows(labels, WindowKind.NORMAL) == [(15, 34), (66, 85)]


# ----------------------------------------------------- labelling properties

sparse_logs = st.builds(
    _log,
    st.just(500),
    st.lists(st.integers(min_value=0, max_value=499), max_size=6, unique=True),
)


@given(sparse_logs)
@settings(max_examples=60)
def test_windows_never_overlap(log):
    labels = label_windows(log)
    claimed = np.zeros(len(log), dtype=int)
    for w in labels:
        claimed[w.start : w.end + 1] += 1
    assert claimed.max(initial=0) <= 1


@given(sparse_logs)
@settings(max_examples=60)
def test_scored_windows_avoid_flags(log):
    flags = log.flags
    for w in label_windows(log):
        if w.kind in (WindowKind.ANOMALOUS, WindowKind.NORMAL, WindowKind.REACTION):
            assert not flags[w.start : w.end + 1].any()


@given(sparse_logs)
@settings(max_examples=60)
def test_anomalous_windows_precede_their_event(log):
    cfg = LabellingConfig()
    marks = set(np.flatnonzero(log.flags).tolist())
    for w in label_windows(log):
        if w.kind is WindowKind.ANOMALOUS:
            assert w.length == cfg.window_a
            assert (w.end + cfg.reaction_r + 1) in marks


@given(sparse_logs, st.lists(st.integers(min_value=0, max_value=499),
                             max_size=12, unique=True))
@settings(max_examples=60)
def test_counts_partition_scored_windows(log, alarm_frames):
    labels = label_windows(log)
    report = score_windows(labels, sorted(alarm_frames), 60)
    n_anom = sum(1 for w in labels if w.kind is WindowKind.ANOMALOUS)
    assert report.tp + report.fn == n_anom
    n_norm = sum(1 for w in labels if w.kind is WindowKind.NORMAL)
    assert report.tp + report.fp + report.tn + report.fn <= n_anom + n_norm


@given(st.lists(
    st.tuples(sparse_logs, st.lists(st.integers(min_value=0, max_value=499),
                                    max_size=12, unique=True)),
    min_size=1, max_size=3,
))
@settings(max_examples=40)
def test_pooled_counts_sum_drives(drives):
    labels = [label_windows(log) for log, _ in drives]
    alarms = [sorted(frames) for _, frames in drives]
    pooled = pooled_counts(labels, alarms, 60)
    singles = [score_windows(lab, al, 60) for lab, al in zip(labels, alarms)]
    counts = (pooled.tp, pooled.fp, pooled.tn, pooled.fn)
    assert counts == tuple(
        sum(getattr(r, k) for r in singles) for k in ("tp", "fp", "tn", "fn")
    )
    assert (pooled.tpr, pooled.fpr, pooled.precision, pooled.f1) == compute_metrics(*counts)


# ------------------------------------------------------------------ scoring

def test_scoring_hand_case():
    labels = label_windows(_log(400, [200]))
    # One alarm inside the anomalous window, one in a normal window, one
    # in the reaction zone (ignored).
    report = score_windows(labels, [40, 130, 160], 60)
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 5, 0)
    assert report.tpr == 1.0
    assert report.fpr == pytest.approx(1 / 6)


def test_scored_report_carries_the_metrics_of_its_counts():
    # One alarm, inside the anomalous window: every ratio is defined.
    report = score_windows(label_windows(_log(400, [200])), [130], 60)
    counts = (report.tp, report.fp, report.tn, report.fn)
    assert counts == (1, 0, 6, 0)
    assert (report.tpr, report.fpr, report.precision, report.f1) == compute_metrics(*counts)


def test_consecutive_false_positives_excluded():
    # Two adjacent 30-frame normal tiles with alarms 20 frames apart: the
    # second window's first alarm is within h of the first counted one, so
    # that window is excluded outright.
    labels = label_windows(_log(200, []))
    report = score_windows(labels, [25, 45], 60)
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 1, 2, 0)
    # Far enough apart, both count.
    report = score_windows(labels, [25, 95], 60)
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 2, 2, 0)


def test_alarms_outside_windows_ignored():
    labels = label_windows(_log(400, [200]))
    report = score_windows(labels, [155, 230, 395], 60)
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 6, 1)


def test_scoring_rejects_unsorted_alarms():
    labels = label_windows(_log(200, []))
    with pytest.raises(ValueError):
        score_windows(labels, [50, 20], 60)


# ------------------------------------------------------------------ metrics

# Frozen confusion fixtures with hand-checked three-decimal metrics.
METRIC_ROWS = [
    ((405, 1027, 7622, 121), (0.770, 0.119, 0.283, 0.414)),
    ((294, 619, 11208, 232), (0.559, 0.052, 0.322, 0.409)),
    ((381, 898, 7553, 145), (0.724, 0.106, 0.298, 0.422)),
    ((314, 598, 10680, 212), (0.597, 0.053, 0.344, 0.437)),
    ((172, 1246, 11651, 354), (0.327, 0.097, 0.121, 0.177)),
    ((110, 909, 13442, 416), (0.209, 0.063, 0.108, 0.142)),
]


@pytest.mark.parametrize("counts,expected", METRIC_ROWS)
def test_metric_fixtures_to_three_decimals(counts, expected):
    tpr, fpr, precision, f1 = compute_metrics(*counts)
    assert (round(tpr, 3), round(fpr, 3), round(precision, 3), round(f1, 3)) == expected


def test_metrics_undefined_cases():
    # No alarms at all: precision and F1 are undefined, not zero.
    tpr, fpr, precision, f1 = compute_metrics(0, 0, 16242, 526)
    assert tpr == 0.0
    assert fpr == 0.0
    assert precision is None and f1 is None
    # No anomalous windows: TPR undefined.
    tpr, fpr, precision, f1 = compute_metrics(0, 0, 100, 0)
    assert tpr is None and precision is None and f1 is None
    assert fpr == 0.0


def test_metrics_reject_negative_counts():
    with pytest.raises(ValueError):
        compute_metrics(1, -1, 1, 1)


def test_report_json_shape():
    report = EvalReport(tp=2, fp=1, tn=3, fn=0)
    sweep = ThresholdSweep(roc_rows=[(0.5, 0.25, 1.0)], pr_rows=[(0.5, 1.0, 0.5)],
                           roc_curve=[(0.0, 0.0), (0.25, 1.0), (1.0, 1.0)],
                           pr_curve=[(0.0, 0.5), (1.0, 0.5), (1.0, 0.25)],
                           auc_roc=0.875, auc_pr=0.5)
    # The curves are the sweep's anchored polylines, not its per-threshold
    # rows; without a sweep they are empty and the areas null.
    for input_sweep, curves in [
        (None, {"roc_points": [], "pr_points": [], "auc_roc": None, "auc_pr": None}),
        (sweep, {"roc_points": [[0.0, 0.0], [0.25, 1.0], [1.0, 1.0]],
                 "pr_points": [[0.0, 0.5], [1.0, 0.5], [1.0, 0.25]],
                 "auc_roc": 0.875, "auc_pr": 0.5}),
    ]:
        doc = report.to_json_dict(input_sweep)
        assert doc["counts"] == {"tp": 2, "fp": 1, "tn": 3, "fn": 0}
        assert doc["metrics"]["tpr"] == 1.0
        assert doc["curves"] == curves


# ------------------------------------------------------------------- sweeps

def _mark_series(n, hot_spans, lo=0.001, hi=1.0):
    values = np.full(n, lo)
    for a, b in hot_spans:
        values[a : b + 1] = hi
    return ErrorSeries(values=values)


def test_perfectly_separable_sweep_hits_auc_one():
    # Two far-apart events; errors are high exactly in each anomalous
    # window, so every threshold in between separates perfectly.
    log = _log(900, [300, 700])
    labels = label_windows(log)
    anom = _windows(labels, WindowKind.ANOMALOUS)
    smoothed = _mark_series(900, anom)
    sweep = sweep_curves(labels, smoothed, [0.01, 0.1, 0.5], 60)
    assert sweep.auc_roc == pytest.approx(1.0, abs=1e-9)
    assert (0.0, 0.0) in sweep.roc_curve and (1.0, 1.0) in sweep.roc_curve


def test_shuffled_scores_near_half_auc():
    rng = np.random.default_rng(99)
    log = _log(2000, [400, 900, 1400, 1900])
    labels = label_windows(log)
    smoothed = ErrorSeries(values=rng.random(2000) * 0.01)
    thetas = [float(q) for q in np.quantile(smoothed.values, np.linspace(0.4, 0.99, 20))]
    sweep = sweep_curves(labels, smoothed, thetas, 60)
    assert 0.25 < sweep.auc_roc < 0.75


def test_sweep_requires_both_window_kinds():
    labels = label_windows(_log(200, []))
    with pytest.raises(DegenerateDataError):
        sweep_curves(labels, ErrorSeries(values=np.full(200, 0.01)), [0.5], 60)


def test_sweep_requires_thresholds():
    labels = label_windows(_log(900, [300]))
    with pytest.raises(ValueError):
        sweep_curves(labels, ErrorSeries(values=np.full(900, 0.01)), [], 60)


def test_pr_curve_anchors():
    log = _log(900, [300, 700])
    labels = label_windows(log)
    anom = _windows(labels, WindowKind.ANOMALOUS)
    smoothed = _mark_series(900, anom)
    sweep = sweep_curves(labels, smoothed, [0.5], 60)
    n_anom = len(anom)
    n_norm = len(_windows(labels, WindowKind.NORMAL))
    prevalence = n_anom / (n_anom + n_norm)
    assert sweep.pr_curve[0][0] == 0.0
    # The single threshold separates perfectly, so its real (1, 1) point
    # comes before the prevalence anchor, which is always last.
    assert sweep.pr_curve[-2:] == [(1.0, 1.0), (1.0, prevalence)]
    assert sweep.auc_pr == pytest.approx(1.0, abs=1e-15)


def _tiles(kinds):
    """Hand-built labels: one 10-frame window per kind, back to back."""
    return [WindowLabel(start=10 * i, length=10, kind=kind) for i, kind in enumerate(kinds)]


def test_pr_anchor_follows_real_recall_one_points():
    # Four anomalous and six normal windows: prevalence 0.4.  At 0.9 two
    # anomalous windows alarm (recall 0.5, precision 1); at 0.1 all four
    # do, plus the normal window 10-19 (recall 1 at precision 0.8).
    A, N = WindowKind.ANOMALOUS, WindowKind.NORMAL
    labels = _tiles([A, N, A, N, A, N, A, N, N, N])
    sweep = pooled_sweep([labels], [0.9, 0.1], [[[5, 25]], [[5, 15, 25, 45, 65]]], 60)
    assert sweep.pr_rows == [(0.1, 1.0, 0.8), (0.9, 0.5, 1.0)]
    # The curve holds 1.0 to recall 0.5, falls to 0.8 at recall 1, then
    # drops to the anchor; area 0.5 * 1.0 + 0.5 * (1.0 + 0.8) / 2 = 0.95.
    assert sweep.pr_curve == [(0.0, 1.0), (0.5, 1.0), (1.0, 0.8), (1.0, 0.4)]
    assert sweep.auc_pr == pytest.approx(0.95, abs=1e-15)
    assert sweep.roc_curve == [(0.0, 0.0), (0.0, 0.5), (1 / 6, 1.0), (1.0, 1.0)]
    assert sweep.auc_roc == pytest.approx(1 / 6 * 0.75 + 5 / 6, abs=1e-15)


def test_pooled_sweep_two_drives_by_hand():
    # Each drive has one anomalous window (120-149) and six normal ones,
    # so the pool has 2 anomalous and 12 normal windows: prevalence 1/7.
    labels = [label_windows(_log(400, [200])), label_windows(_log(400, [200]))]
    # Thresholds out of order, with alarms in the same order.
    thetas = [0.9, 0.1]
    alarms = [
        [[130], []],          # drive 1 TP; drive 2 FN, 6 TN
        [[130], [40, 265]],   # drive 2 adds FN and two FPs 225 frames apart
    ]
    sweep = pooled_sweep(labels, thetas, alarms, 60)
    # theta 0.1: TP 1 FN 1 FP 2 TN 10; theta 0.9: TP 1 FN 1 FP 0 TN 12.
    assert sweep.roc_rows == [(0.1, 2 / 12, 0.5), (0.9, 0.0, 0.5)]
    assert sweep.pr_rows == [(0.1, 0.5, 1 / 3), (0.9, 0.5, 1.0)]
    assert sweep.roc_curve == [(0.0, 0.0), (0.0, 0.5), (2 / 12, 0.5), (1.0, 1.0)]
    assert sweep.pr_curve == [(0.0, 1 / 3), (0.5, 1 / 3), (0.5, 1.0), (1.0, 1 / 7)]
    assert sweep.auc_roc == pytest.approx(2 / 12 * 0.5 + 10 / 12 * 0.75, abs=1e-15)
    assert sweep.auc_pr == pytest.approx(0.5 / 3 + 0.5 * (1.0 + 1 / 7) / 2, abs=1e-15)


def test_pooled_sweep_degenerate_only_over_the_pool():
    eventless = label_windows(_log(200, []))
    with pytest.raises(DegenerateDataError):
        pooled_sweep([eventless, eventless], [0.5], [[[], []]], 60)
    # A drive without anomalous windows is fine when another drive has one.
    sweep = pooled_sweep([eventless, label_windows(_log(400, [200]))], [0.5],
                         [[[], [130]]], 60)
    assert sweep.roc_rows == [(0.5, 0.0, 1.0)]
    with pytest.raises(ValueError):
        pooled_sweep([eventless], [], [], 60)


def test_evaluate_matches_hand_built_pool():
    # Two drives, two reaction periods, a cooldown other than the default:
    # every result must equal the counts and sweep assembled by hand.
    rng = np.random.default_rng(7)
    logs = [_log(900, [300, 700]), _log(600, [400])]
    smoothed = [ErrorSeries(values=rng.random(len(log)) * 0.01) for log in logs]
    labelling = LabellingConfig(healing_h=40)
    theta, thetas = 0.006, [0.009, 0.003, 0.005]
    results = evaluate(logs, smoothed, theta, thetas, labelling, [10, 50])
    assert len(results) == 2

    def alarms(t):
        return [run_detector(s, DetectorConfig(theta=t, healing_frames_h=40)) for s in smoothed]

    for r, (labels, counts, sweep) in zip([10, 50], results):
        assert labels == [label_windows(log, replace(labelling, reaction_r=r)) for log in logs]
        assert counts == pooled_counts(labels, alarms(theta), 40)
        assert sweep == pooled_sweep(labels, thetas, [alarms(t) for t in thetas], 40)
    # The reaction period moves the windows, so the two results differ.
    assert results[0][0] != results[1][0]


def test_evaluate_without_anomalous_windows_has_no_sweep():
    logs = [_log(200, []), _log(300, [])]
    smoothed = [ErrorSeries(values=np.full(len(log), 0.01)) for log in logs]
    [(labels, counts, sweep)] = evaluate(logs, smoothed, 0.005, [0.005, 0.02],
                                         LabellingConfig(), [50])
    assert sweep is None
    alarms = [run_detector(s, DetectorConfig(theta=0.005)) for s in smoothed]
    assert counts == pooled_counts(labels, alarms, 60)
    assert counts.fp > 0 and counts.tn > 0


def test_threshold_grid_drops_duplicates_and_non_positive():
    # Quantiles at 0.4, 0.598, 0.797, 0.995 of six zeros and four ones are
    # 0, 0.385, 1, 1: the zero and the repeated 1 are dropped.
    grid = threshold_grid(np.array([0.0] * 6 + [1.0] * 4), size=4)
    assert grid == pytest.approx([0.385, 1.0], abs=1e-12)


def test_pooled_sweep_without_defined_precision():
    # No threshold alarms inside a counted window (the one alarm lands in
    # the reaction window), so no PR point exists; the PR curve falls back
    # to the flat prevalence line, 1 anomalous over 4 counted windows.
    labels = _tiles([WindowKind.NORMAL] * 3 + [WindowKind.ANOMALOUS, WindowKind.REACTION])
    sweep = pooled_sweep([labels], [0.1, 0.2], [[[45]], [[]]], 60)
    assert sweep.roc_rows == [(0.1, 0.0, 0.0), (0.2, 0.0, 0.0)]
    assert sweep.pr_rows == []
    assert sweep.roc_curve == [(0.0, 0.0), (1.0, 1.0)]
    assert sweep.pr_curve == [(0.0, 0.25), (1.0, 0.25)]
    assert sweep.auc_roc == pytest.approx(0.5, abs=1e-15)
    assert sweep.auc_pr == pytest.approx(0.25, abs=1e-15)


def test_window_label_validation():
    with pytest.raises(ValueError):
        WindowLabel(start=-1, length=5, kind=WindowKind.NORMAL)
    with pytest.raises(ValueError):
        WindowLabel(start=0, length=0, kind=WindowKind.NORMAL)
    with pytest.raises(ValueError):
        LabellingConfig(window_a=0)
