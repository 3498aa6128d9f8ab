"""Detection quality on worst-case drives as the reaction period grows.

Runs the full pipeline against seeded max-intensity combined-condition
scenarios, sweeps the alarm threshold over pooled error quantiles, and
prints ROC/PR areas for each requested reaction period.  Larger reaction
periods ask the detector to fire earlier before each misbehaviour.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from lanewatch.detector import DetectorConfig, run_detector
from lanewatch.evalkit import (
    LabellingConfig,
    WindowKind,
    anchored_curves,
    label_windows,
    score_windows,
)
from lanewatch.gammafit import estimate_threshold, fit_gamma_mle
from lanewatch.reconstruct import (
    FrameStream,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.scenario import Condition, ScenarioSpec, generate_scenario
from lanewatch.smoothing import ar_filter

HEALING_H = 60
DEGRADED = frozenset(
    {Condition.DAY_NIGHT_CYCLE, Condition.RAIN, Condition.SNOW, Condition.FOG}
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eval-seeds", type=int, default=20)
    parser.add_argument("--eval-frames", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--reaction-rs", default="10,30,50,70")
    parser.add_argument("--grid-size", type=int, default=36)
    return parser.parse_args(argv)


def pooled_counts(runs, theta, labelling):
    tp = fp = tn = fn = 0
    for run in runs:
        key = ("alarms", theta)
        if key not in run:
            run[key] = run_detector(
                run["smooth"], DetectorConfig(theta=theta, healing_frames_h=HEALING_H)
            )
        labels = label_windows(run["log"], labelling)
        report = score_windows(labels, run[key], HEALING_H)
        tp += report.tp
        fp += report.fp
        tn += report.tn
        fn += report.fn
    return tp, fp, tn, fn


def main(argv=None) -> int:
    args = parse_args(argv)
    reaction_rs = [int(r) for r in args.reaction_rs.split(",") if r]
    t0 = time.time()

    frames = np.concatenate([
        generate_scenario(ScenarioSpec(track_seed=seed, n_frames=900))[0].frames
        for seed in range(1000, 1006)
    ])
    model = train_reconstructor(
        FrameStream(frames=frames, frame_rate_hz=10.0),
        "sae",
        TrainConfig(epochs=args.epochs, seed=0),
    )

    smoothed = []
    for seed in range(1500, 1508):
        stream, _, _ = generate_scenario(ScenarioSpec(track_seed=seed, n_frames=600))
        smoothed.append(ar_filter(error_series(model, stream)).values)
    params = fit_gamma_mle(np.concatenate(smoothed))
    theta_eps = estimate_threshold(params, args.epsilon).theta
    print(f"[{time.time() - t0:5.1f}s] calibrated, theta({args.epsilon}) = {theta_eps:.6f}")

    runs = []
    for seed in range(3000, 3000 + args.eval_seeds):
        spec = ScenarioSpec(
            track_seed=seed,
            n_frames=args.eval_frames,
            conditions=DEGRADED,
            cycle_period_s=10.0,
            intensity_max=1.0,
        )
        stream, log, _ = generate_scenario(spec)
        runs.append({"log": log, "smooth": ar_filter(error_series(model, stream))})
    events = sum(r["log"].count for r in runs)
    print(f"[{time.time() - t0:5.1f}s] {len(runs)} worst-case drives, {events} misbehaviours")

    pool = np.concatenate([r["smooth"].values for r in runs])
    grid = [float(q) for q in np.quantile(pool, np.linspace(0.40, 0.995, args.grid_size))]

    print(f"\n{'r':>4} {'AUC-ROC':>8} {'AUC-PR':>8} {'TPR@eps':>8} {'FPR@eps':>8}")
    for r in reaction_rs:
        labelling = LabellingConfig(reaction_r=r)
        n_anom = n_norm = 0
        for run in runs:
            labels = label_windows(run["log"], labelling)
            n_anom += sum(1 for w in labels if w.kind is WindowKind.ANOMALOUS)
            n_norm += sum(1 for w in labels if w.kind is WindowKind.NORMAL)
        roc, pr = [], []
        for theta in grid:
            tp, fp, tn, fn = pooled_counts(runs, theta, labelling)
            roc.append((fp / (fp + tn), tp / (tp + fn)))
            if tp + fp > 0:
                pr.append((tp / (tp + fn), tp / (tp + fp)))
        _, _, auc_roc, auc_pr = anchored_curves(roc, pr, n_anom / (n_anom + n_norm))
        tp, fp, tn, fn = pooled_counts(runs, theta_eps, labelling)
        print(
            f"{r:>4} {auc_roc:>8.3f} {auc_pr:>8.3f} "
            f"{tp / (tp + fn):>8.3f} {fp / (fp + tn):>8.3f}"
        )
    print(f"\n[{time.time() - t0:5.1f}s] done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
