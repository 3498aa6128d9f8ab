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

from lanewatch.evalkit import LabellingConfig, evaluate, threshold_grid
from lanewatch.experiment import (
    calibrate,
    nominal_drive,
    score_drive,
    train_nominal,
    worst_case_spec,
)
from lanewatch.gammafit import estimate_threshold
from lanewatch.reconstruct import TrainConfig
from lanewatch.smoothing import ArFilterConfig

HEALING_H = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eval-seeds", type=int, default=20)
    parser.add_argument("--eval-frames", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--reaction-rs", default="10,30,50,70")
    parser.add_argument("--grid-size", type=int, default=36)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reaction_rs = [int(r) for r in args.reaction_rs.split(",") if r]
    t0 = time.time()

    hyper = TrainConfig(epochs=args.epochs, seed=0)
    model = train_nominal(range(1000, 1006), 900, "sae", hyper)
    drives = (nominal_drive(seed, 600) for seed in range(1500, 1508))
    params, _ = calibrate(model, drives, ArFilterConfig())
    theta_eps = estimate_threshold(params, args.epsilon).theta
    print(f"[{time.time() - t0:5.1f}s] calibrated, theta({args.epsilon}) = {theta_eps:.6f}")

    drives = [
        score_drive(model, worst_case_spec(seed, args.eval_frames))
        for seed in range(3000, 3000 + args.eval_seeds)
    ]
    events = sum(d.log.count for d in drives)
    print(f"[{time.time() - t0:5.1f}s] {len(drives)} worst-case drives, {events} misbehaviours")

    smoothed = [d.smoothed for d in drives]
    grid = threshold_grid(np.concatenate([s.values for s in smoothed]), args.grid_size)
    results = evaluate([d.log for d in drives], smoothed, theta_eps, grid,
                       LabellingConfig(healing_h=HEALING_H), reaction_rs)

    print(f"\n{'r':>4} {'AUC-ROC':>8} {'AUC-PR':>8} {'TPR@eps':>8} {'FPR@eps':>8}")
    for r, (_, report, sweep) in zip(reaction_rs, results, strict=True):
        print(
            f"{r:>4} {sweep.auc_roc:>8.3f} {sweep.auc_pr:>8.3f} "
            f"{report.tpr:>8.3f} {report.fpr:>8.3f}"
        )
    print(f"\n[{time.time() - t0:5.1f}s] done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
