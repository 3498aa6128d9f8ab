"""How close does the delivered false-alarm rate sit to the requested one?

Trains a reconstructor on nominal drives, fits the error distribution,
then scores held-out nominal drives at a list of epsilon settings and
prints requested-vs-measured false positive rates per window.
"""

from __future__ import annotations

import argparse
import time

from lanewatch.evalkit import alarms_per_theta, label_windows, pooled_counts
from lanewatch.experiment import calibrate, nominal_drive, score_drive, train_nominal
from lanewatch.gammafit import estimate_threshold
from lanewatch.reconstruct import TrainConfig
from lanewatch.scenario import ScenarioSpec
from lanewatch.smoothing import ArFilterConfig


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-seeds", type=int, default=6)
    parser.add_argument("--calibration-seeds", type=int, default=8)
    parser.add_argument("--heldout-seeds", type=int, default=10)
    parser.add_argument("--train-frames", type=int, default=900)
    parser.add_argument("--stream-frames", type=int, default=600)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--healing-h", type=int, default=60)
    parser.add_argument(
        "--epsilons", default="0.10,0.05,0.02,0.01",
        help="comma list of target false-alarm rates",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    epsilons = [float(e) for e in args.epsilons.split(",") if e]
    t0 = time.time()

    hyper = TrainConfig(epochs=args.epochs, seed=0)
    model = train_nominal(range(1000, 1000 + args.train_seeds), args.train_frames, "sae", hyper)
    n_frames = args.train_seeds * args.train_frames
    print(f"[{time.time() - t0:5.1f}s] trained on {n_frames} nominal frames")

    drives = (
        nominal_drive(seed, args.stream_frames)
        for seed in range(1500, 1500 + args.calibration_seeds)
    )
    params, _ = calibrate(model, drives, ArFilterConfig())
    print(
        f"[{time.time() - t0:5.1f}s] fitted shape {params.shape_alpha:.3f} "
        f"rate {params.rate_beta:.1f} on {args.calibration_seeds} drives"
    )

    held = [
        score_drive(model, ScenarioSpec(track_seed=seed, n_frames=args.stream_frames))
        for seed in range(2000, 2000 + args.heldout_seeds)
    ]
    labels = [label_windows(d.log) for d in held]

    thetas = [estimate_threshold(params, epsilon).theta for epsilon in epsilons]
    per_theta = alarms_per_theta([d.smoothed for d in held], thetas, args.healing_h)

    print(f"\n{'epsilon':>8} {'theta':>10} {'measured FPR':>13} {'windows':>8}")
    for epsilon, theta, alarms in zip(epsilons, thetas, per_theta, strict=True):
        report = pooled_counts(labels, alarms, args.healing_h)
        print(f"{epsilon:>8.3f} {theta:>10.6f} {report.fpr:>13.4f} {report.fp + report.tn:>8}")
    print(f"\n[{time.time() - t0:5.1f}s] done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
