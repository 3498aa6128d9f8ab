"""How close does the delivered false-alarm rate sit to the requested one?

Trains a reconstructor on nominal drives, fits the error distribution,
then scores held-out nominal drives at a list of epsilon settings and
prints requested-vs-measured false positive rates per window.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from lanewatch.detector import DetectorConfig, run_detector
from lanewatch.evalkit import label_windows, score_windows
from lanewatch.gammafit import estimate_threshold, fit_gamma_mle
from lanewatch.reconstruct import (
    FrameStream,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.scenario import ScenarioSpec, generate_scenario
from lanewatch.smoothing import ar_filter


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

    drives = []
    for seed in range(1000, 1000 + args.train_seeds):
        stream, log, _ = generate_scenario(
            ScenarioSpec(track_seed=seed, n_frames=args.train_frames)
        )
        assert log.count == 0
        drives.append(stream.frames)
    frames = np.concatenate(drives)
    model = train_reconstructor(
        FrameStream(frames=frames, frame_rate_hz=10.0),
        "sae",
        TrainConfig(epochs=args.epochs, seed=0),
    )
    print(f"[{time.time() - t0:5.1f}s] trained on {len(frames)} nominal frames")

    smoothed = []
    for seed in range(1500, 1500 + args.calibration_seeds):
        stream, _, _ = generate_scenario(
            ScenarioSpec(track_seed=seed, n_frames=args.stream_frames)
        )
        smoothed.append(ar_filter(error_series(model, stream)).values)
    params = fit_gamma_mle(np.concatenate(smoothed))
    print(
        f"[{time.time() - t0:5.1f}s] fitted shape {params.shape_alpha:.3f} "
        f"rate {params.rate_beta:.1f} on {args.calibration_seeds} drives"
    )

    held = []
    for seed in range(2000, 2000 + args.heldout_seeds):
        stream, log, _ = generate_scenario(
            ScenarioSpec(track_seed=seed, n_frames=args.stream_frames)
        )
        held.append((label_windows(log), ar_filter(error_series(model, stream))))

    print(f"\n{'epsilon':>8} {'theta':>10} {'measured FPR':>13} {'windows':>8}")
    for epsilon in epsilons:
        theta = estimate_threshold(params, epsilon).theta
        fp = tn = 0
        for labels, smooth in held:
            alarms = run_detector(
                smooth, DetectorConfig(theta=theta, healing_frames_h=args.healing_h)
            )
            report = score_windows(labels, alarms, args.healing_h)
            fp += report.fp
            tn += report.tn
        print(f"{epsilon:>8.3f} {theta:>10.6f} {fp / (fp + tn):>13.4f} {fp + tn:>8}")
    print(f"\n[{time.time() - t0:5.1f}s] done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
