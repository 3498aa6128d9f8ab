"""Misbehaviour frequency as a function of condition intensity.

Generates batches of combined-condition drives at a ladder of peak
intensities and prints the mean lane departures per drive.  The rate has
to rise monotonically with intensity for threshold sweeps downstream to
mean anything.
"""

from __future__ import annotations

import argparse

import numpy as np

from lanewatch.experiment import departures_per_drive


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--frames", type=int, default=1000)
    parser.add_argument("--cycle-period-s", type=float, default=10.0)
    parser.add_argument(
        "--intensities", default="0.0,0.2,0.4,0.6,0.8,1.0",
        help="comma list of peak intensities to test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    intensities = [float(v) for v in args.intensities.split(",") if v]

    print(f"{'peak':>6} {'mean/drive':>11} {'min':>4} {'max':>4}")
    for intensity_max in intensities:
        counts = departures_per_drive(
            intensity_max, args.seeds, args.frames, args.cycle_period_s
        )
        print(
            f"{intensity_max:>6.2f} {np.mean(counts):>11.2f} "
            f"{min(counts):>4} {max(counts):>4}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
