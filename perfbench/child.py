"""One process of one benchmark workload, in a fresh interpreter.

run.py starts this script several times per run.  Each process sets up
once and runs the timed phase once, so that its peak resident set size,
set-up time (interpreter, imports, workload inputs) and run time belong
to one cold run of the workload.  It prints one JSON object as the last
line of its standard output.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED_AT OUT_DIR
where SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before the
start, and OUT_DIR is a directory inside the checkout for scratch files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from lanewatch import cli, detector, evalkit, gammafit, reconstruct, scenario, smoothing

import tracing

ALL_CONDITIONS = ("day_night_cycle", "rain", "snow", "fog")
EPSILON = 0.05
HEALING_H = 60
REACTION_PERIODS = (10, 30, 50, 70)
DEFAULT_REACTION = 50
SWEEP_QUANTILES = np.linspace(0.40, 0.995, 36)

# fleet: nominal training and calibration drives, max-intensity evaluation
# drives.  Smaller than the acceptance fixtures so that one timed phase takes
# seconds; the structure (train, calibrate, detect, sweep) is the same.
FLEET_TRAIN_DRIVES, FLEET_TRAIN_FRAMES, FLEET_EPOCHS = 2, 600, 20
FLEET_CALIBRATION_DRIVES, FLEET_CALIBRATION_FRAMES = 4, 600
FLEET_EVAL_DRIVES, FLEET_EVAL_FRAMES = 2, 2000

# train_*: one pool of nominal frames; epochs per kind give each workload a
# timed phase of about two seconds.
POOL_DRIVES, POOL_FRAMES = 2, 600
TRAIN_EPOCHS = {"dae": 30, "seq": 2}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Outcome:
    """Attempted and failed operations, exceptions by type, failed checks.
    Operations are drives, training runs, pipeline runs and evaluations;
    each output check counts as one more operation, so failed never
    exceeds attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.checks: list[str] = []

    @contextlib.contextmanager
    def operation(self):
        """Count one operation; an exception fails it without aborting."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - the boundary that reports failures
            self.failed += 1
            self.errors[type(exc).__name__] += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks.append(what)


def _seeds(seed: int, role: int, count: int) -> list[int]:
    """Drive seeds for one role (0 train, 1 calibration, 2 evaluation);
    the roles' ranges are disjoint and each workload seed has its own."""
    return [seed * 1000 + role * 100 + i for i in range(count)]


def _drive(track_seed: int, n_frames: int, degraded: bool):
    spec = scenario.ScenarioSpec(
        track_seed=track_seed,
        n_frames=n_frames,
        conditions=frozenset(ALL_CONDITIONS) if degraded else frozenset({"nominal"}),
        cycle_period_s=10.0,
        intensity_max=1.0,
    )
    return scenario.generate_scenario(spec)


def _nominal_pool(seeds: list[int], n_frames: int, out: Outcome):
    frames = []
    for s in seeds:
        with out.operation():
            stream, _, _ = _drive(s, n_frames, degraded=False)
            frames.extend(stream.frames)
    return reconstruct.FrameStream(frames=frames, frame_rate_hz=10.0)


def _train(pool, kind: str, epochs: int, seed: int, out: Outcome, throughput: list):
    model = None
    with out.operation():
        t0 = time.perf_counter()
        model = reconstruct.train_reconstructor(
            pool, kind, reconstruct.TrainConfig(epochs=epochs, seed=seed)
        )
        seconds = time.perf_counter() - t0
        throughput.append((len(pool) - (model.history_k or 0)) * epochs / seconds)
        losses = model.epoch_losses
        out.check(
            all(math.isfinite(x) for x in losses) and losses[-1] < losses[0],
            f"{kind}: final epoch loss {losses[-1]!r} not finite or not below "
            f"first epoch loss {losses[0]!r}",
        )
    return model


def _anchored_area(points: list[tuple[float, float]]) -> float:
    pts = sorted(points)
    return float(np.trapezoid([p[1] for p in pts], [p[0] for p in pts]))


def _reference_alarms(values: np.ndarray, start: int, theta: float, h: int) -> list[int]:
    """Independent alarm rule: a crossing outside the cooldown alarms and
    silences the next h frames."""
    alarms: list[int] = []
    quiet_until = -1
    for i in np.flatnonzero(values >= theta):
        if i > quiet_until:
            alarms.append(int(i) + start)
            quiet_until = i + h
    return alarms


# --- workloads ---------------------------------------------------------------
# setup() builds the inputs; run() is the timed phase; finish() returns the
# quality figures and a digest that must repeat exactly across processes
# with one seed; probe() runs after the timed phase in traced runs only.


class Quickstart:
    """README quick-start: `lanewatch pipeline` on a 2000-frame degraded
    drive with `sae` at 120 epochs, in a fresh working directory."""

    def __init__(self, seed: int, work: Path, out: Outcome, throughput: list):
        self.seed, self.out, self.throughput = seed, out, throughput
        self.workdir, self.config = work / "artifacts", work / "config.json"

    def setup(self):
        self.workdir.mkdir(parents=True)
        self.config.write_text(json.dumps({
            "seed": self.seed,
            "workdir": str(self.workdir),
            "scenario": {
                "n_frames": 2000,
                "conditions": list(ALL_CONDITIONS),
                "cycle_period_s": 10.0,
                "intensity_max": 1.0,
            },
            "train": {"kind": "sae", "epochs": 120},
            "epsilon": EPSILON,
        }))
        # train_samples_per_s needs the time of the training call inside
        # cli; one stopwatch around it adds microseconds to a 6 s call.
        inner, throughput = cli.train_reconstructor, self.throughput

        def timed_train(stream, kind, hyper):
            t0 = time.perf_counter()
            model = inner(stream, kind, hyper)
            throughput.append(len(stream) * hyper.epochs / (time.perf_counter() - t0))
            return model

        cli.train_reconstructor = timed_train

    def run(self):
        with self.out.operation():
            code = cli.main(["pipeline", "--config", str(self.config)])
            self.out.check(code == 0, f"pipeline exited {code}")

    def finish(self):
        digest = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.workdir.iterdir())
        }
        report = json.loads((self.workdir / "report.json").read_text())
        tpr, fpr = report["metrics"]["tpr"], report["metrics"]["fpr"]
        quality = {
            "auc_roc": report["curves"]["auc_roc"],
            "auc_pr": report["curves"]["auc_pr"],
            "youden_j": None if tpr is None or fpr is None else tpr - fpr,
        }
        return quality, digest


class Fleet:
    """Acceptance workload through the library: train `sae` on nominal
    drives in set-up; then calibrate on nominal drives, detect at theta
    and sweep thresholds on max-intensity drives."""

    def __init__(self, seed: int, work: Path, out: Outcome, throughput: list):
        self.seed, self.out, self.throughput = seed, out, throughput

    def setup(self):
        pool = _nominal_pool(_seeds(self.seed, 0, FLEET_TRAIN_DRIVES), FLEET_TRAIN_FRAMES,
                             self.out)
        self.model = _train(pool, "sae", FLEET_EPOCHS, self.seed, self.out, self.throughput)

    def _calibrate(self) -> float:
        smoothed = []
        for s in _seeds(self.seed, 1, FLEET_CALIBRATION_DRIVES):
            with self.out.operation():
                stream, _, _ = _drive(s, FLEET_CALIBRATION_FRAMES, degraded=False)
                smoothed.append(
                    smoothing.ar_filter(reconstruct.error_series(self.model, stream)).values
                )
        params = gammafit.fit_gamma_mle(np.concatenate(smoothed))
        return gammafit.estimate_threshold(params, EPSILON).theta

    def _evaluation_drives(self) -> list:
        drives = []
        for s in _seeds(self.seed, 2, FLEET_EVAL_DRIVES):
            with self.out.operation():
                stream, log, _ = _drive(s, FLEET_EVAL_FRAMES, degraded=True)
                smoothed = smoothing.ar_filter(reconstruct.error_series(self.model, stream))
                labels = {
                    r: evalkit.label_windows(log, evalkit.LabellingConfig(reaction_r=r))
                    for r in REACTION_PERIODS
                }
                drives.append((smoothed, labels))
        return drives

    def _pooled_counts(self, theta: float) -> tuple[list[int], list[list[int]]]:
        """Confusion counts at the default reaction period, summed over
        drives as the acceptance gates pool them, and each drive's alarms."""
        counts = np.zeros(4, dtype=np.int64)
        all_alarms = []
        for smoothed, labels in self.drives:
            cfg = detector.DetectorConfig(theta=theta, healing_frames_h=HEALING_H)
            alarms = detector.run_detector(smoothed, cfg)
            rep = evalkit.score_windows(labels[DEFAULT_REACTION], alarms, HEALING_H)
            counts += (rep.tp, rep.fp, rep.tn, rep.fn)
            all_alarms.append(alarms)
        return [int(c) for c in counts], all_alarms

    def run(self):
        self.theta = self._calibrate()
        self.drives = self._evaluation_drives()
        with self.out.operation():
            self.counts, self.alarms = self._pooled_counts(self.theta)
            pool = np.concatenate([smoothed.values for smoothed, _ in self.drives])
            grid = [float(q) for q in np.quantile(pool, SWEEP_QUANTILES)]
            self.aucs = []
            for r in REACTION_PERIODS:
                for smoothed, labels in self.drives:
                    sweep = evalkit.sweep_curves(labels[r], smoothed, grid, HEALING_H)
                    self.aucs += [sweep.auc_roc, sweep.auc_pr]
            self.grid_counts = [self._pooled_counts(g)[0] for g in grid]

    def finish(self):
        out = self.out
        tp, fp, tn, fn = self.counts
        windows = [w.kind for _, labels in self.drives for w in labels[DEFAULT_REACTION]]
        n_anomalous = windows.count(evalkit.WindowKind.ANOMALOUS)
        n_normal = windows.count(evalkit.WindowKind.NORMAL)
        out.check(tp + fn == n_anomalous,
                  f"TP + FN = {tp + fn}, expected {n_anomalous} anomalous windows")
        for (smoothed, _), alarms in zip(self.drives, self.alarms):
            reference = _reference_alarms(
                smoothed.values, smoothed.start_index, self.theta, HEALING_H
            )
            out.check(alarms == reference, "detector alarms differ from the reference rule")

        roc = {(gfp / (gfp + gtn), gtp / (gtp + gfn)) for gtp, gfp, gtn, gfn in self.grid_counts}
        pr = sorted((gtp / (gtp + gfn), gtp / (gtp + gfp))
                    for gtp, gfp, gtn, gfn in self.grid_counts if gtp + gfp)
        prevalence = n_anomalous / (n_anomalous + n_normal)
        auc_roc = _anchored_area(roc | {(0.0, 0.0), (1.0, 1.0)})
        auc_pr = _anchored_area([(0.0, pr[0][1] if pr else prevalence), *pr, (1.0, prevalence)])
        aucs = self.aucs + [auc_roc, auc_pr]
        out.check(all(0.0 <= a <= 1.0 for a in aucs), f"AUC outside [0, 1]: {aucs}")
        quality = {"auc_roc": auc_roc, "auc_pr": auc_pr,
                   "youden_j": tp / (tp + fn) - fp / (fp + tn)}
        return quality, {"theta": self.theta, "counts": self.counts, "aucs": aucs}


class Train:
    """Train one reconstructor kind for a fixed number of epochs on a pool
    of nominal frames built in set-up; nothing is scored."""

    def __init__(self, kind: str, seed: int, work: Path, out: Outcome, throughput: list):
        self.kind, self.seed, self.out, self.throughput = kind, seed, out, throughput

    def setup(self):
        self.pool = _nominal_pool(_seeds(self.seed, 0, POOL_DRIVES), POOL_FRAMES, self.out)

    def run(self):
        self.model = _train(self.pool, self.kind, TRAIN_EPOCHS[self.kind], self.seed,
                            self.out, self.throughput)

    def finish(self):
        return {}, {"losses": self.model.epoch_losses}

    def probe(self):
        # A forward pass at the training shapes, outside the timed phase,
        # so the trace can split a step into forward and the rest.
        reconstruct.error_series(self.model, self.pool)


WORKLOADS = {
    "quickstart": Quickstart,
    "fleet": Fleet,
    "train_dae": lambda *a: Train("dae", *a),
    "train_seq": lambda *a: Train("seq", *a),
}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import re

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spawned_at, out_dir = float(argv[3]), Path(argv[4])
    work = out_dir / f"{name}-{seed}-{os.getpid()}"
    out, throughput = Outcome(), []
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[name](seed, work, out, throughput)
    result = {}
    # The package prints progress; keep stdout for the result line.
    with contextlib.redirect_stdout(sys.stderr):
        try:
            workload.setup()
            result["setup_s"] = _now() - spawned_at
            t0 = time.perf_counter()
            workload.run()
            result["run_s"] = time.perf_counter() - t0
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["quality"], result["digest"] = workload.finish()
            if tracer and hasattr(workload, "probe"):
                workload.probe()
        except Exception as exc:  # noqa: BLE001 - an unexpected failure still reports
            out.attempted += 1
            out.failed += 1
            out.errors[type(exc).__name__] += 1
    shutil.rmtree(work, ignore_errors=True)
    result.update({
        "train_samples_per_s": throughput[0] if throughput else None,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": dict(out.errors),
        "checks": out.checks,
        "blas_threads": blas_threads(),
    })
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        (out_dir / f"spans-{name}-{seed}-{os.getpid()}.json").write_text(
            json.dumps(tracer.to_json())
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
