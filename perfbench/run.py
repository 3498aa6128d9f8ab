"""Benchmark for the lanewatch pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a closed loop, one process at a time: fresh Python
processes (child.py), at least three and until S seconds have passed,
each of which sets up once and runs the timed phase once.  Every metric
is the median over the processes.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
processes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
are a readable report.

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quickstart", "fleet", "train_dae", "train_seq")
MIN_PROCESSES = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s",
}

UNCONTROLLED = (
    "not controlled here: CPU frequency scaling, the page cache, and other "
    "tenants sharing this machine's cores and memory bandwidth"
)


def environment(seed: int, blas_threads) -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "seed": seed,
        "uncontrolled": UNCONTROLLED,
    }


def child_env() -> dict:
    """The package from this checkout's src, and one BLAS thread: on a
    two-CPU machine two threads made the small matmuls of sae and dae
    training slower (a cold dae training: 1.9 s against 1.6 s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def run_child(workload: str, seed: int, trace: bool, env: dict, timeout: float) -> dict:
    """One process in a fresh interpreter; a crash or timeout becomes a
    failed operation."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), workload, str(seed),
           "1" if trace else "0", repr(spawned_at), str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "errors": {"Timeout": 1}, "checks": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1, "failed": 1, "errors": {f"ChildExit{proc.returncode}": 1},
                "checks": [f"child failed: {tail[0]}"]}
    return json.loads(lines[-1])


def samples(results: list[dict], key: str) -> list[float]:
    return [r[key] for r in results if r.get(key) is not None]


def median(results: list[dict], key: str):
    values = samples(results, key)
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds between 1 and 60")
    if not (ROOT / "src" / "lanewatch" / "__init__.py").is_file():
        print(f"error: no lanewatch package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    # A closed loop.  With --trace 1, untraced and traced processes
    # alternate so that the overhead compares neighbours in time.
    while True:
        elapsed = time.monotonic() - start
        done = len(untraced) + len(traced)
        enough = len(traced) >= 1 if args.trace else done >= MIN_PROCESSES
        if (enough and elapsed >= args.seconds) or (
            done and elapsed * (done + 1) / done > RUN_LIMIT_S
        ):
            break
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        result = run_child(args.workload, args.seed, trace_this, env, RUN_LIMIT_S - elapsed)
        (traced if trace_this else untraced).append(result)

    results = untraced + traced
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = sum((Counter(r["errors"]) for r in results), Counter())
    checks = [c for r in results for c in r["checks"]]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            checks.append(what)

    # Every process uses one seed, so its digest (artifact hashes, or the
    # quality figures and counts) must repeat exactly.
    digests = [json.dumps(r["digest"], sort_keys=True) for r in results if "digest" in r]
    check(len(digests) >= 2, "fewer than two completed processes; repeatability unchecked")
    for d in digests[1:]:
        check(d == digests[0], "a process's outputs differ from the first process's")
    threads = {r["blas_threads"] for r in results if r.get("blas_threads") is not None}
    env_record = environment(args.seed, max(threads) if threads else None)
    check(env_record["blas_threads"] is None or env_record["blas_threads"] <= nproc,
          f"BLAS uses {env_record['blas_threads']} threads on {nproc} CPUs")

    lines = [f"# workload {args.workload}, seed {args.seed}, {len(untraced)} untraced and "
             f"{len(traced)} traced processes in {time.monotonic() - start:.1f} s"]
    lines += [f"# env {key}: {value}" for key, value in env_record.items()]
    quality = (untraced or traced or [{}])[0].get("quality") or {}
    lines += [f"# quality {key}: {value}" for key, value in quality.items()]
    metrics = {}
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced if "layers" in r)
            if any("layers" in r for r in traced) else 0.0
            for name in tracing.PER_LAYER
        }
        traced_run, untraced_run = median(traced, "run_s"), median(untraced, "run_s")
        if traced_run is not None and untraced_run is not None:
            layers["trace.overhead_s"] = traced_run - untraced_run
        traced_quality = (traced or [{}])[0].get("quality") or {}
        for key in ("auc_roc", "auc_pr", "youden_j"):
            layers[f"evalkit.{key}"] = traced_quality.get(key) or 0.0
        for name, (unit, _, how) in tracing.PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
            lines.append(f"# {name} = {layers[name]:.6g} {unit} ({how})")
    else:
        for name, unit in END_TO_END.items():
            values = samples(untraced, name)
            check(bool(values), f"no samples of {name}")
            value = statistics.median(values) if values else 0.0
            metrics[name] = {"value": value, "unit": unit}
            each = ", ".join(f"{v:.4g}" for v in values)
            lines.append(f"# {name} = {value:.6g} {unit} (median of {len(values)}: {each})")

    lines.append(f"# operations: {attempted} attempted, {failed} failed"
                 + (f"; exceptions {dict(errors)}" if errors else ""))
    lines += [f"# failed check: {c}" for c in checks]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
