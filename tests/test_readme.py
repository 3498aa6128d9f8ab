"""The README quick-start, run as written: the figures README.md prints
for it must be the ones the pipeline writes."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from lanewatch.cli import main
from lanewatch.io import read_error_csv, read_params_json

README = Path(__file__).resolve().parents[1] / "README.md"


def _claim(text: str, pattern: str) -> tuple[str, ...]:
    match = re.search(pattern, text)
    assert match, f"README.md no longer says {pattern!r}"
    return match.groups()


def test_readme_quick_start_figures(tmp_path):
    readme = README.read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1]
    doc = json.loads(re.search(r"```json\n(.*?)```", quick_start, re.S).group(1))
    doc["workdir"] = str(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["pipeline", "--config", str(config)]) == 0

    # Line breaks in the prose are spaces.
    text = " ".join(readme.split())
    theta, tp, fp, tn, fn, tpr, fpr, auc_roc, auc_pr = _claim(
        text,
        r"prints θ (\S+) and \*\*TP (\d+) FP (\d+) TN (\d+) FN (\d+)\*\* "
        r"\(TPR (\S+), FPR (\S+), AUC-ROC (\S+), AUC-PR (\S+)\)",
    )
    (share,) = _claim(text, r"(\d+)% of the evaluation drive's smoothed errors sit at or above θ")
    (alarms,) = _claim(text, r"the same θ and the same (\d+) alarms")

    _, threshold, _ = read_params_json(tmp_path / "params.json")
    assert f"{threshold.theta:.3g}" == theta
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"] == {"tp": int(tp), "fp": int(fp), "tn": int(tn), "fn": int(fn)}
    assert f"{report['metrics']['tpr']:.3f}" == tpr
    assert f"{report['metrics']['fpr']:.3f}" == fpr
    assert f"{report['curves']['auc_roc']:.3f}" == auc_roc
    assert f"{report['curves']['auc_pr']:.3f}" == auc_pr
    decisions = (tmp_path / "alarms.csv").read_text().splitlines()[1:]
    assert sum(line.endswith(",alarm") for line in decisions) == int(alarms)
    # errors.csv holds the smoothed series the detector compared with theta.
    smoothed = read_error_csv(tmp_path / "errors.csv").values
    assert f"{100 * np.mean(smoothed >= threshold.theta):.0f}" == share
