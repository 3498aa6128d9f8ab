"""Smoke runs of the experiment drivers in scripts/ with tiny arguments.

Each script is loaded from its file and its main(argv) called in-process;
the run must finish with exit 0 and print its table header.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,argv,header",
    [
        (
            "calibration_study.py",
            ["--train-seeds", "2", "--calibration-seeds", "2", "--heldout-seeds", "2"],
            ["epsilon", "theta", "measured", "FPR", "windows"],
        ),
        (
            "reaction_sweep.py",
            ["--eval-seeds", "2", "--eval-frames", "600", "--reaction-rs", "10,50",
             "--grid-size", "6"],
            ["r", "AUC-ROC", "AUC-PR", "TPR@eps", "FPR@eps"],
        ),
        (
            "intensity_dose_response.py",
            ["--seeds", "2", "--frames", "200", "--intensities", "0.0,1.0"],
            ["peak", "mean/drive", "min", "max"],
        ),
    ],
)
def test_script_runs(script, argv, header, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert header in [line.split() for line in lines]
