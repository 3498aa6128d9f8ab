"""End-to-end CLI runs: artifact determinism, exit codes, overrides.

Everything drives main(argv) in-process; stdout/stderr go through pytest's
capture so the tests stay quiet.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from lanewatch.cli import main
from lanewatch.io import read_labels_csv, write_frames, write_model_json
from lanewatch.evalkit import WindowKind
from lanewatch.reconstruct import (
    Activation,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
)

ARTIFACTS = [
    "frames.frm1", "model.json", "params.json", "errors.csv",
    "misbehaviour.csv", "intensity.csv", "alarms.csv",
    "report.json", "roc.csv", "pr.csv",
]


def _config_doc(workdir):
    # 400 combined-condition frames at seed 10 give one misbehaviour around
    # frame 217, so the evaluation has both window kinds to score.
    return {
        "seed": 10,
        "workdir": str(workdir),
        "scenario": {
            "n_frames": 400,
            "conditions": ["day_night_cycle", "rain", "snow", "fog"],
            "cycle_period_s": 10.0,
            "intensity_max": 1.0,
        },
        "train": {"kind": "sae", "epochs": 8},
    }


def _write_config(tmp_path, name, workdir):
    path = tmp_path / name
    path.write_text(json.dumps(_config_doc(workdir)) + "\n")
    return path


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    work = tmp / "out"
    work.mkdir()
    config = _write_config(tmp, "config.json", work)
    assert main(["pipeline", "--config", str(config)]) == 0
    return work, config


def test_pipeline_produces_all_artifacts(pipeline_dir):
    work, _ = pipeline_dir
    for name in ARTIFACTS:
        assert (work / name).is_file(), name
    report = json.loads((work / "report.json").read_text())
    assert set(report["counts"]) == {"tp", "fp", "tn", "fn"}
    assert report["counts"]["tp"] + report["counts"]["fn"] >= 1
    assert report["theta"] > 0.0
    assert report["epsilon"] == 0.05


def test_pipeline_rerun_is_byte_identical(pipeline_dir, tmp_path):
    work_a, _ = pipeline_dir
    work_b = tmp_path / "out"
    work_b.mkdir()
    config = _write_config(tmp_path, "config.json", work_b)
    assert main(["pipeline", "--config", str(config)]) == 0
    for name in ARTIFACTS:
        assert (work_a / name).read_bytes() == (work_b / name).read_bytes(), name


def test_stepwise_matches_pipeline(pipeline_dir, tmp_path):
    work_a, _ = pipeline_dir
    work_c = tmp_path / "out"
    work_c.mkdir()
    config = _write_config(tmp_path, "config.json", work_c)
    for command in ("simulate", "train", "fit", "detect", "eval"):
        assert main([command, "--config", str(config)]) == 0, command
    for name in ARTIFACTS:
        assert (work_a / name).read_bytes() == (work_c / name).read_bytes(), name


def test_label_reaction_override(pipeline_dir):
    work, config = pipeline_dir
    assert main(["label", "--config", str(config), "--reaction-r", "25"]) == 0
    labels = read_labels_csv(work / "labels.csv")
    reactions = [w for w in labels if w.kind is WindowKind.REACTION]
    assert reactions and all(w.length == 25 for w in reactions)


def test_label_rejects_reaction_list(pipeline_dir):
    _, config = pipeline_dir
    assert main(["label", "--config", str(config), "--reaction-r", "10,30"]) == 2


def test_eval_reaction_sweep_lands_in_report(pipeline_dir):
    work, config = pipeline_dir
    assert main(["eval", "--config", str(config), "--reaction-r", "10,30,50,70"]) == 0
    report = json.loads((work / "report.json").read_text())
    sweep = report["reaction_sweep"]
    assert [row["reaction_r"] for row in sweep] == [10, 30, 50, 70]
    for row in sweep:
        assert set(row["counts"]) == {"tp", "fp", "tn", "fn"}
        if row["auc_pr"] is not None:
            assert 0.0 <= row["auc_pr"] <= 1.0
    # Restore the single-r report for any test that runs after this one.
    assert main(["eval", "--config", str(config)]) == 0


def test_eval_explicit_thresholds(pipeline_dir, tmp_path):
    work, config = pipeline_dir
    assert main(["eval", "--config", str(config), "--thresholds", "0.001,0.01"]) == 0
    lines = (work / "roc.csv").read_text().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 3
    assert main(["eval", "--config", str(config)]) == 0


# --------------------------------------------------------------- exit codes

def test_unknown_config_field_exits_2(tmp_path):
    doc = _config_doc(tmp_path)
    doc["verbosity"] = 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_invalid_json_config_exits_2(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    assert main(["simulate", "--config", str(config)]) == 2


def test_missing_input_file_exits_2(tmp_path):
    config = _write_config(tmp_path, "config.json", tmp_path)
    assert main(["train", "--config", str(config)]) == 2


def test_bad_epsilon_flag_exits_2(pipeline_dir):
    _, config = pipeline_dir
    assert main(["fit", "--config", str(config), "--epsilon", "1.5"]) == 2


def test_missing_workdir_exits_2(tmp_path):
    config = _write_config(tmp_path, "config.json", tmp_path / "nope")
    assert main(["simulate", "--config", str(config)]) == 2


def test_null_sample_count_exits_2(pipeline_dir, tmp_path, capsys):
    # detect reads errors.csv and params.json; only params.json is bad.
    work, _ = pipeline_dir
    (tmp_path / "errors.csv").write_bytes((work / "errors.csv").read_bytes())
    params = json.loads((work / "params.json").read_text())
    params["sample_count"] = None
    (tmp_path / "params.json").write_text(json.dumps(params))
    config = _write_config(tmp_path, "config.json", tmp_path)
    assert main(["detect", "--config", str(config)]) == 2
    assert "params.json" in capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_constant_errors_exit_3(tmp_path):
    # Identical frames plus an all-zero model give a constant error series;
    # the distribution fit must refuse it and the CLI must say so with a
    # numerical-error exit, not a crash.
    write_frames(tmp_path / "frames.frm1",
                 FrameStream(frames=np.full((12, 2, 2, 1), 0.5), frame_rate_hz=10.0))
    model = ReconstructorModel(
        kind=ReconstructorKind.SAE,
        layer_sizes=[4, 2, 4],
        weights=[np.zeros((2, 4)), np.zeros((4, 2))],
        biases=[np.zeros(2), np.zeros(4)],
        activation=Activation.RELU,
        history_k=None,
    )
    write_model_json(tmp_path / "model.json", model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path)}))
    assert main(["fit", "--config", str(config)]) == 3
