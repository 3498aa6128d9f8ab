"""End-to-end CLI runs: artifact determinism, exit codes, overrides, and
the config builder.

Everything drives main(argv) in-process; stdout/stderr go through pytest's
capture so the tests stay quiet.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lanewatch import io, reconstruct
from lanewatch.cli import COMMANDS, PipelineConfig, load_config, main
from lanewatch.detector import DetectorConfig, run_detector
from lanewatch.evalkit import (
    LabellingConfig,
    WindowKind,
    label_windows,
    sweep_curves,
    threshold_grid,
)
from lanewatch.experiment import calibrate, nominal_drive
from lanewatch.io import (
    read_error_csv,
    read_frames,
    read_labels_csv,
    read_misbehaviour_csv,
    read_model_json,
    read_params_json,
    write_curve_csv,
    write_error_csv,
    write_frames,
    write_model_json,
)
from lanewatch.reconstruct import (
    SCORE_BLOCK_ROWS,
    Activation,
    ErrorSeries,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
    TrainConfig,
    error_series,
    train_reconstructor,
)
from lanewatch.scenario import MisbehaviourLog, ScenarioSpec, generate_scenario
from lanewatch.smoothing import ArFilterConfig, ar_filter

ARTIFACTS = [
    "frames.frm1", "train.frm1", "calibration.frm1", "model.bin", "params.json", "errors.csv",
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
    # Trained and calibrated on nominal drives only, the detector flags the
    # drive's misbehaviour.
    assert report["counts"]["tp"] >= 1
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


def test_nominal_artifacts_do_not_depend_on_the_evaluation_conditions(pipeline_dir, tmp_path):
    # train and fit read only the nominal drives, so what they write is the
    # same whatever conditions the evaluation drive is simulated under.
    work_a, _ = pipeline_dir
    work_n = tmp_path / "out"
    work_n.mkdir()
    doc = _config_doc(work_n)
    doc["scenario"]["conditions"] = ["nominal"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for command in ("simulate", "train", "fit"):
        assert main([command, "--config", str(config)]) == 0, command
    assert (work_a / "frames.frm1").read_bytes() != (work_n / "frames.frm1").read_bytes()
    for name in ("model.bin", "params.json", "train.frm1", "calibration.frm1"):
        assert (work_a / name).read_bytes() == (work_n / name).read_bytes(), name


def test_cli_and_library_score_alike(tmp_path):
    # FRM1 and the library's frames are both float32, so the CLI's smoothed
    # errors equal the library's for the same drive, to the last bit.
    work = tmp_path / "out"
    work.mkdir()
    config = _write_config(tmp_path, "config.json", work)
    for command in ("simulate", "train", "fit"):
        assert main([command, "--config", str(config)]) == 0, command
    cfg = load_config(str(config), argparse.Namespace())
    cli = read_error_csv(work / "errors.csv")
    raw = error_series(read_model_json(work / "model.bin"), generate_scenario(cfg.scenario)[0])
    library = ar_filter(raw, cfg.ar)
    assert cli.start_index == library.start_index
    np.testing.assert_array_equal(cli.values, library.values)


@pytest.mark.parametrize("kind", ["seq", "dae"])
def test_fit_scores_the_frame_file_like_the_whole_stream(tmp_path, monkeypatch, kind):
    # 2 x 256 + 5 frames: three scoring blocks, which for seq overlap by
    # history_k frames.
    work = tmp_path / "out"
    work.mkdir()
    doc = _config_doc(work)
    doc["scenario"]["n_frames"] = 2 * SCORE_BLOCK_ROWS + 5
    doc["train"] = {"kind": kind, "epochs": 2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    reads = []

    def counted_read(*args, **kwargs):
        reads.append(args)
        return read_frames(*args, **kwargs)

    monkeypatch.setattr(io, "read_frames", counted_read)
    assert main(["pipeline", "--config", str(config)]) == 0
    # train reads the drive whole; fit reads it block by block.
    assert len(reads) == 1
    whole = error_series(read_model_json(work / "model.bin"), read_frames(work / "frames.frm1"))
    write_error_csv(tmp_path / "whole.csv", ar_filter(whole))
    assert (work / "errors.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_fit_writes_the_errors_smoothed_like_its_calibration(pipeline_dir, tmp_path):
    # fit smooths the evaluation drive with the filter theta was calibrated
    # on, so errors.csv holds what detect and eval compare with theta.
    work, _ = pipeline_dir
    for name in ("frames.frm1", "calibration.frm1", "model.bin"):
        (tmp_path / name).write_bytes((work / name).read_bytes())
    config = _write_config(tmp_path, "config.json", tmp_path)
    assert main(["fit", "--config", str(config), "--ar-k", "3"]) == 0
    model, ar = read_model_json(tmp_path / "model.bin"), ArFilterConfig(order_k=3)
    expected = ar_filter(error_series(model, read_frames(tmp_path / "frames.frm1")), ar)
    written = read_error_csv(tmp_path / "errors.csv")
    assert written.start_index == expected.start_index
    np.testing.assert_array_equal(written.values, expected.values)
    params, _ = calibrate(model, [read_frames(tmp_path / "calibration.frm1")], ar)
    assert read_params_json(tmp_path / "params.json")[0] == params
    # The default k = 10 smooths differently, so the check bites.
    assert not np.array_equal(written.values, read_error_csv(work / "errors.csv").values)


def test_nominal_drives_are_not_the_evaluation_drive_at_seed_0(tmp_path):
    # The training drive sits at track seed 1000·s + 1, so at the default
    # s = 0 it is not the evaluation drive's own track.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path),
                                  "scenario": {"n_frames": 300, "conditions": ["nominal"]}}))
    assert main(["simulate", "--config", str(config)]) == 0
    names = ("frames.frm1", "train.frm1", "calibration.frm1")
    assert len({(tmp_path / name).read_bytes() for name in names}) == 3
    np.testing.assert_array_equal(read_frames(tmp_path / "train.frm1").frames,
                                  nominal_drive(1, 300).frames)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
def test_fit_peak_rss_stays_below_the_drive(tmp_path):
    # tracemalloc cannot see read_frames' anonymous mmap, so fit's memory is
    # read as the growth of its process's peak RSS (VmHWM) across the call,
    # in a fresh process with one BLAS thread.  A forked child's ru_maxrss
    # starts at its parent's RSS, which would hide the growth.  One product
    # first touches OpenBLAS's buffer, a cost of the process, not of fit.
    work = tmp_path / "out"
    work.mkdir()
    stream = FrameStream(
        frames=np.random.default_rng(24).random((4000, 32, 32, 1)), frame_rate_hz=10.0
    )
    # fit scores the calibration drive, then the evaluation drive.
    for name in ("frames.frm1", "calibration.frm1"):
        write_frames(work / name, stream)
    drive_bytes = stream.frames.nbytes  # one float32 copy of the drive, 16.4 MB
    model = train_reconstructor(FrameStream(frames=stream.frames[:40]), "sae",
                                TrainConfig(epochs=0))
    write_model_json(work / "model.bin", model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(work)}))
    script = """
import sys
import numpy as np
from lanewatch.cli import main
def peak_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
np.ones((257, 1024)) @ np.ones((1024, 32))
before = peak_kib()
code = main(["fit", "--config", sys.argv[1]])
print(code, peak_kib() - before)
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script, str(config)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    code, growth_kib = map(int, out.stdout.splitlines()[-1].split())
    assert code == 0
    # The share of the stream test_error_series_memory_does_not_grow_with_
    # the_stream allows; fit reading the whole drive through read_frames
    # grew the peak by about 20 MiB.
    assert growth_kib * 1024 < 0.6 * drive_bytes


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


def _copy_inputs(src, dst):
    # What detect and eval read.
    for name in ("errors.csv", "params.json", "misbehaviour.csv"):
        (dst / name).write_bytes((src / name).read_bytes())


def test_labelling_healing_h_drives_detect_and_eval(pipeline_dir, tmp_path):
    # labelling.healing_h is the one cooldown: detect, eval at theta and
    # the sweep must all run the detector with it.
    work, _ = pipeline_dir
    _copy_inputs(work, tmp_path)
    doc = _config_doc(tmp_path)
    doc["labelling"] = {"healing_h": 20}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["detect", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config)]) == 0

    smoothed = read_error_csv(tmp_path / "errors.csv")
    _, threshold, _ = read_params_json(tmp_path / "params.json")
    theta = threshold.theta
    expected = run_detector(smoothed, DetectorConfig(theta=theta, healing_frames_h=20))
    # At the default h = 60 this drive gives fewer alarms, so the check bites.
    assert expected != run_detector(smoothed, DetectorConfig(theta=theta))
    rows = [line.split(",") for line in (tmp_path / "alarms.csv").read_text().splitlines()[1:]]
    assert [int(i) for i, decision in rows if decision == "alarm"] == expected

    labels = label_windows(read_misbehaviour_csv(tmp_path / "misbehaviour.csv"),
                           LabellingConfig(healing_h=20))
    sweep = sweep_curves(labels, smoothed, threshold_grid(smoothed.values), h=20)
    write_curve_csv(tmp_path / "expected_roc.csv", "threshold,fpr,tpr", sweep.roc_rows)
    assert (tmp_path / "roc.csv").read_bytes() == (tmp_path / "expected_roc.csv").read_bytes()


def test_eval_without_sweep_empties_the_curve_files(pipeline_dir, tmp_path):
    # A drive without misbehaviours has no anomalous window, so there is no
    # sweep; the curves of the degraded drive evaluated before must not be
    # left beside its report.
    work, _ = pipeline_dir
    _copy_inputs(work, tmp_path)
    config = _write_config(tmp_path, "config.json", tmp_path)
    assert main(["eval", "--config", str(config)]) == 0
    assert len((tmp_path / "roc.csv").read_text().splitlines()) > 1
    n_frames = len(read_misbehaviour_csv(tmp_path / "misbehaviour.csv"))
    io.write_misbehaviour_csv(tmp_path / "misbehaviour.csv",
                              MisbehaviourLog(flags=np.zeros(n_frames, dtype=bool)))
    assert main(["eval", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["curves"]["auc_roc"] is None
    assert (tmp_path / "roc.csv").read_text() == "threshold,fpr,tpr\n"
    assert (tmp_path / "pr.csv").read_text() == "threshold,recall,precision\n"


def test_eval_exits_2_when_errors_and_log_cover_different_frames(pipeline_dir, tmp_path, capsys):
    work, _ = pipeline_dir
    _copy_inputs(work, tmp_path)
    config = _write_config(tmp_path, "config.json", tmp_path)
    log = read_misbehaviour_csv(tmp_path / "misbehaviour.csv")
    smoothed = read_error_csv(tmp_path / "errors.csv")
    # A series that starts late, as seq's does at its history length,
    # still covers the log when it runs to its last frame.
    write_error_csv(tmp_path / "errors.csv",
                    ErrorSeries(values=smoothed.values[3:], start_index=3))
    assert main(["eval", "--config", str(config)]) == 0
    # A log simulated at another length than the one fit scored.
    for flags in (np.concatenate([log.flags, np.zeros(500, dtype=bool)]), log.flags[:-1]):
        io.write_misbehaviour_csv(tmp_path / "misbehaviour.csv", MisbehaviourLog(flags=flags))
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "errors.csv" in err and "misbehaviour.csv" in err and "rerun fit" in err


def test_eval_line_counts_scored_windows(pipeline_dir, capsys):
    # Reaction and healing windows are labelled but never scored, so the
    # line reports both totals.
    work, config = pipeline_dir
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 0
    labelling = load_config(str(config), argparse.Namespace()).labelling
    kinds = [w.kind for w in label_windows(read_misbehaviour_csv(work / "misbehaviour.csv"),
                                           labelling)]
    scored = kinds.count(WindowKind.ANOMALOUS) + kinds.count(WindowKind.NORMAL)
    assert 0 < scored < len(kinds)
    counts = json.loads((work / "report.json").read_text())["counts"]
    assert sum(counts.values()) <= scored
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith(
        f"eval: {scored} scored (anomalous + normal) of {len(kinds)} labelled windows, "
        f"TP {counts['tp']} FP {counts['fp']} TN {counts['tn']} FN {counts['fn']}, "
    )


# ----------------------------------------------------------- config builder

def test_config_document_and_flags_build_one_config(tmp_path):
    doc = {
        "seed": 3,
        "workdir": "out",
        "paths": {"model": "m.json"},
        "scenario": {"n_frames": 50.0, "frame_rate_hz": 20, "conditions": ["rain"]},
        "train": {"kind": "dae", "hidden_sizes": [8, 4, 8], "epochs": 2.0},
        "epsilon": 0.2,
        "ar_k": 4,
        "labelling": {"window_a": 10.0},
        "thresholds": [1, 0.5],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    expected = PipelineConfig(
        workdir=Path("out"),
        files={**PipelineConfig().files, "model": "m.json"},
        scenario=ScenarioSpec(track_seed=3, n_frames=50, frame_rate_hz=20.0,
                              conditions=frozenset({"rain"})),
        train_kind=ReconstructorKind.DAE,
        train=TrainConfig(hidden_sizes=(8, 4, 8), epochs=2, seed=3),
        epsilon=0.2,
        ar=ArFilterConfig(order_k=4),
        labelling=LabellingConfig(window_a=10),
        thresholds=[1.0, 0.5],
    )
    cfg = load_config(str(config), argparse.Namespace())
    assert cfg == expected
    assert type(cfg.train.epochs) is int
    # Flags win over the file.
    flags = argparse.Namespace(epsilon=0.1, ar_k=2, thresholds="0.3,")
    flagged = load_config(str(config), flags)
    assert (flagged.epsilon, flagged.ar, flagged.thresholds) == (
        0.1, ArFilterConfig(order_k=2), [0.3]
    )
    assert load_config(None, argparse.Namespace()) == PipelineConfig()


def test_seed_flag_sets_every_seed(tmp_path):
    # --seed sets the two seeds the top-level seed fills in, even where the
    # file sets them.
    doc = _config_doc(tmp_path)
    doc["scenario"].update(track_seed=5, n_frames=30)
    doc["train"]["seed"] = 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    cfg = load_config(str(config), argparse.Namespace(seed=7))
    assert (cfg.scenario.track_seed, cfg.train.seed) == (7, 7)

    assert main(["simulate", "--config", str(config), "--seed", "7"]) == 0
    flagged = (tmp_path / "frames.frm1").read_bytes()
    for track_seed in (7, 5):
        doc["scenario"]["track_seed"] = track_seed
        config.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config)]) == 0
        same = (tmp_path / "frames.frm1").read_bytes() == flagged
        assert same is (track_seed == 7), track_seed


def test_unused_top_level_seed_is_still_checked(tmp_path):
    # Both seeds it would fill in are set, but a malformed seed is an error.
    doc = {"seed": "x", "scenario": {"track_seed": 1}, "train": {"seed": 1}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_reaction_flag_merges_into_the_document(tmp_path):
    # One period overrides the labelling; a list is eval's sweep.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"labelling": {"reaction_r": 30}}))
    single = load_config(str(config), argparse.Namespace(reaction_r="25"))
    assert (single.labelling.reaction_r, single.reaction_sweep) == (25, None)
    swept = load_config(str(config), argparse.Namespace(reaction_r="10,70,"))
    assert (swept.labelling.reaction_r, swept.reaction_sweep) == (30, [10, 70])


@pytest.mark.parametrize(
    "command, raw, message",
    [
        ("eval", "10,x", "bad reaction period list '10,x'"),
        ("eval", "10,0", "reaction periods must be positive integers, got '10,0'"),
        ("label", ",", "reaction periods must be positive integers, got ','"),
        ("label", "-5", "reaction periods must be positive integers, got '-5'"),
        ("label", "10,30", "label takes a single --reaction-r value"),
    ],
)
def test_bad_reaction_list_exits_2(tmp_path, capsys, command, raw, message):
    config = _write_config(tmp_path, "config.json", tmp_path)
    assert main([command, "--config", str(config), "--reaction-r", raw]) == 2
    assert message in capsys.readouterr().err


def test_bad_thresholds_flag_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, "config.json", tmp_path)
    assert main(["eval", "--config", str(config), "--thresholds", "0.1,abc"]) == 2
    err = capsys.readouterr().err
    assert "thresholds: could not convert string to float: 'abc' in '0.1,abc'" in err
    assert main(["eval", "--config", str(config), "--thresholds", "0.1,0"]) == 2
    assert "thresholds[1] must be positive, got 0.0" in capsys.readouterr().err


def test_float_train_fields_are_cast(tmp_path):
    doc = _config_doc(tmp_path)
    doc["scenario"]["n_frames"] = 30.0
    doc["train"].update(epochs=2.0, batch_size=8.0, seed=1.0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "epochs", 2.5),
        ("train", "batch_size", 8.5),
        ("scenario", "n_frames", 99.9),
        ("labelling", "reaction_r", 25.5),
        (None, "seed", 1.5),
        (None, "ar_k", 10.5),
        # A boolean or a string is not read as an integer either.
        ("train", "epochs", True),
        (None, "seed", "5"),
        ("scenario", "n_frames", "30"),
    ],
)
def test_fractional_int_field_exits_2(tmp_path, capsys, section, key, value):
    # Truncating would silently train 2 epochs for 2.5 or simulate 99
    # frames for 99.9.
    doc = _config_doc(tmp_path)
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"{name} must be an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("scenario", {"bogus": 1}, "unknown scenario fields: ['bogus']",
                     id="unknown-scenario-field"),
        pytest.param("train", {"learning_rate": 1.0},
                     "unknown train fields: ['learning_rate']", id="learning-rate"),
        pytest.param("labelling", {"healing": 1}, "unknown labelling fields: ['healing']",
                     id="unknown-labelling-field"),
        pytest.param("paths", {"alarm": "a.csv"}, "unknown paths fields: ['alarm']",
                     id="unknown-path"),
        pytest.param("paths", [], "paths must be a JSON object", id="paths-list"),
        pytest.param("train", 5, "train must be a JSON object", id="train-number"),
        pytest.param("scenario", None, "scenario must be a JSON object", id="scenario-null"),
        pytest.param("labelling", "healing_h=20", "labelling must be a JSON object",
                     id="labelling-string"),
        pytest.param("train", {"epochs": None}, "error: ", id="epochs-null"),
        pytest.param("epsilon", 1.0, "epsilon must lie in (0, 1)", id="epsilon-range"),
        pytest.param("ar_k", 0, "filter order must be at least 1", id="ar-k-range"),
        pytest.param("thresholds", [], "threshold list is empty", id="thresholds-empty"),
        pytest.param("seed", "x", "error: ", id="seed-string"),
        # A string would be swept or trained as its characters.
        pytest.param("thresholds", "12", "thresholds must be a JSON array, got '12'",
                     id="thresholds-string"),
        pytest.param("train", {"kind": "dae", "hidden_sizes": "642"},
                     "train.hidden_sizes must be a JSON array, got '642'",
                     id="hidden-sizes-string"),
        pytest.param("train", {"hidden_sizes": [32.7]},
                     "train.hidden_sizes[0] must be an integer, got 32.7",
                     id="hidden-size-fractional"),
        pytest.param("train", {"hidden_sizes": [True]},
                     "train.hidden_sizes[0] must be an integer, got True",
                     id="hidden-size-boolean"),
        # The sweep comes from --reaction-r only; the file sets labelling.reaction_r.
        pytest.param("reaction_sweep", [25], "unknown config fields: ['reaction_sweep']",
                     id="reaction-sweep-key"),
        # An object would be read as its keys, a string as its characters.
        pytest.param("scenario", {"conditions": {"fog": 1}},
                     "scenario.conditions must be a JSON array, got {'fog': 1}",
                     id="conditions-object"),
        pytest.param("scenario", {"conditions": "fog"},
                     "scenario.conditions must be a JSON array, got 'fog'",
                     id="conditions-string"),
        # A null or a number is not a file name.
        pytest.param("paths", {"frames": None, "misbehaviour": 5},
                     "paths.frames must be a JSON string, got None", id="paths-null"),
        # A number field takes no string or boolean, and no int beyond a float.
        pytest.param("epsilon", "0.05", "epsilon must be a number, got '0.05'",
                     id="epsilon-string"),
        pytest.param("epsilon", 10**400, "epsilon is too large for a float",
                     id="epsilon-huge-int"),
        pytest.param("scenario", {"frame_rate_hz": True},
                     "scenario.frame_rate_hz must be a number, got True",
                     id="frame-rate-boolean"),
        # inf passes "> 0": it would run a cycle that never leaves intensity 0.
        pytest.param("scenario", {"conditions": ["rain", "fog"], "cycle_period_s": float("inf")},
                     "scenario.cycle_period_s must be finite, got inf", id="cycle-period-inf"),
        pytest.param("scenario", {"intensity_max": "1"},
                     "scenario.intensity_max must be a number, got '1'",
                     id="intensity-max-string"),
        pytest.param("thresholds", [True, 0.5], "thresholds[0] must be a number, got True",
                     id="threshold-boolean"),
        pytest.param("thresholds", ["0.5"], "thresholds[0] must be a number, got '0.5'",
                     id="threshold-string"),
        # A sweep threshold is checked when the config loads, not by eval.
        pytest.param("thresholds", [-0.1, 0.002], "thresholds[0] must be positive, got -0.1",
                     id="threshold-negative"),
        pytest.param("thresholds", [0.002, 0], "thresholds[1] must be positive, got 0.0",
                     id="threshold-zero"),
        # theta would be calibrated on the drive the model was trained on.
        pytest.param("paths", {"calibration": "train.frm1"},
                     "paths.train and paths.calibration name the same file 'train.frm1'",
                     id="paths-shared"),
        pytest.param("paths", {"report": "sub/../alarms.csv"},
                     "paths.alarms and paths.report name the same file 'sub/../alarms.csv'",
                     id="paths-shared-normalised"),
        # A workdir is a path, not a number or null.
        pytest.param("workdir", 5, "workdir must be a JSON string, got 5", id="workdir-number"),
        pytest.param("workdir", None, "workdir must be a JSON string, got None",
                     id="workdir-null"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, key, value, message):
    doc = _config_doc(tmp_path)
    doc[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


# --------------------------------------------------------------- exit codes

def test_unknown_config_field_exits_2(tmp_path):
    doc = _config_doc(tmp_path)
    doc["verbosity"] = 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config)]) == 2


def test_top_level_healing_h_exits_2(tmp_path, capsys):
    # The cooldown is set under "labelling" only.
    doc = _config_doc(tmp_path)
    doc["healing_h"] = 20
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["detect", "--config", str(config)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


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


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_error_exits_2(pipeline_dir, tmp_path, capsys, cell):
    work, _ = pipeline_dir
    _copy_inputs(work, tmp_path)
    errors = (tmp_path / "errors.csv").read_text().splitlines()
    index, _ = errors[200].split(",")
    errors[200] = f"{index},{cell}"
    (tmp_path / "errors.csv").write_text("\n".join(errors) + "\n")
    config = _write_config(tmp_path, "config.json", tmp_path)
    for command in ("detect", "eval"):
        assert main([command, "--config", str(config)]) == 2, command
        assert "errors.csv" in capsys.readouterr().err, command


def test_raw_error_header_exits_2(pipeline_dir, tmp_path, capsys):
    # An errors.csv written before fit smoothed the series holds raw errors
    # under the old header; it is refused rather than compared with theta.
    work, _ = pipeline_dir
    _copy_inputs(work, tmp_path)
    errors = (tmp_path / "errors.csv").read_text().splitlines()
    errors[0] = "frame_index,error"
    (tmp_path / "errors.csv").write_text("\n".join(errors) + "\n")
    config = _write_config(tmp_path, "config.json", tmp_path)
    for command in ("detect", "eval"):
        assert main([command, "--config", str(config)]) == 2, command
        err = capsys.readouterr().err
        assert "header 'frame_index,error', expected 'frame_index,smoothed_error'" in err, command


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


_SUBCOMMAND_FLAGS = {
    "simulate": {"--seed"},
    "train": {"--seed"},
    "fit": {"--epsilon", "--ar-k"},
    "detect": set(),
    "label": {"--reaction-r"},
    "eval": {"--reaction-r", "--thresholds"},
    "pipeline": {"--seed", "--epsilon", "--ar-k"},
}


@pytest.mark.parametrize("command", list(_SUBCOMMAND_FLAGS))
def test_each_subcommand_takes_its_flags(command, capsys):
    assert list(COMMANDS) == list(_SUBCOMMAND_FLAGS)
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == {"--config", *_SUBCOMMAND_FLAGS[command]}


@pytest.mark.parametrize(
    "argv",
    [["train", "--epsilon", "0.1"], ["simulate", "--ar-k", "5"], ["detect", "--seed", "1"],
     ["label", "--thresholds", "0.1"], ["pipeline", "--reaction-r", "10"],
     ["detect", "--ar-k", "3"], ["eval", "--ar-k", "3"]],
)
def test_flag_outside_the_subcommand_exits_2(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


def test_constant_errors_exit_3(tmp_path):
    # Identical frames plus an all-zero model give a constant error series;
    # the distribution fit must refuse it and the CLI must say so with a
    # numerical-error exit, not a crash.
    stream = FrameStream(frames=np.full((12, 2, 2, 1), 0.5), frame_rate_hz=10.0)
    for name in ("frames.frm1", "calibration.frm1"):
        write_frames(tmp_path / name, stream)
    model = ReconstructorModel(
        kind=ReconstructorKind.SAE,
        layer_sizes=[4, 2, 4],
        weights=[np.zeros((2, 4)), np.zeros((4, 2))],
        biases=[np.zeros(2), np.zeros(4)],
        activation=Activation.RELU,
        history_k=None,
    )
    write_model_json(tmp_path / "model.bin", model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path)}))
    assert main(["fit", "--config", str(config)]) == 3


def test_json_text_model_exits_2(tmp_path, capsys):
    # Models used to be written as JSON text; such a file is not read.
    write_frames(tmp_path / "frames.frm1",
                 FrameStream(frames=np.full((12, 2, 2, 1), 0.5), frame_rate_hz=10.0))
    (tmp_path / "model.bin").write_text('{"kind": "sae", "layer_sizes": [4, 2, 4]}\n')
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path)}))
    assert main(["fit", "--config", str(config)]) == 2
    assert "bad magic b'{\"ki', expected b'LWM1' (byte offset 0)" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_exits_3_without_a_model(tmp_path, monkeypatch, capsys):
    # At a learning rate of 1e40 one batch leaves non-finite weights.
    monkeypatch.setitem(reconstruct._DEFAULT_LEARNING_RATE, ReconstructorKind.SAE, 1e40)
    frames = np.random.default_rng(0).random((64, 4, 4, 1))
    write_frames(tmp_path / "train.frm1", FrameStream(frames=frames))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path),
                                  "train": {"epochs": 1, "batch_size": 64}}))
    assert main(["train", "--config", str(config)]) == 3
    assert "sae training diverged" in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()
