"""Static check: every package name the benchmark uses still exists.

The benchmark under `perfbench/` drives the package by name: the tracer
patches the functions listed in `tracing.TARGETS`, and the workloads in
`child.py` call module attributes with keyword arguments and patch
`cli.train_reconstructor`.  Renaming or deleting one of those names breaks
a workload or `--trace 1` without failing any other test.  This module
reads `perfbench/` and changes nothing there.
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from lanewatch import cli, detector, evalkit, io, reconstruct
from lanewatch.gammafit import GammaParams, ThresholdSpec
from lanewatch.io import write_frames
from lanewatch.reconstruct import (
    Activation,
    ErrorSeries,
    FrameStream,
    ReconstructorKind,
    ReconstructorModel,
    train_reconstructor,
)
from lanewatch.scenario import MisbehaviourLog

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


@functools.cache
def _tracing():
    # Registered before it runs: its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules(tree: ast.Module) -> dict[str, object]:
    """Names bound by `from lanewatch import ...`, mapped to the modules."""
    return {
        alias.asname or alias.name: importlib.import_module(f"lanewatch.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lanewatch"
        for alias in node.names
    }


def _dotted(node: ast.Attribute) -> list[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _uses(tree: ast.Module, modules: dict) -> list[tuple[str, object, list[str]]]:
    """(dotted name, resolved object or None, keyword names) for every
    outermost attribute chain that starts at a package module."""
    keywords = {
        id(node.func): [k.arg for k in node.keywords if k.arg is not None]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    inner = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = _dotted(node)
        if parts[0] not in modules:
            continue
        obj = modules[parts[0]]
        for attr in parts[1:]:
            obj = getattr(obj, attr, None)
        found.append((".".join(parts), obj, keywords.get(id(node), [])))
    return found


def test_tracing_targets_resolve():
    targets = _tracing().TARGETS
    assert targets
    for module_name, fn_name, _, _ in targets:
        module = importlib.import_module(f"lanewatch.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_tracing_keyword_lookups_match_signatures():
    # The span attribute extractors read these arguments by keyword name.
    params = inspect.signature(train_reconstructor).parameters
    assert list(params)[2] == "hyper"
    for module_name, fn_name, span, _ in _tracing().TARGETS:
        if span.startswith("io.") and span.endswith(("_frames", "_model_json")):
            fn = getattr(importlib.import_module(f"lanewatch.{module_name}"), fn_name)
            assert next(iter(inspect.signature(fn).parameters)) == "path", fn_name


def test_child_attributes_and_keywords_resolve():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    modules = _package_modules(tree)
    assert {"cli", "reconstruct", "evalkit"} <= set(modules)
    uses = _uses(tree, modules)
    assert any(name == "cli.train_reconstructor" for name, _, _ in uses)
    for name, obj, keywords in uses:
        assert obj is not None, f"{name} does not exist"
        if keywords:
            params = inspect.signature(obj).parameters
            missing = [k for k in keywords if k not in params]
            assert not missing, f"{name} takes no {missing}"


def _quickstart_config_doc() -> dict:
    """The config the quickstart workload writes, evaluated from the dict
    literal in child.py with stand-ins for the workload's own values."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    constants = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("ALL_CONDITIONS", "EPSILON")
    }
    literal = next(
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and _dotted(node.func) == ["json", "dumps"]
        and node.args
        and isinstance(node.args[0], ast.Dict)
    )
    workload = argparse.Namespace(seed=1, workdir="artifacts")
    namespace = {**constants, "self": workload, "str": str, "list": list}
    return eval(compile(ast.Expression(literal), str(CHILD), "eval"), namespace)


def test_quickstart_config_loads(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_quickstart_config_doc()))
    cfg = cli.load_config(str(config), argparse.Namespace())
    assert cfg.train_kind is ReconstructorKind.SAE


def test_child_inputs_construct(monkeypatch):
    # A constructor that rejects a value child.py passes fails a workload
    # only in a benchmark run; these are the values it passes.
    monkeypatch.setitem(sys.modules, "tracing", _tracing())
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for degraded in (True, False):
        stream, log, _ = child._drive(1, 3, degraded)
        assert len(stream) == len(log) == 3
    for kind, epochs in child.TRAIN_EPOCHS.items():
        assert reconstruct.TrainConfig(epochs=epochs, seed=1).epochs == epochs, kind
    detector.DetectorConfig(theta=0.01, healing_frames_h=child.HEALING_H)
    for r in child.REACTION_PERIODS:
        assert evalkit.LabellingConfig(reaction_r=r).reaction_r == r


def test_cmd_train_calls_the_name_bound_in_cli(tmp_path, monkeypatch):
    # The quickstart workload measures training throughput by replacing
    # cli.train_reconstructor, so cmd_train must look the name up there.
    write_frames(tmp_path / "train.frm1",
                 FrameStream(frames=np.full((4, 2, 2, 1), 0.5), frame_rate_hz=10.0))
    model = ReconstructorModel(
        kind=ReconstructorKind.SAE,
        layer_sizes=[4, 2, 4],
        weights=[np.zeros((2, 4)), np.zeros((4, 2))],
        biases=[np.zeros(2), np.zeros(4)],
        activation=Activation.RELU,
        epoch_losses=[0.0, 0.0],
    )
    calls = []

    def stand_in(stream, kind, hyper):
        calls.append((len(stream), kind, hyper.epochs))
        return model

    monkeypatch.setattr(cli, "train_reconstructor", stand_in)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path), "train": {"epochs": 3}}))
    assert cli.main(["train", "--config", str(config)]) == 0
    assert calls == [(4, ReconstructorKind.SAE, 3)]


def test_cli_model_io_calls_the_names_bound_in_io(tmp_path, monkeypatch):
    # The io.write_model_json and io.read_model_json spans time the CLI's
    # model I/O only while cmd_train and cmd_fit look the names up in io.
    stream = FrameStream(frames=np.random.default_rng(2).random((40, 2, 2, 1)),
                         frame_rate_hz=10.0)
    for name in ("frames.frm1", "train.frm1", "calibration.frm1"):
        write_frames(tmp_path / name, stream)
    calls = []

    def recorded(name):
        original = getattr(io, name)

        def wrapper(path, *args):
            calls.append((name, Path(path).name))
            return original(path, *args)

        return wrapper

    for name in ("write_model_json", "read_model_json"):
        monkeypatch.setattr(io, name, recorded(name))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path), "train": {"epochs": 1}}))
    assert cli.main(["train", "--config", str(config)]) == 0
    assert calls == [("write_model_json", "model.bin")]
    assert cli.main(["fit", "--config", str(config)]) == 0
    assert calls[1:] == [("read_model_json", "model.bin")]


def test_every_detector_fold_calls_the_traced_name(tmp_path, monkeypatch):
    # The tracer wraps only detector.run_detector_verbose, wherever a
    # package module binds it, so the detector.run_detector span sees a
    # fold only if it calls that function object.  A run_detector that
    # skipped the decision list would hide every sweep fold from the span.
    [(module_name, fn_name)] = [
        (m, f) for m, f, span, _ in _tracing().TARGETS if span == "detector.run_detector"
    ]
    original = getattr(importlib.import_module(f"lanewatch.{module_name}"), fn_name)
    folds = []

    def counted(smoothed, cfg):
        folds.append(cfg.theta)
        return original(smoothed, cfg)

    for name, module in list(sys.modules.items()):
        if name.startswith("lanewatch"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    flags = np.zeros(900, dtype=bool)
    flags[[300, 700]] = True
    log = MisbehaviourLog(flags=flags)
    smoothed = ErrorSeries(values=np.random.default_rng(4).random(900) * 0.01)
    theta, thetas = 0.006, [0.003, 0.005, 0.009]
    detector.run_detector(smoothed, detector.DetectorConfig(theta=theta))
    assert folds == [theta]
    evalkit.alarms_per_theta([smoothed, smoothed], thetas, 60)
    assert folds[1:] == [t for t in thetas for _ in range(2)]
    evalkit.sweep_curves(evalkit.label_windows(log), smoothed, thetas)
    assert folds[7:] == thetas
    evalkit.evaluate([log], [smoothed], theta, thetas, evalkit.LabellingConfig(), [10, 50])
    assert folds[10:] == [theta, *thetas]
    io.write_error_csv(tmp_path / "errors.csv", smoothed)
    io.write_params_json(tmp_path / "params.json", GammaParams(2.0, 400.0),
                         ThresholdSpec(epsilon=0.05, theta=theta), 900)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workdir": str(tmp_path)}))
    assert cli.main(["detect", "--config", str(config)]) == 0
    assert folds[14:] == [theta]
