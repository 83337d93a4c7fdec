"""Project metadata: every declared console script resolves, and the
benchmark's tracer still finds every program attribute it wraps and sees the
sweep prepare each seed once."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import gridbench.acopf.train
from gridbench.acopf import ExperimentConfig, TrainConfig, experiment_sweep
from gridbench.grid import bundled_case

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target} is not callable"


def _bench_layers(monkeypatch):
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))  # layers imports its sibling tracing
    spec = importlib.util.spec_from_file_location("bench_layers", bench / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # ``install`` looks up each wrapped attribute with getattr, so a name the
    # program no longer has raises here instead of in every traced run
    layers = _bench_layers(monkeypatch)
    forward = gridbench.acopf.train.mlp_forward
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        assert gridbench.acopf.train.mlp_forward is not forward
    finally:
        tracer.restore()
    assert gridbench.acopf.train.mlp_forward is forward


def test_traced_sweep_prepares_each_seed_once(monkeypatch):
    # the sweep's layers are traced through ``gridbench.acopf.sweep``'s
    # globals; a seed's realistic draw and initial weights are shared by its
    # cells and the decision space by the whole sweep
    layers = _bench_layers(monkeypatch)
    cfg = ExperimentConfig(case=bundled_case("case30"), n_real=40, n_fake=(20, 30),
                           seeds=(0, 1), modes=("naive", "grouped"), width=8,
                           train=TrainConfig(epochs=1))
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        result = experiment_sweep(cfg)
    finally:
        tracer.restore()
    assert len(result.rows) == 8 and not result.failures
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["acopf.DecisionSpace"] == 1
    assert calls["acopf.gen_realistic"] == calls["acopf.build_mlp"] == 2
    assert calls["acopf.gen_augmented"] == calls["acopf.train_penalty"] == 8
    assert calls["acopf.evaluate_decisions"] == 8
