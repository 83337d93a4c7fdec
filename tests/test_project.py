"""Project metadata: every declared console script resolves, and the
benchmark's tracer still finds every program attribute it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import gridbench.acopf.train

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


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # ``install`` looks up each wrapped attribute with getattr, so a name the
    # program no longer has raises here instead of in every traced run
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))  # layers imports its sibling tracing
    spec = importlib.util.spec_from_file_location("bench_layers", bench / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    forward = gridbench.acopf.train.mlp_forward
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        assert gridbench.acopf.train.mlp_forward is not forward
    finally:
        tracer.restore()
    assert gridbench.acopf.train.mlp_forward is forward
