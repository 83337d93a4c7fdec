"""Project metadata: every declared console script resolves, every public
name in the package is reached by the program, every module-level constant
and every ``LabeledStream`` field is read, every default is set by some
call, and the benchmark's tracer still finds every program attribute it
wraps, sees the sweep prepare each seed once and reaches every stream and
detector layer."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import gridbench.acopf.train
from gridbench.acopf import ExperimentConfig, TrainConfig, experiment_sweep
from gridbench.detectors import DETECTOR_NAMES, FIT_BASED, score_stream
from gridbench.grid import bundled_case
from gridbench.scenario import benchmark_config, build_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

# public names that no code in src/ or bench/ reaches, each kept for a reason
KEPT_UNREACHED = {
    # the claim verdicts of a reproduce report: claim 1's load statistics
    # and claim 3's per-mode and per-seed sweep summaries
    "aggregate_stats", "delta_stats", "mean_overall_by_mode", "gap_positive_count",
    # the Poisson event schedule that streams at the paper's rates will use
    "sample_event_schedule",
    # the all-bus power-balance mismatch that the solver's tests take as
    # their reference (per-bus balance, finite-difference Jacobian)
    "mismatch",
    # the writer half of the case-document round trip
    "serialize_case",
}


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


def _parsed(root):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))]


def _loaded():
    """Every name loaded by name or attribute somewhere in src/ or bench/."""
    loaded = set()
    for root in ("src", "bench"):
        for tree in _parsed(ROOT / root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return loaded


def test_public_names_are_reached():
    # a public function, class or method must be loaded by name or attribute
    # somewhere in src/ or bench/; bench/layers.py wraps functions by their
    # name as a string, so bench/'s string literals count too
    defined = set()
    for tree in _parsed(ROOT / "src" / "gridbench"):
        for node in tree.body:
            scopes = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            defined.update(n.name for n in scopes
                           if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                           and not n.name.startswith("_"))
    strings = {node.value for tree in _parsed(ROOT / "bench") for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert defined - _loaded() - strings == KEPT_UNREACHED


# module-level constants that no code in src/ or bench/ reads, each kept for
# a reason
KEPT_UNREAD: set[str] = set()


def test_module_constants_are_read():
    # a name assigned at module level (a constant, table or type alias) must
    # be loaded by name or attribute somewhere in src/ or bench/
    defined = set()
    for tree in _parsed(ROOT / "src" / "gridbench"):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name) and not n.id.startswith("__"))
    assert defined - _loaded() == KEPT_UNREAD


def test_config_fields_are_read():
    # every field of a *Config dataclass and of PenaltyWeights is read as an
    # attribute somewhere in src/, so no setting is silently ignored
    fields, loaded = set(), set()
    for tree in _parsed(ROOT / "src" / "gridbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (node.name.endswith("Config")
                                                   or node.name == "PenaltyWeights"):
                fields.update((node.name, n.target.id) for n in node.body
                              if isinstance(n, ast.AnnAssign))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert {owner for owner, _ in fields} == {
        "ScenarioConfig", "ExperimentConfig", "TrainConfig", "PenaltyWeights",
        "DetectorConfig", "OcsvmConfig", "IforestConfig", "TopoConfig"}
    assert {f for f in fields if f[1] not in loaded} == set()


# LabeledStream fields that no code in src/ or bench/ reads, each kept for a
# reason
KEPT_UNREAD_STREAM_FIELDS = {
    # the per-tick flat-start retries that the CLI's stream report will list
    # (ROADMAP D1)
    "retried",
}


def test_stream_fields_are_read():
    # every field of LabeledStream is read as an attribute somewhere in src/
    # or bench/, so a stream carries no array that nothing uses
    fields, loaded = set(), set()
    for root in ("src", "bench"):
        for tree in _parsed(ROOT / root):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == "LabeledStream":
                    fields.update(n.target.id for n in node.body if isinstance(n, ast.AnnAssign))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    assert "values" in fields
    assert fields - loaded == KEPT_UNREAD_STREAM_FIELDS


# defaults that no call sets, each kept for a reason
KEPT_UNSET = {
    # the augmentation box of claim 3's controls, which ROADMAP D10 will vary
    ("gen_augmented", "factor_range"),
    # bench/checks.py reads it to bound each reading's noise
    ("ScenarioConfig", "noise_floor"),
}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _has_default(value):
    # ``field(repr=False)`` declares a field without a default
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _parameter_defaults(fn, owner, skip):
    """(owner, name, position, False) of each defaulted parameter of ``fn``;
    keyword-only ones have position None, and ``skip`` drops ``self``/``cls``."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {(owner, a.arg, i - skip, False) for i, a in enumerate(positional) if i >= first}
    out |= {(owner, a.arg, None, False)
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None}
    return out


def _defaults():
    """Every parameter default and dataclass field default in the package, as
    (callee name, name, position, is a dataclass field)."""
    out = set()
    for tree in _parsed(ROOT / "src" / "gridbench"):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out |= _parameter_defaults(node, node.name, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
                out |= {(node.name, f.target.id, i, True)
                        for i, f in enumerate(fields) if _has_default(f.value)}
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    owner = node.name if fn.name == "__init__" else fn.name
                    out |= _parameter_defaults(fn, owner, 0 if static else 1)
    return out


def test_every_default_is_set_by_some_call():
    # a default that every call leaves alone is a setting no caller varies: it
    # belongs in a module constant. Calls match the callee by name; a
    # dataclasses.replace keyword sets the dataclass field of that name.
    calls, replaced = {}, set()
    for root in ("src", "bench", "tests"):
        for tree in _parsed(ROOT / root):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                keywords = {k.arg for k in node.keywords}
                if name == "replace":
                    replaced |= keywords
                calls.setdefault(name, []).append((len(node.args), keywords))
    unset = {(owner, name) for owner, name, pos, is_field in _defaults()
             if not (is_field and name in replaced)
             and not any(name in keywords or pos is not None and n_args > pos
                         for n_args, keywords in calls.get(owner, ()))}
    assert unset == KEPT_UNSET


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
    # each training batch calls every wrapped step once, so no step routed
    # around those names silently zeroes its layer's figure
    batches = tracer.counts["acopf.batches"]
    assert calls["acopf.mlp_backward"] == calls["acopf.penalty_loss_and_grad"] == batches
    assert calls["acopf.mlp_forward"] == batches + calls["acopf.evaluate_decisions"] == 16


def test_traced_stream_reaches_every_stream_layer(monkeypatch):
    # the stream's layers are traced through ``gridbench.scenario``'s globals
    # and ``gridbench.powerflow.build_ybus``; a check routed around those
    # names would silently zero its layer's figure
    layers = _bench_layers(monkeypatch)
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        cfg = benchmark_config(bundled_case("case14"), segment=5)
        run_scenario(build_scenario(cfg))
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    for layer in ("powerflow.solve_pf", "powerflow.branch_flows", "powerflow.build_ybus",
                  "grid.apply_event", "grid.connectivity_check"):
        assert calls[layer] >= 1, layer
    assert calls["powerflow.solve_pf"] >= cfg.horizon


def test_traced_detect_reaches_every_detector_layer(monkeypatch):
    # the detectors' layers are traced through ``gridbench.detectors``' and
    # ``gridbench.detectors.topo``'s globals; a detector that called around
    # those names would silently zero its layer's figure
    layers = _bench_layers(monkeypatch)
    case = bundled_case("case14")
    stream = run_scenario(build_scenario(benchmark_config(case, segment=5)))
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        score_stream(stream, DETECTOR_NAMES, case=case)
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["detectors.topo.sensitivity_weights"] >= 1
    for det in FIT_BASED:
        assert calls[f"detectors.{det}.fit"] >= 1, det
        assert calls[f"detectors.{det}.score"] >= 1, det
    assert tracer.counts["detectors.ocsvm.iterations"] > 0
