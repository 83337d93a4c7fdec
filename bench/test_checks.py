"""The benchmark's own checks pass on real outputs and fail on corrupted ones.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import layers
from gridbench.acopf import SweepResult, SweepRow
from gridbench.detectors import AnomalyScoreSeries, score_stream
from gridbench.grid import bundled_case
from gridbench.rng import Rng
from gridbench.scenario import benchmark_config, build_scenario, run_scenario
from tracing import Tracer
from workloads import WARMUP_SEGMENT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_json_names_the_emitted_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.METRICS)


# ------------------------------------------------------------------ stream

@pytest.fixture(scope="module")
def short_run():
    """A short case14 scenario, its noise-free replay and its load."""
    cfg = benchmark_config(bundled_case("case14"), "realistic", 3, segment=WARMUP_SEGMENT)
    scen = build_scenario(cfg)
    stream = run_scenario(scen)
    truth = run_scenario(build_scenario(replace(cfg, noise_sigma_rel=0.0)))
    load = scen.multipliers @ [l.pd for l in cfg.case.loads]
    return cfg, stream, truth, load


def _tripped(cfg):
    trip = next(e for e in cfg.anomaly_events if e.kind == "line_open")
    return trip.tick, trip.target


def _with_value(stream, tick, sensor, value):
    values = stream.values.copy()
    values[tick, stream.sensor_ids.index(sensor)] = value
    return replace(stream, values=values)


def test_stream_checks_pass_on_program_output(short_run):
    cfg, stream, truth, load = short_run
    assert checks.stream_failures(cfg, stream) == []
    assert checks.replay_failures(cfg, stream, truth, load) == []


def test_tripped_line_reading_flow_fails(short_run):
    cfg, stream, _, _ = short_run
    tick, branch = _tripped(cfg)
    bad = _with_value(stream, tick + 1, f"pf:{branch}", 0.5)
    assert checks.stream_failures(cfg, bad)


def test_label_off_schedule_fails(short_run):
    cfg, stream, _, _ = short_run
    bad = replace(stream, anomaly_ticks=stream.anomaly_ticks | {1})
    assert checks.stream_failures(cfg, bad)


def test_broken_branch_physics_fails(short_run):
    cfg, stream, truth, load = short_run
    branch = cfg.case.branches[0].id
    k = truth.sensor_ids.index(f"pf:{branch}")
    bad = _with_value(truth, 5, f"pf:{branch}", truth.values[5, k] * 1.01)
    assert any("|S_from|" in m for m in checks.replay_failures(cfg, stream, bad, load))


def test_negative_losses_fail(short_run):
    cfg, stream, truth, load = short_run
    pinj = [k for k, t in enumerate(truth.sensor_types) if t == "pinj"]
    values = truth.values.copy()
    values[7, pinj[0]] -= 1.0
    fails = checks.replay_failures(cfg, stream, replace(truth, values=values), load)
    assert any("losses" in m for m in fails)


def test_reading_far_outside_its_noise_fails(short_run):
    cfg, stream, truth, load = short_run
    bad = _with_value(stream, 9, stream.sensor_ids[0], truth.values[9, 0] + 0.5)
    assert any("noise-free" in m for m in checks.replay_failures(cfg, bad, truth, load))


# ------------------------------------------------------------------ detect

def _series(name, n, flagged, nan_before=0):
    scores = np.linspace(0.0, 1.0, n)
    scores[:nan_before] = np.nan
    flags = np.zeros(n, dtype=bool)
    flags[list(flagged)] = True
    return AnomalyScoreSeries(detector=name, ticks=np.arange(n), scores=scores, flags=flags)


@pytest.fixture
def detect_case():
    stream = SimpleNamespace(known_change_ticks=frozenset({50, 100}),
                             anomaly_ticks=frozenset({70, 73}))
    series = {"topo": _series("topo", 120, {70, 71}, nan_before=20),
              "gesd": _series("gesd", 120, {51, 101, 70})}
    return stream, series, [70]


def test_detect_checks_pass(detect_case):
    stream, series, trips = detect_case
    assert checks.detect_failures(stream, series, trips) == []


def test_topo_flag_just_after_announced_change_fails(detect_case):
    stream, series, trips = detect_case
    series["topo"] = _series("topo", 120, {70, 101}, nan_before=20)
    assert checks.detect_failures(stream, series, trips)


def test_topo_missing_a_trip_fails(detect_case):
    stream, series, trips = detect_case
    series["topo"] = _series("topo", 120, {80}, nan_before=20)
    assert checks.detect_failures(stream, series, trips)


def test_gesd_quiet_at_announced_changes_fails(detect_case):
    stream, series, trips = detect_case
    series["gesd"] = _series("gesd", 120, {70})
    assert checks.detect_failures(stream, series, trips)


def test_flag_on_withheld_tick_fails(detect_case):
    stream, series, trips = detect_case
    flags = series["topo"].flags.copy()
    flags[3] = True  # tick 3 is withheld (NaN score)
    object.__setattr__(series["topo"], "flags", flags)
    assert checks.detect_failures(stream, series, trips)


def test_parzen_recomputation_matches_and_catches_a_changed_score():
    values = np.random.default_rng(0).normal(size=(60, 5))
    stream = SimpleNamespace(values=values, train_ticks=tuple(range(40)),
                             test_ticks=tuple(range(40, 60)), anomaly_ticks=frozenset({45}))
    parzen = score_stream(stream, ("parzen",))["parzen"]
    assert checks.parzen_failures(stream, parzen) == []
    scores = parzen.scores.copy()
    scores[5] += 1e-3  # tick 45, the anomaly tick the check recomputes
    assert checks.parzen_failures(stream, replace(parzen, scores=scores))


# ------------------------------------------------------------------- sweep

SWEEP = SimpleNamespace(modes=("naive", "grouped", "brute_force"), n_fake=(200,), seeds=(0, 1))
GOOD_MEANS = {"naive": (0.4, 0.2), "grouped": (0.2, 0.1), "brute_force": (0.3, 0.1)}


def _sweep_result(means=GOOD_MEANS, drop=None):
    rows = tuple(SweepRow(mode=m, n_fake=200, seed=s, equality_mean=eq,
                          inequality_mean=ineq, overall_mean=0.5 * (eq + ineq))
                 for s in SWEEP.seeds for m, (eq, ineq) in means.items()
                 if (m, s) != drop)
    return SweepResult(rows=rows, failures=())


def test_sweep_checks_pass():
    assert checks.sweep_failures(SWEEP, _sweep_result()) == []


def test_swapped_naive_and_brute_force_means_fail():
    swapped = dict(GOOD_MEANS, naive=GOOD_MEANS["brute_force"],
                   brute_force=GOOD_MEANS["naive"])
    assert checks.sweep_failures(SWEEP, _sweep_result(swapped))


def test_overall_not_the_mean_of_its_parts_fails():
    result = _sweep_result()
    rows = (replace(result.rows[0], overall_mean=result.rows[0].overall_mean + 0.01),
            ) + result.rows[1:]
    assert checks.sweep_failures(SWEEP, replace(result, rows=rows))


def test_negative_mean_fails():
    assert checks.sweep_failures(SWEEP, _sweep_result(dict(GOOD_MEANS, grouped=(-0.1, 0.1))))


def test_missing_cell_fails():
    assert checks.sweep_failures(SWEEP, _sweep_result(drop=("grouped", 1)))


# ------------------------------------------------------------------ tracer

def test_tracer_restores_and_keeps_draws_identical():
    plain = Rng(5).normals(11)
    tracer = Tracer()
    tracer.wrap_rng(Rng, count_draws=True)
    try:
        with tracer.span("outer"):
            traced = Rng(5).normals(11)
    finally:
        tracer.restore()
    assert np.array_equal(plain, traced)
    assert tracer.rng_draws == 12  # Box-Muller: two words per pair of normals
    assert Rng.normal.__qualname__ == "Rng.normal"
    outer = tracer.spans[0]
    assert 0.0 < outer[4] <= outer[3] - outer[2]  # draws count as child time


def test_tracer_self_time_excludes_children():
    module = SimpleNamespace(work=lambda: sum(range(10000)))
    tracer = Tracer()
    tracer.wrap(module, "work", "inner")
    with tracer.span("outer"):
        module.work()
    tracer.restore()
    dur, self_s = tracer.totals()
    assert self_s["outer"] == pytest.approx(dur["outer"] - dur["inner"])
    assert module.work() == sum(range(10000))
