"""The three workloads: one pipeline each, on inputs made from the seed.

A workload has a set-up (case loading, input building and a warm-up of its
code paths), a round (the operations that are timed, always the same list)
and checks on each round's outputs. ``SETUPS`` is how many set-ups a run
times and takes the median of: its own, and the rest in fresh interpreters
so that each pays the cold imports and first calls. ``round_figures`` gives
the pipeline's own end-to-end figures of the last round.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np
from gridbench.acopf import ExperimentConfig, TrainConfig, experiment_sweep, run_cell
from gridbench.detectors import DETECTOR_NAMES, FIT_BASED, STREAMING, DetectorConfig, score_stream
from gridbench.grid import bundled_case
from gridbench.scenario import benchmark_config, build_scenario, run_scenario

import checks

_clock = time.perf_counter

# Shortest benchmark_config segment (ticks per announced topology) whose
# schedule is valid: 10 and 16 put anomaly and announced events on one tick.
WARMUP_SEGMENT = 12
# Noise-free replay length: covers four announced changes and the first
# anomaly trip/reclose pair (ticks 230 and 233).
REPLAY_TICKS = 240
# Sweep training epochs. Over workload seeds 0-40 and four others, naive
# augmentation lost to grouped and brute-force on every cell seed by at
# least 0.03 in mean overall violation with three epochs; with two, one
# seed came within 0.008.
EPOCHS = 3


@dataclass
class Op:
    label: str
    seconds: float
    error: str | None = None


def _timed(tracer, span_name: str, fn, *args, **kwargs):
    with tracer.span(span_name):
        start = _clock()
        out = fn(*args, **kwargs)
        return out, _clock() - start


class Workload:
    SETUPS = 3

    def __init__(self, seed: int):
        self.seed = seed

    def final_checks(self) -> list[str]:
        """Checks run once after the timed rounds."""
        return []

    def scored_ticks(self) -> dict[str, int]:
        """Finite scores per detector in one round."""
        return {}


class StreamWorkload(Workload):
    """benchmark_config -> build_scenario -> run_scenario, case14 and case30,
    both load variants; benchmark_config alone for case57, whose scenario
    diverges at tick 232 for every seed."""

    name = "stream"
    SCENARIOS = (("case14", "small"), ("case14", "realistic"),
                 ("case30", "small"), ("case30", "realistic"))
    CONFIG_ONLY = (("case57", "small"), ("case57", "realistic"))

    def setup(self) -> None:
        self.cases = {n: bundled_case(n) for n in ("case14", "case30", "case57")}
        run_scenario(build_scenario(benchmark_config(
            self.cases["case14"], "realistic", self.seed, segment=WARMUP_SEGMENT)))

    def run_round(self, tracer) -> list[Op]:
        ops, self.outputs, self.times = [], [], []
        for case_name, variant in self.SCENARIOS + self.CONFIG_ONLY:
            label = f"{case_name}/{variant}"
            start = _clock()
            try:
                with tracer.span("op", case=case_name, variant=variant):
                    cfg, t_cfg = _timed(tracer, "scenario.benchmark_config", benchmark_config,
                                        self.cases[case_name], variant, self.seed)
                    if (case_name, variant) in self.CONFIG_ONLY:
                        self.times.append((case_name, t_cfg, None, None))
                    else:
                        scen, _ = _timed(tracer, "scenario.build_scenario", build_scenario, cfg)
                        stream, t_run = _timed(tracer, "scenario.run_scenario", run_scenario, scen)
                        self.outputs.append((cfg, stream))
                        self.times.append((case_name, t_cfg, t_run, cfg.horizon))
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                ops.append(Op(label, _clock() - start, repr(exc)))
                continue
            ops.append(Op(label, _clock() - start))
        return ops

    def check_round(self) -> list[str]:
        return [f"{cfg.case.name}/seed {cfg.seed}: {msg}"
                for cfg, stream in self.outputs
                for msg in checks.stream_failures(cfg, stream)]

    def final_checks(self) -> list[str]:
        """Noise-free replay of the first REPLAY_TICKS ticks of each scenario."""
        fails = []
        for cfg, stream in self.outputs:
            short = replace(
                cfg, horizon=REPLAY_TICKS, noise_sigma_rel=0.0, topology_count=None,
                known_events=tuple(e for e in cfg.known_events if e.tick < REPLAY_TICKS),
                anomaly_events=tuple(e for e in cfg.anomaly_events if e.tick < REPLAY_TICKS))
            scen = build_scenario(short)
            truth = run_scenario(scen)
            base_pd = [l.pd for l in cfg.case.loads]
            fails += [f"{cfg.case.name} replay: {msg}" for msg in checks.replay_failures(
                cfg, stream, truth, scen.multipliers @ base_pd)]
        return fails

    def round_figures(self) -> dict:
        out = {}
        for case_name in ("case14", "case30"):
            rows = [t for t in self.times if t[0] == case_name]
            out[f"stream_ticks_per_s.{case_name}"] = (
                sum(r[3] for r in rows) / sum(r[2] for r in rows))
        out["scenario_config_s"] = statistics.fmean(t[1] for t in self.times)
        return out

    UNITS = {"stream_ticks_per_s.case14": "1/s", "stream_ticks_per_s.case30": "1/s",
             "scenario_config_s": "s"}


class DetectWorkload(Workload):
    """All 8 detectors, one score_stream call each, on the case30 small and
    realistic streams built during set-up."""

    name = "detect"
    # Its set-up builds two 650-tick streams (about 12 of its 16 s); two more
    # set-ups would add about 30 s to every run, so it reports its own only.
    SETUPS = 1
    VARIANTS = ("small", "realistic")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.det_cfg = DetectorConfig(seed=seed)

    def setup(self) -> None:
        self.case = bundled_case("case30")
        self.streams = {}
        for variant in self.VARIANTS:
            cfg = benchmark_config(self.case, variant, self.seed)
            self.streams[variant] = (cfg, run_scenario(build_scenario(cfg)))
        # warm up on a full-size stream: after one on a short stream the
        # first timed round still ran ~5% slower than the next
        score_stream(self.streams["small"][1], DETECTOR_NAMES, cfg=self.det_cfg,
                     case=self.case)

    def run_round(self, tracer) -> list[Op]:
        ops, self.series, self.times = [], {}, {}
        for variant, (_, stream) in self.streams.items():
            for name in DETECTOR_NAMES:
                start = _clock()
                try:
                    with tracer.span("detectors." + name):
                        out = score_stream(stream, (name,), cfg=self.det_cfg, case=self.case)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                    ops.append(Op(f"{variant}/{name}", _clock() - start, repr(exc)))
                    continue
                self.times[variant, name] = _clock() - start
                self.series.setdefault(variant, {}).update(out)
                ops.append(Op(f"{variant}/{name}", self.times[variant, name]))
        return ops

    def scored_ticks(self) -> dict[str, int]:
        out = dict.fromkeys(DETECTOR_NAMES, 0)
        for series in self.series.values():
            for name, s in series.items():
                out[name] += int(np.isfinite(s.scores).sum())
        return out

    def check_round(self) -> list[str]:
        fails = []
        for variant, series in self.series.items():
            if set(series) != set(DETECTOR_NAMES):
                continue  # a failed detector is counted as failed
            cfg, stream = self.streams[variant]
            trips = sorted(e.tick for e in cfg.anomaly_events if e.kind == "line_open")
            msgs = (checks.detect_failures(stream, series, trips)
                    + checks.parzen_failures(stream, series["parzen"]))
            fails += [f"case30/{variant}/seed {self.seed}: {m}" for m in msgs]
        return fails

    def round_figures(self) -> dict:
        def per_stream(names):
            return statistics.fmean(
                sum(self.times[v, n] for n in names) for v in self.VARIANTS)
        return {"detect_streaming_s": per_stream(STREAMING),
                "detect_fitted_s": per_stream(FIT_BASED)}

    UNITS = {"detect_streaming_s": "s", "detect_fitted_s": "s"}


class SweepWorkload(Workload):
    """A reduced experiment_sweep per case: 3 modes x n_fake {200, 1000} x
    2 seeds, width 200. case30 has thermal ratings (the loss's branch-adjoint
    path), case57 has none."""

    name = "sweep"
    CASES = ("case30", "case57")

    def setup(self) -> None:
        self.configs = {
            n: ExperimentConfig(case=bundled_case(n), n_fake=(200, 1000),
                                seeds=(2 * self.seed, 2 * self.seed + 1), width=200,
                                train=TrainConfig(epochs=EPOCHS))
            for n in self.CASES}
        for cfg in self.configs.values():
            run_cell(replace(cfg, train=TrainConfig(epochs=1)), "naive", 200, cfg.seeds[0])

    def run_round(self, tracer) -> list[Op]:
        ops, self.results, self.times = [], {}, {}
        for name, cfg in self.configs.items():
            result, self.times[name] = _timed(tracer, "acopf.experiment_sweep",
                                              experiment_sweep, cfg)
            self.results[name] = result
            # experiment_sweep times no cell on its own: each gets the mean
            per_cell = self.times[name] / (len(result.rows) + len(result.failures))
            ops += [Op(f"{name}/{r.mode}/{r.n_fake}/{r.seed}", per_cell) for r in result.rows]
            ops += [Op(f"{name}/failed", per_cell, msg) for msg in result.failures]
        return ops

    def check_round(self) -> list[str]:
        return [f"{name}: {msg}" for name, result in self.results.items()
                for msg in checks.sweep_failures(self.configs[name], result)]

    def round_figures(self) -> dict:
        return {f"sweep_s.{n}": self.times[n] for n in self.CASES}

    UNITS = {"sweep_s.case30": "s", "sweep_s.case57": "s"}


WORKLOADS = {w.name: w for w in (StreamWorkload, DetectWorkload, SweepWorkload)}


def summarize(figures: list[dict]) -> dict[str, float]:
    """Median over the rounds of a run of each pipeline figure."""
    return {k: statistics.median(f[k] for f in figures) for k in figures[0]}
