"""Per-layer metrics: which program attributes the trace wraps, and how the
spans become one figure per layer and round.

Every workload reports every metric; a layer that a workload does not run
reads 0 there. Each figure is per round of the workload (totals divided by
the number of rounds), so counts repeat exactly from run to run.
"""

from __future__ import annotations

from collections import Counter

import gridbench.acopf.datagen
import gridbench.acopf.space
import gridbench.acopf.sweep
import gridbench.acopf.train
import gridbench.detectors
import gridbench.detectors.topo
import gridbench.powerflow
import gridbench.scenario
from gridbench.detectors import DETECTOR_NAMES, FIT_BASED
from gridbench.rng import Rng
from tracing import NullTracer, Tracer

STREAM_CASES = ("case14", "case30")

# (metric, unit, better)
METRICS = (
    [(f"powerflow.solve_pf.tick_s.{c}", "s", "lower") for c in STREAM_CASES]
    + [(f"powerflow.nr_iterations.{c}", "count", "lower") for c in STREAM_CASES]
    + [("powerflow.solve_pf.screen_s", "s", "lower"),
       ("powerflow.solve_pf.calls", "count", "lower"),
       ("powerflow.flat_starts", "count", "lower"),
       ("powerflow.build_ybus.s", "s", "lower"),
       ("powerflow.branch_flows.s", "s", "lower"),
       ("grid.apply_event.s", "s", "lower"),
       ("grid.connectivity_check.s", "s", "lower"),
       ("scenario.run_scenario.self_s", "s", "lower"),
       ("scenario.benchmark_config.self_s", "s", "lower"),
       ("rng.draws", "count", "lower"),
       ("rng.s", "s", "lower")]
    + [(f"detectors.{d}.s", "s", "lower") for d in DETECTOR_NAMES]
    + [(f"detectors.{d}.{part}", "s", "lower") for d in FIT_BASED
       for part in ("fit_s", "score_s")]
    + [(f"detectors.{d}.scored_ticks", "count", "higher") for d in DETECTOR_NAMES]
    + [("detectors.ocsvm.iterations", "count", "lower"),
       ("detectors.topo.sensitivity_weights.s", "s", "lower")]
    + [(f"acopf.{f}.s", "s", "lower") for f in (
        "train_penalty", "mlp_forward", "mlp_backward", "penalty_loss_and_grad",
        "build_mlp", "gen_realistic", "gen_augmented", "DecisionSpace",
        "evaluate_decisions")]
    + [("acopf.batches", "count", "lower"),
       ("acopf.train_samples", "count", "lower"),
       ("loadsynth.scale_loads.s", "s", "lower")]
)

# fit-based detector name -> (fit function, scoring functions) in the
# namespace score_stream calls them through
_FIT_SCORE = {
    "lof": ("lof_fit", ("lof_train_scores", "lof_score")),
    "parzen": ("parzen_fit", ("parzen_score",)),
    "ocsvm": ("ocsvm_fit", ("ocsvm_score",)),
    "iforest": ("iforest_fit", ("iforest_score",)),
}


def _solve_pf_after(span, result, args, kwargs):
    start = kwargs.get("start", args[1] if len(args) > 1 else "flat")
    span[5]["flat"] = isinstance(start, str)
    span[5]["iterations"] = result.iterations


def install(tracer) -> None:
    """Wrap the attributes through which each layer is called."""
    scen, topo, pf = gridbench.scenario, gridbench.detectors.topo, gridbench.powerflow
    for owner in (scen, topo):
        tracer.wrap(owner, "solve_pf", "powerflow.solve_pf", _solve_pf_after)
        tracer.wrap(owner, "branch_flows", "powerflow.branch_flows")
    tracer.wrap(pf, "build_ybus", "powerflow.build_ybus")
    tracer.wrap(gridbench.acopf.space, "build_ybus", "powerflow.build_ybus")
    tracer.wrap(scen, "apply_event", "grid.apply_event")
    tracer.wrap(scen, "connectivity_check", "grid.connectivity_check")
    tracer.wrap(topo, "sensitivity_weights", "detectors.topo.sensitivity_weights")

    def ocsvm_after(span, model, args, kwargs):
        tracer.counts["detectors.ocsvm.iterations"] += model.iterations

    for det, (fit, scorers) in _FIT_SCORE.items():
        tracer.wrap(gridbench.detectors, fit, f"detectors.{det}.fit",
                    ocsvm_after if det == "ocsvm" else None)
        for fn in scorers:
            tracer.wrap(gridbench.detectors, fn, f"detectors.{det}.score")

    sweep, train = gridbench.acopf.sweep, gridbench.acopf.train
    for fn in ("DecisionSpace", "gen_realistic", "gen_augmented", "build_mlp",
               "train_penalty", "evaluate_decisions"):
        tracer.wrap(sweep, fn, f"acopf.{fn}")

    def batch_after(span, result, args, kwargs):
        tracer.counts["acopf.batches"] += 1
        tracer.counts["acopf.train_samples"] += len(args[1])

    tracer.wrap(train, "mlp_forward", "acopf.mlp_forward")
    tracer.wrap(train, "mlp_backward", "acopf.mlp_backward")
    tracer.wrap(train, "penalty_loss_and_grad", "acopf.penalty_loss_and_grad", batch_after)
    tracer.wrap(gridbench.acopf.datagen, "scale_loads", "loadsynth.scale_loads")
    tracer.wrap_rng(Rng)


def draws_per_round(workload) -> int:
    """64-bit words drawn in one round, counted in an extra untimed round."""
    counter = Tracer()
    counter.wrap_rng(Rng, count_draws=True)
    try:
        workload.run_round(NullTracer())
    finally:
        counter.restore()
    return counter.rng_draws


def values(tracer, rounds: int, draws: int, scored_ticks: dict[str, int]
           ) -> dict[str, float]:
    """One figure per metric in METRICS, per round.

    ``draws`` and ``scored_ticks`` are already per round.
    """
    dur, self_s = tracer.totals()
    pf = Counter()
    for idx, span in enumerate(tracer.spans):
        if span[0] != "powerflow.solve_pf":
            continue
        pf["calls"] += 1
        pf["flat"] += span[5]["flat"]
        caller = tracer.ancestor(idx, ("scenario.run_scenario", "scenario.benchmark_config"))
        if caller is None:
            continue
        if caller[0] == "scenario.run_scenario":
            case = tracer.ancestor(idx, ("op",))[5]["case"]
            pf["tick_s." + case] += span[3] - span[2]
            pf["iterations." + case] += span[5]["iterations"]
        else:
            pf["screen_s"] += span[3] - span[2]

    out = {}
    for c in STREAM_CASES:
        out[f"powerflow.solve_pf.tick_s.{c}"] = pf["tick_s." + c]
        out[f"powerflow.nr_iterations.{c}"] = pf["iterations." + c]
    out["powerflow.solve_pf.screen_s"] = pf["screen_s"]
    out["powerflow.solve_pf.calls"] = pf["calls"]
    out["powerflow.flat_starts"] = pf["flat"]
    for name in ("powerflow.build_ybus", "powerflow.branch_flows", "grid.apply_event",
                 "grid.connectivity_check", "detectors.topo.sensitivity_weights"):
        out[name + ".s"] = dur[name]
    for name in ("scenario.run_scenario", "scenario.benchmark_config"):
        out[name + ".self_s"] = self_s[name]
    out["rng.s"] = tracer.rng_s
    for d in DETECTOR_NAMES:
        out[f"detectors.{d}.s"] = dur[f"detectors.{d}"]
    for d in FIT_BASED:
        out[f"detectors.{d}.fit_s"] = dur[f"detectors.{d}.fit"]
        out[f"detectors.{d}.score_s"] = dur[f"detectors.{d}.score"]
    out["detectors.ocsvm.iterations"] = tracer.counts["detectors.ocsvm.iterations"]
    for name, _, _ in METRICS:
        if name.startswith("acopf.") and name.endswith(".s"):
            out[name] = dur[name[:-2]]
    out["acopf.batches"] = tracer.counts["acopf.batches"]
    out["acopf.train_samples"] = tracer.counts["acopf.train_samples"]
    out["loadsynth.scale_loads.s"] = dur["loadsynth.scale_loads"]
    per_round = {name: v / rounds for name, v in out.items()}
    per_round["rng.draws"] = draws
    for d in DETECTOR_NAMES:
        per_round[f"detectors.{d}.scored_ticks"] = scored_ticks.get(d, 0)
    return {name: round(per_round[name]) if unit == "count" else per_round[name]
            for name, unit, _ in METRICS}
