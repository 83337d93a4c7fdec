"""Timed experiment scenarios: profiles + event schedules -> labeled streams.

A scenario couples a grid case with per-load style profiles and a schedule
of topology/generator events, some announced ("known") and some not
("anomaly"). Building it walks the schedule once into topology segments
(the ticks from one event to the next) and their true cases. Running it
compiles each segment's case once, then per tick sets loads, dispatches
generation to follow demand and solves the power flow warm-started from
the previous tick (from a flat start when the warm start diverges); it
reads the segment's sensors in one batch and adds their noise in place.
The stream is one ticks x sensors array of noisy readings, ``values``,
under one fixed sensor roster, plus per-tick solver stats. It keeps no
noise levels: they derive from the noise-free truth, which a detector
must not see.

Announced topology ids track *known* events only; anomalies change the
physics but not the announced id, which is exactly the blind spot the
detector benchmark probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .grid.model import GridCase, TopologyEvent, apply_event, connectivity_check
from .loadsynth import TICKS_PER_DAY, StyleParams, profiles_matrix, sample_population
from .powerflow import Network, PFSolution, PowerFlowError, branch_flows, network, solve_pf
from .rng import Rng, derive_seed

# paper-observed daily event rates per component (operations per 24h per unit)
RATE_BUS_OPS_PER_BUS = 46.0 / 20000.0
RATE_LINE_CHANGES_PER_LINE = 137.0 / 17000.0
RATE_GEN_SWITCHES_PER_GEN = 300.0 / 2000.0

_LOAD_SEED_KEY = 101
_NOISE_SEED_KEY = 202

# fixed loss allowance on top of demand keeps the dispatch a pure function
# of the tick's loads; the slack bus balances the actual losses
DISPATCH_LOSS_FRAC = 0.02

SENSOR_TYPES = ("vmag", "pinj", "qinj", "pflow", "qflow", "imag")


class ScenarioError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    case: GridCase
    horizon: int
    load_styles: tuple[StyleParams, ...]
    known_events: tuple[TopologyEvent, ...] = ()
    anomaly_events: tuple[TopologyEvent, ...] = ()
    topology_count: int | None = None
    noise_sigma_rel: float = 0.01
    noise_floor: float = 0.01
    seed: int = 0
    train_topologies: int = 10

    def __post_init__(self):
        if not self.noise_sigma_rel >= 0.0:
            raise ValueError("noise_sigma_rel must be non-negative")
        if not self.noise_floor >= 0.0:
            raise ValueError("noise_floor must be non-negative")


@dataclass(frozen=True)
class LabeledStream:
    anomaly_ticks: frozenset[int]
    known_change_ticks: frozenset[int]
    topology_id_per_tick: tuple[int, ...]
    sensor_ids: tuple[str, ...]
    sensor_types: tuple[str, ...]
    # ticks x sensors, noisy; a reading's noise has standard deviation
    # noise_sigma_rel * max(|noise-free reading|, noise_floor)
    values: np.ndarray
    # per tick, of the kept solve: Newton iterations, final max mismatch (pu),
    # and whether a diverged warm start (max_iter iterations) was retried flat
    iterations: np.ndarray
    max_mismatch: np.ndarray
    retried: np.ndarray
    topology_registry: dict[int, frozenset] = field(default_factory=dict)
    train_ticks: tuple[int, ...] = ()
    test_ticks: tuple[int, ...] = ()


@dataclass(frozen=True)
class Scenario:
    """Load multipliers and the walked schedule; ``segments`` holds each
    topology segment's first tick and true case (its events applied)."""
    config: ScenarioConfig
    multipliers: np.ndarray  # horizon x n_loads
    events: tuple[TopologyEvent, ...]  # merged, sorted by (tick, kind, target)
    segments: tuple[tuple[int, GridCase], ...]
    topology_id_per_tick: tuple[int, ...]
    topology_registry: dict[int, frozenset]
    train_ticks: tuple[int, ...]
    test_ticks: tuple[int, ...]


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Materialize profiles and walk the event schedule into topology segments.

    An event is announced iff it is in ``config.known_events``; since known
    and anomaly events may not share a tick, the walk tells them apart by
    tick. The registry maps each announced topology id to its
    ``closed_branch_key``. Fails fast if any event leaves a load island
    without an online generator, naming the offending event.
    """
    horizon = config.horizon
    case = config.case
    if len(config.load_styles) != len(case.loads):
        raise ScenarioError(
            f"need one StyleParams per load ({len(case.loads)}), got {len(config.load_styles)}")
    for ev in config.known_events + config.anomaly_events:
        if not (0 <= ev.tick < horizon):
            raise ScenarioError(f"event at tick {ev.tick} outside horizon {horizon}")
    known_ticks = {ev.tick for ev in config.known_events}
    anomaly_ticks = {ev.tick for ev in config.anomaly_events}
    overlap = known_ticks & anomaly_ticks
    if overlap:
        raise ScenarioError(f"known and anomaly events share ticks {sorted(overlap)}")

    events = tuple(sorted(config.known_events + config.anomaly_events,
                          key=lambda e: (e.tick, e.kind, e.target)))

    # daily multiplier patterns tiled over the horizon
    daily = profiles_matrix(list(config.load_styles), TICKS_PER_DAY,
                            derive_seed(config.seed, _LOAD_SEED_KEY))
    reps = int(np.ceil(horizon / TICKS_PER_DAY))
    multipliers = np.tile(daily, (reps, 1))[:horizon]

    # walk the schedule once, event tick to event tick: apply each event to
    # the true case, validate it, and move the announced closed-branch key by
    # the announced line events' branch ids
    true_case = case
    announced_key = case.closed_branch_key()
    registry = {1: announced_key}
    segments = {0: case}  # first tick -> true case
    topo_per_tick: list[int] = []
    for t, tick_events in groupby(events, key=lambda e: e.tick):
        topo_per_tick += [len(registry)] * (t - len(topo_per_tick))
        announced = t in known_ticks
        announced_graph_change = False
        for ev in tick_events:
            true_case = apply_event(true_case, ev)
            for rep in connectivity_check(true_case):
                if rep.unservable:
                    raise ScenarioError(
                        f"{'known' if announced else 'anomaly'} event {ev.kind} on "
                        f"{ev.target} at tick {t} leaves island {rep.buses} unservable")
            if announced and ev.changes_graph:
                announced_graph_change = True
                announced_key = (announced_key | {ev.target} if ev.kind == "line_close"
                                 else announced_key - {ev.target})
        if announced_graph_change:
            registry[len(registry) + 1] = announced_key
        segments[t] = true_case
    topo_per_tick += [len(registry)] * (horizon - len(topo_per_tick))

    if len(set(registry.values())) != len(registry):
        raise ScenarioError("announced topology sequence revisits an earlier topology")
    if config.topology_count is not None and len(registry) != config.topology_count:
        raise ScenarioError(
            f"schedule produces {len(registry)} topologies, expected {config.topology_count}")

    train_ticks = tuple(t for t in range(horizon)
                        if topo_per_tick[t] <= config.train_topologies)
    test_ticks = tuple(t for t in range(horizon)
                       if topo_per_tick[t] > config.train_topologies)
    return Scenario(config=config, multipliers=multipliers, events=events,
                    segments=tuple(segments.items()),
                    topology_id_per_tick=tuple(topo_per_tick),
                    topology_registry=registry,
                    train_ticks=train_ticks, test_ticks=test_ticks)


def generation_dispatch(case: GridCase, total_demand: float) -> dict[int, float]:
    """Proportional-to-capacity dispatch of online generators.

    Each online generator receives a share of the demand proportional to its
    p_max, clipped into its limits; the slack bus balances any residual
    during the solve.
    """
    online = [g for g in case.generators if g.online]
    if not online:
        raise ScenarioError("no online generators to dispatch")
    cap = sum(g.p_max for g in online)
    if total_demand > cap:
        raise ScenarioError(
            f"demand {total_demand:.4f} pu exceeds online capacity {cap:.4f} pu")
    out = {}
    for g in online:
        share = total_demand * g.p_max / cap if cap > 0 else 0.0
        out[g.id] = min(max(share, g.p_min), g.p_max)
    return out


def _sensor_roster(case: GridCase) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Sensor ids and types: three per bus, then three per branch, in the
    order of ``SENSOR_TYPES``."""
    ids = []
    for b in case.buses:
        ids += [f"vm:{b.id}", f"pinj:{b.id}", f"qinj:{b.id}"]
    for br in case.branches:
        ids += [f"pf:{br.id}", f"qf:{br.id}", f"if:{br.id}"]
    types = SENSOR_TYPES[:3] * len(case.buses) + SENSOR_TYPES[3:] * len(case.branches)
    return tuple(ids), types


def _readings(case: GridCase, net: Network, vm: np.ndarray, va: np.ndarray,
              p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Noise-free readings (ticks x roster, see ``_sensor_roster``) from
    ticks x buses voltages and net injections; open branches read zero."""
    br = net.branches
    end = br.terminals(vm * np.exp(1j * va))
    flows = np.zeros((len(vm), len(case.branches), 3))
    flows[:, br.pos] = np.stack([end.s_f.real, end.s_f.imag, np.abs(end.i_f)], axis=2)
    return np.concatenate([np.stack([vm, p, q], axis=2).reshape(len(vm), -1),
                           flows.reshape(len(vm), -1)], axis=1)


def run_scenario(scenario: Scenario) -> LabeledStream:
    """Execute the tick loop and emit the noisy labeled stream.

    Applies no event: each of ``scenario.segments`` has its network compiled
    once and its noise-free readings computed in one batch. A tick
    whose warm-started power flow diverges is solved again from a flat
    start. Aborts with the tick index if that fails too, or if the tick's
    demand exceeds the online capacity; ticks are never silently skipped.

    Each segment's noise is added in place as soon as its noise-free
    readings land in ``values``, drawn in reading order (tick by tick, each
    tick in roster order) from one noise stream that runs on across
    segments; since ``Rng.normals`` equals as many scalar draws, reading
    ``(t, j)`` gets the same draw as a per-reading loop would give it.
    """
    cfg = scenario.config
    case = cfg.case
    base_pd = np.array([l.pd for l in case.loads])
    base_qd = np.array([l.qd for l in case.loads])
    sensor_ids, sensor_types = _sensor_roster(case)

    starts = [first for first, _ in scenario.segments]
    noise_rng = Rng(derive_seed(cfg.seed, _NOISE_SEED_KEY)) if cfg.noise_sigma_rel > 0 else None
    values = np.empty((cfg.horizon, len(sensor_ids)))
    iterations = np.zeros(cfg.horizon, dtype=int)
    max_mismatch = np.zeros(cfg.horizon)
    retried = np.zeros(cfg.horizon, dtype=bool)
    prev: PFSolution | None = None
    for (first, current), stop in zip(scenario.segments, starts[1:] + [cfg.horizon]):
        net = network(current)
        online = [g for g in current.generators if g.online]
        # per tick of the segment: vm, va, and net active/reactive injection
        state = np.empty((4, stop - first, len(case.buses)))
        for t in range(first, stop):
            mult = scenario.multipliers[t]
            try:
                dispatch = generation_dispatch(
                    current, float(base_pd @ mult) * (1.0 + DISPATCH_LOSS_FRAC))
            except ScenarioError as exc:
                raise ScenarioError(f"{exc} at tick {t}") from exc
            tick = net.with_injections(base_pd * mult, base_qd * mult,
                                       [dispatch[g.id] for g in online], [g.qg for g in online])
            start = "flat" if prev is None else (prev.vm, prev.va)
            sol = solve_pf(tick, start=start)
            if not sol.converged and start != "flat":
                # a warm start carried from a disturbed state can diverge where
                # a flat start converges (e.g. when a tripped line recloses)
                retried[t] = True
                sol = solve_pf(tick)
            if not sol.converged:
                raise ScenarioError(
                    f"power flow diverged at tick {t} (max mismatch {sol.max_mismatch:.2e})")
            prev = sol
            iterations[t], max_mismatch[t] = sol.iterations, sol.max_mismatch
            state[:, t - first] = sol.vm, sol.va, sol.pg - tick.pd, sol.qg - tick.qd
        values[first:stop] = _readings(case, net, *state)
        if noise_rng is not None:
            seg = values[first:stop]
            sigma = np.maximum(np.abs(seg), cfg.noise_floor)
            sigma *= cfg.noise_sigma_rel
            seg += noise_rng.normals(seg.size, 0.0, sigma.ravel()).reshape(seg.shape)

    return LabeledStream(
        anomaly_ticks=frozenset(ev.tick for ev in cfg.anomaly_events),
        known_change_ticks=frozenset(ev.tick for ev in cfg.known_events),
        topology_id_per_tick=scenario.topology_id_per_tick,
        sensor_ids=sensor_ids,
        sensor_types=sensor_types,
        values=values,
        iterations=iterations,
        max_mismatch=max_mismatch,
        retried=retried,
        topology_registry=scenario.topology_registry,
        train_ticks=scenario.train_ticks,
        test_ticks=scenario.test_ticks,
    )


# ----------------------------------------------------------- event rates

def expected_event_counts(case: GridCase, hours: float = 24.0) -> dict[str, float]:
    """Expected event counts from the observed per-component daily rates.

    ``bus_ops`` is the paper's observed bus split/merge rate, reported for
    comparison only: the grid model is bus-branch, so no schedule emits a
    bus operation.
    """
    scale = hours / 24.0
    return {
        "bus_ops": RATE_BUS_OPS_PER_BUS * len(case.buses) * scale,
        "line_changes": RATE_LINE_CHANGES_PER_LINE * len(case.branches) * scale,
        "gen_switches": RATE_GEN_SWITCHES_PER_GEN * len(case.generators) * scale,
    }


def sample_event_schedule(case: GridCase, horizon: int, seed: int) -> list[TopologyEvent]:
    """Poisson-sampled known-event schedule at the observed rates over
    ``horizon`` half-hour ticks.

    Line toggles flip the tracked status; gen switches likewise. Events
    that would leave a load island unservable are skipped. Each tick holds
    at most one event; once all ticks do, the rest of the draw is dropped.
    """
    hours = horizon * 24.0 / TICKS_PER_DAY
    rates = expected_event_counts(case, hours)
    rng = Rng(seed)
    n_line = rng.poisson(rates["line_changes"])
    n_gen = rng.poisson(rates["gen_switches"])
    events: list[TopologyEvent] = []
    sim = case
    used_ticks: set[int] = set()
    for component in ["line"] * n_line + ["gen"] * n_gen:
        if len(used_ticks) == horizon:
            break  # every tick holds an event
        tick = rng.randrange(horizon)
        while tick in used_ticks:
            tick = rng.randrange(horizon)
        if component == "line":
            br = rng.choice(sim.branches)
            kind = "line_open" if br.closed else "line_close"
            ev = TopologyEvent(tick=tick, kind=kind, target=br.id)
        else:
            g = rng.choice(sim.generators)
            kind = "gen_off" if g.online else "gen_on"
            ev = TopologyEvent(tick=tick, kind=kind, target=g.id)
        candidate = apply_event(sim, ev)
        if any(rep.unservable for rep in connectivity_check(candidate)):
            continue
        if len(candidate.islands) > len(sim.islands):
            continue  # keep the benchmark single-island
        sim = candidate
        used_ticks.add(tick)
        events.append(ev)
    return sorted(events, key=lambda e: e.tick)


# ------------------------------------------------------ benchmark builder

def _outage_ok(case: GridCase, branch_ids: tuple[int, ...]) -> bool:
    """True if removing the given branches keeps the case connected and solvable."""
    trial = case
    for b in branch_ids:
        trial = apply_event(trial, TopologyEvent(0, "line_open", b))
    if any(rep.unservable for rep in connectivity_check(trial)):
        return False
    if len(trial.islands) > len(case.islands):
        return False
    try:
        return solve_pf(trial).converged
    except PowerFlowError:
        return False


def _branches_by_flow(case: GridCase) -> list[int]:
    """Branch ids by descending base-case |p_from|.

    A flow within 1e-9 of the next larger one ties with it, and tied
    branches rank by id, so the order does not hang on roundoff.
    """
    mag = np.abs(branch_flows(case, solve_pf(case)).p_from)
    order = np.argsort(-mag, kind="stable")
    tie_run = np.empty(len(mag), dtype=int)
    tie_run[order] = np.cumsum(np.diff(mag[order], prepend=mag[order[:1]]) < -1e-9)
    ranked = sorted(range(len(mag)), key=lambda k: (tie_run[k], case.branches[k].id))
    return [case.branches[k].id for k in ranked]


def _outage_plan(case: GridCase, n_topologies: int,
                 segment: int) -> tuple[tuple[TopologyEvent, ...], tuple[TopologyEvent, ...]]:
    """The benchmark's (known, anomaly) events. Neither the seed nor the load
    variant enters.

    Known events toggle a line every ``segment`` ticks through
    ``n_topologies`` announced topologies, whose outage sets run
    {}, {c0}, {c0,c1}, {c1}, {c1,c2}, ... so at most two lines are out at
    once. The chain c0, c1, ... takes lines in descending base-case flow
    order, each one whose single outage, and whose pair outage with the
    chain line before it, stays connected and solvable. The anomalies are
    unannounced trip/reclose pairs of two further lines.
    """
    if segment < 5:
        raise ScenarioError(f"segment {segment} too short for a trip and its reclose")
    if n_topologies < 5:
        raise ScenarioError(f"{n_topologies} topologies leave no fifth segment for a trip")
    ranked = _branches_by_flow(case)
    n_lines = (n_topologies + 1) // 2
    chain: list[int] = []
    for cand in ranked:
        if not _outage_ok(case, (cand,)):
            continue
        if chain and not _outage_ok(case, (chain[-1], cand)):
            continue
        chain.append(cand)
        if len(chain) >= n_lines:
            break
    if len(chain) < n_lines:
        raise ScenarioError(
            f"only {len(chain)} of {n_lines} removable lines found for the plan")
    steps = [("line_open", chain[0])]
    for prev, line in zip(chain, chain[1:]):
        steps += [("line_open", line), ("line_close", prev)]
    known = []
    announced = [case]  # the announced case of each segment
    for i, (kind, target) in enumerate(steps[:n_topologies - 1]):
        known.append(TopologyEvent(tick=segment * (i + 1), kind=kind, target=target))
        announced.append(apply_event(announced[-1], known[-1]))

    # each anomaly trips a line inside one segment and recloses it three
    # ticks later, before the segment's next announced toggle
    latest = segment - 4
    test_seg = n_topologies - 3
    anomaly_base_ticks = tuple(
        segment * k + min(offset, latest)
        for k, offset in ((4, int(segment * 4.6) - 4 * segment),
                          (test_seg, segment // 2 + 5),
                          (test_seg + 1, segment // 2 + 5),
                          (test_seg + 2, segment // 2)))

    anomaly_lines = []
    for cand in ranked:
        if cand in chain:  # the cut plan toggles every chain line
            continue
        # the trip must stay solvable inside every topology it lands in;
        # the chain screen checked each announced outage set against the
        # base case's island count, so each announced case has that count too
        if all(_outage_ok(announced[t // segment], (cand,)) for t in anomaly_base_ticks):
            anomaly_lines.append(cand)
        if len(anomaly_lines) >= 2:
            break
    if len(anomaly_lines) < 2:
        raise ScenarioError("could not find anomaly candidate lines")
    ax, ay = anomaly_lines
    anomalies = []
    for base_tick, line in zip(anomaly_base_ticks, (ay, ax, ay, ax)):
        anomalies.append(TopologyEvent(tick=base_tick, kind="line_open", target=line))
        anomalies.append(TopologyEvent(tick=base_tick + 3, kind="line_close", target=line))
    return tuple(known), tuple(anomalies)


def benchmark_config(case: GridCase, variant: str = "small", seed: int = 0,
                     n_topologies: int = 13, segment: int = 50) -> ScenarioConfig:
    """The seeded regression scenario: 13 announced topologies, 10/3 split,
    unannounced trip/reclose anomaly pairs, and a load variant.

    The events come from ``_outage_plan``, the same for every variant and
    seed. variant "small": every load follows one shared low-amplitude
    smooth pattern (no spatial differences). variant "realistic": per-load
    styles, peaks, and amplitudes from the default population.
    """
    if variant not in ("small", "realistic"):
        raise ScenarioError(f"unknown variant {variant!r}")
    known, anomalies = _outage_plan(case, n_topologies, segment)
    n_loads = len(case.loads)
    if variant == "small":
        shared = StyleParams(style="smooth", peak_tick=TICKS_PER_DAY // 3, amplitude=0.05)
        styles = tuple(shared for _ in range(n_loads))
    else:
        styles = tuple(sample_population(n_loads, TICKS_PER_DAY, derive_seed(seed, 7)))

    return ScenarioConfig(
        case=case, horizon=segment * n_topologies, load_styles=styles,
        known_events=known, anomaly_events=anomalies,
        topology_count=n_topologies, seed=seed, train_topologies=n_topologies - 3)
