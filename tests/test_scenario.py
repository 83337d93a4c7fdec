"""Scenario construction, tick loop, dispatch, and event rates."""

import signal
import tracemalloc
import warnings
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridbench.grid import TopologyEvent, apply_event, bundled_case, connectivity_check, load_case
from gridbench.loadsynth import StyleParams
from gridbench.powerflow import branch_flows, network, solve_pf
from gridbench.rng import _CROSSOVER, Rng, derive_seed
from gridbench.scenario import (
    _NOISE_SEED_KEY,
    _branches_by_flow,
    _outage_ok,
    _outage_plan,
    DISPATCH_LOSS_FRAC,
    ScenarioConfig,
    ScenarioError,
    benchmark_config,
    build_scenario,
    expected_event_counts,
    generation_dispatch,
    run_scenario,
    sample_event_schedule,
)

from test_grid import MINIMAL_2BUS


def small_config(case, horizon=12, known=(), anomalies=(), noise=0.0, seed=0,
                 styles=None, topology_count=None):
    if styles is None:
        styles = tuple(StyleParams(style="constant") for _ in case.loads)
    return ScenarioConfig(case=case, horizon=horizon, load_styles=styles,
                          known_events=tuple(known), anomaly_events=tuple(anomalies),
                          noise_sigma_rel=noise, seed=seed,
                          topology_count=topology_count, train_topologies=10)


# ------------------------------------------------------------- building

def test_no_events_single_stationary_topology():
    case = bundled_case("case30")
    scen = build_scenario(small_config(case))
    assert set(scen.topology_id_per_tick) == {1}
    assert scen.events == ()
    assert scen.test_ticks == ()


def test_benchmark_has_thirteen_distinct_topologies():
    case = bundled_case("case30")
    cfg = benchmark_config(case, variant="small", seed=0)
    scen = build_scenario(cfg)
    assert len(set(scen.topology_id_per_tick)) == 13
    assert len(scen.topology_registry) == 13
    # distinctness of the underlying closed-branch sets
    assert len(set(scen.topology_registry.values())) == 13
    # 10/3 split partitions the horizon
    assert set(scen.train_ticks) | set(scen.test_ticks) == set(range(cfg.horizon))
    assert set(scen.train_ticks) & set(scen.test_ticks) == set()


def test_topology_id_changes_exactly_at_known_graph_events():
    case = bundled_case("case30")
    cfg = benchmark_config(case, variant="small", seed=0)
    scen = build_scenario(cfg)
    known_ticks = {ev.tick for ev in cfg.known_events}
    ids = scen.topology_id_per_tick
    changes = {t for t in range(1, len(ids)) if ids[t] != ids[t - 1]}
    assert changes == known_ticks


def test_event_rate_arithmetic_oracle():
    case = bundled_case("case30")
    rates = expected_event_counts(case, hours=24.0)
    assert rates["bus_ops"] == pytest.approx(46 / 20000 * 30)
    assert rates["line_changes"] == pytest.approx(137 / 17000 * 41)
    assert rates["gen_switches"] == pytest.approx(300 / 2000 * 6)
    half = expected_event_counts(case, hours=12.0)
    assert half["line_changes"] == pytest.approx(rates["line_changes"] / 2)


def test_sampled_schedule_monte_carlo_rate():
    case = bundled_case("case57")
    horizon, interval = 480, 30.0  # ten days
    expect = expected_event_counts(case, horizon * interval / 60.0)
    counts = [len(sample_event_schedule(case, horizon, seed=s))
              for s in range(30)]
    target = expect["line_changes"] + expect["gen_switches"]
    assert abs(np.mean(counts) - target) < 0.35 * target


def test_sampled_schedule_stops_once_every_tick_holds_an_event():
    """Seed 2615 draws two events for a one-tick horizon; the second finds
    no free tick and is dropped instead of redrawn forever."""
    case, seed = bundled_case("case57"), 2615
    # the precondition: the seed's Poisson counts (the schedule's first two
    # draws, at half an hour's rates) add up to two or more events
    rates = expected_event_counts(case, hours=0.5)
    rng = Rng(seed)
    assert rng.poisson(rates["line_changes"]) + rng.poisson(rates["gen_switches"]) >= 2

    def timeout(signum, frame):
        raise TimeoutError("sample_event_schedule did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        events = sample_event_schedule(case, 1, seed)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert events == [TopologyEvent(0, "line_open", 33)]


def test_unservable_island_error_names_event():
    case = load_case(MINIMAL_2BUS)
    ev = TopologyEvent(tick=3, kind="line_open", target=1)
    with pytest.raises(ScenarioError, match="line_open on 1 at tick 3"):
        build_scenario(small_config(case, known=[ev]))


def test_overlapping_known_and_anomaly_ticks_rejected():
    case = bundled_case("case30")
    known = [TopologyEvent(5, "line_open", 10)]
    anom = [TopologyEvent(5, "line_open", 12)]
    with pytest.raises(ScenarioError, match="share ticks"):
        build_scenario(small_config(case, known=known, anomalies=anom))


@pytest.mark.parametrize("known, anomalies, topology_count, match", [
    ([TopologyEvent(12, "line_open", 10)], [], None, "event at tick 12 outside horizon 12"),
    ([], [TopologyEvent(-1, "line_open", 10)], None, "event at tick -1 outside horizon 12"),
    ([TopologyEvent(3, "line_open", 10), TopologyEvent(6, "line_close", 10)], [], None,
     "announced topology sequence revisits an earlier topology"),
    ([TopologyEvent(3, "line_open", 10)], [], 3, "schedule produces 2 topologies, expected 3"),
])
def test_invalid_schedule_rejected(known, anomalies, topology_count, match):
    cfg = small_config(bundled_case("case30"), known=known, anomalies=anomalies,
                       topology_count=topology_count)
    with pytest.raises(ScenarioError, match=match):
        build_scenario(cfg)


@pytest.mark.parametrize("announced", [True, False])
def test_announced_status_follows_the_config_tuple(announced):
    # the same event changes the announced topology from known_events and
    # only the true one from anomaly_events
    case = bundled_case("case30")
    ev = TopologyEvent(5, "line_open", 10)
    known, anomalies = ([ev], []) if announced else ([], [ev])
    scen = build_scenario(small_config(case, known=known, anomalies=anomalies))
    stream = run_scenario(scen)
    opened = apply_event(case, ev)
    assert scen.segments[1] == (5, opened)
    if announced:
        assert scen.topology_registry == {1: case.closed_branch_key(),
                                          2: opened.closed_branch_key()}
        assert scen.topology_id_per_tick == (1,) * 5 + (2,) * 7
        assert (stream.known_change_ticks, stream.anomaly_ticks) == ({5}, set())
    else:
        assert scen.topology_registry == {1: case.closed_branch_key()}
        assert scen.topology_id_per_tick == (1,) * 12
        assert (stream.known_change_ticks, stream.anomaly_ticks) == (set(), {5})


def _schedule_order(ev):
    return ev.tick, ev.kind, ev.target


def announced_keys(case, known):
    """The closed-branch key of each announced topology, from a walk of the
    known events through ``apply_event``: a tick holding a line event
    announces a new topology."""
    keys = [case.closed_branch_key()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the true walk's no-ops are the ones reported
        for _, tick_events in groupby(sorted(known, key=_schedule_order), key=lambda e: e.tick):
            tick_events = list(tick_events)
            for ev in tick_events:
                case = apply_event(case, ev)
            if any(ev.changes_graph for ev in tick_events):
                keys.append(case.closed_branch_key())
    return keys


@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_build_scenario_applies_each_event_once(name, monkeypatch):
    """One walk of the true case: each event is applied once, in schedule
    order, and the registry holds the announced walk's keys."""
    import gridbench.scenario as scenario

    cfg = benchmark_config(bundled_case(name))
    applied = []

    def counted(case, ev):
        applied.append(ev)
        return apply_event(case, ev)

    monkeypatch.setattr(scenario, "apply_event", counted)
    scen = build_scenario(cfg)
    assert len(applied) == len(cfg.known_events) + len(cfg.anomaly_events) == 20
    assert applied == list(scen.events)
    keys = announced_keys(cfg.case, cfg.known_events)
    assert scen.topology_registry == dict(enumerate(keys, 1))


# case14 lines 17 and 20 both open isolate load bus 14; line 14 isolates bus 8
TOGGLES = (st.tuples(st.sampled_from(["line_open", "line_close"]),
                     st.sampled_from([3, 14, 17, 20]))
           | st.tuples(st.sampled_from(["gen_on", "gen_off"]), st.sampled_from([1, 4, 5])))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), TOGGLES), max_size=8),
       st.lists(st.tuples(st.integers(0, 9), TOGGLES), max_size=4))
@example([(0, ("gen_off", 4)), (1, ("gen_off", 4))], [])  # announced no-op
@example([(0, ("line_open", 3)), (1, ("line_open", 3))], [])  # no-op line event: a revisit
@example([(1, ("line_open", 3))], [(0, ("line_open", 3))])  # true no-op, announced change
def test_registry_is_the_walk_of_the_known_events(known, anomalies):
    """On case14, known events on even ticks and anomalies on odd ones:
    the registry is the walk of the known events alone, and the warnings
    are the no-ops of the true walk of all events."""
    case = bundled_case("case14")
    known = [TopologyEvent(2 * t, kind, target) for t, (kind, target) in known]
    anomalies = [TopologyEvent(2 * t + 1, kind, target) for t, (kind, target) in anomalies]
    with warnings.catch_warnings(record=True) as no_ops:
        warnings.simplefilter("always")
        true, unservable = case, False
        for ev in sorted(known + anomalies, key=_schedule_order):
            true = apply_event(true, ev)
            unservable |= any(rep.unservable for rep in connectivity_check(true))
    keys = announced_keys(case, known)
    cfg = small_config(case, horizon=20, known=known, anomalies=anomalies)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        if unservable or len(set(keys)) < len(keys):
            with pytest.raises(ScenarioError, match="unservable" if unservable else "revisits"):
                build_scenario(cfg)
            return
        scen = build_scenario(cfg)
    assert scen.topology_registry == dict(enumerate(keys, 1))
    assert [str(w.message) for w in got] == [str(w.message) for w in no_ops]


def test_style_count_mismatch_rejected():
    case = bundled_case("case30")
    with pytest.raises(ScenarioError, match="per load"):
        build_scenario(small_config(case, styles=(StyleParams(style="constant"),)))


@pytest.mark.parametrize("name,value", [
    ("noise_sigma_rel", -0.01), ("noise_sigma_rel", float("nan")),
    ("noise_floor", -1.0), ("noise_floor", float("nan")),
])
def test_invalid_noise_setting_rejected(name, value):
    cfg = small_config(load_case(MINIMAL_2BUS))
    with pytest.raises(ValueError, match=name):
        replace(cfg, **{name: value})


# ------------------------------------------------------------- dispatch

def test_single_generator_carries_demand():
    case = load_case(MINIMAL_2BUS.replace("pmax=10", "pmax=10 pmin=0"))
    out = generation_dispatch(case, 0.7)
    assert out == {1: pytest.approx(0.7)}


def test_identical_generators_split_equally():
    doc = MINIMAL_2BUS + "gen 2 bus=1 pmax=10\n"
    case = load_case(doc)
    out = generation_dispatch(case, 1.0)
    assert out[1] == pytest.approx(0.5)
    assert out[2] == pytest.approx(0.5)


def test_case30_dispatch_constraint_scan():
    case = bundled_case("case30")
    demand = sum(l.pd for l in case.loads) * 1.02
    out = generation_dispatch(case, demand)
    for g in case.generators:
        assert g.p_min - 1e-12 <= out[g.id] <= g.p_max + 1e-12
    assert sum(out.values()) == pytest.approx(demand)


def test_dispatch_over_capacity_errors():
    case = bundled_case("case30")
    with pytest.raises(ScenarioError, match="exceeds"):
        generation_dispatch(case, 100.0)


def test_dispatch_without_online_generator_errors():
    case = load_case(MINIMAL_2BUS.replace("pmax=10", "pmax=10 status=off"))
    with pytest.raises(ScenarioError, match="no online generators to dispatch"):
        generation_dispatch(case, 0.5)


# ------------------------------------------------------------ execution

def test_zero_noise_frames_equal_pf_truth():
    """Every tick's readings equal, exactly, those of a fresh power flow of
    that tick's case, across a generator switched off and on at a PV bus
    and an unannounced line trip and reclose."""
    case = bundled_case("case14")
    gen = next(g for g in case.generators if case.buses[case.bus_index[g.bus]].kind == "pv")
    known = [TopologyEvent(2, "gen_off", gen.id), TopologyEvent(8, "gen_on", gen.id)]
    anomalies = [TopologyEvent(4, "line_open", 7),
                 TopologyEvent(6, "line_close", 7)]
    styles = tuple(StyleParams(style="smooth", peak_tick=5, amplitude=0.2)
                   for _ in case.loads)
    scen = build_scenario(small_config(case, horizon=10, known=known,
                                       anomalies=anomalies, styles=styles))
    stream = run_scenario(scen)
    cols = {kind: [stream.sensor_ids.index(f"{kind}:{x.id}") for x in items]
            for kind, items in (("vm", case.buses), ("pinj", case.buses),
                                ("qinj", case.buses), ("pf", case.branches),
                                ("qf", case.branches), ("if", case.branches))}
    assert sorted(sum(cols.values(), [])) == list(range(len(stream.sensor_ids)))
    base_pd = np.array([l.pd for l in case.loads])
    current, prev = case, None
    for t in range(scen.config.horizon):
        for ev in scen.events:
            if ev.tick == t:
                current = apply_event(current, ev)
        mult = scen.multipliers[t]
        loads = tuple(replace(l, pd=l.pd * m, qd=l.qd * m)
                      for l, m in zip(case.loads, mult))
        disp = generation_dispatch(current, float(base_pd @ mult) * (1.0 + DISPATCH_LOSS_FRAC))
        tick_case = replace(current, loads=loads, generators=tuple(
            replace(g, pg=disp[g.id]) if g.online else g for g in current.generators))
        net = network(tick_case)
        sol = solve_pf(net, start="flat" if prev is None else (prev.vm, prev.va))
        assert sol.converged
        flows = branch_flows(tick_case, sol)
        truth = {"vm": sol.vm, "pinj": sol.pg - net.pd, "qinj": sol.qg - net.qd,
                 "pf": flows.p_from, "qf": flows.q_from, "if": flows.i_from_mag}
        for kind, want in truth.items():
            assert np.array_equal(stream.values[t, cols[kind]], want), (t, kind)
        prev = sol


def per_tick_stream(scenario):
    """Reference tick loop: one warm-started solve and one ``branch_flows``
    call per tick, then the noise in one draw over the whole horizon, each
    reading's sigma taken from its noise-free value. Returns (values, ticks
    that took the flat-start retry)."""
    cfg = scenario.config
    case = cfg.case
    base_pd = np.array([l.pd for l in case.loads])
    base_qd = np.array([l.qd for l in case.loads])
    by_tick = {}
    for ev in scenario.events:
        by_tick.setdefault(ev.tick, []).append(ev)
    values = np.empty((cfg.horizon, 3 * len(case.buses) + 3 * len(case.branches)))
    retried = []
    current, prev = case, None
    for t in range(cfg.horizon):
        for ev in by_tick.get(t, ()):
            current = apply_event(current, ev)
        if t == 0 or t in by_tick:
            net = network(current)
            online = [g for g in current.generators if g.online]
        mult = scenario.multipliers[t]
        dispatch = generation_dispatch(current, float(base_pd @ mult) * (1.0 + DISPATCH_LOSS_FRAC))
        tick = net.with_injections(base_pd * mult, base_qd * mult,
                                   [dispatch[g.id] for g in online], [g.qg for g in online])
        start = "flat" if prev is None else (prev.vm, prev.va)
        sol = solve_pf(tick, start=start)
        if not sol.converged and start != "flat":
            retried.append(t)
            sol = solve_pf(tick)
        assert sol.converged
        prev = sol
        flows = branch_flows(case, sol)
        values[t] = np.concatenate([
            np.column_stack([sol.vm, sol.pg - tick.pd, sol.qg - tick.qd]).ravel(),
            np.column_stack([flows.p_from, flows.q_from, flows.i_from_mag]).ravel()])
    sigmas = cfg.noise_sigma_rel * np.maximum(np.abs(values), cfg.noise_floor)
    noise_rng = Rng(derive_seed(cfg.seed, _NOISE_SEED_KEY))
    values += noise_rng.normals(values.size, 0.0, sigmas.ravel()).reshape(values.shape)
    return values, retried


@pytest.mark.parametrize("name,variant,seed,segment", [
    ("case30", "realistic", 1, 50),
    ("case57", "small", 0, 20),  # takes the flat-start retry
])
def test_segment_walk_equals_per_tick_loop(name, variant, seed, segment):
    cfg = benchmark_config(bundled_case(name), variant=variant, seed=seed, segment=segment)
    scen = build_scenario(cfg)
    stream = run_scenario(scen)
    values, retried = per_tick_stream(scen)
    assert np.array_equal(stream.values, values)
    assert list(np.flatnonzero(stream.retried)) == retried


def test_run_scenario_applies_no_event(monkeypatch):
    """The tick loop reads the segments that ``build_scenario`` walked."""
    import gridbench.scenario as scenario

    scen = build_scenario(benchmark_config(bundled_case("case14"), segment=5))

    def no_event(case, ev):
        raise AssertionError(f"run_scenario applied {ev}")

    monkeypatch.setattr(scenario, "apply_event", no_event)
    stream = run_scenario(scen)
    assert [t for t, _ in scen.segments] == [0] + [ev.tick for ev in scen.events]
    assert np.all(stream.max_mismatch <= 1e-8)


def test_line_open_zeroes_flow_sensors():
    case = bundled_case("case30")
    ev = TopologyEvent(tick=4, kind="line_open", target=10)
    scen = build_scenario(small_config(case, horizon=8, known=[ev]))
    stream = run_scenario(scen)
    k = stream.sensor_ids.index("pf:10")
    assert abs(stream.values[3, k]) > 1e-3   # loaded before
    assert np.all(np.abs(stream.values[4:, k]) < 1e-12)


def test_fixed_seed_stream_bit_identical():
    case = bundled_case("case30")
    cfg = small_config(case, horizon=20, noise=0.01, seed=42)
    a = run_scenario(build_scenario(cfg))
    b = run_scenario(build_scenario(cfg))
    assert a.values.tobytes() == b.values.tobytes()


def assert_noise_law(cfg):
    """A noisy stream is its noise-free run plus one scalar ``normal(0, sigma)``
    per reading from the seed's noise stream, tick by tick in roster order,
    where sigma is ``noise_sigma_rel * max(|noise-free reading|, noise_floor)``."""
    noisy = run_scenario(build_scenario(cfg))
    clean = run_scenario(build_scenario(replace(cfg, noise_sigma_rel=0.0)))
    sigmas = cfg.noise_sigma_rel * np.maximum(np.abs(clean.values), cfg.noise_floor)
    rng = Rng(derive_seed(cfg.seed, _NOISE_SEED_KEY))
    noise = np.array([rng.normal(0.0, s) for s in sigmas.ravel()])
    assert np.array_equal(noisy.values, clean.values + noise.reshape(clean.values.shape))


def test_noise_is_the_scalar_stream_over_readings_in_order():
    assert_noise_law(benchmark_config(bundled_case("case14"), variant="realistic", seed=3))


def test_noise_stream_runs_on_across_short_and_odd_segments():
    """Noise is drawn segment by segment; a two-bus case reads 9 sensors a
    tick, so its segments hold odd counts, some below the bulk crossover,
    and a Box-Muller spare carries over from one segment to the next."""
    case = load_case(MINIMAL_2BUS + "gen 2 bus=1 pmax=10\n")
    known = [TopologyEvent(1, "gen_off", 2), TopologyEvent(3, "gen_on", 2),
             TopologyEvent(8, "gen_off", 2)]
    cfg = small_config(case, horizon=12, known=known, noise=0.01, seed=5)
    scen = build_scenario(cfg)
    n_sensors = 3 * len(case.buses) + 3 * len(case.branches)
    firsts = [first for first, _ in scen.segments]
    counts = [n_sensors * (stop - first)
              for first, stop in zip(firsts, firsts[1:] + [cfg.horizon])]
    assert counts == [9, 18, 45, 36]
    assert min(counts) < _CROSSOVER <= max(counts)
    assert_noise_law(cfg)


def test_zero_noise_no_events_frames_track_load_profiles_only():
    case = bundled_case("case14")
    styles = tuple(StyleParams(style="constant") for _ in case.loads)
    scen = build_scenario(small_config(case, horizon=5, styles=styles))
    stream = run_scenario(scen)
    for t in range(1, 5):
        np.testing.assert_allclose(stream.values[t], stream.values[0], atol=1e-9)
    # now a single smooth load: frames change between ticks
    styles = (StyleParams(style="smooth", peak_tick=2, amplitude=0.2),) + styles[1:]
    scen = build_scenario(small_config(case, horizon=5, styles=styles))
    stream2 = run_scenario(scen)
    assert not np.allclose(stream2.values[1], stream2.values[0], atol=1e-9)


@pytest.mark.parametrize("variant", ["small", "realistic"])
def test_case57_benchmark_scenario_retries_diverged_warm_start(variant):
    """The warm start carried from an anomaly trip diverges when the line
    recloses; the tick is solved again from a flat start instead of aborting."""
    case = bundled_case("case57")
    cfg = benchmark_config(case, variant=variant, seed=0, segment=20)
    stream = run_scenario(build_scenario(cfg))
    assert stream.values.shape == (cfg.horizon, len(stream.sensor_ids))
    assert np.all(np.isfinite(stream.values))
    # the per-tick solver record marks the retried tick; every kept solve
    # converged to the solver's tolerance
    assert stream.retried.shape == stream.iterations.shape == (cfg.horizon,)
    assert stream.retried.any()
    assert np.all(stream.max_mismatch <= 1e-8)
    assert np.all(stream.iterations[stream.retried] > 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", ["small", "realistic"])
@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_every_bundled_benchmark_stream_completes(name, variant, seed):
    cfg = benchmark_config(bundled_case(name), variant=variant, seed=seed)
    stream = run_scenario(build_scenario(cfg))
    assert stream.values.shape == (cfg.horizon, len(stream.sensor_ids))
    assert np.all(np.isfinite(stream.values))


@pytest.mark.parametrize("variant", ["small", "realistic"])
def test_benchmark_config_valid_for_short_segments(variant):
    """Each anomaly trip and its reclose stay inside one segment, clear of
    the announced toggles and of the horizon."""
    case = bundled_case("case14")
    rejected = {}
    for segment in range(5, 61):
        try:
            build_scenario(benchmark_config(case, variant=variant, seed=0, segment=segment))
        except ScenarioError as exc:
            rejected[segment] = str(exc)
    assert rejected == {}


def test_benchmark_config_rejects_unknown_variant():
    with pytest.raises(ScenarioError, match="unknown variant 'medium'"):
        benchmark_config(bundled_case("case14"), variant="medium")


def test_benchmark_config_rejects_segment_without_room_for_reclose():
    with pytest.raises(ScenarioError, match="too short"):
        benchmark_config(bundled_case("case14"), segment=4)


@pytest.mark.parametrize("n_topologies", range(5))
def test_benchmark_config_rejects_fewer_than_five_topologies(n_topologies):
    # the first anomaly trip lands in the fifth segment
    with pytest.raises(ScenarioError, match="fifth segment"):
        benchmark_config(bundled_case("case14"), n_topologies=n_topologies)


@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_benchmark_trips_solve_in_their_announced_topology(name):
    """The schedule depends on the case alone, not on the variant or seed,
    and each anomaly trip converges from a flat start in the announced
    topology of its tick."""
    case = bundled_case(name)
    configs = [benchmark_config(case, variant=v, seed=s)
               for v in ("small", "realistic") for s in (0, 1)]
    assert len({(c.known_events, c.anomaly_events) for c in configs}) == 1
    cfg = configs[0]
    trips = [ev for ev in cfg.anomaly_events if ev.kind == "line_open"]
    assert len(trips) == 4
    for trip in trips:
        announced = case
        for ev in cfg.known_events:
            if ev.tick <= trip.tick:
                announced = apply_event(announced, ev)
        assert solve_pf(apply_event(announced, trip)).converged, trip


def test_pf_divergence_aborts_with_tick():
    doc = MINIMAL_2BUS.replace("pd=0.5", "pd=8.0").replace("pmax=10", "pmax=900")
    case = load_case(doc)
    with pytest.raises(ScenarioError, match="tick 0"):
        run_scenario(build_scenario(small_config(case, horizon=2)))


def test_over_capacity_tick_aborts_with_tick():
    """Switching off the larger of two generators at tick 3 leaves less
    capacity than demand; the error names that tick."""
    doc = MINIMAL_2BUS.replace("pmax=10", "pmax=0.3") + "gen 2 bus=1 pmax=10\n"
    case = load_case(doc)
    known = [TopologyEvent(3, "gen_off", 2)]
    with pytest.raises(ScenarioError, match="exceeds online capacity .* at tick 3$"):
        run_scenario(build_scenario(small_config(case, horizon=6, known=known)))


def test_measurement_sigma_positive_and_roster_constant():
    case = bundled_case("case14")
    cfg = small_config(case, horizon=4, noise=0.01)
    noisy = run_scenario(build_scenario(cfg))
    clean = run_scenario(build_scenario(replace(cfg, noise_sigma_rel=0.0)))
    # every tick reads the same roster, and each reading's sigma is positive,
    # so every reading differs from its noise-free value
    assert noisy.values.shape == clean.values.shape == (4, len(noisy.sensor_ids))
    assert np.all(noisy.values != clean.values)


def test_run_scenario_keeps_one_readings_array():
    """Running the case30 benchmark stream allocates little beyond its
    ``values``: the noise is added segment by segment, so no full-horizon
    sigma or noise array is built or kept."""
    scen = build_scenario(benchmark_config(bundled_case("case30")))
    run_scenario(scen)  # builds the segment cases' cached bus indexes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = run_scenario(scen)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = stream.values.nbytes
    assert after - before <= 1.05 * size
    assert peak - before <= 2 * size


@pytest.mark.parametrize("n_topologies,segment", [(13, 50), (7, 12)])
@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_benchmark_events_are_the_seed_free_outage_plan(name, n_topologies, segment):
    """Only the load styles depend on the variant and seed: every config
    holds the events of one outage plan."""
    case = bundled_case(name)
    plan = _outage_plan(case, n_topologies, segment)
    for variant in ("small", "realistic"):
        for seed in (0, 3, 10):
            cfg = benchmark_config(case, variant, seed, n_topologies, segment)
            assert (cfg.known_events, cfg.anomaly_events) == plan


@pytest.mark.parametrize("n_topologies,segment", [(13, 50), (7, 12), (6, 20)])
@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_outage_plan_walks_the_first_screened_chain(name, n_topologies, segment):
    """The announced outage sets run {}, {c0}, {c0,c1}, {c1}, {c1,c2}, ...
    over a chain of lines taken in flow order: every line ranked above the
    last chain line and left out of the chain fails its single outage, or
    its pair outage with the chain line before it. The anomaly lines are
    outside the chain."""
    case = bundled_case(name)
    known, anomalies = _outage_plan(case, n_topologies, segment)
    assert [ev.tick for ev in known] == [segment * (i + 1) for i in range(n_topologies - 1)]
    out: set[int] = set()
    outage_sets = [frozenset(out)]
    chain: list[int] = []
    for ev in known:
        if ev.kind == "line_open":
            out.add(ev.target)
            chain.append(ev.target)
        else:
            assert ev.kind == "line_close"
            out.remove(ev.target)
        outage_sets.append(frozenset(out))
    assert outage_sets == [frozenset()] + [
        frozenset(chain[(j - 1) // 2:j // 2 + 1]) for j in range(1, n_topologies)]

    ranked = _branches_by_flow(case)
    positions = [ranked.index(b) for b in chain]
    assert positions == sorted(positions)
    before: list[int] = []
    for cand in ranked[:positions[-1]]:
        if cand in chain:
            before.append(cand)
            continue
        assert (not _outage_ok(case, (cand,))
                or bool(before) and not _outage_ok(case, (before[-1], cand))), cand
    assert {ev.target for ev in anomalies}.isdisjoint(chain)


def test_benchmark_config_line_ranking_ignores_flow_roundoff(monkeypatch):
    """case14 branches 8 and 15 carry base-case flows equal up to roundoff;
    nudging one of them by 1e-13 must not change the scenario."""
    import gridbench.scenario as scenario

    case = bundled_case("case14")
    base = benchmark_config(case, variant="small", seed=0)
    unnudged = scenario.branch_flows

    def nudged(case_, sol):
        flows = unnudged(case_, sol)
        flows.p_from[flows.branch_ids.index(15)] *= 1 + 1e-13
        return flows

    monkeypatch.setattr(scenario, "branch_flows", nudged)
    assert benchmark_config(case, variant="small", seed=0) == base


def test_outage_screen_lets_programming_faults_through(monkeypatch):
    """A candidate outage that fails to solve is skipped; a fault in the
    program itself is raised, not counted as an unremovable line."""
    import gridbench.scenario as scenario

    solve = scenario.solve_pf

    def faulty(case, *args, **kwargs):
        if all(br.closed for br in case.branches):
            return solve(case, *args, **kwargs)
        raise TypeError("programming fault")

    monkeypatch.setattr(scenario, "solve_pf", faulty)
    with pytest.raises(TypeError, match="programming fault"):
        benchmark_config(bundled_case("case14"), variant="small", seed=0)

