"""Correctness checks on the program's outputs.

Each check returns a list of failure messages (empty when the output is
correct). The checks test properties the method must have, computed here
from the inputs, never a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Noise is Gaussian; a reading further than this many sigmas from its truth
# is a fault, not bad luck (P < 3e-12 per reading).
NOISE_SIGMAS = 7.0
# Network losses as a share of load: positive and "a few percent" (the
# bundled cases lose 1-6% under the benchmark schedules).
MAX_LOSS_SHARE = 0.10
# Window after an announced change or an anomaly trip, in ticks.
EVENT_WINDOW = 5


def _columns(sensor_ids, prefix: str) -> dict[int, int]:
    """Element id -> column for sensors named ``prefix:<id>``."""
    return {int(s.split(":")[1]): k for k, s in enumerate(sensor_ids)
            if s.startswith(prefix + ":")}


def open_branches_per_tick(case, events, horizon: int) -> list[frozenset]:
    """Branches out of service at each tick, replayed from the schedule."""
    open_now = {br.id for br in case.branches if not br.closed}
    by_tick: dict[int, list] = {}
    for ev in events:
        by_tick.setdefault(ev.tick, []).append(ev)
    out = []
    for t in range(horizon):
        for ev in by_tick.get(t, ()):
            if ev.kind == "line_open":
                open_now.add(ev.target)
            elif ev.kind == "line_close":
                open_now.discard(ev.target)
        out.append(frozenset(open_now))
    return out


def stream_failures(config, stream) -> list[str]:
    """Labels match the schedule; out-of-service branches read zero flow."""
    fails = []
    events = config.known_events + config.anomaly_events
    if stream.values.shape != (config.horizon, len(stream.sensor_ids)):
        fails.append(f"values shape {stream.values.shape} != "
                     f"({config.horizon}, {len(stream.sensor_ids)})")
        return fails
    if not np.all(np.isfinite(stream.values)):
        fails.append("stream has non-finite readings")
    if set(stream.anomaly_ticks) != {ev.tick for ev in config.anomaly_events}:
        fails.append("anomaly labels differ from the scheduled anomaly events")
    if set(stream.known_change_ticks) != {ev.tick for ev in config.known_events}:
        fails.append("known-change labels differ from the scheduled announced events")

    tol = NOISE_SIGMAS * config.noise_sigma_rel * config.noise_floor + 1e-12
    flow_cols = [_columns(stream.sensor_ids, p) for p in ("pf", "qf", "if")]
    for t, open_ids in enumerate(open_branches_per_tick(config.case, events, config.horizon)):
        for bid in open_ids:
            for cols in flow_cols:
                v = stream.values[t, cols[bid]]
                if abs(v) > tol:
                    fails.append(f"tick {t}: out-of-service branch {bid} reads "
                                 f"{stream.sensor_ids[cols[bid]]} = {v:.3g}")
                    return fails
    return fails


def replay_failures(config, noisy, truth, load_pu: np.ndarray) -> list[str]:
    """Physics of a noise-free replay of the first ticks, and the noise on top.

    ``truth`` is the noise-free stream of the same schedule over its first
    ``len(truth.values)`` ticks; ``load_pu`` is the total active load per
    tick of those ticks.
    """
    fails = []
    vals = truth.values
    n = len(vals)
    ids = truth.sensor_ids
    vm = _columns(ids, "vm")
    pf, qf, im = (_columns(ids, p) for p in ("pf", "qf", "if"))
    for br in config.case.branches:
        s_mag = np.hypot(vals[:, pf[br.id]], vals[:, qf[br.id]])
        v_i = vals[:, vm[br.from_bus]] * vals[:, im[br.id]]
        err = np.abs(s_mag - v_i) / np.maximum(1.0, s_mag)
        if err.max() > 1e-9:
            t = int(err.argmax())
            fails.append(f"tick {t}: branch {br.id} |S_from| {s_mag[t]:.6g} != "
                         f"vm_from*|I_from| {v_i[t]:.6g}")
            break
    losses = vals[:, sorted(_columns(ids, "pinj").values())].sum(axis=1)
    share = losses / load_pu
    if not (np.all(share > 0) and np.all(share < MAX_LOSS_SHARE)):
        t = int(np.argmax((share <= 0) | (share >= MAX_LOSS_SHARE)))
        fails.append(f"tick {t}: network losses are {share[t]:.2%} of load")
    sigma = config.noise_sigma_rel * np.maximum(np.abs(vals), config.noise_floor)
    dev = np.abs(noisy.values[:n] - vals)
    if np.any(dev > NOISE_SIGMAS * sigma + 1e-12):
        t, k = np.unravel_index(int(np.argmax(dev - NOISE_SIGMAS * sigma)), dev.shape)
        fails.append(f"tick {t}: reading {ids[k]} is off its noise-free value by "
                     f"{dev[t, k]:.3g} (sigma {sigma[t, k]:.3g})")
    return fails


def _flags_in_windows(flagged: set[int], starts) -> int:
    return sum(1 for f in flagged for s in starts if s <= f <= s + EVENT_WINDOW)


def detect_failures(stream, series: dict, trip_ticks) -> list[str]:
    """Flags sit on finite scores; topo catches trips and ignores announced
    changes, which gesd does not."""
    fails = []
    for name, s in series.items():
        if np.any(s.flags & ~np.isfinite(s.scores)):
            fails.append(f"{name} flags a tick whose score is not finite")
        if not np.isfinite(s.scores).any():
            fails.append(f"{name} scored no tick")
    topo = series["topo"].flagged_ticks()
    missed = [t for t in trip_ticks if _flags_in_windows(topo, (t,)) == 0]
    if missed:
        fails.append(f"topo misses the anomaly trips at ticks {missed}")
    near = _flags_in_windows(topo, stream.known_change_ticks)
    if near:
        fails.append(f"topo raises {near} flags within {EVENT_WINDOW} ticks "
                     "after announced changes")
    if _flags_in_windows(series["gesd"].flagged_ticks(), stream.known_change_ticks) == 0:
        fails.append("gesd raises no flag after announced changes; the stream "
                     "does not show the announced-change blind spot")
    return fails


def parzen_reference(values: np.ndarray, train_ticks, query_ticks,
                     bandwidth_floor: float = 1e-6) -> np.ndarray:
    """Parzen score (negative log Gaussian-kernel density) written out here.

    Features are standardized with the training statistics; bandwidths
    follow Silverman's rule per dimension.
    """
    train = values[np.asarray(train_ticks)]
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), 1e-9)
    x = (train - mean) / std
    q = (values[np.asarray(query_ticks)] - mean) / std
    n, d = x.shape
    h = np.maximum(x.std(axis=0, ddof=1) * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0)),
                   bandwidth_floor)
    z = (q[:, None, :] - x[None, :, :]) / h
    log_k = -0.5 * (z * z).sum(axis=2) - 0.5 * d * math.log(2.0 * math.pi) - np.log(h).sum()
    top = log_k.max(axis=1)
    log_density = top + np.log(np.exp(log_k - top[:, None]).sum(axis=1)) - math.log(n)
    return -log_density


def parzen_failures(stream, parzen_series) -> list[str]:
    """Recompute the parzen scores of a few test ticks without the detector:
    the first, middle and last, and the first anomaly tick among them."""
    ticks = [int(t) for t in parzen_series.ticks]
    anomalies = sorted(set(ticks) & set(stream.anomaly_ticks))
    picks = sorted({ticks[0], ticks[len(ticks) // 2], ticks[-1], *anomalies[:1]})
    want = parzen_reference(stream.values, stream.train_ticks, picks)
    got = np.array([parzen_series.scores[ticks.index(t)] for t in picks])
    if not np.allclose(got, want, rtol=1e-8, atol=1e-8):
        k = int(np.argmax(np.abs(got - want)))
        return [f"parzen score at tick {picks[k]} is {got[k]:.10g}, "
                f"recomputed {want[k]:.10g}"]
    return []


def sweep_failures(config, result) -> list[str]:
    """Every cell present once with sane means; naive loses on every seed."""
    fails = []
    expected = {(m, f, s) for m in config.modes for f in config.n_fake for s in config.seeds}
    cells = [(r.mode, r.n_fake, r.seed) for r in result.rows]
    if len(set(cells)) != len(cells) or not set(cells) <= expected:
        fails.append("sweep rows repeat a cell or hold a cell outside the grid")
    if len(cells) + len(result.failures) != len(expected):
        fails.append(f"{len(cells)} rows + {len(result.failures)} failures "
                     f"!= {len(expected)} cells")
    for r in result.rows:
        means = (r.equality_mean, r.inequality_mean, r.overall_mean)
        if not all(math.isfinite(v) and v >= 0 for v in means):
            fails.append(f"cell {r.mode}/{r.n_fake}/{r.seed}: means {means}")
        elif abs(r.overall_mean - 0.5 * (r.equality_mean + r.inequality_mean)) > \
                1e-12 * max(1.0, r.overall_mean):
            fails.append(f"cell {r.mode}/{r.n_fake}/{r.seed}: overall != (eq + ineq)/2")
    for seed in config.seeds:
        by_mode: dict[str, list[float]] = {}
        for r in result.rows:
            if r.seed == seed:
                by_mode.setdefault(r.mode, []).append(r.overall_mean)
        if not {"naive", "grouped", "brute_force"} <= set(by_mode):
            continue  # a failed cell is counted as failed, not judged here
        mean = {m: float(np.mean(v)) for m, v in by_mode.items()}
        if not (mean["naive"] > mean["grouped"] and mean["naive"] > mean["brute_force"]):
            fails.append(f"seed {seed}: naive {mean['naive']:.4f} is not worse than "
                         f"grouped {mean['grouped']:.4f} and brute_force "
                         f"{mean['brute_force']:.4f}")
    return fails
