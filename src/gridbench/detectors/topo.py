"""Topology-aware online scoring via sensitivity-weighted graph distances.

A simplified dynamic-graph detector: each sensor keeps a trailing history
of (value, announced topology); when scoring a new frame the history is
weighted by exp(-d/tau) where d is a flow-sensitivity-weighted distance
between the current announced topology and the sample's. The score is a
weighted robust z (deviation from the weighted median, scaled by the
weighted MAD plus a distance-proportional tolerance), maximized over
sensors.

Right after an announced change the effective history shrinks towards
zero; scoring is withheld until enough comparable samples accumulate,
which is what keeps announced changes from raising alarms while
*unannounced* changes (same announced topology, shifted physics) light up
immediately.

The ticks are walked in blocks of ``BLOCK``. Each sensor's union window
of a block (every slot some tick of the block looks back on) is sorted
once; a tick weighs the slots outside its own window 0, so its weighted
median and MAD are picks along that one order and no later tick can move
its score. The MAD's order is the stable sort of ``|sorted - median|``,
which falls then rises along a row, and a sensor whose median has not
moved since the block's previous scored tick keeps it.

Since no block reads another's work, the walk splits on block boundaries
(``split_walk``): the even blocks in one forked child and the odd ones in
another, at once, when the process may use two CPUs under one BLAS thread,
both here otherwise (one CPU, ``OPENBLAS_NUM_THREADS`` not "1", no
``os.fork``, another Python thread running). A part may call BLAS; this
process makes none between the fork and the join. Alternate blocks give
both parts a like share of withheld ticks. The distances, the weights'
power flow and the threshold are computed before the split; the flags are
set once, from the scores put together.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .base import AnomalyScoreSeries, TopoConfig, max_z_threshold, split_walk
from ..grid.model import GridCase
from ..powerflow import branch_flows, solve_pf

TopologyKey = frozenset

HISTORY = 150      # trailing ticks kept per sensor
MIN_ESS = 10.0     # withhold when the effective history drops below
SCALE_SLACK = 2.0  # distance-proportional tolerance added to the scale
VALUE_FLOOR = 0.05  # magnitude the slack is proportional to, at least
FINITE_SAMPLE = 3.0  # scale inflation 1 + c/sqrt(ess) for short histories
BLOCK = 8          # consecutive ticks that share one sort of their windows


def sensitivity_weights(case: GridCase) -> dict[int, float]:
    """Per-branch weight: base-case flow magnitude share from a one-time PF.

    Branches carrying no base-case flow keep a small floor weight so that
    status changes on them still register.
    """
    sol = solve_pf(case)
    flows = branch_flows(case, sol)
    mags = np.abs(flows.p_from)
    total = mags.sum()
    floor = 0.1 / max(1, len(case.branches))
    out = {}
    for bid, mag in zip(flows.branch_ids, mags):
        share = float(mag / total) if total > 0 else 0.0
        out[bid] = max(share, floor)
    return out


def graph_distance(topo_a: TopologyKey, topo_b: TopologyKey,
                   weights: dict[int, float]) -> float:
    """Weighted size of the symmetric difference of closed-branch sets.

    Keys are sets of closed branch ids (``GridCase.closed_branch_key``);
    each id in only one key adds its weight from ``weights`` (branch id ->
    weight, as ``sensitivity_weights`` returns). A nonnegative metric:
    symmetric, zero iff equal keys, triangle inequality via the
    symmetric-difference union bound. ``math.fsum`` makes the sum exact up
    to one rounding, so it does not depend on the difference's set order.
    """
    default = min(weights.values()) if weights else 1.0
    return math.fsum(weights.get(bid, default) for bid in topo_a ^ topo_b)


def _half_weight_pick(slots: np.ndarray, w: np.ndarray, half: float,
                      cum: np.ndarray) -> np.ndarray:
    """Per row of ``slots``, the position of the first entry whose cumulative
    weight reaches ``half``; ``w`` weights the slots and ``cum`` (the shape
    of ``slots``) is overwritten with the cumulative weights.

    With ``slots`` a row's ascending value order and ``half`` half the total
    weight, this picks the row's lower weighted median. Adding a zero weight
    is exact, so slots of weight 0 leave the other slots' partial sums as
    they are and are never picked: the pick is the one over the slots of
    nonzero weight alone.

    The default (introsort) ``argsort`` is not stable. Where a row's values
    are distinct, their sorted order is unique, so the pick is exactly a
    stable sort's. Ties only permute equal values, which changes the
    rounding of the cumulative weights from the tie block on. The pick is
    still exactly a stable sort's when those partial sums are exact (as
    with the unit weights of samples on the current topology); otherwise
    it can differ only where a cumulative weight lies within rounding of
    half the total at a tie block's boundary.
    """
    np.take(w, slots, out=cum)
    np.cumsum(cum, axis=1, out=cum)
    return np.argmax(cum >= half, axis=1)


def topo_aware_score(values: np.ndarray, topology_id_per_tick,
                     registry: dict[int, TopologyKey], case: GridCase,
                     cfg: TopoConfig) -> AnomalyScoreSeries:
    """Score every tick online; withheld ticks carry NaN.

    ``registry`` maps announced topology ids to closed-branch keys; the
    distance weights come from one power flow on the given reference case.
    ``cfg.tau = 0`` is the ``tau -> 0+`` limit: history at graph distance 0
    weighs 1 and any other 0.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_ticks, m = values.shape
    topo_ids = list(topology_id_per_tick)
    if len(topo_ids) != n_ticks:
        raise ValueError("topology ids must cover every tick")
    weights_map = sensitivity_weights(case)
    # graph distances between the stream's topologies, computed once;
    # dist_matrix[pos[t], pos[i]] is the distance of tick i's topology from
    # tick t's
    ids, pos = np.unique(topo_ids, return_inverse=True)
    ids = ids.tolist()
    dist_matrix = np.zeros((len(ids), len(ids)))
    for a, b in itertools.combinations(range(len(ids)), 2):
        d = graph_distance(registry[ids[a]], registry[ids[b]], weights_map)
        dist_matrix[a, b] = dist_matrix[b, a] = d

    threshold = max_z_threshold(m)
    rows = np.arange(m)

    def walk(part: int) -> np.ndarray:
        """Scores of blocks ``part``, ``part + 2``, ...; NaN elsewhere."""
        scores = np.full(n_ticks, np.nan)
        # work buffers for the widest union window, one row per sensor
        wu = np.empty(HISTORY + BLOCK - 1)  # one tick's weight per union slot
        cum_buf = np.empty(m * wu.size)
        slot_buf = np.empty(m * wu.size, dtype=np.intp)
        for tb in range(cfg.min_history + part * BLOCK, n_ticks, 2 * BLOCK):
            t_stop = min(tb + BLOCK, n_ticks)
            u0 = max(0, tb - HISTORY)
            span = t_stop - 1 - u0  # the block's union window is [u0, u0 + span)
            cum = cum_buf[:m * span].reshape(m, span)
            dev_slots = slot_buf[:m * span].reshape(m, span)
            order = srt = None  # sorted at the block's first scored tick
            for t in range(tb, t_stop):
                lo = max(0, t - HISTORY)
                dists = dist_matrix[pos[t], pos[lo:t]]
                w = np.exp(-dists / cfg.tau) if cfg.tau > 0 else (dists == 0.0).astype(float)
                ess = float(w.sum())
                if ess < MIN_ESS:
                    continue  # announced change: not enough comparable history yet
                if order is None:
                    win = np.ascontiguousarray(values[u0:u0 + span].T)
                    order = np.argsort(win, axis=1)
                    srt = np.take_along_axis(win, order, axis=1)
                    del win
                    last_med = np.full(m, np.nan)
                wu[:span] = 0.0  # slots outside [lo, t), future ticks included
                wu[lo - u0:t - u0] = w
                half = 0.5 * ess
                med = srt[rows, _half_weight_pick(order, wu, half, cum)]
                # |srt - med| falls then rises along a row, so a stable sort
                # orders it cheaply; a row whose median stayed keeps its order
                moved = np.flatnonzero(med != last_med)
                if moved.size:
                    dev = cum[:moved.size]
                    np.take(srt, moved, axis=0, out=dev)
                    np.subtract(dev, med[moved, None], out=dev)
                    np.abs(dev, out=dev)
                    dev_order = np.argsort(dev, axis=1, kind="stable")
                    dev_order += moved[:, None] * span  # flat positions in order
                    dev_slots[moved] = np.take(order, dev_order)
                    last_med = med
                mad_slot = dev_slots[rows, _half_weight_pick(dev_slots, wu, half, cum)]
                mad = np.abs(values[u0 + mad_slot, rows] - med)
                dbar = float((w * dists).sum() / ess)
                slack = SCALE_SLACK * dbar * np.maximum(np.abs(med), VALUE_FLOOR)
                inflation = 1.0 + FINITE_SAMPLE / np.sqrt(ess)
                scale = (1.4826 * mad + slack) * inflation + 1e-12
                z = np.abs(values[t] - med) / scale
                scores[t] = float(z.max())
        return scores

    scores = split_walk(walk)
    flags = scores > threshold
    return AnomalyScoreSeries(detector="topo", ticks=np.arange(n_ticks),
                              scores=scores, flags=flags, threshold=threshold)
