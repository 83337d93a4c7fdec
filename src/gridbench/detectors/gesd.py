"""Sliding-window generalized extreme studentized deviate test.

Classic GESD is an offline test: repeatedly remove the most extreme point,
comparing each removal's R statistic against a critical value. Here it runs
online over a trailing window per sensor; the newest tick is flagged when
it is one of the declared outliers of its window. The reported score is the
margin R - lambda of the newest tick (max across sensors).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import AnomalyScoreSeries, student_t_quantile

WINDOW = 50        # trailing ticks per test, the newest included
MAX_ANOMS = 2      # removal steps per window
SIGNIFICANCE = 0.05  # test level of each window


@lru_cache(maxsize=None)
def gesd_critical_value(n: int, i: int, significance: float) -> float:
    """Critical value lambda_i for the i-th removal from an n-point window."""
    df = n - i - 1
    p = 1.0 - significance / (2.0 * (n - i + 1))
    tq = student_t_quantile(df, p)
    return float((n - i) * tq / np.sqrt((df + tq * tq) * (n - i + 1)))


def _window_scores_vectorized(frame: np.ndarray) -> tuple[float, bool]:
    """Score the newest tick of a window, all sensors at once.

    Returns (max score, any flagged). A sensor's score is R - lambda at the
    step where its newest point was removed, or its plain studentized
    deviate minus lambda_1 when it never was; a zero-variance sensor scores
    0, unflagged.

    At the first step every point is active, so it needs no masks, and its
    std and deviations are the whole window's, computed in the order
    ``frame.std(ddof=1)`` and ``frame.mean`` use: the plain deviate of a
    sensor whose newest point was never removed reuses them.
    """
    w, m = frame.shape
    newest = w - 1
    cols = np.arange(m)
    centred = frame - frame.sum(axis=0) / w
    std_full = np.sqrt((centred ** 2).sum(axis=0) / (w - 1))
    dev_full = np.abs(centred)
    active = np.ones((w, m), dtype=bool)
    newest_score = np.full(m, np.nan)
    removed_step = np.zeros(m, dtype=int)
    n_outliers = np.zeros(m, dtype=int)
    alive = np.ones(m, dtype=bool)  # sensors still being processed
    std, dev = std_full, dev_full  # step 1: every point is active
    for i in range(1, MAX_ANOMS + 1):
        if i > 1:
            counts = active.sum(axis=0)
            means = np.where(active, frame, 0.0).sum(axis=0) / counts
            sq = np.where(active, (frame - means) ** 2, 0.0).sum(axis=0)
            std = np.sqrt(sq / (counts - 1))
            dev = np.where(active, np.abs(frame - means), -np.inf)
        alive = alive & (std > 0.0)
        if not alive.any():
            break
        worst = np.argmax(dev, axis=0)
        r_i = dev[worst, cols] / np.where(std > 0, std, 1.0)
        lam = gesd_critical_value(w, i, SIGNIFICANCE)
        exceeds = alive & (r_i > lam)
        n_outliers[exceeds] = i
        hit_newest = alive & (worst == newest) & (removed_step == 0)
        newest_score[hit_newest] = r_i[hit_newest] - lam
        removed_step[hit_newest] = i
        active[worst[alive], cols[alive]] = False
    # sensors whose newest point never got removed: plain studentized deviate
    pending = np.isnan(newest_score)
    if pending.any():
        ok = pending & (std_full > 0)
        lam1 = gesd_critical_value(w, 1, SIGNIFICANCE)
        newest_score[ok] = dev_full[newest, ok] / std_full[ok] - lam1
        newest_score[pending & ~ok] = 0.0
    flagged = (removed_step > 0) & (removed_step <= n_outliers)
    return float(newest_score.max()), bool(flagged.any())


def gesd_score_stream(values: np.ndarray) -> AnomalyScoreSeries:
    """Per-sensor sliding GESD; per tick the max sensor margin is reported.

    Ticks before one full window are withheld.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_ticks, _ = values.shape
    scores = np.full(n_ticks, np.nan)
    flags = np.zeros(n_ticks, dtype=bool)
    for t in range(WINDOW - 1, n_ticks):
        scores[t], flags[t] = _window_scores_vectorized(values[t - WINDOW + 1:t + 1])
    return AnomalyScoreSeries(detector="gesd", ticks=np.arange(n_ticks),
                              scores=scores, flags=flags)
