"""Synthetic load profiles and their summary statistics.

Two layers:

* style profiles: parametric daily multiplier shapes (constant, smooth,
  oscillating, abrupt), one per load, over a day of half-hour ticks
* load scaling: naive / grouped / brute-force factor sampling used by the
  data-augmentation experiments

All randomness flows through :class:`gridbench.rng.Rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid.model import LOAD_STYLES
from .rng import Rng, derive_seed

POSITIVE_FLOOR = 1e-4

# every series is sampled at 30-minute ticks
TICKS_PER_DAY = 48

SCALING_MODES = ("naive", "grouped", "brute_force")

# Population mix calibrated so that roughly 90% of loads clear the
# 8%-of-daily-max half-hourly delta (abrupt loads are the intended tail).
DEFAULT_STYLE_MIX = (("smooth", 0.50), ("constant", 0.20),
                     ("oscillating", 0.22), ("abrupt", 0.08))


class LoadSynthError(ValueError):
    pass


@dataclass(frozen=True)
class StyleParams:
    """Parameters of one daily multiplier profile.

    ``amplitude`` is the relative height of the low-frequency hump;
    style-specific knobs: ``ripple``/``osc_freq`` (oscillating),
    ``step_tick``/``step_height`` (abrupt).
    """

    style: str
    peak_tick: int = 0
    amplitude: float = 0.0
    ripple: float = 0.01
    osc_freq: float = 8.0
    step_tick: int = 0
    step_height: float = 0.0

    def __post_init__(self):
        if self.style not in LOAD_STYLES:
            raise LoadSynthError(f"unknown style {self.style!r}")
        if self.amplitude < 0:
            raise LoadSynthError("amplitude must be nonnegative")
        if self.peak_tick < 0:
            raise LoadSynthError("peak_tick must be nonnegative")
        if self.step_tick < 0:
            raise LoadSynthError("step_tick must be nonnegative")


@dataclass(frozen=True)
class DeltaStats:
    """Per-load worst step size relative to daily max, plus threshold table."""

    ratios: np.ndarray                      # one entry per load
    fraction_under: dict[float, float]      # threshold -> fraction of loads


@dataclass(frozen=True)
class AggregateStats:
    totals: np.ndarray
    min_frac: float  # min(total)/mean(total)
    max_frac: float


def style_profile(params: StyleParams, horizon: int, seed: int = 0) -> np.ndarray:
    """Dimensionless multiplier series for one load, floored at
    ``POSITIVE_FLOOR`` so it is strictly positive everywhere.

    ``seed`` drives the oscillating style's phase and jitter; the other
    styles are deterministic.
    """
    if horizon < 2:
        raise LoadSynthError("horizon must be at least 2")
    if params.peak_tick >= horizon:
        raise LoadSynthError(f"peak_tick {params.peak_tick} outside horizon {horizon}")
    if params.step_tick >= horizon:
        raise LoadSynthError(f"step_tick {params.step_tick} outside horizon {horizon}")
    t = np.arange(horizon, dtype=float)
    hump = 1.0 + params.amplitude * np.cos(
        2.0 * math.pi * (t - params.peak_tick) / horizon)

    style = params.style
    if style == "constant":
        out = np.ones(horizon)
    elif style == "smooth":
        out = hump
    elif style == "oscillating":
        rng = Rng(seed)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        wave = params.ripple * np.sin(
            2.0 * math.pi * params.osc_freq * t / horizon + phase)
        jitter = rng.normals(horizon, 0.0, params.ripple / 2.0)
        out = hump + wave + jitter
    else:  # abrupt; StyleParams admits only LOAD_STYLES
        out = hump.copy()
        out[params.step_tick:] += params.step_height
    return np.maximum(out, POSITIVE_FLOOR)


def scale_loads(base: np.ndarray, mode: str, groups: list[str] | None,
                n_samples: int, seed: int,
                factor_range: tuple[float, float] = (0.8, 1.2)) -> np.ndarray:
    """Sample scaled load vectors: one row per sample.

    ``mode`` is one of ``SCALING_MODES``. naive: one factor per sample for
    every load; grouped: one factor per (sample, group); brute_force: one
    factor per (sample, load). Factors are i.i.d. uniform on
    ``factor_range``.
    """
    if mode not in SCALING_MODES:
        raise LoadSynthError(f"unknown scaling mode {mode!r}")
    lo, hi = factor_range
    if not (0 < lo <= hi):
        raise LoadSynthError("factor_range must satisfy 0 < lo <= hi")
    base = np.asarray(base, dtype=float)
    n_loads = len(base)
    if mode == "naive":
        col = np.zeros(n_loads, dtype=int)
        k = 1
    elif mode == "grouped":
        if not groups or len(groups) != n_loads:
            raise LoadSynthError("grouped mode needs a group label per load")
        order, col = np.unique(groups, return_inverse=True)  # sorted groups
        k = len(order)
    else:  # brute_force
        col = np.arange(n_loads)
        k = n_loads
    # sample-major draws: row i holds sample i's factor per column
    factors = Rng(seed).uniforms(n_samples * k, lo, hi).reshape(n_samples, k)
    # np.take keeps the result C-ordered; factors[:, col] would be F-ordered
    # and change the summation order of BLAS matmuls on it downstream
    return np.take(factors, col, axis=1) * base


def delta_stats(profiles: np.ndarray, interval: int,
                thresholds: tuple[float, ...] = (0.02, 0.04, 0.08, 0.16)) -> DeltaStats:
    """Worst |step| over the given interval, relative to each load's max.

    ``profiles`` is (ticks x loads). Returns per-load ratios and, for each
    threshold, the fraction of loads whose worst step stays below it.
    """
    if interval < 1:
        raise LoadSynthError("interval must be at least 1")
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    if profiles.shape[0] <= interval:
        raise LoadSynthError("profiles shorter than the requested interval")
    deltas = np.abs(profiles[interval:] - profiles[:-interval])
    daily_max = profiles.max(axis=0)
    daily_max = np.where(daily_max == 0, 1.0, daily_max)
    ratios = deltas.max(axis=0) / daily_max
    fractions = {thr: float(np.mean(ratios < thr)) for thr in thresholds}
    return DeltaStats(ratios=ratios, fraction_under=fractions)


def aggregate_stats(profiles: np.ndarray) -> AggregateStats:
    """Total-series extremes as fractions of its mean."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    totals = profiles.sum(axis=1)
    mean = totals.mean()
    if mean == 0:
        return AggregateStats(totals=totals, min_frac=1.0, max_frac=1.0)
    return AggregateStats(totals=totals, min_frac=float(totals.min() / mean),
                          max_frac=float(totals.max() / mean))


# ------------------------------------------------------------ populations

def sample_style_params(style: str, horizon: int, rng: Rng) -> StyleParams:
    """Draw one load's style parameters from the default population ranges.

    Peak hours are uniform over the day; amplitudes cover the observed
    spread from gentle to pronounced daily swings.
    """
    peak = rng.randrange(horizon)
    if style == "constant":
        return StyleParams(style="constant")
    if style == "smooth":
        return StyleParams(style="smooth", peak_tick=peak,
                           amplitude=rng.uniform(0.02, 0.30))
    if style == "oscillating":
        return StyleParams(style="oscillating", peak_tick=peak,
                           amplitude=rng.uniform(0.02, 0.20),
                           ripple=rng.uniform(0.005, 0.015),
                           osc_freq=float(4 + rng.randrange(9)))
    if style == "abrupt":
        step = rng.randrange(horizon)
        height = rng.uniform(0.15, 0.5) * (1.0 if rng.random() < 0.5 else -1.0)
        return StyleParams(style="abrupt", peak_tick=peak,
                           amplitude=rng.uniform(0.0, 0.05),
                           step_tick=step, step_height=height)
    raise LoadSynthError(f"no population defaults for style {style!r}")


def sample_population(n_loads: int, horizon: int, seed: int) -> list[StyleParams]:
    """Per-load style parameters for a mixed population.

    Styles are assigned by deterministic largest-remainder quotas from
    ``DEFAULT_STYLE_MIX``, then shuffled, so the realized fractions track
    the mix exactly.
    """
    total = sum(w for _, w in DEFAULT_STYLE_MIX)
    quotas = [(name, w / total * n_loads) for name, w in DEFAULT_STYLE_MIX]
    counts = {name: int(q) for name, q in quotas}
    remainder = n_loads - sum(counts.values())
    for name, _ in sorted(quotas, key=lambda kv: -(kv[1] - int(kv[1]))):
        if remainder <= 0:
            break
        counts[name] += 1
        remainder -= 1
    styles = [name for name, c in counts.items() for _ in range(c)]
    rng = Rng(seed)
    rng.shuffle(styles)
    return [sample_style_params(s, horizon, Rng(derive_seed(seed, 1000 + i)))
            for i, s in enumerate(styles)]


def profiles_matrix(params: list[StyleParams], horizon: int, seed: int) -> np.ndarray:
    """(ticks x loads) multiplier matrix, one seeded column per load."""
    cols = [style_profile(p, horizon, seed=derive_seed(seed, i))
            for i, p in enumerate(params)]
    return np.column_stack(cols)
