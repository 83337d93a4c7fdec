"""Realistic and augmented load-sample generation for the ACOPF experiment.

Realistic samples walk group-consistent style trajectories: every load in
a group shares one daily multiplier series (drawn from the group's style,
with day-to-day parameter jitter), while groups differ in style, peak
hour, and amplitude. Augmented samples scale the pool-mean base load with
naive / grouped / brute-force uniform factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid.model import GridCase
from ..loadsynth import TICKS_PER_DAY, StyleParams, scale_loads, style_profile
from ..rng import Rng, derive_seed


@dataclass(frozen=True)
class SampleSet:
    """Load samples: rows are system configurations."""

    pd: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        if self.pd.shape != self.qd.shape:
            raise ValueError("pd/qd shapes differ")
        # negative qd marks a capacitive load and is legal; demand is not
        if np.any(self.pd < 0):
            raise ValueError("active load samples must be nonnegative")

    def __len__(self) -> int:
        return len(self.pd)

    def subset(self, rows) -> "SampleSet":
        return SampleSet(self.pd[rows], self.qd[rows])


# Group-trajectory parameter ranges. Real individual loads swing far more
# than the +/-20% the augmentation factors cover (street lighting switches
# between zero and full output); the test distribution must reach outside
# the augmentation box for the generalization gap to be visible.
_GROUP_AMPLITUDES = {
    "constant": (0.0, 0.0),
    "smooth": (0.30, 0.50),
    "oscillating": (0.20, 0.40),
    "abrupt": (0.0, 0.15),
}
_ABRUPT_STEP = (0.40, 0.60)


def _group_day_params(style: str, day_rng: Rng, horizon: int) -> StyleParams:
    lo, hi = _GROUP_AMPLITUDES[style]
    amplitude = day_rng.uniform(lo, hi)
    peak = day_rng.randrange(horizon)
    if style == "abrupt":
        height = day_rng.uniform(*_ABRUPT_STEP) * (1 if day_rng.random() < 0.5 else -1)
        return StyleParams(style="abrupt", peak_tick=peak, amplitude=amplitude,
                           step_tick=day_rng.randrange(horizon), step_height=height)
    if style == "oscillating":
        return StyleParams(style="oscillating", peak_tick=peak, amplitude=amplitude,
                           ripple=day_rng.uniform(0.005, 0.02))
    return StyleParams(style=style, peak_tick=peak, amplitude=amplitude)


def gen_realistic(case: GridCase, n_real: int, seed: int,
                  noise_sigma: float = 0.0) -> SampleSet:
    """Group-consistent trajectories sampled at n_real consecutive half-hour
    ticks.

    By default every load in a group follows the group's multiplier series
    exactly, so a group's ``pd / base_pd`` columns are identical.
    ``noise_sigma > 0`` adds each load its own i.i.d. Gaussian term, the
    paper's per-load noise term on top of the group pattern; the sweep
    passes it explicitly.
    """
    if not case.loads:
        raise ValueError("case has no loads")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    groups = sorted({l.group for l in case.loads})
    style_of = {}
    for g in groups:
        styles = {l.style for l in case.loads if l.group == g}
        if len(styles) != 1:
            raise ValueError(f"group {g} mixes styles {sorted(styles)}")
        style_of[g] = styles.pop()

    n_days = int(np.ceil(n_real / TICKS_PER_DAY))
    multipliers = {}
    for gi, g in enumerate(groups):
        days = []
        for day in range(n_days):
            params = _group_day_params(style_of[g], Rng(derive_seed(seed, 11, gi, day)),
                                       TICKS_PER_DAY)
            days.append(style_profile(params, TICKS_PER_DAY,
                                      seed=derive_seed(seed, 13, gi, day)))
        multipliers[g] = np.concatenate(days)[:n_real]

    base_pd = np.array([l.pd for l in case.loads])
    base_qd = np.array([l.qd for l in case.loads])
    pd = np.empty((n_real, len(case.loads)))
    qd = np.empty_like(pd)
    for j, l in enumerate(case.loads):
        m = multipliers[l.group]
        if noise_sigma > 0:
            noise_rng = Rng(derive_seed(seed, 19, j))
            m = np.maximum(m + noise_rng.normals(n_real, 0.0, noise_sigma), 1e-4)
        pd[:, j] = base_pd[j] * m
        qd[:, j] = base_qd[j] * m
    return SampleSet(pd=pd, qd=qd)


def gen_augmented(case: GridCase, base_pd: np.ndarray, base_qd: np.ndarray,
                  mode: str, n_fake: int, seed: int,
                  factor_range: tuple[float, float] = (0.8, 1.2)) -> SampleSet:
    """Scale the base load with naive/grouped/brute-force uniform factors.

    The same factor multiplies a load's active and reactive components.
    """
    groups = [l.group for l in case.loads]
    factors = scale_loads(np.ones(len(case.loads)), mode, groups, n_fake, seed,
                          factor_range)
    return SampleSet(pd=factors * base_pd, qd=factors * base_qd)
