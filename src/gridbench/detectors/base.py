"""Shared detector types, configuration, and flag thresholds.

Every detector is online: its score at tick t depends on frames up to t
only. Fit-based detectors are fitted on the training region of the stream
and then score each test frame independently.

Scores are "higher = more anomalous". Withheld ticks (warm-up, empty
effective history) carry NaN and are never flagged. Flag thresholds follow
one rule, "3 robust-z equivalents": detectors whose score is already a
per-channel z use the Gaussian 3-sigma tail probability, corrected for how
many channels feed a max (Bonferroni) or combined via the chi-square
quantile (Mahalanobis); fit-based detectors flag scores more than 3 robust
standard deviations above their training-score median. GESD flags by its
own hypothesis-test decision.

The quantiles come from ``scipy.special``, which gives the same values as
``scipy.stats`` without its import cost: ``ndtri`` for the normal quantile,
``chdtri`` for the chi-square upper quantile, ``fdtri`` for the F quantile
and ``stdtrit`` for Student's t (behind ``gesd_critical_value``). This is
the only module that names scipy, and it imports ``scipy.special`` when the
first threshold is computed, not at import: ``scipy.special`` loads ~300
modules and scipy's own bundled OpenBLAS (~25 MB of RSS), which processes
that only build scenario streams or run the ACOPF sweep never use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# two-sided tail mass of |z| > 3: the "3 robust z equivalents" reference.
# Exactly 2.0 * (1.0 - scipy.special.ndtr(3.0)), written out so that import
# loads no scipy; test_max_z_threshold_equals_scipy_stats_at_every_channel_count
# pins it to scipy.stats.
P_THREE_SIGMA = 0.002699796063260207
ROBUST_Z = 3.0  # robust standard deviations above the training-score median


def _special():
    """``scipy.special``, imported at the first call."""
    import scipy.special
    return scipy.special


@dataclass(frozen=True)
class AnomalyScoreSeries:
    detector: str
    ticks: np.ndarray   # int ticks the scores refer to
    scores: np.ndarray  # NaN where withheld
    flags: np.ndarray   # bool, False where withheld
    threshold: float | None = None  # None when flags come from a test decision

    def __post_init__(self):
        if not (len(self.ticks) == len(self.scores) == len(self.flags)):
            raise ValueError("score series fields must align")
        if np.any(self.flags & np.isnan(self.scores)):
            raise ValueError("withheld ticks cannot be flagged")

    def flagged_ticks(self) -> set[int]:
        return {int(t) for t, f in zip(self.ticks, self.flags) if f}


@dataclass(frozen=True)
class OcsvmConfig:
    nu: float = 0.5
    gamma: float | None = None  # None = 1/(n_features * mean feature variance)
    tol: float = 1e-6
    max_iter: int = 200000

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise ValueError("nu must lie in (0, 1]")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError("gamma must be None or positive")


@dataclass(frozen=True)
class IforestConfig:
    trees: int = 100
    subsample: int = 256

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError("need at least one tree")
        if self.subsample < 2:
            raise ValueError("subsample must be at least 2")


@dataclass(frozen=True)
class TopoConfig:
    tau: float = 0.005      # graph-distance decay of history weights
    min_history: int = 20   # absolute warm-up

    def __post_init__(self):
        if not self.tau >= 0.0:
            raise ValueError("tau must be non-negative")
        if self.min_history < 0:
            raise ValueError("min_history must be non-negative")


@dataclass(frozen=True)
class DetectorConfig:
    seed: int = 0  # isolation forest draws


def max_z_threshold(n_channels: int) -> float:
    """z threshold matching the 3-sigma tail after a max over channels."""
    p = P_THREE_SIGMA / max(1, n_channels)
    return float(_special().ndtri(1.0 - p / 2.0))


def mahalanobis_threshold(n_channels: int, dof: int | None = None,
                          inflation: float = 1.0) -> float:
    """Mahalanobis distance matching the 3-sigma tail mass.

    With ``dof`` (effective samples behind the covariance estimate) the
    asymptotic chi-square limit is replaced by the Hotelling T-squared
    prediction bound; ``inflation`` scales for additional prediction
    variance (e.g. regression leverage).
    """
    k = max(1, n_channels)
    if dof is None or dof <= k + 1:
        base = float(np.sqrt(_special().chdtri(k, P_THREE_SIGMA)))
    else:
        fq = _special().fdtri(k, dof - k, 1.0 - P_THREE_SIGMA)
        base = float(np.sqrt(k * (dof - 1) / (dof - k) * fq))
    return base * inflation


def student_t_quantile(df: int, p: float) -> float:
    """Quantile of Student's t with ``df`` degrees of freedom at ``p``."""
    return _special().stdtrit(df, p)


def robust_train_threshold(train_scores: np.ndarray) -> float:
    """median + ROBUST_Z * 1.4826 * MAD of the training scores."""
    s = np.asarray(train_scores, dtype=float)
    s = s[np.isfinite(s)]
    if len(s) == 0:
        return np.inf
    med = float(np.median(s))
    mad = float(np.median(np.abs(s - med)))
    return med + ROBUST_Z * 1.4826 * max(mad, 1e-12)
