"""Detector suite behind one online-scoring interface.

Streaming detectors (gesd, arima, var, topo) score the whole stream with a
warm-up prefix withheld. Fit-based detectors (lof, parzen, ocsvm, iforest)
are fitted on the training-topology frames and score the test-topology
frames; features are standardized with training statistics.
"""

from __future__ import annotations

import numpy as np

from .base import (
    AnomalyScoreSeries,
    DetectorConfig,
    IforestConfig,
    OcsvmConfig,
    TopoConfig,
    max_z_threshold,
    mahalanobis_threshold,
    robust_train_threshold,
)
from .ar import arima_score_stream, var_score_stream
from .density import (
    lof_fit,
    lof_score,
    lof_train_scores,
    parzen_fit,
    parzen_log_density,
    parzen_score,
    parzen_train_scores,
)
from .gesd import gesd_critical_value, gesd_score_stream
from .iforest import average_path_length, iforest_fit, iforest_score
from .ocsvm import OcsvmError, OcsvmModel, ocsvm_fit, ocsvm_score, rbf_kernel
from .topo import graph_distance, sensitivity_weights, topo_aware_score

DETECTOR_NAMES = ("gesd", "arima", "var", "lof", "parzen", "ocsvm", "iforest", "topo")
STREAMING = ("gesd", "arima", "var", "topo")
FIT_BASED = ("lof", "parzen", "ocsvm", "iforest")


def _standardize(train: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), 1e-9)
    return (train - mean) / std, (other - mean) / std


def _fit_based_series(name: str, stream, seed: int) -> AnomalyScoreSeries:
    train_ticks = np.array(stream.train_ticks, dtype=int)
    test_ticks = np.array(stream.test_ticks, dtype=int)
    if len(train_ticks) == 0:
        raise ValueError(f"{name} needs a training region")
    train, test = _standardize(stream.values[train_ticks], stream.values[test_ticks])

    if name == "lof":
        model = lof_fit(train)
        train_scores = lof_train_scores(model)
        scores = lof_score(model, test)
    elif name == "parzen":
        model = parzen_fit(train)
        train_scores = parzen_train_scores(model)
        scores = parzen_score(model, test)
    elif name == "ocsvm":
        model = ocsvm_fit(train, OcsvmConfig())
        train_scores = ocsvm_score(model, train)
        scores = ocsvm_score(model, test)
    else:  # iforest; score_stream rejects unknown names before any detector runs
        model = iforest_fit(train, IforestConfig(), seed=seed)
        train_scores = iforest_score(model, train)
        scores = iforest_score(model, test)
    threshold = robust_train_threshold(train_scores)
    flags = scores > threshold
    return AnomalyScoreSeries(detector=name, ticks=test_ticks,
                              scores=np.asarray(scores, dtype=float), flags=flags,
                              threshold=threshold)


def score_stream(stream, names=DETECTOR_NAMES, cfg: DetectorConfig | None = None,
                 case=None) -> dict[str, AnomalyScoreSeries]:
    """Run the selected detectors over a labeled stream.

    ``case`` is required for the topology-aware detector (distance weights).
    Unknown names raise with the valid list. Both are checked before any
    detector runs.
    """
    names = tuple(names)
    for name in names:
        if name not in DETECTOR_NAMES:
            raise ValueError(
                f"unknown detector {name!r}; valid names: {', '.join(DETECTOR_NAMES)}")
    if "topo" in names and case is None:
        raise ValueError("the topology-aware detector needs the grid case")
    cfg = cfg or DetectorConfig()
    out: dict[str, AnomalyScoreSeries] = {}
    for name in names:
        if name == "gesd":
            out[name] = gesd_score_stream(stream.values)
        elif name == "arima":
            out[name] = arima_score_stream(stream.values)
        elif name == "var":
            out[name] = var_score_stream(stream.values)
        elif name == "topo":
            out[name] = topo_aware_score(stream.values, stream.topology_id_per_tick,
                                         stream.topology_registry, case, TopoConfig())
        else:
            out[name] = _fit_based_series(name, stream, cfg.seed)
    return out


__all__ = [
    "AnomalyScoreSeries", "DETECTOR_NAMES", "DetectorConfig", "FIT_BASED",
    "IforestConfig", "OcsvmConfig", "OcsvmError", "OcsvmModel", "STREAMING",
    "TopoConfig", "arima_score_stream", "average_path_length", "gesd_critical_value",
    "gesd_score_stream", "graph_distance", "iforest_fit",
    "iforest_score", "lof_fit", "lof_score", "lof_train_scores",
    "mahalanobis_threshold", "max_z_threshold", "ocsvm_fit", "ocsvm_score",
    "parzen_fit", "parzen_log_density", "parzen_score", "parzen_train_scores",
    "rbf_kernel",
    "robust_train_threshold", "score_stream", "sensitivity_weights",
    "topo_aware_score", "var_score_stream",
]
