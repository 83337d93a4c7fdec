"""Neighborhood density scoring: local outlier factor and Parzen windows."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

LOF_K = 3  # neighbours per point
BANDWIDTH_FLOOR = 1e-6  # Parzen bandwidth of a constant feature
_DIST_EPS = 1e-12  # duplicate points would otherwise zero the densities


def _k_neighborhood(dists: np.ndarray, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """k-distance and the (tie-inclusive) k-neighborhood per row."""
    n = dists.shape[0]
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
    neighborhoods = [np.where(dists[i] <= kth[i])[0] for i in range(n)]
    return kth, neighborhoods


def lof_fit(train: np.ndarray) -> dict:
    """Precompute k-distances and local reachability densities of the
    training set."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n = len(train)
    if n <= LOF_K:
        raise ValueError(f"need more than k={LOF_K} training points, got {n}")
    d = np.maximum(cdist(train, train), _DIST_EPS)
    np.fill_diagonal(d, np.inf)
    kdist, neigh = _k_neighborhood(d, LOF_K)
    lrd = np.empty(n)
    for i in range(n):
        reach = np.maximum(kdist[neigh[i]], d[i, neigh[i]])
        lrd[i] = 1.0 / reach.mean()
    return {"train": train, "kdist": kdist, "lrd": lrd, "neighborhoods": neigh}


def lof_train_scores(model: dict) -> np.ndarray:
    """LOF of each training point within the training set (self excluded)."""
    lrd = model["lrd"]
    return np.array([lrd[nb].mean() / lrd[i]
                     for i, nb in enumerate(model["neighborhoods"])])


def lof_score(model: dict, queries: np.ndarray) -> np.ndarray:
    """LOF of each query against the fitted training set (higher = sparser)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d = np.maximum(cdist(queries, model["train"]), _DIST_EPS)
    kdist_q, neigh_q = _k_neighborhood(d, LOF_K)
    out = np.empty(len(queries))
    for i in range(len(queries)):
        nb = neigh_q[i]
        reach = np.maximum(model["kdist"][nb], d[i, nb])
        lrd_q = 1.0 / reach.mean()
        out[i] = model["lrd"][nb].mean() / lrd_q
    return out


def silverman_bandwidths(train: np.ndarray) -> np.ndarray:
    """Per-dimension Silverman rule bandwidths, at least ``BANDWIDTH_FLOOR``."""
    n, d = train.shape
    sigma = train.std(axis=0, ddof=1) if n > 1 else np.zeros(d)
    h = sigma * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    return np.maximum(h, BANDWIDTH_FLOOR)


def parzen_fit(train: np.ndarray) -> dict:
    """Bandwidths, the training mean, and the training points centred on
    it and scaled by the bandwidths with their squared norms, which every
    query's distances reuse."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    if len(train) < 2:
        raise ValueError("need at least 2 training points")
    h = silverman_bandwidths(train)
    center = train.mean(axis=0)
    scaled = (train - center) / h
    return {"h": h, "center": center, "scaled": scaled,
            "sq_norms": (scaled * scaled).sum(axis=1)}


def parzen_log_density(model: dict, queries: np.ndarray) -> np.ndarray:
    """Log Gaussian-kernel density estimate at each query point.

    The squared scaled distances come from the expanded quadratic
    |b|^2 - 2 b.a + |a|^2, one matrix product for all queries, where
    a = (train - mean) / h and b = (query - mean) / h. Centring on the
    training mean keeps the cancellation relative to the data's spread
    rather than its distance from the origin. The cancellation can still
    leave a tiny negative value where a query sits on a training point, so
    the result is clamped at 0. The (queries x train) matrix is updated in
    place, and the log-sum-exp over it is shifted by each query's nearest
    point, so that no more than one such matrix is live.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    a, h = model["scaled"], model["h"]
    n, d = a.shape
    log_norm = -0.5 * d * np.log(2.0 * np.pi) - np.log(h).sum()
    b = (queries - model["center"]) / h
    sq_dist = b @ a.T
    sq_dist *= -2.0
    sq_dist += (b * b).sum(axis=1)[:, None]
    sq_dist += model["sq_norms"]
    np.maximum(sq_dist, 0.0, out=sq_dist)
    nearest = sq_dist.min(axis=1)
    sq_dist -= nearest[:, None]
    sq_dist *= -0.5
    kernel_sums = np.exp(sq_dist, out=sq_dist).sum(axis=1)  # each >= 1
    return log_norm - 0.5 * nearest + np.log(kernel_sums) - np.log(n)


def parzen_score(model: dict, queries: np.ndarray) -> np.ndarray:
    """Negative log density: higher score = lower estimated density."""
    return -parzen_log_density(model, queries)
