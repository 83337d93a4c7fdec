"""Neighborhood density scoring: local outlier factor and Parzen windows.

Both, and the one-class SVM's RBF kernel, read pairwise distances from one
kernel, :func:`squared_distances`. Each fit centres its training points on
their mean, and queries are centred the same way, so that the kernel's
cancellation error stays relative to the data's spread rather than to its
distance from the origin.
"""

from __future__ import annotations

import numpy as np

LOF_K = 3  # neighbours per point
BANDWIDTH_FLOOR = 1e-6  # Parzen bandwidth of a constant feature
_DIST_EPS = 1e-12  # duplicate points would otherwise zero the densities
_KDIST_BLOCK = 64  # rows per partition when selecting k-distances


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``.

    The expanded quadratic |a|^2 - 2 a.b + |b|^2 takes one matrix product,
    and the (rows of a x rows of b) result is updated in place, so it is the
    only float matrix of that size the call holds. Its rounding error is at
    most 2 (d + 2) eps (|a|^2 + |b|^2) for d features: relative to the
    rows' norms, not to their distance, which is why callers centre their
    points. Every entry within that bound of 0, taken at the largest norms
    and a negative entry included, is recomputed from its row difference,
    so identical rows give exactly 0 and no entry is negative.
    """
    a_sq = (a * a).sum(axis=1)
    b_sq = (b * b).sum(axis=1)
    sq = a @ b.T
    sq *= -2.0
    sq += a_sq[:, None]
    sq += b_sq
    bound = (2.0 * (a.shape[1] + 2) * np.finfo(float).eps
             * (a_sq.max(initial=0.0) + b_sq.max(initial=0.0)))
    i, j = np.nonzero(sq <= bound)
    diff = a[i] - b[j]
    sq[i, j] = (diff * diff).sum(axis=1)
    return sq


def _floored_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows, at least ``_DIST_EPS``."""
    d = squared_distances(a, b)
    np.sqrt(d, out=d)
    return np.maximum(d, _DIST_EPS, out=d)


def _k_neighborhood(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-distance of each row and its tie-inclusive k-neighborhood, as a
    boolean mask over the row's columns.

    The k-distances are selected ``_KDIST_BLOCK`` rows at a time, so the
    partition copies one block of rows rather than the whole matrix.
    """
    kdist = np.empty(len(dists))
    for lo in range(0, len(dists), _KDIST_BLOCK):
        block = np.partition(dists[lo:lo + _KDIST_BLOCK], LOF_K - 1, axis=1)
        kdist[lo:lo + len(block)] = block[:, LOF_K - 1]
    return kdist, dists <= kdist[:, None]


def _neighborhood_means(values: np.ndarray, neighborhoods: np.ndarray) -> np.ndarray:
    """Mean of ``values`` (a matrix, or one row for all) over each row's
    neighborhood mask, summed in column order."""
    values = np.broadcast_to(values, neighborhoods.shape)
    return values.sum(axis=1, where=neighborhoods) / neighborhoods.sum(axis=1)


def _reach_densities(dists: np.ndarray, kdist: np.ndarray, neighborhoods: np.ndarray
                     ) -> np.ndarray:
    """Local reachability density of each row against training points with
    k-distances ``kdist``. Overwrites ``dists`` with the reach distances."""
    reach = np.maximum(dists, kdist, out=dists)
    return 1.0 / _neighborhood_means(reach, neighborhoods)


def lof_fit(train: np.ndarray) -> dict:
    """Precompute k-distances, neighborhoods and local reachability
    densities of the training set, which is kept centred on its mean."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n = len(train)
    if n <= LOF_K:
        raise ValueError(f"need more than k={LOF_K} training points, got {n}")
    center = train.mean(axis=0)
    centred = train - center
    d = _floored_distances(centred, centred)
    np.fill_diagonal(d, np.inf)
    kdist, neighborhoods = _k_neighborhood(d)
    lrd = _reach_densities(d, kdist, neighborhoods)
    return {"center": center, "centred": centred, "kdist": kdist, "lrd": lrd,
            "neighborhoods": neighborhoods}


def lof_train_scores(model: dict) -> np.ndarray:
    """LOF of each training point within the training set (self excluded)."""
    return _neighborhood_means(model["lrd"], model["neighborhoods"]) / model["lrd"]


def lof_score(model: dict, queries: np.ndarray) -> np.ndarray:
    """LOF of each query against the fitted training set (higher = sparser)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d = _floored_distances(queries - model["center"], model["centred"])
    _, neighborhoods = _k_neighborhood(d)
    lrd_q = _reach_densities(d, model["kdist"], neighborhoods)
    return _neighborhood_means(model["lrd"], neighborhoods) / lrd_q


def silverman_bandwidths(train: np.ndarray) -> np.ndarray:
    """Per-dimension Silverman rule bandwidths, at least ``BANDWIDTH_FLOOR``."""
    n, d = train.shape
    sigma = train.std(axis=0, ddof=1) if n > 1 else np.zeros(d)
    h = sigma * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    return np.maximum(h, BANDWIDTH_FLOOR)


def parzen_fit(train: np.ndarray) -> dict:
    """Bandwidths, the training mean, and the training points centred on
    it and scaled by the bandwidths."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    if len(train) < 2:
        raise ValueError("need at least 2 training points")
    h = silverman_bandwidths(train)
    center = train.mean(axis=0)
    return {"h": h, "center": center, "scaled": (train - center) / h}


def _log_kernel_means(model: dict, sq_dist: np.ndarray, n_points: int) -> np.ndarray:
    """Log of each row's mean Gaussian kernel over ``n_points`` points, from
    its squared scaled distances, which are overwritten. The log-sum-exp
    runs in place and is shifted by the row's nearest point; a distance of
    +inf adds nothing."""
    h = model["h"]
    log_norm = -0.5 * len(h) * np.log(2.0 * np.pi) - np.log(h).sum()
    nearest = sq_dist.min(axis=1)
    sq_dist -= nearest[:, None]
    sq_dist *= -0.5
    kernel_sums = np.exp(sq_dist, out=sq_dist).sum(axis=1)  # each >= 1
    return log_norm - 0.5 * nearest + np.log(kernel_sums) - np.log(n_points)


def parzen_log_density(model: dict, queries: np.ndarray) -> np.ndarray:
    """Log Gaussian-kernel density estimate at each query point.

    The squared scaled distances are :func:`squared_distances` between
    b = (query - mean) / h and a = (train - mean) / h, both centred on the
    training mean, and that (queries x train) matrix is the only one of its
    size that the call holds.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    a = model["scaled"]
    sq_dist = squared_distances((queries - model["center"]) / model["h"], a)
    return _log_kernel_means(model, sq_dist, len(a))


def parzen_score(model: dict, queries: np.ndarray) -> np.ndarray:
    """Negative log density: higher score = lower estimated density."""
    return -parzen_log_density(model, queries)


def parzen_train_scores(model: dict) -> np.ndarray:
    """Parzen score of each training point against the other n - 1 (self
    excluded), at the bandwidths fitted on all n. A point's own kernel
    would otherwise dominate its density in many dimensions."""
    a = model["scaled"]
    sq_dist = squared_distances(a, a)
    np.fill_diagonal(sq_dist, np.inf)
    return -_log_kernel_means(model, sq_dist, len(a) - 1)
