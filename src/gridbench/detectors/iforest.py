"""Isolation forest with single-feature trees.

Each tree draws one feature uniformly at random and isolates a subsample
along that axis with uniform random split points, up to the standard
height cap ceil(log2(subsample)). Scores follow the usual path-length
normalization 2^(-E[h]/c(n)); c uses exact harmonic numbers so small-leaf
adjustments are exact (c(2) = 1).

Trees are flat node arrays, so scoring walks all queries down a tree
together, one level per step, and averages an (n_queries x trees) matrix
of path lengths per row, as the per-query mean over trees did.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .base import IforestConfig
from ..rng import Rng


@functools.cache
def average_path_length(n: int) -> float:
    """c(n) = 2*H(n-1) - 2*(n-1)/n with exact harmonic numbers; c(<=1) = 0."""
    if n <= 1:
        return 0.0
    h = float(np.sum(1.0 / np.arange(1, n)))
    return 2.0 * h - 2.0 * (n - 1) / n


@dataclass
class IsolationTree:
    """One tree as flat node arrays, root at index 0.

    ``split`` is NaN at leaves; ``left``/``right`` index the children of
    internal nodes (-1 at leaves); ``size`` counts a leaf's subsample
    points and ``leaf_path`` is c(size), both 0 at internal nodes.
    """
    feature: int
    split: np.ndarray
    left: np.ndarray
    right: np.ndarray
    size: np.ndarray
    leaf_path: np.ndarray

    def path_lengths(self, values: np.ndarray) -> np.ndarray:
        """Path length of each value: its leaf's depth plus c(leaf size).

        All values descend one level per step until every one is at a leaf.
        """
        node = np.zeros(len(values), dtype=int)
        depth = np.zeros(len(values))
        while True:
            split = self.split[node]
            inner = ~np.isnan(split)
            if not inner.any():
                break
            child = np.where(values < split, self.left[node], self.right[node])
            node = np.where(inner, child, node)
            depth += inner
        return depth + self.leaf_path[node]


@dataclass
class IsolationForestModel:
    trees: list[IsolationTree]
    subsample: int


def _grow(values: np.ndarray, depth: int, cap: int, rng: Rng,
          nodes: list[list]) -> int:
    """Append the subtree isolating ``values`` to ``nodes`` (rows of split,
    left, right, leaf size), preorder with the left child first; return
    its root index."""
    idx = len(nodes)
    lo, hi = float(values.min()), float(values.max())
    if depth >= cap or len(values) <= 1 or hi - lo <= 0.0:
        nodes.append([math.nan, -1, -1, len(values)])
        return idx
    split = rng.uniform(lo, hi)
    nodes.append([split, -1, -1, 0])
    nodes[idx][1] = _grow(values[values < split], depth + 1, cap, rng, nodes)
    nodes[idx][2] = _grow(values[values >= split], depth + 1, cap, rng, nodes)
    return idx


def iforest_fit(train: np.ndarray, cfg: IforestConfig, seed: int) -> IsolationForestModel:
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n, d = train.shape
    if n < 8:
        raise ValueError("need at least 8 training points")
    psi = min(cfg.subsample, n)
    cap = max(1, math.ceil(math.log2(psi)))
    rng = Rng(seed)
    trees = []
    for t in range(cfg.trees):
        tree_rng = rng.spawn(t)
        feature = tree_rng.randrange(d)
        if psi < n:
            order = list(range(n))
            tree_rng.shuffle(order)
            sample = train[order[:psi], feature]
        else:
            sample = train[:, feature]
        nodes: list[list] = []
        _grow(sample, 0, cap, tree_rng, nodes)
        split, left, right, size = zip(*nodes)
        trees.append(IsolationTree(
            feature=feature, split=np.array(split), left=np.array(left),
            right=np.array(right), size=np.array(size),
            leaf_path=np.array([average_path_length(s) for s in size])))
    return IsolationForestModel(trees=trees, subsample=psi)


def iforest_score(model: IsolationForestModel, queries: np.ndarray) -> np.ndarray:
    """2^(-E[h(x)]/c(subsample)); approaches 1 for easily isolated points."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    c_n = average_path_length(model.subsample)
    paths = np.empty((len(queries), len(model.trees)))
    for j, tree in enumerate(model.trees):
        paths[:, j] = tree.path_lengths(queries[:, tree.feature])
    # a Python-float pow per query: np.power rounds some of them differently
    return np.array([2.0 ** (-e / c_n) for e in paths.mean(axis=1).tolist()])
