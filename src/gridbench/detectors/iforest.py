"""Isolation forest with single-feature trees.

Each tree draws one feature uniformly at random and isolates a subsample
along that axis with uniform random split points, up to the standard
height cap ceil(log2(subsample)). Scores follow the usual path-length
normalization 2^(-E[h]/c(n)); c uses exact harmonic numbers so small-leaf
adjustments are exact (c(2) = 1).

A tree grows over a sorted copy of its subsample, each node a range of it
that a binary search cuts at the split, so growth copies no values. Trees
are flat node arrays, so scoring walks all queries down a tree together,
one level per step, and averages an (n_queries x trees) matrix of path
lengths per row, as the per-query mean over trees did.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .base import IforestConfig
from ..rng import Rng, derive_seed


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


def _grow(sample: list[float], cap: int, rng: Rng) -> list[list]:
    """Nodes of the tree isolating the sorted ``sample``: rows of split,
    left, right and leaf size, in preorder with the left child first.

    A node holds a range ``sample[start:stop]``; its split point is drawn
    between the range's ends, and the values below it, a prefix of the
    range, go left. A stack of pending ranges replaces recursion: the left
    child is popped right after its parent, so it is the next node, and the
    right child is popped once the left subtree is complete. A range's size
    is checked before its ends are read, because a split drawn at the low
    end leaves the left child empty.
    """
    nodes: list[list] = []
    pending = [(0, len(sample), 0, -1)]  # start, stop, depth, parent of a right child
    while pending:
        start, stop, depth, parent = pending.pop()
        idx = len(nodes)
        if parent >= 0:
            nodes[parent][2] = idx
        size = stop - start
        if depth >= cap or size <= 1 or sample[stop - 1] - sample[start] <= 0.0:
            nodes.append([math.nan, -1, -1, size])
            continue
        split = rng.uniform(sample[start], sample[stop - 1])
        cut = bisect.bisect_left(sample, split, start, stop)
        nodes.append([split, idx + 1, -1, 0])
        pending.append((cut, stop, depth + 1, idx))
        pending.append((start, cut, depth + 1, -1))
    return nodes


def iforest_fit(train: np.ndarray, cfg: IforestConfig, seed: int) -> IsolationForestModel:
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n, d = train.shape
    if n < 8:
        raise ValueError("need at least 8 training points")
    psi = min(cfg.subsample, n)
    cap = max(1, math.ceil(math.log2(psi)))
    trees = []
    for t in range(cfg.trees):
        tree_rng = Rng(derive_seed(seed, t))
        feature = tree_rng.randrange(d)
        if psi < n:
            order = list(range(n))
            tree_rng.shuffle(order)
            sample = train[order[:psi], feature]
        else:
            sample = train[:, feature]
        split, left, right, size = zip(*_grow(sorted(sample.tolist()), cap, tree_rng))
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
