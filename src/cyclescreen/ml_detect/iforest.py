"""Isolation forest scored by the classic path-length formula.

Trees are grown on row subsamples with uniform random axis splits; a point's
anomaly score is 2 ** (-E[h] / c(psi)) where E[h] averages path lengths over
trees and c(psi) is the expected path length of an unsuccessful BST search
over the subsample size. Scores near 1 mean "isolated almost immediately".

Each tree is five flat node arrays (feature, threshold, left, right, value),
grown depth first from an explicit stack, left child first, by partitioning
an index array of subsample rows (a Python list once a node is small). The
random draws happen in the order of the recursive textbook growth, so a
seed gives the same trees; a threshold is lo + (hi - lo) * rng.random(),
Generator.uniform's own formula, which skips its per-call argument handling.
Scoring moves every row down a tree together, one level per step, and adds
each tree's path lengths into a per-row total in tree order, so the sums are
the same floats a row-at-a-time walk would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EULER_GAMMA = 0.5772156649015329


def average_path_length(n: int) -> float:
    """c(n): expected path length normalizer, 0 for n <= 1."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    h = math.log(n - 1.0) + _EULER_GAMMA
    return 2.0 * h - 2.0 * (n - 1.0) / n


@dataclass
class IsolationTree:
    """One tree as flat node arrays, root at index 0.

    A row at split node i moves to left[i] when x[feature[i]] < threshold[i]
    and to right[i] otherwise. A leaf points to itself on both sides with a
    NaN threshold, so a row that reaches it stays there, and value[i] is its
    path length, depth + c(leaf size). depth is the deepest leaf's depth,
    the number of steps that take every row to its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int


@dataclass
class IsolationForestState:
    trees: list[IsolationTree]
    subsample_size: int
    normalizer: float


#: nodes of at most this many rows work on Python lists, where NumPy's
#: per-call cost outweighs its per-row speed
_SMALL_NODE = 32


def _grow(columns, lists, rows: np.ndarray, features, limit: int, rng) -> IsolationTree:
    """Grow one tree over X[rows], X given as its 1-D columns.

    A node is a leaf when it holds one row, sits at the depth limit, has no
    selected feature with spread, or draws a threshold that sends every row
    one way. Otherwise it picks a feature with spread uniformly and a
    threshold uniformly in that feature's range over the node's rows.
    lists holds the same columns as Python lists for the small nodes, or is
    None when X has a NaN: Python's min and max are not NaN-aware.
    """
    feature, threshold, left, right, value = [0], [math.nan], [0], [0], [0.0]
    deepest = 0
    stack = [(0, rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
        n = len(idx)
        split = None
        if n > 1 and depth < limit:
            small = lists is not None and n <= _SMALL_NODE
            if small and isinstance(idx, np.ndarray):
                idx = idx.tolist()
            usable = []
            for f in features:
                if small:
                    c = [lists[f][i] for i in idx]
                    lo, hi = min(c), max(c)
                else:
                    c = columns[f].take(idx)
                    lo, hi = c.min(), c.max()
                if lo < hi:
                    usable.append((f, c, lo, hi))
            if usable:
                # integers(1) draws nothing from the generator
                pick = rng.integers(len(usable)) if len(usable) > 1 else 0
                f, c, lo, hi = usable[pick]
                thr = float(lo) + float(hi - lo) * rng.random()
                if small:
                    below = [i for i, v in zip(idx, c) if v < thr]
                    above = [i for i, v in zip(idx, c) if v >= thr]
                else:
                    mask = c < thr
                    below, above = idx[mask], idx[~mask]
                if 0 < len(below) < n:
                    split = f, thr, below, above
        if split is None:
            left[node] = right[node] = node
            value[node] = depth + average_path_length(n)
            deepest = max(deepest, depth)
            continue
        f, thr, below, above = split
        left_child, right_child = len(feature), len(feature) + 1
        feature[node], threshold[node] = int(f), thr
        left[node], right[node] = left_child, right_child
        # the children's entries are filled in when they are popped
        feature += [0, 0]
        threshold += [math.nan, math.nan]
        left += [0, 0]
        right += [0, 0]
        value += [0.0, 0.0]
        stack.append((right_child, above, depth + 1))
        stack.append((left_child, below, depth + 1))
    return IsolationTree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        value=np.asarray(value, dtype=float),
        depth=deepest,
    )


def fit_iforest(params: dict, X: np.ndarray, rng) -> IsolationForestState:
    n, d = X.shape
    psi = int(math.ceil(params["max_samples"] * n))
    psi = max(2, min(psi, n))
    m = max(1, int(round(params["max_features"] * d)))
    m = min(m, d)
    limit = int(math.ceil(math.log2(psi)))
    columns = [np.ascontiguousarray(X[:, f]) for f in range(d)]
    lists = None if np.isnan(X).any() else [c.tolist() for c in columns]
    trees = []
    for _ in range(params["n_estimators"]):
        rows = rng.choice(n, size=psi, replace=False)
        feats = np.sort(rng.choice(d, size=m, replace=False))
        trees.append(_grow(columns, lists, rows, feats, limit, rng))
    return IsolationForestState(
        trees=trees,
        subsample_size=psi,
        normalizer=average_path_length(psi),
    )


def _path_lengths(tree: IsolationTree, X: np.ndarray) -> np.ndarray:
    """Path length of every row of X through one tree."""
    flat = X.ravel()
    base = np.arange(X.shape[0]) * X.shape[1]
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        go_left = flat.take(base + tree.feature.take(node)) < tree.threshold.take(node)
        node = np.where(go_left, tree.left.take(node), tree.right.take(node))
    return tree.value.take(node)


def score_iforest(state: IsolationForestState, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X)
    total = np.zeros(X.shape[0])
    for tree in state.trees:
        total += _path_lengths(tree, X)
    exponent = -(total / len(state.trees)) / state.normalizer
    # a Python float power per row, not np.power: NumPy's SIMD power can
    # differ from the C library's pow in the last bit, which would move
    # fixed-seed scores
    return np.asarray([2.0 ** e for e in exponent.tolist()])
