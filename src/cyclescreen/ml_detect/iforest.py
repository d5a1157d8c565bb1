"""Isolation forest scored by the classic path-length formula.

Trees are grown on row subsamples with uniform random axis splits; a point's
anomaly score is 2 ** (-E[h] / c(psi)) where E[h] averages path lengths over
trees and c(psi) is the expected path length of an unsuccessful BST search
over the subsample size. Scores near 1 mean "isolated almost immediately".

The forest is four flat node arrays (feature, threshold, left, value)
shared by all trees, grown depth first from an explicit stack, left child
first. A node holds its rows once per selected feature, sorted by that
feature's value, so a feature's range over the node is its first and last
row, and a split cuts the chosen feature's rows at a bisection; only the
other features' rows are partitioned. Rows and columns are Python lists:
at a cell's node sizes NumPy's per-call cost outweighs its per-row speed.
A child with one row, or at the depth limit, draws nothing, so it gets its
value when its parent splits. The random draws happen in the order of the
recursive textbook growth, so a seed gives the same trees; a threshold is
lo + (hi - lo) * rng.random(), Generator.uniform's own formula, which skips
its per-call argument handling.
Scoring moves a block of rows down every tree at once, one level per step,
and adds the trees' path lengths into each row's total in tree order, so
the sums are the same floats a row-at-a-time walk would give.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..errors import InputError

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
class IsolationForestState:
    """Every tree's nodes in flat arrays; tree t's root is roots[t].

    A row at split node i moves to left[i] when x[feature[i]] < threshold[i]
    and to the right child, left[i] + 1, otherwise. A leaf is its own left
    child with an infinite threshold, so a row that reaches it stays there,
    and value[i] is its path length, depth + c(leaf size). depth is the deepest leaf's depth over
    all trees, the number of steps that take every row to its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int
    subsample_size: int
    normalizer: float


#: rows x trees one scoring step moves down a level: the node indices and
#: each gather of them stay cache-sized (128 KB of intp)
_SCORE_BLOCK = 1 << 14


def _grow(nodes, features, columns, parts, limit: int, path, rng) -> int:
    """Grow one tree into nodes, the four node lists, and return its deepest
    leaf's depth.

    columns[k] is the column of the tree's k-th selected feature, features[k],
    as a Python list, and parts[k] lists the subsample's rows sorted by
    columns[k]. path[s] is c(s) for every subsample size s. A node is a leaf
    when it holds one row, sits at the depth limit, has no selected feature
    with spread, or draws a threshold that sends every row one way.
    Otherwise it picks a feature with spread uniformly and a threshold
    uniformly in that feature's range over the node's rows; a split is a
    bisection of that feature's rows, and the other features' rows are
    partitioned in order. The columns are finite (ml_detect.fit sees to it).
    """
    feature, threshold, left, value = nodes
    # a node is a leaf from its creation: its own left child, with an
    # infinite threshold and its path length as value; a split overwrites
    # the first three
    root = len(feature)
    feature.append(0)
    threshold.append(math.inf)
    left.append(root)
    value.append(path[len(parts[0])])
    deepest = 0
    # every node on the stack has at least 2 rows and sits above the limit
    stack = [(root, parts, 0)]
    while stack:
        node, parts, depth = stack.pop()
        n = len(parts[0])
        usable = []
        for k, rows in enumerate(parts):
            col = columns[k]
            lo, hi = col[rows[0]], col[rows[-1]]
            if lo < hi:
                usable.append((k, col, lo, hi))
        cut = 0
        if usable:
            # integers(1) draws nothing from the generator
            pick = rng.integers(len(usable)) if len(usable) > 1 else 0
            k, col, lo, hi = usable[pick]
            thr = lo + (hi - lo) * rng.random()
            cut = bisect_left(parts[k], thr, key=col.__getitem__)
        if not 0 < cut < n:
            continue
        below, above = [], []
        for j, rows in enumerate(parts):
            if j == k:
                below.append(rows[:cut])
                above.append(rows[cut:])
            else:
                # one loop beats two comprehensions on a few rows
                b, a = [], []
                for i in rows:
                    (b if col[i] < thr else a).append(i)
                below.append(b)
                above.append(a)
        # a child with one row or at the limit is never popped
        first = len(feature)
        feature[node], threshold[node] = features[k], thr
        left[node] = first
        depth += 1
        feature += (0, 0)
        threshold += (math.inf, math.inf)
        left += (first, first + 1)
        value += (depth + path[cut], depth + path[n - cut])
        if depth > deepest:
            deepest = depth
        if depth < limit:
            if n - cut > 1:
                stack.append((first + 1, above, depth))
            if cut > 1:
                stack.append((first, below, depth))
    return deepest


def fit_iforest(params: dict, X: np.ndarray, rng) -> IsolationForestState:
    n, d = X.shape
    if n < 2:
        raise InputError("need at least 2 rows to grow a tree")
    psi = int(math.ceil(params["max_samples"] * n))
    psi = max(2, min(psi, n))
    m = max(1, int(round(params["max_features"] * d)))
    m = min(m, d)
    limit = int(math.ceil(math.log2(psi)))
    path = [average_path_length(s) for s in range(psi + 1)]
    columns = X.T.tolist()
    # each column's rows in value order; a tree keeps those it drew
    orders = [np.argsort(c, kind="stable") for c in X.T]
    nodes = [], [], [], []
    roots, depth = [], 0
    for _ in range(params["n_estimators"]):
        rows = rng.choice(n, size=psi, replace=False)
        feats = np.sort(rng.choice(d, size=m, replace=False)).tolist()
        drawn = np.zeros(n, dtype=bool)
        drawn[rows] = True
        parts = [orders[f][drawn[orders[f]]].tolist() for f in feats]
        roots.append(len(nodes[0]))
        cols = [columns[f] for f in feats]
        depth = max(depth, _grow(nodes, feats, cols, parts, limit, path, rng))
    feature, threshold, left, value = nodes
    return IsolationForestState(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        value=np.asarray(value, dtype=float),
        roots=np.asarray(roots, dtype=np.intp),
        depth=depth,
        subsample_size=psi,
        normalizer=average_path_length(psi),
    )


def _mean_path_lengths(state: IsolationForestState, X: np.ndarray) -> np.ndarray:
    """Each row's path length averaged over the trees, a block of rows at a
    time; the trees' lengths are added in tree order (cumsum, never the
    pairwise order np.sum may take)."""
    n, d = X.shape
    flat = X.ravel()
    trees = len(state.roots)
    step = max(1, _SCORE_BLOCK // trees)
    total = np.empty(n)
    for a in range(0, n, step):
        b = min(a + step, n)
        base = np.arange(a * d, b * d, d)
        node = np.repeat(state.roots[:, None], b - a, axis=1)
        for _ in range(state.depth):
            x = flat.take(base + state.feature.take(node))
            node = state.left.take(node) + (x >= state.threshold.take(node))
        total[a:b] = state.value.take(node).cumsum(axis=0)[-1]
    return total / trees


def score_iforest(state: IsolationForestState, X: np.ndarray) -> np.ndarray:
    exponent = -_mean_path_lengths(state, np.ascontiguousarray(X)) / state.normalizer
    # a Python float power per row, not np.power: NumPy's SIMD power can
    # differ from the C library's pow in the last bit, which would move
    # fixed-seed scores
    return np.asarray([2.0 ** e for e in exponent.tolist()])
