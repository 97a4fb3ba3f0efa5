"""Reference isolation forests for the tests of :mod:`repro.detectors.iforest`.

Two slow, plain growers kept outside ``src/``:

* :func:`frontier_score` grows the same trees as the library's
  level-synchronous frontier, but one node at a time in plain Python. It
  draws from the generator in the same order: all subsamples first (tree
  order), then two uniforms per split node in (level, tree, node) order.
  It walks every point down every tree on its own. Its scores must equal
  :meth:`IsolationForest.score` bit for bit.
* :func:`dfs_score` is the depth-first grower the library used before the
  frontier, kept verbatim: one ``rng.choice`` feature draw and one
  ``rng.uniform`` threshold per internal node, in depth-first order,
  interleaved with each tree's subsample. Its random stream differs from
  the frontier's, so it is a reference for the score *distribution* only.

Both take the detector's own generator seeding, so a test can compare
them with :meth:`IsolationForest.score` at any ``(seed, X)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.detectors import average_path_length
from repro.detectors.base import data_fingerprint


def _repeat_average(X, seed, n_repeats, score_once) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng([seed & 0x7FFFFFFF, data_fingerprint(X)])
    total = np.zeros(X.shape[0])
    for _ in range(n_repeats):
        total += score_once(X, rng)
    return total / n_repeats


# ----------------------------------------------------------------------
# Exact oracle: the frontier's trees, grown and walked one node at a time.
# ----------------------------------------------------------------------


@dataclass
class _Node:
    rows: list[int]  # indices into X of the sample rows that reach this node
    depth: int
    feature: int = -1  # -1 for a leaf
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


def _frontier_forest(X, n_trees, psi, rng) -> list[_Node]:
    n, d = X.shape
    height_limit = max(1, math.ceil(math.log2(psi)))
    roots = [
        _Node([int(r) for r in rng.choice(n, size=psi, replace=False)], 0)
        for _ in range(n_trees)
    ]
    level = list(roots)  # (tree, left-to-right) order
    while level:
        children = []
        for node in level:
            if node.depth >= height_limit or len(node.rows) < 2:
                continue
            lo = [min(float(X[r, f]) for r in node.rows) for f in range(d)]
            hi = [max(float(X[r, f]) for r in node.rows) for f in range(d)]
            splittable = [f for f in range(d) if hi[f] > lo[f]]
            if not splittable:
                continue
            u0, u1 = rng.random(), rng.random()
            k = len(splittable)
            feat = splittable[min(int(u0 * k), k - 1)]
            thr = lo[feat] + u1 * (hi[feat] - lo[feat])
            node.feature, node.threshold = feat, thr
            node.left = _Node([r for r in node.rows if X[r, feat] < thr], node.depth + 1)
            node.right = _Node([r for r in node.rows if not X[r, feat] < thr], node.depth + 1)
            children += [node.left, node.right]
        level = children
    return roots


def _walk(node: _Node, x: np.ndarray) -> float:
    while node.feature >= 0:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.depth + average_path_length(len(node.rows))


def frontier_score(X, *, n_trees, subsample_size=256, n_repeats=1, seed=0) -> np.ndarray:
    """Scalar re-implementation of ``IsolationForest(...).score(X)``."""

    def once(X, rng):
        psi = min(subsample_size, X.shape[0])
        roots = _frontier_forest(X, n_trees, psi, rng)
        paths = np.array([[_walk(root, x) for x in X] for root in roots])
        return np.exp2(-(np.add.reduce(paths, axis=0) / n_trees) / average_path_length(psi))

    return _repeat_average(X, seed, n_repeats, once)


# ----------------------------------------------------------------------
# Distributional reference: the previous depth-first grower, verbatim.
# ----------------------------------------------------------------------


@dataclass
class _Tree:
    """Flat array representation of one isolation tree.

    ``feature[i] < 0`` marks node ``i`` as a leaf; ``adjust`` holds the leaf
    depth plus the :func:`average_path_length` correction for the leaf size.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32 child index
    right: np.ndarray  # (n_nodes,) int32 child index
    adjust: np.ndarray  # (n_nodes,) float64, depth + c(leaf_size) at leaves
    depth: int  # maximum node depth


def dfs_score(X, *, n_trees, subsample_size=256, n_repeats=1, seed=0) -> np.ndarray:
    """The previous ``IsolationForest(...).score(X)``, depth-first grower and all."""

    def once(X, rng):
        n = X.shape[0]
        psi = min(subsample_size, n)
        height_limit = max(1, math.ceil(math.log2(psi)))
        trees = []
        for _ in range(n_trees):
            sample = rng.choice(n, size=psi, replace=False)
            trees.append(_grow_tree(X[sample], height_limit, rng))
        paths = _forest_path_lengths(trees, X)
        expected = np.add.reduce(paths, axis=0) / n_trees
        return np.exp2(-expected / average_path_length(psi))

    return _repeat_average(X, seed, n_repeats, once)


def _forest_path_lengths(trees: list[_Tree], X: np.ndarray) -> np.ndarray:
    """Adjusted path lengths of every row of ``X`` in every tree, batched.

    The per-tree flat arrays are concatenated with node-index offsets and
    leaves rewritten to self-loop, so a whole forest is traversed with one
    ``(n_trees, n)`` node matrix and a handful of gathers per level —
    instead of ``n_trees`` separate Python-level traversals.

    Returns an array of shape ``(n_trees, n_samples)``.
    """
    n = X.shape[0]
    sizes = np.array([tree.feature.shape[0] for tree in trees], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    adjust = np.concatenate([tree.adjust for tree in trees])
    node_ids = np.arange(feature.shape[0], dtype=np.int64)
    is_split = feature >= 0
    safe_feature = np.where(is_split, feature, 0)
    left = np.concatenate(
        [tree.left.astype(np.int64) + off for tree, off in zip(trees, offsets)]
    )
    right = np.concatenate(
        [tree.right.astype(np.int64) + off for tree, off in zip(trees, offsets)]
    )
    # Leaves self-loop: once a point reaches its leaf, further levels are
    # no-ops and no masking bookkeeping is needed.
    left = np.where(is_split, left, node_ids)
    right = np.where(is_split, right, node_ids)

    node = np.broadcast_to(offsets[:, None], (len(trees), n)).copy()
    rows = np.arange(n)
    max_depth = max(tree.depth for tree in trees)
    for _ in range(max_depth + 1):
        if not is_split[node].any():
            break
        go_left = X[rows[None, :], safe_feature[node]] < threshold[node]
        node = np.where(go_left, left[node], right[node])
    return adjust[node]


def _grow_tree(S: np.ndarray, height_limit: int, rng: np.random.Generator) -> _Tree:
    """Grow one isolation tree on sample ``S`` up to ``height_limit``."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    adjust: list[float] = []
    max_depth = 0

    # Depth-first construction with an explicit stack of (row mask, depth,
    # parent slot). Each stack entry allocates its node index on pop.
    stack: list[tuple[np.ndarray, int, int, bool]] = [
        (np.arange(S.shape[0]), 0, -1, False)
    ]
    while stack:
        rows, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = node_id
            else:
                left[parent] = node_id
        max_depth = max(max_depth, depth)
        split = _choose_split(S, rows, rng) if (
            depth < height_limit and rows.shape[0] > 1
        ) else None
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            adjust.append(depth + average_path_length(rows.shape[0]))
            continue
        feat, thr = split
        feature.append(feat)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        adjust.append(0.0)
        values = S[rows, feat]
        go_left = values < thr
        stack.append((rows[~go_left], depth + 1, node_id, True))
        stack.append((rows[go_left], depth + 1, node_id, False))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        adjust=np.asarray(adjust, dtype=np.float64),
        depth=max_depth,
    )


def _choose_split(
    S: np.ndarray, rows: np.ndarray, rng: np.random.Generator
) -> tuple[int, float] | None:
    """Pick a uniformly random (feature, threshold) that splits ``rows``.

    Features whose values are constant within the node cannot split it;
    one is drawn uniformly among the non-constant features, mirroring the
    reference implementation. Returns ``None`` when all features are
    constant (duplicated points), making the node a leaf.
    """
    values = S[rows]
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    splittable = np.flatnonzero(hi > lo)
    if splittable.shape[0] == 0:
        return None
    feat = int(rng.choice(splittable))
    thr = float(rng.uniform(lo[feat], hi[feat]))
    return feat, thr
