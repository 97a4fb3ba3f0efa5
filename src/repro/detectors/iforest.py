"""Isolation Forest (Liu, Ting & Zhou, ICDM 2008).

Isolation-based detector: outliers are isolated by fewer random
axis-parallel splits than inliers. The anomaly score of point :math:`x` is

.. math:: s(x, \\psi) = 2^{-E[h(x)] / c(\\psi)}

where :math:`h(x)` is the path length of :math:`x` in a random isolation
tree grown on a subsample of size :math:`\\psi`, and :math:`c(\\psi)` is the
average path length of an unsuccessful BST search, normalising scores into
``(0, 1)`` with outliers close to 1.

The paper's testbed uses ``t = 100`` trees, ``psi = 256`` and averages the
score over 10 independent repetitions to reduce variance (Section 3.1);
:class:`IsolationForest` exposes that as ``n_repeats``.

Implementation notes
--------------------
Each repeat grows its ``n_trees`` trees together, one level at a time,
with no per-node Python loop. The frontier is every node of one depth
across all trees, in (tree, left-to-right) order. Per level, the sample
rows sit sorted by node (one stable argsort), so per-node, per-feature
bounds are one ``np.minimum.reduceat``/``np.maximum.reduceat`` each. A
node splits when it is below the height limit and some feature is
non-constant in it (so singletons and duplicate points become leaves).
All points of ``X`` are routed through the trees while they grow: a
point that reaches a leaf is credited ``depth + c(leaf size)`` from a
table of ``c(0..psi)``, and the others follow their node's split.

Random stream, per repeat: the ``n_trees`` subsamples
(``rng.choice(n, psi, replace=False)``, tree order), then per level one
``rng.random((n_split_nodes, 2))`` in frontier order. A split node's
``u0`` picks the ``floor(u0 * k)``-th (0-based, at most ``k - 1``) of
its ``k`` splittable features and ``u1`` the threshold
``lo + u1 * (hi - lo)``; points with ``x[feature] < threshold`` go left,
so ``threshold == lo`` leaves an empty left child. The generator is
seeded from ``(seed, fingerprint(X))`` so that re-scoring the same
projection is deterministic (see :mod:`repro.detectors.base`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.detectors.base import Detector, data_fingerprint
from repro.obs.trace import span as obs_span
from repro.utils.validation import check_positive_int

__all__ = ["IsolationForest", "average_path_length"]


def average_path_length(n: float) -> float:
    """Average path length ``c(n)`` of an unsuccessful BST search on ``n`` points.

    ``c(n) = 2 H(n-1) - 2 (n-1)/n`` with ``H(i) ≈ ln(i) + γ``; by convention
    ``c(1) = 0`` and ``c(2) = 1`` (Liu et al., Section 2).
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1.0) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1.0) / n


class IsolationForest(Detector):
    """Isolation Forest with repetition averaging.

    Parameters
    ----------
    n_trees:
        Trees per forest (paper: 100).
    subsample_size:
        Points drawn (without replacement) to grow each tree (paper: 256).
        Capped at the dataset size.
    n_repeats:
        Independent forests whose scores are averaged (paper: 10).
    seed:
        Base seed; combined with a fingerprint of the scored data so every
        projection gets distinct but reproducible randomness.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(11)
    >>> X = np.vstack([rng.normal(0, 0.5, size=(128, 2)), [[9.0, -9.0]]])
    >>> det = IsolationForest(n_trees=50, n_repeats=1, seed=0)
    >>> int(np.argmax(det.score(X)))
    128
    """

    name = "iforest"
    #: 1: trees grown level by level (the random stream of revision 0's
    #: depth-first grower is not reproduced).
    revision = 1

    def __init__(
        self,
        n_trees: int = 100,
        subsample_size: int = 256,
        n_repeats: int = 10,
        seed: int = 0,
    ) -> None:
        self.n_trees = check_positive_int(n_trees, name="n_trees")
        self.subsample_size = check_positive_int(subsample_size, name="subsample_size", minimum=2)
        self.n_repeats = check_positive_int(n_repeats, name="n_repeats")
        self.seed = int(seed)

    def _params(self) -> dict[str, object]:
        return {
            "n_trees": self.n_trees,
            "subsample_size": self.subsample_size,
            "n_repeats": self.n_repeats,
            "seed": self.seed,
        }

    def _score_validated(self, X: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng([self.seed & 0x7FFFFFFF, data_fingerprint(X)])
        total = np.zeros(X.shape[0])
        for repeat in range(self.n_repeats):
            with obs_span(
                "detector.iforest.fit_score",
                repeat=repeat,
                n_trees=self.n_trees,
            ):
                total += self._score_once(X, rng)
        return total / self.n_repeats

    def _score_once(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Grow one forest level by level, routing every row of ``X`` as it grows."""
        n, d = X.shape
        n_trees = self.n_trees
        psi = min(self.subsample_size, n)
        height_limit = max(1, math.ceil(math.log2(psi)))
        c = np.array([average_path_length(m) for m in range(psi + 1)])
        # The frontier is every node of one depth across all trees, in
        # (tree, left-to-right) order; ``size`` counts each node's sample
        # rows. ``S`` holds the sample rows sorted by frontier node
        # (``s_node``); query pair ``t * n + i`` is row ``i`` of ``X`` in
        # tree ``t``, currently at node ``q_node``.
        S = X[np.concatenate(
            [rng.choice(n, size=psi, replace=False) for _ in range(n_trees)]
        )]
        s_node = np.repeat(np.arange(n_trees), psi)
        size = np.full(n_trees, psi)
        q_pair = np.arange(n_trees * n)
        q_off = np.tile(np.arange(0, n * d, d), n_trees)
        q_node = np.repeat(np.arange(n_trees), n)
        paths = np.empty(n_trees * n)
        depth = 0
        while True:
            # rank: a node's index among this level's split nodes, -1 for a
            # leaf. Split node r's children are nodes 2r (x < thr) and 2r + 1
            # of the next level, which keeps the (tree, left-to-right) order.
            rank = np.full(size.shape[0], -1)
            if depth < height_limit:
                # Sizes 0 and 1 and all-duplicate nodes have no splittable
                # feature; the u0-th splittable feature and u1 set the split.
                occupied = np.flatnonzero(size)
                starts = (np.cumsum(size) - size)[occupied]
                lo = np.minimum.reduceat(S, starts, axis=0)
                hi = np.maximum.reduceat(S, starts, axis=0)
                splittable = hi > lo
                keep = splittable.any(axis=1)
                lo, hi, splittable = lo[keep], hi[keep], splittable[keep]
                at = np.arange(lo.shape[0])
                u = rng.random((at.shape[0], 2))
                k = splittable.sum(axis=1)
                j = np.minimum((u[:, 0] * k).astype(np.int64), k - 1)
                feat = (np.cumsum(splittable, axis=1) <= j[:, None]).sum(axis=1)
                lo, hi = lo[at, feat], hi[at, feat]
                thr = lo + u[:, 1] * (hi - lo)
                rank[occupied[keep]] = at
            r = rank.take(q_node)
            leaf = r < 0
            if leaf.any():
                paths[q_pair[leaf]] = depth + c.take(size.take(q_node[leaf]))
                if leaf.all():
                    break
                live = ~leaf
                q_pair, q_off, r = q_pair[live], q_off[live], r[live]
            q_node = 2 * r + (X.ravel().take(q_off + feat.take(r)) >= thr.take(r))
            r = rank.take(s_node)
            rows = np.flatnonzero(r >= 0)
            r = r.take(rows)
            child = 2 * r + (S.ravel().take(rows * d + feat.take(r)) >= thr.take(r))
            order = np.argsort(child, kind="stable")
            S, s_node = S[rows.take(order)], child.take(order)
            size = np.bincount(s_node, minlength=2 * thr.shape[0])
            depth += 1
        expected = np.add.reduce(paths.reshape(n_trees, n), axis=0) / n_trees
        return np.exp2(-expected / c[psi])
