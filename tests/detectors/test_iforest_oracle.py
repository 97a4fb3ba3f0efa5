"""Isolation Forest against two independent references.

* **Exact.** :func:`frontier_score` grows the same trees node by node in
  plain Python and walks each point down each tree alone. It draws from
  the generator in the library's documented order, so the scores must be
  bit-equal: any slip in the vectorised frontier (segment bounds, the
  feature pick, routing, leaf sizes, the reduction order) shows.
* **Distributional.** :func:`dfs_score` is the previous depth-first
  grower. Its random stream differs from the frontier's, so only the score
  distribution can agree: averaged over many trees, old-vs-new scores may
  differ no more than two old forests with different seeds do, and the
  top-ranked point must agree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.detectors import IsolationForest

from .iforest_reference import dfs_score, frontier_score


@st.composite
def forest_inputs(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    # A handful of distinct values makes ties and duplicate rows common;
    # arbitrary floats cover the general case.
    values = st.sampled_from([-2.0, 0.0, 0.5, 1.0]) | st.floats(-50, 50, width=64)
    X = draw(arrays(np.float64, (n, d), elements=values))
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X[:, constant] = X[0, constant]
    duplicates = draw(st.integers(0, n - 1))
    X[n - duplicates:] = X[0]
    return (
        X,
        draw(st.integers(2, 32)),  # psi: both below and above n
        draw(st.integers(1, 5)),  # n_trees
        draw(st.integers(1, 2)),  # n_repeats
        draw(st.integers(0, 2**32 - 1)),  # seed
    )


def _both(X, psi, n_trees, n_repeats, seed):
    params = dict(n_trees=n_trees, subsample_size=psi, n_repeats=n_repeats, seed=seed)
    return IsolationForest(**params).score(X), frontier_score(X, **params)


class TestExactOracle:
    @settings(max_examples=60, deadline=None)
    @given(forest_inputs())
    @example((np.array([[0.0, 1.0], [1.0, 0.0]]), 256, 3, 2, 0))  # n = 2
    @example((np.ones((9, 3)), 8, 4, 1, 5))  # constant data
    @example((np.array([[1.0, 2.0]] * 6 + [[1.0, 3.0]] * 5), 4, 5, 2, 1))  # duplicates
    def test_scores_bit_equal(self, case):
        ours, reference = _both(*case)
        assert ours.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n, d, psi", [(300, 2, 256), (40, 3, 256), (120, 4, 16)])
    def test_bit_equal_at_realistic_shapes(self, n, d, psi):
        rng = np.random.default_rng(n + d)
        X = np.round(rng.normal(size=(n, d)), 1)  # one-decimal grid: many ties
        ours, reference = _both(X, psi, 6, 2, 17)
        assert ours.tobytes() == reference.tobytes()


def _planted(d: int) -> np.ndarray:
    """300 rows: a Gaussian bulk, a constant block, a tight cluster, one outlier."""
    rng = np.random.default_rng(7)
    X = np.vstack([
        rng.normal(size=(284, d)),
        np.full((10, d), -3.0),
        rng.normal(4.0, 0.1, size=(5, d)),
        np.full((1, d), 7.0),
    ])
    if d > 2:
        X[150:, -1] = 0.5  # a column constant on half the rows
    return X


class TestDistributionalOracle:
    @pytest.mark.parametrize("d", [2, 4])
    def test_old_and_new_growers_agree_in_distribution(self, d):
        X = _planted(d)
        params = dict(n_trees=100, n_repeats=5)
        old_a = dfs_score(X, seed=0, **params)
        old_b = dfs_score(X, seed=1, **params)
        new = IsolationForest(seed=0, **params).score(X)
        noise = np.abs(old_a - old_b).max()
        assert np.abs(old_a - new).max() <= 2.0 * noise
        assert int(np.argmax(new)) == int(np.argmax(old_a)) == 299
