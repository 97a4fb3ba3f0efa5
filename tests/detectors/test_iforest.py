"""Unit tests for the Isolation Forest detector."""

import numpy as np
import pytest

from repro.detectors import IsolationForest, average_path_length
from repro.exceptions import ValidationError


class TestAveragePathLength:
    def test_conventions(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0

    def test_monotone(self):
        values = [average_path_length(n) for n in range(2, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_formula(self):
        n = 256
        harmonic = np.log(n - 1) + np.euler_gamma
        assert average_path_length(n) == pytest.approx(
            2 * harmonic - 2 * (n - 1) / n
        )


class TestIsolationForestBehaviour:
    def test_detects_planted_outlier(self, rng):
        X = np.vstack([rng.normal(0, 0.5, size=(200, 3)), [[9.0, -9.0, 9.0]]])
        scores = IsolationForest(n_trees=50, n_repeats=1, seed=0).score(X)
        assert int(np.argmax(scores)) == 200

    def test_scores_in_unit_interval(self, rng):
        X = rng.normal(size=(150, 4))
        scores = IsolationForest(n_trees=30, n_repeats=1, seed=1).score(X)
        assert (scores > 0.0).all()
        assert (scores < 1.0).all()

    def test_outlier_score_above_half(self, rng):
        X = np.vstack([rng.normal(0, 0.3, size=(300, 2)), [[10.0, 10.0]]])
        scores = IsolationForest(n_trees=100, n_repeats=1, seed=2).score(X)
        assert scores[-1] > 0.5

    def test_deterministic_per_input(self, rng):
        X = rng.normal(size=(80, 3))
        det = IsolationForest(n_trees=20, n_repeats=2, seed=3)
        assert np.allclose(det.score(X), det.score(X))

    def test_different_inputs_different_randomness(self, rng):
        det = IsolationForest(n_trees=20, n_repeats=1, seed=3)
        X = rng.normal(size=(80, 3))
        # Same values, different column: fingerprint differs.
        a = det.score(X)
        b = det.score(X[:, [1, 0, 2]])
        assert not np.allclose(a, b)

    def test_repeats_reduce_variance(self, rng):
        X = np.vstack([rng.normal(size=(200, 2)), [[6.0, 6.0]]])
        few = [
            IsolationForest(n_trees=10, n_repeats=1, seed=s).score(X)[-1]
            for s in range(8)
        ]
        many = [
            IsolationForest(n_trees=10, n_repeats=10, seed=s).score(X)[-1]
            for s in range(8)
        ]
        assert np.var(many) < np.var(few)

    def test_duplicated_points_become_leaves(self, rng):
        X = np.array([[1.0, 1.0]] * 50 + [[2.0, 2.0]])
        scores = IsolationForest(n_trees=20, n_repeats=1, seed=0).score(X)
        assert np.isfinite(scores).all()
        assert int(np.argmax(scores)) == 50

    def test_subsample_capped_at_n(self, rng):
        X = rng.normal(size=(40, 2))
        scores = IsolationForest(
            n_trees=10, subsample_size=256, n_repeats=1, seed=0
        ).score(X)
        assert scores.shape == (40,)


class TestTreeConstruction:
    def test_leaf_only_tree_for_constant_data(self):
        # The root cannot split, so every path length is h = c(psi) and
        # the score is 2^-1: exactly with one tree, and to the last places
        # with 100 (summing 100 equal path lengths rounds).
        X = np.ones((10, 3))
        for n_repeats in (1, 3):
            scores = IsolationForest(n_trees=1, n_repeats=n_repeats, seed=0).score(X)
            assert (scores == 0.5).all()
        scores = IsolationForest(n_trees=100, n_repeats=10, seed=0).score(X)
        assert np.allclose(scores, 0.5, rtol=0, atol=1e-14)

    def test_path_lengths_bounded_by_height(self, rng):
        # With one tree, s = 2^(-h / c(psi)) recovers every point's path
        # length h: its leaf depth (at most the height limit) plus c(leaf
        # size), which is at most c(psi).
        X = rng.normal(size=(64, 2))
        psi, height_limit = 16, 4
        for seed in range(5):
            scores = IsolationForest(
                n_trees=1, subsample_size=psi, n_repeats=1, seed=seed
            ).score(X)
            lengths = -np.log2(scores) * average_path_length(psi)
            assert (lengths <= height_limit + average_path_length(psi) + 1e-9).all()
            assert lengths.max() > 1.0  # the root split at least once

    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            IsolationForest(n_trees=0)
        with pytest.raises(ValidationError):
            IsolationForest(subsample_size=1)
        with pytest.raises(ValidationError):
            IsolationForest(n_repeats=0)
