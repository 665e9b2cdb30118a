"""Tests for uniform label-noise injection."""

import numpy as np
import pytest

from rsdnet.contamination import NoiseConfig, corrupt_labels, noisy_posterior
from rsdnet.data_io import Dataset


def make_dataset(n, J, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.normal(size=(n, 2)),
                   labels=rng.integers(0, J, n).astype(np.intp),
                   num_classes=J)


class TestCorruptLabels:
    def test_eta_zero_is_identity(self):
        ds = make_dataset(200, 5)
        corrupted, mask = corrupt_labels(ds, NoiseConfig(eta=0.0, seed=1))
        np.testing.assert_array_equal(corrupted.labels, ds.labels)
        assert not mask.any()

    def test_flipped_labels_always_change(self):
        ds = make_dataset(5000, 3)
        corrupted, mask = corrupt_labels(ds, NoiseConfig(eta=0.5, seed=2))
        assert mask.any()
        assert np.all(corrupted.labels[mask] != ds.labels[mask])
        np.testing.assert_array_equal(corrupted.labels[~mask], ds.labels[~mask])
        assert corrupted.labels.min() >= 0
        assert corrupted.labels.max() < 3

    def test_flip_rate(self):
        n, eta = 20000, 0.4
        ds = make_dataset(n, 10)
        _, mask = corrupt_labels(ds, NoiseConfig(eta=eta, seed=3))
        # binomial: mean n*eta, sd sqrt(n*eta*(1-eta)); allow 4 sigma
        assert abs(mask.sum() - n * eta) < 4 * np.sqrt(n * eta * (1 - eta))

    def test_replacement_uniform_over_other_classes(self):
        # every wrong class should be hit about equally often
        n, J = 30000, 4
        ds = Dataset(features=np.zeros((n, 1)),
                     labels=np.zeros(n, dtype=np.intp), num_classes=J)
        corrupted, mask = corrupt_labels(ds, NoiseConfig(eta=1.0 - 1e-12, seed=4))
        counts = np.bincount(corrupted.labels[mask], minlength=J)
        assert counts[0] == 0
        expected = mask.sum() / (J - 1)
        # chi-square with J-2 dof; 30 is far beyond any sane quantile here
        chi2 = ((counts[1:] - expected) ** 2 / expected).sum()
        assert chi2 < 30

    def test_deterministic(self):
        ds = make_dataset(500, 6)
        a, ma = corrupt_labels(ds, NoiseConfig(eta=0.3, seed=5))
        b, mb = corrupt_labels(ds, NoiseConfig(eta=0.3, seed=5))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(ma, mb)
        c, _ = corrupt_labels(ds, NoiseConfig(eta=0.3, seed=6))
        assert not np.array_equal(a.labels, c.labels)

    def test_features_shared(self):
        ds = make_dataset(50, 2)
        corrupted, _ = corrupt_labels(ds, NoiseConfig(eta=0.2, seed=7))
        assert corrupted.features is ds.features

    def test_eta_validation(self):
        # NoiseConfig and noisy_posterior share one check, which NaN fails
        for eta in (-0.1, 1.0, np.nan):
            with pytest.raises(ValueError, match="eta must lie"):
                NoiseConfig(eta=eta, seed=0)
            with pytest.raises(ValueError, match="eta must lie"):
                noisy_posterior(np.array([0.3, 0.7]), eta)


class TestNoisyPosterior:
    def test_formula_binary(self):
        p = np.array([0.9, 0.1])
        out = noisy_posterior(p, 0.4)
        np.testing.assert_allclose(out, [0.6 * 0.9 + 0.4 * 0.1,
                                         0.6 * 0.1 + 0.4 * 0.9])

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(8)
        g = rng.gamma(1.0, 1.0, size=(100, 5))
        p = g / g.sum(axis=1, keepdims=True)
        out = noisy_posterior(p, 0.6)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0)

    def test_eta_zero_identity(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_array_equal(noisy_posterior(p, 0.0), p)

    def test_matches_empirical_flip_frequencies(self):
        # label frequencies after corruption follow the noisy posterior
        n, J, eta = 60000, 3, 0.3
        rng = np.random.default_rng(9)
        labels = rng.choice(J, size=n, p=[0.5, 0.3, 0.2]).astype(np.intp)
        ds = Dataset(features=np.zeros((n, 1)), labels=labels, num_classes=J)
        corrupted, _ = corrupt_labels(ds, NoiseConfig(eta=eta, seed=10))
        observed = np.bincount(corrupted.labels, minlength=J) / n
        expected = noisy_posterior(np.array([0.5, 0.3, 0.2]), eta)
        np.testing.assert_allclose(observed, expected, atol=0.01)
