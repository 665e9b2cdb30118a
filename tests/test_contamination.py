"""Tests for uniform label-noise injection."""

import numpy as np
import pytest

from rsdnet.contamination import corrupt_labels, noisy_posterior
from rsdnet.data_io import Dataset

from reference import subset


def make_dataset(n, J, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.normal(size=(n, 2)),
                   labels=rng.integers(0, J, n).astype(np.intp),
                   num_classes=J)


class TestCorruptLabels:
    def test_eta_zero_is_identity(self):
        ds = make_dataset(200, 5)
        corrupted, mask = corrupt_labels(ds, 0.0, 1)
        np.testing.assert_array_equal(corrupted.labels, ds.labels)
        assert not mask.any()

    def test_flipped_labels_always_change(self):
        ds = make_dataset(5000, 3)
        corrupted, mask = corrupt_labels(ds, 0.5, 2)
        assert mask.any()
        assert np.all(corrupted.labels[mask] != ds.labels[mask])
        np.testing.assert_array_equal(corrupted.labels[~mask], ds.labels[~mask])
        assert corrupted.labels.min() >= 0
        assert corrupted.labels.max() < 3

    def test_flip_rate(self):
        n, eta = 20000, 0.4
        ds = make_dataset(n, 10)
        _, mask = corrupt_labels(ds, eta, 3)
        # binomial: mean n*eta, sd sqrt(n*eta*(1-eta)); allow 4 sigma
        assert abs(mask.sum() - n * eta) < 4 * np.sqrt(n * eta * (1 - eta))

    def test_replacement_uniform_over_other_classes(self):
        # every wrong class should be hit about equally often
        n, J = 30000, 4
        ds = Dataset(features=np.zeros((n, 1)),
                     labels=np.zeros(n, dtype=np.intp), num_classes=J)
        corrupted, mask = corrupt_labels(ds, 1.0 - 1e-12, 4)
        counts = np.bincount(corrupted.labels[mask], minlength=J)
        assert counts[0] == 0
        expected = mask.sum() / (J - 1)
        # chi-square with J-2 dof; 30 is far beyond any sane quantile here
        chi2 = ((counts[1:] - expected) ** 2 / expected).sum()
        assert chi2 < 30

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.4, 0.6])
    @pytest.mark.parametrize("J", [2, 3, 10])
    def test_noisy_accuracy_is_affine_in_clean_accuracy(self, J, eta):
        # fixed predictions of clean accuracy a score
        # eta/(J-1) + a (1 - J eta/(J-1)) on average on the noisy labels:
        # a right prediction keeps its label with probability 1 - eta, and a
        # wrong one is the flip's draw with probability eta/(J-1)
        n = 100_000
        ds = make_dataset(n, J, seed=J)
        q = eta / (J - 1)
        for seed, right in enumerate((0, n // 3, 3 * n // 4, n)):
            preds = ds.labels.copy()
            preds[right:] = (preds[right:] + 1) % J
            a = right / n
            noisy, _ = corrupt_labels(ds, eta, seed)
            got = np.mean(preds == noisy.labels)
            # the sd of a mean of n Bernoulli draws, a n of them at
            # 1 - eta and the rest at q; allow 4 sigma
            sd = np.sqrt((a * eta * (1 - eta) + (1 - a) * q * (1 - q)) / n)
            assert abs(got - (q + a * (1 - J * q))) <= 4 * sd + 1e-12

    def test_deterministic(self):
        ds = make_dataset(500, 6)
        a, ma = corrupt_labels(ds, 0.3, 5)
        b, mb = corrupt_labels(ds, 0.3, 5)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(ma, mb)
        c, _ = corrupt_labels(ds, 0.3, 6)
        assert not np.array_equal(a.labels, c.labels)

    def test_features_shared(self):
        ds = make_dataset(50, 2)
        corrupted, _ = corrupt_labels(ds, 0.2, 7)
        assert corrupted.features is ds.features

    def test_rows_draw_as_their_subset(self):
        # the flips of rows are those of the copied rows; the other
        # labels and the features are kept as they are
        ds = make_dataset(300, 4)
        rows = np.sort(np.random.default_rng(8).permutation(300)[:170])
        corrupted, mask = corrupt_labels(ds, 0.4, 9, rows=rows)
        want, want_mask = corrupt_labels(subset(ds, rows), 0.4, 9)
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(corrupted.labels[rows], want.labels)
        others = np.setdiff1d(np.arange(300), rows)
        np.testing.assert_array_equal(corrupted.labels[others], ds.labels[others])
        assert corrupted.features is ds.features

    def test_eta_validation(self):
        # corrupt_labels and noisy_posterior share one check, which NaN fails
        for eta in (-0.1, 1.0, np.nan):
            with pytest.raises(ValueError, match="eta must lie"):
                corrupt_labels(make_dataset(5, 2), eta, 0)
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

    @pytest.mark.parametrize("p_star", [[1.0], np.zeros((3, 0)), 1.0])
    def test_fewer_than_two_classes_rejected(self, p_star):
        with pytest.raises(ValueError, match="must be at least 2, got p"):
            noisy_posterior(p_star, 0.2)

    def test_eta_zero_identity(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_array_equal(noisy_posterior(p, 0.0), p)

    def test_matches_empirical_flip_frequencies(self):
        # label frequencies after corruption follow the noisy posterior
        n, J, eta = 60000, 3, 0.3
        rng = np.random.default_rng(9)
        labels = rng.choice(J, size=n, p=[0.5, 0.3, 0.2]).astype(np.intp)
        ds = Dataset(features=np.zeros((n, 1)), labels=labels, num_classes=J)
        corrupted, _ = corrupt_labels(ds, eta, 10)
        observed = np.bincount(corrupted.labels, minlength=J) / n
        expected = noisy_posterior(np.array([0.5, 0.3, 0.2]), eta)
        np.testing.assert_allclose(observed, expected, atol=0.01)
