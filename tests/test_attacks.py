"""Tests for the FGSM and PGD adversarial attacks."""

import numpy as np
import pytest

from rsdnet.attacks import (
    AttackConfig,
    adversarial_trainset,
    attack,
    fgsm,
    input_gradient,
    pgd,
)
from rsdnet.data_io import synthetic_blobs
from rsdnet.divergence import LossSpec, make_tuning
from rsdnet.network import ArchitectureSpec, backward, forward, init_params
from rsdnet.optimizer import TrainConfig, accuracy, train

ARCH = ArchitectureSpec(2, ((16, "tanh"),), 2)


def trained_model():
    ds = synthetic_blobs(300, seed=0, spread=0.08)
    params, _ = train(ds, ARCH, 0,
                      TrainConfig(loss=LossSpec(kind="cce"), epochs=60,
                                  batch_size=32, shuffle_seed=1))
    return params, ds


class TestInputGradient:
    def test_matches_fd(self):
        params = init_params(ARCH, "glorot_normal", 1)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (5, 2))
        y = rng.integers(0, 2, 5)
        an = input_gradient(params, ARCH, X, y)

        def per_example_losses(Xp):
            from rsdnet.network import forward
            from rsdnet.divergence import cce_loss, softmax
            return cce_loss(y, softmax(forward(params, ARCH, Xp).logits))

        h = 1e-6
        fd = np.zeros_like(X)
        for i in range(5):
            for j in range(2):
                up, dn = X.copy(), X.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (per_example_losses(up)[i] - per_example_losses(dn)[i]) / (2 * h)
        np.testing.assert_allclose(fd, an, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("loss", [
        LossSpec(kind="cce"),
        LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8)),
    ], ids=LossSpec.describe)
    @pytest.mark.parametrize("arch", [
        ARCH, ArchitectureSpec(2, ((7, "relu"), (5, "relu")), 3),
    ], ids=["tanh", "relu"])
    def test_equals_public_backward(self, arch, loss):
        params = init_params(arch, "glorot_normal", 3)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (6, 2))
        y = rng.integers(0, arch.output_classes, 6)
        trace = forward(params, arch, X)
        _, grad_logits = loss.value_and_grad_logits(y, trace.logits)
        _, expected = backward(trace, params, arch, grad_logits * 6)
        assert np.array_equal(input_gradient(params, arch, X, y, loss), expected)
        # a single example gives the matching row, unbatched
        single = forward(params, arch, X[2])
        _, g1 = loss.value_and_grad_logits(y[2], single.logits)
        _, expected1 = backward(single, params, arch, g1[0])
        got = input_gradient(params, arch, X[2], y[2], loss)
        assert got.shape == (2,) and np.array_equal(got, expected1)


class TestConstraints:
    def test_fgsm_ball_and_box(self):
        params, ds = trained_model()
        adv = fgsm(params, ARCH, ds.features, ds.labels, 0.1)
        assert np.max(np.abs(adv - ds.features)) <= 0.1 + 1e-15
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_pgd_ball_and_box(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.05, max_iters=20)
        adv = pgd(params, ARCH, ds.features, ds.labels, cfg)
        assert np.max(np.abs(adv - ds.features)) <= 0.3 + 1e-15
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_fgsm_equals_one_step_saturating_pgd(self):
        params, ds = trained_model()
        eps = 0.2
        a = fgsm(params, ARCH, ds.features, ds.labels, eps)
        cfg = AttackConfig(kind="pgd", epsilon=eps, step_size=eps, max_iters=1)
        b = pgd(params, ARCH, ds.features, ds.labels, cfg)
        np.testing.assert_array_equal(a, b)

    def test_epsilon_zero_is_identity(self):
        params, ds = trained_model()
        adv = fgsm(params, ARCH, ds.features, ds.labels, 0.0)
        np.testing.assert_array_equal(adv, np.clip(ds.features, 0, 1))


class TestEffectiveness:
    def test_pgd_degrades_accuracy(self):
        params, ds = trained_model()
        clean = accuracy(params, ARCH, ds)
        assert clean >= 0.95
        cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.01, max_iters=100)
        attacked = adversarial_trainset(params, ARCH, ds, cfg)
        assert accuracy(params, ARCH, attacked) <= clean - 0.5

    def test_pgd_no_weaker_than_fgsm(self):
        params, ds = trained_model()
        eps = 0.2
        adv_f = adversarial_trainset(
            params, ARCH, ds, AttackConfig(kind="fgsm", epsilon=eps))
        adv_p = adversarial_trainset(
            params, ARCH, ds,
            AttackConfig(kind="pgd", epsilon=eps, step_size=0.02, max_iters=50))
        acc_f = accuracy(params, ARCH, adv_f)
        acc_p = accuracy(params, ARCH, adv_p)
        assert acc_p <= acc_f + 1e-12


class TestPlumbing:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="cw", epsilon=0.1)
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd", epsilon=-0.1)
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd", epsilon=0.1, max_iters=0)

    def test_dispatcher(self):
        params, ds = trained_model()
        X, y = ds.features[:10], ds.labels[:10]
        a = attack(params, ARCH, X, y, AttackConfig(kind="fgsm", epsilon=0.1))
        b = fgsm(params, ARCH, X, y, 0.1)
        np.testing.assert_array_equal(a, b)

    def test_trainset_labels_untouched(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="fgsm", epsilon=0.1)
        out = adversarial_trainset(params, ARCH, ds, cfg, batch_size=64)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.features.shape == ds.features.shape

    def test_batched_matches_unbatched(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="fgsm", epsilon=0.15)
        a = adversarial_trainset(params, ARCH, ds, cfg, batch_size=7)
        b = adversarial_trainset(params, ARCH, ds, cfg, batch_size=1000)
        np.testing.assert_array_equal(a.features, b.features)

    def test_deterministic(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="pgd", epsilon=0.2, step_size=0.02, max_iters=10)
        a = pgd(params, ARCH, ds.features, ds.labels, cfg)
        b = pgd(params, ARCH, ds.features, ds.labels, cfg)
        np.testing.assert_array_equal(a, b)
