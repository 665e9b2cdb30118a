"""Tests for the Adam optimizer and the training loop."""

import numpy as np
import pytest

from rsdnet.data_io import Dataset, synthetic_blobs
from rsdnet.divergence import LossSpec, make_tuning
from rsdnet.network import ArchitectureSpec, backward, forward, init_params
from rsdnet.optimizer import (
    AdamConfig,
    AdamState,
    TrainConfig,
    accuracy,
    adam_step,
    init_adam,
    train,
)

TOY = ArchitectureSpec(2, ((16, "tanh"),), 2)


class TestAdamStep:
    def test_matches_reference_updates(self):
        # hand-rolled reference over a few steps on a fixed gradient stream
        cfg = AdamConfig()
        rng = np.random.default_rng(0)
        params = rng.normal(size=5)
        state = init_adam(5)
        m = np.zeros(5)
        v = np.zeros(5)
        ref = params.copy()
        for t in range(1, 6):
            g = rng.normal(size=5)
            params, state = adam_step(state, cfg, params, g)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1 ** t)
            v_hat = v / (1 - cfg.beta2 ** t)
            ref = ref - cfg.alpha * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            np.testing.assert_allclose(params, ref, rtol=1e-12)
            assert state.t == t

    def test_bit_identical_to_textbook_expressions(self):
        cfg = AdamConfig(alpha=0.01)
        rng = np.random.default_rng(3)
        params = rng.normal(size=50)
        state = init_adam(50)
        m, v, ref = np.zeros(50), np.zeros(50), params.copy()
        for t in range(1, 20):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=50)
            params, state = adam_step(state, cfg, params, g)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1 ** t)
            v_hat = v / (1.0 - cfg.beta2 ** t)
            ref = ref - cfg.alpha * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert np.array_equal(params, ref)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_first_step_size_is_alpha(self):
        # bias correction makes the first update approximately alpha * sign(g)
        cfg = AdamConfig(alpha=0.1)
        params = np.zeros(3)
        g = np.array([4.0, -0.5, 1e3])
        new, _ = adam_step(init_adam(3), cfg, params, g)
        np.testing.assert_allclose(new, -0.1 * np.sign(g), rtol=1e-6)

    def test_inputs_untouched(self):
        cfg = AdamConfig()
        params = np.ones(3)
        state = init_adam(3)
        adam_step(state, cfg, params, np.ones(3))
        np.testing.assert_array_equal(params, 1.0)
        np.testing.assert_array_equal(state.m, 0.0)
        assert state.t == 0

    def test_nonzero_inputs_untouched(self):
        rng = np.random.default_rng(1)
        params, grad, m = rng.normal(size=(3, 7))
        v = rng.uniform(0.1, 1.0, 7)
        state = AdamState(m=m, v=v, t=3)
        before = [a.copy() for a in (params, grad, m, v)]
        new, new_state = adam_step(state, AdamConfig(), params, grad)
        for a, b in zip((params, grad, m, v), before):
            np.testing.assert_array_equal(a, b)
        assert state.t == 3 and new_state.t == 4
        assert not np.shares_memory(new, params)
        assert not np.shares_memory(new_state.m, m)
        assert not np.shares_memory(new_state.v, v)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            adam_step(init_adam(3), AdamConfig(), np.zeros(3), np.zeros(4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)

    def test_minimizes_quadratic(self):
        cfg = AdamConfig(alpha=0.05)
        target = np.array([2.0, -1.0])
        params = np.zeros(2)
        state = init_adam(2)
        for _ in range(2000):
            params, state = adam_step(state, cfg, params, params - target)
        np.testing.assert_allclose(params, target, atol=1e-4)


class TestTrain:
    def test_learns_separable_blobs(self):
        ds = synthetic_blobs(300, seed=0, spread=0.08)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=60,
                          batch_size=32, shuffle_seed=1)
        params, metrics = train(ds, TOY, 0, cfg, eval_set=ds)
        assert accuracy(params, TOY, ds) >= 0.97
        assert len(metrics) == 60
        # loss should decrease substantially from the first epoch
        assert metrics[-1][1] < 0.5 * metrics[0][1]
        assert metrics[-1][2] >= 0.97

    def test_sd_loss_also_learns(self):
        ds = synthetic_blobs(300, seed=0, spread=0.08)
        spec = LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8))
        cfg = TrainConfig(loss=spec, epochs=60, batch_size=32, shuffle_seed=1)
        params, _ = train(ds, TOY, 0, cfg)
        assert accuracy(params, TOY, ds) >= 0.97

    def test_deterministic(self):
        ds = synthetic_blobs(100, seed=2)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=5,
                          batch_size=16, shuffle_seed=7)
        p1, m1 = train(ds, TOY, 3, cfg, eval_set=ds)
        p2, m2 = train(ds, TOY, 3, cfg, eval_set=ds)
        np.testing.assert_array_equal(p1, p2)
        assert m1 == m2

    def test_eval_set_optional(self):
        ds = synthetic_blobs(50, seed=3)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=2, batch_size=16)
        _, metrics = train(ds, TOY, 0, cfg)
        assert all(np.isnan(acc) for _, _, acc in metrics)

    def test_class_mismatch_rejected(self):
        ds = Dataset(features=np.zeros((4, 2)), labels=np.zeros(4, dtype=np.intp),
                     num_classes=3)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=1)
        with pytest.raises(ValueError):
            train(ds, TOY, 0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss=LossSpec(kind="cce"), epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(loss=LossSpec(kind="cce"), epochs=1, batch_size=0)

    def test_short_final_batch_kept(self):
        # n = 10 with batch 8 must still visit all examples each epoch
        ds = synthetic_blobs(10, seed=4)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=1, batch_size=8)
        _, metrics = train(ds, TOY, 0, cfg)
        assert np.isfinite(metrics[0][1])


def reference_train(dataset, arch, init_seed, cfg, eval_set):
    """train() spelled out with the public pure functions, one call each."""
    params = init_params(arch, init_seed)
    state = init_adam(params.shape[0])
    metrics = []
    n = dataset.n
    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng(cfg.shuffle_seed + epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            trace = forward(params, arch, dataset.features[idx])
            loss, grad_logits = cfg.loss.value_and_grad_logits(
                dataset.labels[idx], trace.logits)
            grad, _ = backward(trace, params, arch, grad_logits)
            params, state = adam_step(state, AdamConfig(), params, grad)
            loss_sum += loss * len(idx)
        metrics.append((epoch, loss_sum / n, accuracy(params, arch, eval_set)))
    return params, metrics


THREE_BLOBS = ((0.2, 0.2), (0.5, 0.8), (0.8, 0.2))
RELU_NET = ArchitectureSpec(2, ((12, "relu"), (8, "relu")), 3)
FUSED_LOSSES = [
    LossSpec(kind="cce"),
    LossSpec(kind="mae"),
    LossSpec(kind="gce", q=0.7),
    LossSpec(kind="tcce", delta=0.2),
    LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8)),
    LossSpec(kind="sd", tuning=make_tuning(0.5, -0.5)),
]


class TestFusedTrain:
    @pytest.mark.parametrize("loss", FUSED_LOSSES, ids=LossSpec.describe)
    @pytest.mark.parametrize("arch", [RELU_NET, TOY], ids=["relu", "tanh"])
    def test_matches_reference_bit_for_bit(self, arch, loss):
        centers = THREE_BLOBS if arch.output_classes == 3 else THREE_BLOBS[:2]
        ds = synthetic_blobs(50, seed=5, centers=centers)
        ev = synthetic_blobs(30, seed=6, centers=centers)
        # batch 16 over 50 examples leaves a short final batch of 2
        cfg = TrainConfig(loss=loss, epochs=3, batch_size=16, shuffle_seed=2)
        params, metrics = train(ds, arch, 4, cfg, eval_set=ev)
        ref_params, ref_metrics = reference_train(ds, arch, 4, cfg, ev)
        assert np.array_equal(params, ref_params)
        assert np.array_equal(np.array(metrics), np.array(ref_metrics))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises_naming_the_epoch(self):
        ds = synthetic_blobs(40, seed=0)
        ds = Dataset(features=ds.features * 1e200, labels=ds.labels,
                     num_classes=2)
        net = ArchitectureSpec(2, ((8, "relu"),), 2)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=3, batch_size=16)
        with pytest.raises(FloatingPointError, match="epoch 1"):
            train(ds, net, 0, cfg)

    def test_width_mismatch_rejected(self):
        ds = Dataset(features=np.zeros((4, 3)), labels=np.zeros(4, dtype=np.intp),
                     num_classes=2)
        cfg = TrainConfig(loss=LossSpec(kind="cce"), epochs=1)
        with pytest.raises(ValueError):
            train(ds, TOY, 0, cfg)
