"""Tests for the Adam optimizer and the training loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import (blobs, overlapping_images, reference_accuracy,
                       same_bits, subset_train, textbook_adam)
from rsdnet.cli import ARCH_PRESETS
from rsdnet.contamination import NoiseConfig, corrupt_labels
from rsdnet.data_io import BLOB_SPREAD, Dataset, make_folds, synthetic_blobs
from rsdnet.divergence import LossSpec, make_tuning
from rsdnet.network import ArchitectureSpec, backward, forward, init_params
from rsdnet.optimizer import (
    ADAM_ALPHA,
    EVAL_BATCH,
    TrainConfig,
    accuracy,
    adam_step,
    train,
)

TOY = ArchitectureSpec(2, ((16, "tanh"),), 2)


def fresh_state(n):
    """Zero moments m, v and scratch s1, s2 for n parameters."""
    return np.zeros(n), np.zeros(n), np.empty(n), np.empty(n)


class TestAdamStep:
    def test_matches_reference_updates(self):
        # a few steps on a fixed unit-scale gradient stream, to rounding
        rng = np.random.default_rng(0)
        params = rng.normal(size=5)
        m, v, s1, s2 = fresh_state(5)
        ref, ref_m, ref_v = params.copy(), np.zeros(5), np.zeros(5)
        for t in range(1, 6):
            g = rng.normal(size=5)
            adam_step(t, params, g, m, v, s1, s2)
            ref, ref_m, ref_v = textbook_adam(t, ref, g, ref_m, ref_v)
            np.testing.assert_allclose(params, ref, rtol=1e-12)

    def test_bit_identical_to_textbook_expressions(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=50)
        m, v, s1, s2 = fresh_state(50)
        ref, ref_m, ref_v = params.copy(), np.zeros(50), np.zeros(50)
        for t in range(1, 20):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=50)
            adam_step(t, params, g, m, v, s1, s2)
            ref, ref_m, ref_v = textbook_adam(t, ref, g, ref_m, ref_v)
            assert np.array_equal(params, ref)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)

    @example(seed=0, scale=1e-8, zeros=0.5, t0=1, steps=3)
    @example(seed=1, scale=1e3, zeros=0.0, t0=10**4 - 2, steps=3)
    @example(seed=2, scale=1.0, zeros=1.0, t0=1, steps=2)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-8, 1e-5, 1e-2, 1.0, 10.0, 1e3]),
           zeros=st.sampled_from([0.0, 0.25, 1.0]),
           t0=st.integers(1, 10**4 - 4),
           steps=st.integers(1, 4))
    def test_any_gradient_stream_matches_textbook(self, seed, scale, zeros,
                                                   t0, steps):
        # gradients of scale 1e-8 to 1e3 with exact zeros, from step t0 on
        # nonzero moments, up to step 10**4
        rng = np.random.default_rng(seed)
        params = rng.normal(size=17)
        m = rng.normal(scale=scale, size=17)
        v = rng.uniform(0.0, 2.0, 17) * scale ** 2
        ref, ref_m, ref_v = params.copy(), m.copy(), v.copy()
        s1, s2 = np.empty(17), np.empty(17)
        for t in range(t0, t0 + steps):
            g = rng.normal(scale=scale, size=17)
            g[rng.random(17) < zeros] = 0.0
            adam_step(t, params, g, m, v, s1, s2)
            ref, ref_m, ref_v = textbook_adam(t, ref, g, ref_m, ref_v)
            assert np.array_equal(params, ref)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)

    def test_first_step_size_is_alpha(self):
        # bias correction makes the first update approximately alpha * sign(g)
        params = np.zeros(3)
        g = np.array([4.0, -0.5, 1e3])
        adam_step(1, params, g, *fresh_state(3))
        np.testing.assert_allclose(params, -ADAM_ALPHA * np.sign(g), rtol=1e-6)

    def test_writes_in_place_and_leaves_grad(self):
        rng = np.random.default_rng(1)
        params, grad, m = rng.normal(size=(3, 7))
        v = rng.uniform(0.1, 1.0, 7)
        s1, s2 = np.empty(7), np.empty(7)
        buffers = (params, m, v)
        grad_before = grad.copy()
        expected = textbook_adam(4, params, grad, m, v)
        assert adam_step(4, params, grad, m, v, s1, s2) is None
        for buf, want in zip(buffers, expected):
            assert np.array_equal(buf, want)
        np.testing.assert_array_equal(grad, grad_before)

    def test_shape_check(self):
        # a (1,) gradient would broadcast without the check
        for which, size in (("grad", 4), ("grad", 1), ("m", 4), ("v", 4)):
            arrays = {"params": np.zeros(3), "grad": np.zeros(3),
                      "m": np.zeros(3), "v": np.zeros(3), which: np.zeros(size)}
            with pytest.raises(ValueError):
                adam_step(1, arrays["params"], arrays["grad"], arrays["m"],
                          arrays["v"], np.empty(3), np.empty(3))

    def test_minimizes_quadratic(self):
        target = np.array([2.0, -1.0])
        params = np.zeros(2)
        state = fresh_state(2)
        for t in range(1, 8001):
            adam_step(t, params, params - target, *state)
        np.testing.assert_allclose(params, target, atol=1e-4)


class TestTrain:
    def test_learns_separable_blobs(self):
        ds = blobs(300, 0, spread=0.08)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=60,
                          batch_size=32, shuffle_seed=1)
        [(params, metrics)] = train(ds, TOY, 0, cfg, eval_set=ds)
        assert accuracy(params, TOY, ds) >= 0.97
        assert len(metrics) == 60
        # loss should decrease substantially from the first epoch
        assert metrics[-1][1] < 0.5 * metrics[0][1]
        assert metrics[-1][2] >= 0.97

    def test_sd_loss_also_learns(self):
        ds = blobs(300, 0, spread=0.08)
        spec = LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8))
        cfg = TrainConfig(losses=(spec,), epochs=60, batch_size=32,
                          shuffle_seed=1)
        [(params, _)] = train(ds, TOY, 0, cfg)
        assert accuracy(params, TOY, ds) >= 0.97

    def test_deterministic(self):
        ds = synthetic_blobs(100, seed=2)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=5,
                          batch_size=16, shuffle_seed=7)
        [(p1, m1)] = train(ds, TOY, 3, cfg, eval_set=ds)
        [(p2, m2)] = train(ds, TOY, 3, cfg, eval_set=ds)
        np.testing.assert_array_equal(p1, p2)
        assert m1 == m2

    def test_eval_set_optional(self):
        ds = synthetic_blobs(50, seed=3)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=2,
                          batch_size=16)
        [(_, metrics)] = train(ds, TOY, 0, cfg)
        assert all(np.isnan(acc) for _, _, acc in metrics)

    def test_empty_dataset_rejected(self):
        empty = Dataset(features=np.empty((0, 2)),
                        labels=np.empty(0, dtype=np.intp), num_classes=2)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=1)
        with pytest.raises(ValueError, match="empty training dataset"):
            train(empty, TOY, 0, cfg)

    def test_class_mismatch_rejected(self):
        ds = Dataset(features=np.zeros((4, 2)), labels=np.zeros(4, dtype=np.intp),
                     num_classes=3)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=1)
        with pytest.raises(ValueError):
            train(ds, TOY, 0, cfg)

    def test_config_validation(self):
        cce = LossSpec(kind="cce")
        with pytest.raises(ValueError):
            TrainConfig(losses=(cce,), epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(losses=(cce,), epochs=1, batch_size=0)
        # at least one loss, given as a tuple of LossSpec
        for losses in ((), cce, [cce], ("cce",)):
            with pytest.raises(ValueError):
                TrainConfig(losses=losses, epochs=1)

    @pytest.mark.parametrize("preset, dtype", [
        pytest.param("toy", np.float64, id="toy"),
        pytest.param("mnist-mlp", np.float64, id="mnist-mlp"),
        pytest.param("mnist-mlp", np.float32, id="mnist-mlp-float32"),
    ])
    def test_rows_train_as_their_subset(self, preset, dtype):
        # batches gathered from the full matrix carry the bits of batches
        # of the copied rows, labels corrupted at the same draws included;
        # in float32 each gathered batch is cast, the rows never as a whole
        arch = replace(ARCH_PRESETS[preset], dtype=dtype)
        ds = (synthetic_blobs(90, seed=5) if preset == "toy"
              else overlapping_images(300, seed=6))
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),
                                  LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8))),
                          epochs=2, batch_size=32, shuffle_seed=9)
        for fold, (rows, _) in enumerate(make_folds(ds.n, 3, seed=4)):
            noise = NoiseConfig(eta=0.3, seed=fold)
            noisy, _ = corrupt_labels(ds, noise, rows=rows)
            got = train(noisy, arch, fold, cfg, rows=rows)
            want = subset_train(ds, rows, noise, arch, fold, cfg)
            for (p, m), (p_want, m_want) in zip(got, want, strict=True):
                same_bits(p, p_want)
                assert np.array_equal(m, m_want, equal_nan=True)  # nan accuracy

    def test_empty_rows_rejected(self):
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=1)
        with pytest.raises(ValueError, match="empty training dataset"):
            train(synthetic_blobs(10, seed=0), TOY, 0, cfg,
                  rows=np.empty(0, dtype=np.intp))

    def test_short_final_batch_kept(self):
        # n = 10 with batch 8 must still visit all examples each epoch
        ds = synthetic_blobs(10, seed=4)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=1,
                          batch_size=8)
        [(_, metrics)] = train(ds, TOY, 0, cfg)
        assert np.isfinite(metrics[0][1])


class TestAccuracy:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 500])
    @pytest.mark.parametrize("preset", ["blob-mlp", "toy"])
    def test_blocks_match_one_whole_set_pass(self, preset, n):
        arch = ARCH_PRESETS[preset]
        ds = synthetic_blobs(n, seed=n)
        for seed in range(4):
            # scaled weights push the logits apart, as training does
            for scale in (1.0, 8.0):
                params = scale * init_params(arch, seed)
                acc = accuracy(params, arch, ds)
                assert type(acc) is float
                assert acc == reference_accuracy(params, arch, ds)

    def test_blocks_match_on_a_validation_fold_of_images(self):
        ds = overlapping_images(2667, seed=3)
        assert ds.n % EVAL_BATCH != 0
        for dtype in (np.float64, np.float32):
            arch = replace(ARCH_PRESETS["mnist-mlp"], dtype=dtype)
            for seed in range(3):
                params = init_params(arch, seed)
                assert (accuracy(params, arch, ds)
                        == reference_accuracy(params, arch, ds))
        # SGEMM gives each EVAL_BATCH-row block's logits the bits of the
        # whole set's (DGEMM's (n, 128) x (128, 10) layer does not: the
        # float64 count above holds where no row is an ulp from a tie)
        whole = forward(params, arch, ds.features).logits
        for start in range(0, ds.n, EVAL_BATCH):
            rows = slice(start, start + EVAL_BATCH)
            same_bits(forward(params, arch, ds.features[rows]).logits, whole[rows])

    def test_rows_match_their_subset(self):
        arch = ARCH_PRESETS["mnist-mlp"]
        ds = overlapping_images(900, seed=7)
        params = init_params(arch, 2)
        for _, rows in make_folds(ds.n, 3, seed=1):
            assert (accuracy(params, arch, ds, rows=rows)
                    == reference_accuracy(params, arch, ds.subset(rows)))

    def test_empty_dataset_rejected(self):
        empty = Dataset(features=np.empty((0, 2)),
                        labels=np.empty(0, dtype=np.intp), num_classes=2)
        with pytest.raises(ValueError, match="empty evaluation dataset"):
            accuracy(init_params(TOY, 0), TOY, synthetic_blobs(5, seed=0),
                     rows=np.empty(0, dtype=np.intp))
        with pytest.raises(ValueError, match="empty evaluation dataset"):
            accuracy(init_params(TOY, 0), TOY, empty)


def reference_train(dataset, arch, init_seed, loss, cfg, eval_set):
    """train() of one model with this loss, spelled out with the public
    pure functions and the textbook Adam step, one call each; cfg gives
    the epochs, batch size and shuffle seed."""
    params = init_params(arch, init_seed)
    m, v = np.zeros_like(params), np.zeros_like(params)
    metrics = []
    n = dataset.n
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng(cfg.shuffle_seed + epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            trace = forward(params, arch, dataset.features[idx])
            value, grad_logits = loss.value_and_grad_logits(
                dataset.labels[idx], trace.logits)
            grad, _ = backward(trace, params, arch, grad_logits)
            t += 1
            params, m, v = textbook_adam(t, params, grad, m, v)
            loss_sum += value * len(idx)
        metrics.append((epoch, loss_sum / n,
                        reference_accuracy(params, arch, eval_set)))
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


def blob_pair(arch):
    """(train, eval) blob sets with the architecture's class count."""
    centers = THREE_BLOBS if arch.output_classes == 3 else THREE_BLOBS[:2]
    return (blobs(50, 5, BLOB_SPREAD, centers),
            blobs(30, 6, BLOB_SPREAD, centers))


class TestFusedTrain:
    @pytest.mark.parametrize("loss", FUSED_LOSSES, ids=LossSpec.describe)
    @pytest.mark.parametrize("arch", [RELU_NET, TOY], ids=["relu", "tanh"])
    def test_matches_reference_bit_for_bit(self, arch, loss):
        ds, ev = blob_pair(arch)
        # batch 16 over 50 examples leaves a short final batch of 2
        cfg = TrainConfig(losses=(loss,), epochs=3, batch_size=16,
                          shuffle_seed=2)
        [(params, metrics)] = train(ds, arch, 4, cfg, eval_set=ev)
        ref_params, ref_metrics = reference_train(ds, arch, 4, loss, cfg, ev)
        assert np.array_equal(params, ref_params)
        assert np.array_equal(np.array(metrics), np.array(ref_metrics))

    @pytest.mark.parametrize("arch", [RELU_NET, TOY], ids=["relu", "tanh"])
    def test_lockstep_matches_each_loss_alone(self, arch):
        ds, ev = blob_pair(arch)
        cfg = TrainConfig(losses=tuple(FUSED_LOSSES), epochs=3, batch_size=16,
                          shuffle_seed=2)
        trained = train(ds, arch, 4, cfg, eval_set=ev)
        assert len(trained) == len(FUSED_LOSSES)
        for loss, (params, metrics) in zip(FUSED_LOSSES, trained):
            ref_params, ref_metrics = reference_train(ds, arch, 4, loss, cfg, ev)
            assert np.array_equal(params, ref_params), loss.describe()
            assert np.array_equal(np.array(metrics), np.array(ref_metrics))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises_naming_the_epoch(self):
        ds = synthetic_blobs(40, seed=0)
        ds = Dataset(features=ds.features * 1e200, labels=ds.labels,
                     num_classes=2)
        net = ArchitectureSpec(2, ((8, "relu"),), 2)
        # the softmax saturates: mae's gradient is exactly 0 and its model
        # stays finite, while the squared gradients of tcce and cce overflow;
        # the first model that diverged, in losses order, is named
        cfg = TrainConfig(losses=(LossSpec(kind="mae"),
                                  LossSpec(kind="tcce", delta=0.2),
                                  LossSpec(kind="cce")),
                          epochs=3, batch_size=16)
        with pytest.raises(FloatingPointError, match="epoch 1") as err:
            train(ds, net, 0, cfg)
        assert "loss tcce(0.2)" in str(err.value)
        assert "mae" not in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_float32_overflow_raises_naming_the_epoch(self):
        # features near 1e30 fit in float32, but the squared gradients,
        # near 1e60, overflow the float32 Adam second moment
        ds = synthetic_blobs(40, seed=0)
        ds = Dataset(features=ds.features * 1e30, labels=ds.labels,
                     num_classes=2)
        net = ArchitectureSpec(2, ((8, "relu"),), 2, np.float32)
        assert np.isfinite(ds.features.astype(np.float32)).all()
        cfg = TrainConfig(losses=(LossSpec(kind="mae"), LossSpec(kind="cce")),
                          epochs=3, batch_size=16)
        with pytest.raises(FloatingPointError, match="epoch 1") as err:
            train(ds, net, 0, cfg)
        assert "loss cce" in str(err.value)
        assert "mae" not in str(err.value)

    def test_width_mismatch_rejected(self):
        ds = Dataset(features=np.zeros((4, 3)), labels=np.zeros(4, dtype=np.intp),
                     num_classes=2)
        cfg = TrainConfig(losses=(LossSpec(kind="cce"),), epochs=1)
        with pytest.raises(ValueError):
            train(ds, TOY, 0, cfg)
