"""The network kernels in float32: every array they compute keeps the
network's dtype, caller-owned float32 buffers are written in place, and
each result agrees with the float64 kernel's to float32 precision."""

from dataclasses import replace

import numpy as np
import pytest

from rsdnet.attacks import AttackConfig, attack, input_gradient
from rsdnet.data_io import synthetic_blobs
from rsdnet.divergence import LossSpec, make_tuning
from rsdnet.network import (ArchitectureSpec, _backward, _forward, backward,
                            forward, init_params, unflatten)
from rsdnet.optimizer import TrainConfig, accuracy, adam_step, train

from reference import overlapping_images, reference_accuracy, same_bits, textbook_adam

NET64 = ArchitectureSpec(4, ((8, "tanh"), (6, "relu"), (5, "identity")), 3)
NET32 = replace(NET64, dtype=np.float32)
# float32 keeps 24 bits: about 6e-8 relative per rounding, a few hundred
# roundings deep in these small networks
RTOL, ATOL = 1e-5, 1e-6


def batch(n=9, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, NET64.input_dim)), rng.integers(0, 3, n)


def both_params(seed=1):
    return init_params(NET32, seed), init_params(NET64, seed)


class TestArchitectureDtype:
    def test_default_is_float64_and_any_spelling_is_one_dtype(self):
        assert NET64.dtype == np.float64
        for spelling in (np.float32, "float32", np.dtype("f4")):
            arch = replace(NET64, dtype=spelling)
            assert arch.dtype is np.dtype(np.float32)
            assert arch == NET32 and hash(arch) == hash(NET32)

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="float32 or float64"):
            replace(NET64, dtype=dtype)

    def test_unflatten_refuses_params_of_another_dtype(self):
        # a cast would give views of a copy, which no write would reach
        for params, arch in ((np.zeros(NET64.n_params, np.float32), NET64),
                             (np.zeros(NET32.n_params), NET32)):
            with pytest.raises(ValueError, match="parameters"):
                unflatten(params, arch)


class TestKernelsKeepFloat32:
    def test_unflatten_views_the_float32_buffer(self):
        stack = np.zeros((2, NET32.n_params), np.float32)
        for W, b in unflatten(stack, NET32):
            assert W.dtype == b.dtype == np.float32
            assert np.shares_memory(W, stack) and np.shares_memory(b, stack)

    def test_init_draws_in_float64_then_casts(self):
        p32, p64 = both_params()
        same_bits(p32, p64.astype(np.float32))

    def test_forward(self):
        (p32, p64), (X, _) = both_params(), batch()
        got, want = forward(p32, NET32, X), forward(p64, NET64, X)
        assert got.inputs.dtype == got.logits.dtype == np.float32
        assert all(a.dtype == np.float32
                   for a in (*got.pre_activations, *got.activations))
        # the losses take the probabilities in float64
        assert got.probs.dtype == np.float64
        np.testing.assert_allclose(got.logits, want.logits, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(got.probs, want.probs, rtol=RTOL, atol=ATOL)

    def test_backward(self):
        (p32, p64), (X, y) = both_params(), batch()
        loss = LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8))
        results = []
        for params, arch in ((p32, NET32), (p64, NET64)):
            trace = forward(params, arch, X)
            _, g = loss.value_and_grad_logits(y, trace.logits)
            results.append(backward(trace, params, arch, g))
        (grad, grad_in), (grad64, grad_in64) = results
        assert grad.dtype == grad_in.dtype == np.float32
        np.testing.assert_allclose(grad, grad64, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(grad_in, grad_in64, rtol=RTOL, atol=ATOL)

    def test_backward_kernel_writes_the_float32_gradient_buffer(self):
        (p32, _), (X, _) = both_params(), batch()
        layers = unflatten(p32, NET32)
        X32 = X.astype(np.float32)
        pres, posts = _forward(layers, NET32.activations, X32)
        grad = np.full(NET32.n_params, np.nan, np.float32)
        delta = np.ones_like(posts[-1])
        out = np.empty_like(X32)
        got = _backward(X32, pres, posts, layers, NET32.activations, delta,
                        unflatten(grad, NET32), out=out)
        assert got is out and np.isfinite(grad).all()
        _, want = backward(forward(p32, NET32, X), p32, NET32, delta)
        same_bits(out, want)

    def test_input_gradient_into_a_float32_buffer(self):
        (p32, p64), (X, y) = both_params(), batch()
        out = np.empty(X.shape, np.float32)
        got = input_gradient(p32, NET32, X, y, out=out)
        assert got is out
        np.testing.assert_allclose(out, input_gradient(p64, NET64, X, y),
                                   rtol=RTOL, atol=ATOL)

    def test_attack_keeps_its_ball_in_float64(self):
        (p32, _), (X, y) = both_params(), batch()
        X = (X + 1.0) / 2.0
        cfg = AttackConfig(kind="pgd", epsilon=0.1, step_size=0.03, max_iters=5)
        adv = attack(p32, NET32, X, y, cfg)
        assert adv.dtype == np.float64
        assert np.abs(adv - X).max() <= 0.1
        assert (adv != X).mean() > 0.5

    def test_adam_step_in_place_and_textbook_in_float32(self):
        rng = np.random.default_rng(2)
        params, grad = rng.normal(size=(2, 40)).astype(np.float32)
        m, v = np.zeros(40, np.float32), np.zeros(40, np.float32)
        s1, s2 = np.empty(40, np.float32), np.empty(40, np.float32)
        ref = (params.copy(), m.copy(), v.copy())
        ref64 = tuple(a.astype(np.float64) for a in ref)
        buffers = (params, m, v)
        for t in range(1, 6):
            adam_step(t, params, grad, m, v, s1, s2)
            ref = textbook_adam(t, ref[0], grad, ref[1], ref[2])
            ref64 = textbook_adam(t, ref64[0], grad.astype(np.float64),
                                  ref64[1], ref64[2])
            for buf, want, want64 in zip(buffers, ref, ref64):
                same_bits(buf, want)
                np.testing.assert_allclose(buf, want64, rtol=RTOL, atol=ATOL)

    def test_accuracy(self):
        ds = overlapping_images(300, seed=2)
        arch = ArchitectureSpec(784, ((32, "relu"),), 10, np.float32)
        params = init_params(arch, 3)
        acc = accuracy(params, arch, ds)
        assert acc == reference_accuracy(params, arch, ds)
        assert acc == accuracy(params.astype(np.float64),
                               replace(arch, dtype=np.float64), ds)


class TestTrainInFloat32:
    LOSSES = (LossSpec(kind="cce"), LossSpec(kind="sd", tuning=make_tuning(0.5, -0.5)))

    def test_float32_models_from_float64_features(self):
        ds = synthetic_blobs(64, seed=1)
        arch64 = ArchitectureSpec(2, ((8, "tanh"), (8, "relu")), 2)
        arch32 = replace(arch64, dtype=np.float32)
        cfg = TrainConfig(losses=self.LOSSES, epochs=2, batch_size=16)
        before = ds.features.copy()
        got = train(ds, arch32, 0, cfg, eval_set=ds)
        want = train(ds, arch64, 0, cfg, eval_set=ds)
        same_bits(ds.features, before)
        for (p, metrics), (p64, metrics64) in zip(got, want, strict=True):
            assert p.dtype == np.float32
            np.testing.assert_allclose(p, p64, rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(np.array(metrics), np.array(metrics64),
                                       rtol=1e-5)
