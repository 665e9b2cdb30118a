"""Tests for the feed-forward engine and the closed-form example models."""

import numpy as np
import pytest

from rsdnet.divergence import LossSpec, make_tuning, softmax
from rsdnet.network import (
    ArchitectureSpec,
    backward,
    example_model,
    forward,
    init_params,
    unflatten,
)

from reference import glorot_params

TANH_NET = ArchitectureSpec(3, ((6, "tanh"),), 3)
DEEP_NET = ArchitectureSpec(4, ((8, "tanh"), (5, "relu")), 3)
# a hidden identity layer: elsewhere only the logit layer is linear
LINEAR_NET = ArchitectureSpec(3, ((4, "identity"), (5, "tanh")), 2)


class TestArchitecture:
    def test_param_count(self):
        assert TANH_NET.n_params == 3 * 6 + 6 + 6 * 3 + 3
        assert DEEP_NET.n_params == 4 * 8 + 8 + 8 * 5 + 5 + 5 * 3 + 3

    def test_dims_and_activations(self):
        assert DEEP_NET.dims == (4, 8, 5, 3)
        assert DEEP_NET.activations == ("tanh", "relu", "identity")

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(0, (), 2)
        with pytest.raises(ValueError):
            ArchitectureSpec(2, (), 1)
        with pytest.raises(ValueError):
            ArchitectureSpec(2, ((4, "sigmoid"),), 2)
        with pytest.raises(ValueError, match="widths"):
            ArchitectureSpec(2, ((0, "relu"),), 2)


class TestFlatten:
    def test_views_share_memory(self):
        params = np.zeros(TANH_NET.n_params)
        W0, _ = unflatten(params, TANH_NET)[0]
        W0[0, 0] = 7.0
        assert params[0] == 7.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unflatten(np.zeros(5), TANH_NET)
        with pytest.raises(ValueError):
            unflatten(np.zeros((2, 3, TANH_NET.n_params)), TANH_NET)

    def test_stacked_views_are_per_model_views(self):
        stack = np.arange(3.0 * DEEP_NET.n_params).reshape(3, -1)
        for i, (W, b) in enumerate(unflatten(stack, DEEP_NET)):
            fan_in, fan_out = DEEP_NET.dims[i], DEEP_NET.dims[i + 1]
            assert W.shape == (3, fan_in, fan_out) and b.shape == (3, fan_out)
            assert np.shares_memory(W, stack) and np.shares_memory(b, stack)
            for k in range(3):
                W_k, b_k = unflatten(stack[k], DEEP_NET)[i]
                assert np.array_equal(W[k], W_k) and np.array_equal(b[k], b_k)

    def test_one_model_functions_refuse_a_stack(self):
        stack = np.zeros((2, TANH_NET.n_params))
        with pytest.raises(ValueError):
            forward(stack, TANH_NET, np.zeros((4, 3)))
        trace = forward(stack[0], TANH_NET, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            backward(trace, stack, TANH_NET, np.zeros((4, 3)))


class TestInit:
    def test_deterministic(self):
        a = init_params(DEEP_NET, 3)
        b = init_params(DEEP_NET, 3)
        np.testing.assert_array_equal(a, b)
        c = init_params(DEEP_NET, 4)
        assert not np.array_equal(a, c)

    def test_biases_zero(self):
        params = init_params(DEEP_NET, 0)
        for _, b in unflatten(params, DEEP_NET):
            np.testing.assert_array_equal(b, 0.0)

    def test_matches_reference_glorot_normal(self):
        for arch, seed in ((DEEP_NET, 0), (TANH_NET, 5),
                           (ArchitectureSpec(100, ((50, "relu"),), 10), 1)):
            assert np.array_equal(init_params(arch, seed), glorot_params(arch, seed))


class TestForward:
    def test_manual_identity_net(self):
        # no hidden layers: logits are W.T x + b
        arch = ArchitectureSpec(2, (), 2)
        params = np.concatenate([[1.0, 0.0, 0.0, 2.0], [0.5, -0.5]])
        # one (input_dim,) example is a batch of one
        trace = forward(params, arch, np.array([1.0, 1.0]))
        assert trace.logits.shape == (1, 2)
        np.testing.assert_allclose(trace.logits, [[1.5, 1.5]])
        np.testing.assert_allclose(trace.probs, [[0.5, 0.5]])
        _, grad_in = backward(trace, params, arch, np.array([1.0, 0.0]))
        assert grad_in.shape == (1, 2)

    def test_probs_are_softmax_of_logits(self):
        rng = np.random.default_rng(1)
        params = init_params(DEEP_NET, 2)
        X = rng.normal(size=(7, 4))
        trace = forward(params, DEEP_NET, X)
        np.testing.assert_allclose(trace.probs, softmax(trace.logits))
        np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0)

    def test_input_width_checked(self):
        params = init_params(TANH_NET, 0)
        with pytest.raises(ValueError):
            forward(params, TANH_NET, np.zeros((2, 5)))


class TestBackward:
    def fd_param_grad(self, params, arch, X, labels, spec, h=1e-6):
        fd = np.zeros_like(params)
        for k in range(len(params)):
            up, dn = params.copy(), params.copy()
            up[k] += h
            dn[k] -= h
            lu = spec.value_and_grad_logits(labels, forward(up, arch, X).logits)[0]
            ld = spec.value_and_grad_logits(labels, forward(dn, arch, X).logits)[0]
            fd[k] = (lu - ld) / (2 * h)
        return fd

    @pytest.mark.parametrize("arch", [TANH_NET, DEEP_NET, LINEAR_NET])
    def test_param_grad_matches_fd(self, arch):
        rng = np.random.default_rng(2)
        spec = LossSpec(kind="sd", tuning=make_tuning(0.3, -0.5))
        params = init_params(arch, 5)
        X = rng.normal(size=(4, arch.input_dim))
        labels = rng.integers(0, arch.output_classes, 4)
        trace = forward(params, arch, X)
        _, grad_logits = spec.value_and_grad_logits(labels, trace.logits)
        an, _ = backward(trace, params, arch, grad_logits)
        fd = self.fd_param_grad(params, arch, X, labels, spec)
        np.testing.assert_allclose(fd, an, rtol=1e-4, atol=1e-8)

    def test_input_grad_matches_fd(self):
        rng = np.random.default_rng(3)
        spec = LossSpec(kind="cce")
        for arch in (TANH_NET, LINEAR_NET):
            params = init_params(arch, 6)
            X = rng.normal(size=(3, 3))
            labels = rng.integers(0, arch.output_classes, 3)
            trace = forward(params, arch, X)
            _, grad_logits = spec.value_and_grad_logits(labels, trace.logits)
            _, an = backward(trace, params, arch, grad_logits)
            h = 1e-6
            fd = np.zeros_like(X)
            for i in range(X.shape[0]):
                for j in range(X.shape[1]):
                    up, dn = X.copy(), X.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    lu, ld = (spec.value_and_grad_logits(
                        labels, forward(params, arch, x).logits)[0] for x in (up, dn))
                    fd[i, j] = (lu - ld) / (2 * h)
            np.testing.assert_allclose(fd, an, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("arch", [TANH_NET, DEEP_NET])
    def test_bit_identical_to_textbook_loop(self, arch):
        rng = np.random.default_rng(5)
        params = init_params(arch, 2)
        trace = forward(params, arch, rng.normal(size=(7, arch.input_dim)))
        grad_logits = rng.normal(size=(7, arch.output_classes))
        grad, grad_in = backward(trace, params, arch, grad_logits)
        pairs = unflatten(params, arch)
        grads = [None] * len(pairs)
        delta = grad_logits
        for i in range(len(pairs) - 1, -1, -1):
            h_prev = trace.inputs if i == 0 else trace.activations[i - 1]
            grads[i] = (h_prev.T @ delta, delta.sum(axis=0))
            delta = delta @ pairs[i][0].T
            if i > 0:
                pre, post = trace.pre_activations[i - 1], trace.activations[i - 1]
                if arch.activations[i - 1] == "relu":
                    delta = delta * (pre > 0.0).astype(np.float64)
                else:
                    delta = delta * (1.0 - post * post)
        assert np.array_equal(
            grad, np.concatenate([a.ravel() for pair in grads for a in pair]))
        assert np.array_equal(grad_in, delta)

    def test_inputs_untouched(self):
        rng = np.random.default_rng(4)
        params = init_params(DEEP_NET, 1)
        trace = forward(params, DEEP_NET, rng.normal(size=(5, 4)))
        grad_logits = rng.normal(size=(5, 3))
        arrays = [params, grad_logits, trace.inputs, trace.logits, trace.probs,
                  *trace.pre_activations, *trace.activations]
        before = [a.copy() for a in arrays]
        grad, grad_in = backward(trace, params, DEEP_NET, grad_logits)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)
        assert not any(np.shares_memory(grad, a) or np.shares_memory(grad_in, a)
                       for a in arrays)

    def test_shape_mismatch_rejected(self):
        params = init_params(TANH_NET, 0)
        trace = forward(params, TANH_NET, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            backward(trace, params, TANH_NET, np.zeros((3, 3)))


class TestExampleModels:
    @pytest.mark.parametrize("name,n_params", [("M1", 2), ("M2", 7), ("M3", 7)])
    def test_sizes(self, name, n_params):
        assert example_model(name).n_params == n_params

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            example_model("M4")

    def test_m1_logit(self):
        m = example_model("M1")
        assert m.logit(np.array([1.0, 2.0]), 3.0) == pytest.approx(7.0)
        assert m.prob1(np.array([0.0, 0.0]), 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_grad_matches_fd(self, name):
        m = example_model(name)
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(20):
            theta = rng.normal(size=m.n_params)
            x = rng.normal()
            an = m.grad(theta, x)
            fd = np.zeros(m.n_params)
            for k in range(m.n_params):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                fd[k] = (m.logit(up, x) - m.logit(dn, x)) / (2 * h)
            np.testing.assert_allclose(fd, an, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_hess_matches_fd_of_grad(self, name):
        m = example_model(name)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            theta = rng.normal(size=m.n_params)
            x = rng.normal()
            an = m.hess(theta, x)
            np.testing.assert_allclose(an, an.T)
            fd = np.zeros((m.n_params, m.n_params))
            for k in range(m.n_params):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                fd[:, k] = (m.grad(up, x) - m.grad(dn, x)) / (2 * h)
            np.testing.assert_allclose(fd, an, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("name", ["M1", "M3"])
    def test_prob_derivatives_match_fd(self, name):
        m = example_model(name)
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(10):
            theta = rng.normal(size=m.n_params)
            x = rng.normal()
            g = m.grad_prob1(theta, x)
            H = m.hess_prob1(theta, x)
            fd_g = np.zeros(m.n_params)
            fd_H = np.zeros((m.n_params, m.n_params))
            for k in range(m.n_params):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                fd_g[k] = (m.prob1(up, x) - m.prob1(dn, x)) / (2 * h)
                fd_H[:, k] = (m.grad_prob1(up, x) - m.grad_prob1(dn, x)) / (2 * h)
            np.testing.assert_allclose(fd_g, g, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(fd_H, H, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("name", ["M1", "M2", "M3"])
    def test_array_input_stacks_scalar_results(self, name):
        m = example_model(name)
        rng = np.random.default_rng(8)
        theta = rng.normal(size=m.n_params)
        x = np.concatenate([rng.normal(0.0, 3.0, 20), [0.0]])
        P = m.n_params
        for method, shape in [(m.logit, ()), (m.prob1, ()), (m.probs, (2,)),
                              (m.grad, (P,)), (m.grad_prob1, (P,)),
                              (m.hess, (P, P)), (m.hess_prob1, (P, P))]:
            batch = method(theta, x)
            assert batch.shape == x.shape + shape
            scalars = [method(theta, float(v)) for v in x]
            assert all(np.shape(v) == shape for v in scalars)
            np.testing.assert_array_equal(batch, np.array(scalars))

    def test_probs_sum_to_one(self):
        m = example_model("M3")
        p = m.probs(np.ones(7), 0.3)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)
