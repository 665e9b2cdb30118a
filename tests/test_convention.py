"""The library's one calling convention: a single example is a batch of one.

Every function below takes a batch and returns one row per example, and
an example passed on its own gives a batch of one.  That row must carry
the same bits as the example's row inside a larger batch.  forward and
input_gradient multiply through BLAS, which may block a one-row product
differently, so their rows are compared at rtol 1e-12.
"""

import numpy as np
from hypothesis import given, strategies as st

from rsdnet.attacks import input_gradient
from rsdnet.data_io import posterior_example1
from rsdnet.divergence import (
    conditional_sd_risk,
    make_tuning,
    sd_loss,
    sd_loss_grad_logits,
    sd_loss_grad_probs,
    softmax,
)
from rsdnet.network import ArchitectureSpec, example_model, forward, init_params
from rsdnet.theory import psi

ARCHS = (
    ArchitectureSpec(3, ((6, "tanh"),), 3),
    ArchitectureSpec(4, ((8, "tanh"), (5, "relu")), 2),
)


@st.composite
def batches(draw):
    """(rng, n, i): a generator for the data, a batch size and a row."""
    n = draw(st.integers(1, 8))
    return (np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n,
            draw(st.integers(0, n - 1)))


@st.composite
def tunings(draw):
    # A = u (1 + beta), B = (1 - u)(1 + beta): admissible, away from 0
    beta = draw(st.floats(0.0, 0.99))
    u = draw(st.floats(0.02, 0.98))
    return make_tuning(beta, (u * (1.0 + beta) - 1.0) / (1.0 - beta))


def assert_row_of_batch(one, batch, i):
    assert one.shape == batch[i:i + 1].shape
    assert np.array_equal(one, batch[i:i + 1])


@given(data=batches(), J=st.integers(2, 5), t=tunings())
def test_sd_loss_and_its_gradients(data, J, t):
    rng, n, i = data
    labels = rng.integers(0, J, n)
    logits = rng.normal(0.0, 2.0, (n, J))
    probs = softmax(logits)
    for fn, x in ((sd_loss, probs), (sd_loss_grad_probs, probs),
                  (sd_loss_grad_logits, logits)):
        batch = fn(labels, x, t)
        assert_row_of_batch(fn(labels[i:i + 1], x[i:i + 1], t), batch, i)
        assert_row_of_batch(fn(int(labels[i]), x[i], t), batch, i)


@given(data=batches(), J=st.integers(2, 5), t=tunings())
def test_conditional_sd_risk(data, J, t):
    rng, n, i = data
    p_star = softmax(rng.normal(size=J))
    probs = softmax(rng.normal(0.0, 2.0, (n, J)))
    assert_row_of_batch(conditional_sd_risk(p_star, probs[i:i + 1], t),
                        conditional_sd_risk(p_star, probs, t), i)


@given(data=batches(), name=st.sampled_from(["M1", "M2", "M3"]), t=tunings())
def test_example_models_posterior_and_psi(data, name, t):
    rng, n, i = data
    model = example_model(name)
    theta = rng.normal(size=model.n_params)
    x = rng.normal(0.0, 3.0, n)
    for method in (model.logit, model.prob1, model.probs, model.grad,
                   model.grad_prob1, model.hess, model.hess_prob1):
        assert_row_of_batch(method(theta, x[i:i + 1]), method(theta, x), i)
    batch = posterior_example1(x)
    assert_row_of_batch(posterior_example1(x[i:i + 1]), batch, i)
    assert_row_of_batch(posterior_example1(float(x[i])), batch, i)

    def p_star_fn(xs):
        return model.probs(theta + 0.5, xs)

    for ref in (None, p_star_fn):
        batch = psi(model, theta, t, x, ref)
        assert_row_of_batch(psi(model, theta, t, x[i:i + 1], ref), batch, i)
        assert_row_of_batch(psi(model, theta, t, float(x[i]), ref), batch, i)


@given(data=batches(), arch=st.sampled_from(ARCHS))
def test_forward_probs_and_input_gradient(data, arch):
    rng, n, i = data
    params = init_params(arch, int(rng.integers(1000)))
    X = rng.uniform(0.0, 1.0, (n, arch.input_dim))
    labels = rng.integers(0, arch.output_classes, n)
    probs = forward(params, arch, X).probs
    grads = input_gradient(params, arch, X, labels)
    for x, y in ((X[i:i + 1], labels[i:i + 1]), (X[i], labels[i])):
        one = forward(params, arch, x).probs
        assert one.shape == (1, arch.output_classes)
        np.testing.assert_allclose(one, probs[i:i + 1], rtol=1e-12, atol=0)
        one = input_gradient(params, arch, x, y)
        assert one.shape == (1, arch.input_dim)
        np.testing.assert_allclose(one, grads[i:i + 1], rtol=1e-12, atol=0)
