"""Minimal feed-forward network engine with exact backpropagation.

Parameters live in a single flat float64 vector.  unflatten is the only
code that knows its layout: it returns per-layer (W, b) views, and
init_params fills such views of a zero vector.  forward/backward operate
on batches (rows are examples) and are pure functions of their inputs.

Both are thin validating wrappers over two private kernels that work on
per-layer (W, b) views built once by the caller: _forward returns the
pre- and post-activations, and _backward writes weight and bias gradients
in place into gradient views and computes the input gradient only when
asked.  The training loop and the attacks call the kernels directly, so a
training step builds no views and skips the input-gradient matmul, and an
attack step skips the weight and bias gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .divergence import softmax

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Input width, hidden (width, activation) pairs, and output classes."""

    input_dim: int
    layers: tuple[tuple[int, str], ...]
    output_classes: int

    def __post_init__(self):
        if self.input_dim < 1 or self.output_classes < 2:
            raise ValueError("need input_dim >= 1 and output_classes >= 2")
        for width, act in self.layers:
            if width < 1:
                raise ValueError("layer widths must be >= 1")
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation: {act}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *(w for w, _ in self.layers), self.output_classes)

    @property
    def activations(self) -> tuple[str, ...]:
        # final layer is linear; softmax is applied by the loss
        return (*(a for _, a in self.layers), "identity")

    @property
    def n_params(self) -> int:
        d = self.dims
        return sum(d[i] * d[i + 1] + d[i + 1] for i in range(len(d) - 1))


def unflatten(params: np.ndarray, arch: ArchitectureSpec):
    """Views of the flat vector as per-layer (W, b) pairs.

    This is the one statement of the flat layout: layer by layer, the
    (fan_in, fan_out) weight matrix in row-major order, then its bias.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (arch.n_params,):
        raise ValueError(
            f"expected {arch.n_params} parameters, got {params.shape}"
        )
    pairs = []
    offset = 0
    d = arch.dims
    for fan_in, fan_out in zip(d[:-1], d[1:]):
        W = params[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        pairs.append((W, params[offset:offset + fan_out]))
        offset += fan_out
    return pairs


def init_params(arch: ArchitectureSpec, seed: int) -> np.ndarray:
    """Deterministic Glorot-normal weights, N(0, 2/(fan_in+fan_out)), drawn
    layer by layer; biases are zero."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    for W, _ in unflatten(params, arch):
        fan_in, fan_out = W.shape
        W[...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), W.shape)
    return params


def _activate(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "tanh":
        return np.tanh(pre)
    return pre


def _activation_deriv(pre: np.ndarray, post: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        # subgradient at exactly 0 is fixed to 0; a 0/1 mask multiplies as 0.0/1.0
        return pre > 0.0
    if kind == "tanh":
        return 1.0 - post * post
    return np.ones_like(pre)


@dataclass
class ForwardTrace:
    """Cached intermediates from one forward pass over a batch."""

    inputs: np.ndarray            # (n, input_dim)
    pre_activations: list         # per layer, (n, width)
    activations: list             # post-activation per layer, (n, width)
    logits: np.ndarray            # (n, J)
    probs: np.ndarray             # (n, J)
    single: bool


def _as_inputs(x, arch: ArchitectureSpec) -> tuple[np.ndarray, bool]:
    """(2-D float64 batch, whether x was a single example), width-checked."""
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)
    if X.shape[1] != arch.input_dim:
        raise ValueError(
            f"expected inputs of width {arch.input_dim}, got {X.shape[1]}"
        )
    return X, x.ndim == 1


def _forward(layers, acts, X: np.ndarray) -> tuple[list, list]:
    """Per-layer pre- and post-activations of batch X; the last post is the
    logits.  layers are (W, b) views, acts the activation names."""
    pres, posts = [], []
    h = X
    for (W, b), act in zip(layers, acts):
        pre = h @ W
        pre += b
        h = _activate(pre, act)
        pres.append(pre)
        posts.append(h)
    return pres, posts


def _backward(X: np.ndarray, pres, posts, layers, acts, delta: np.ndarray,
              grads=None, want_input: bool = True):
    """Backpropagate delta, the gradient at the logits, through the layers.

    With grads, a list of per-layer (gW, gb) views, the batch-summed weight
    and bias gradients are written into them in place.  Returns the
    per-example input gradient, or None when want_input is false, in which
    case the first layer's delta is not propagated.
    """
    for i in range(len(layers) - 1, -1, -1):
        if grads is not None:
            gW, gb = grads[i]
            np.matmul((X if i == 0 else posts[i - 1]).T, delta, out=gW)
            np.add.reduce(delta, axis=0, out=gb)
        if i == 0 and not want_input:
            return None
        back = delta @ layers[i][0].T
        if i > 0:
            back *= _activation_deriv(pres[i - 1], posts[i - 1], acts[i - 1])
        delta = back
    return delta


def forward(params: np.ndarray, arch: ArchitectureSpec, x) -> ForwardTrace:
    """Affine + activation composition ending in linear logits and softmax."""
    X, single = _as_inputs(x, arch)
    pres, posts = _forward(unflatten(params, arch), arch.activations, X)
    return ForwardTrace(
        inputs=X,
        pre_activations=pres,
        activations=posts,
        logits=posts[-1],
        probs=softmax(posts[-1]),
        single=single,
    )


def backward(trace: ForwardTrace, params: np.ndarray, arch: ArchitectureSpec,
             grad_logits) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate a logit gradient to (flat parameter grad, input grad).

    The parameter gradient is summed over the batch; the input gradient
    is returned per example.
    """
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    g = np.atleast_2d(grad_logits)
    if g.shape != trace.logits.shape:
        raise ValueError("grad_logits shape does not match the trace")
    grad = np.empty(arch.n_params)
    grad_input = _backward(trace.inputs, trace.pre_activations,
                           trace.activations, unflatten(params, arch),
                           arch.activations, g, unflatten(grad, arch))
    return grad, grad_input[0] if trace.single else grad_input


# ---------------------------------------------------------------------------
# Small single-feature binary models with closed-form derivatives.  These are
# the only models the influence-function machinery supports, since it needs
# exact second derivatives of the single free logit in the parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleModel:
    """Binary classifier on one feature; second logit pinned to 0.

    logit, grad and hess give the free logit z1 and its first and second
    derivatives in the parameter vector.  Every method takes a scalar x
    or an (n,) array of them: a scalar gives a float logit and prob1, a
    (2,) probs, a (P,) gradient and a (P, P) Hessian; an array adds a
    leading (n,) axis to each.
    """

    name: str
    n_params: int
    logit: Callable
    grad: Callable
    hess: Callable

    def prob1(self, theta: np.ndarray, x):
        z = self.logit(theta, x)
        # sigmoid via stable softmax over (z1, 0)
        p1 = softmax(np.stack([z, np.zeros_like(z)], axis=-1))[..., 0]
        return float(p1) if p1.ndim == 0 else p1

    def probs(self, theta: np.ndarray, x) -> np.ndarray:
        p1 = self.prob1(theta, x)
        return np.stack([p1, 1.0 - p1], axis=-1)

    def grad_prob1(self, theta: np.ndarray, x) -> np.ndarray:
        p1 = self.prob1(theta, x)
        return np.asarray(p1 * (1.0 - p1))[..., None] * self.grad(theta, x)

    def hess_prob1(self, theta: np.ndarray, x) -> np.ndarray:
        p1 = self.prob1(theta, x)
        s = p1 * (1.0 - p1)
        g = self.grad(theta, x)
        gg = g[..., :, None] * g[..., None, :]
        c = np.asarray(s * (1.0 - 2.0 * p1))[..., None, None]
        return c * gg + np.asarray(s)[..., None, None] * self.hess(theta, x)


def _m1_logit(theta, x):
    return theta[0] + theta[1] * x


def _m1_grad(theta, x):
    x = np.asarray(x, dtype=np.float64)
    return np.stack([np.ones_like(x), x], axis=-1)


def _m1_hess(theta, x):
    return np.zeros(np.shape(x) + (2, 2))


# M2 and M3 share one shape: z1 = t4 + t5 act(t0 + t1 x) + t6 act(t2 + t3 x).
# Each unit gives act, act' and act'' (None where act'' is identically 0) at
# the pre-activations; at the ReLU kink the derivative is taken as 0.

def _relu_unit(a):
    return np.maximum(a, 0.0), np.where(a > 0, 1.0, 0.0), None


def _tanh_unit(a):
    h = np.tanh(a)
    d = 1.0 - h * h
    return h, d, -2.0 * h * d


def _two_unit(theta, x, unit):
    x = np.asarray(x, dtype=np.float64)
    return (x, unit(theta[0] + theta[1] * x), unit(theta[2] + theta[3] * x))


def _two_unit_logit(theta, x, unit):
    _, (h1, _, _), (h2, _, _) = _two_unit(theta, x, unit)
    return theta[4] + theta[5] * h1 + theta[6] * h2


def _two_unit_grad(theta, x, unit):
    x, (h1, d1, _), (h2, d2, _) = _two_unit(theta, x, unit)
    return np.stack([
        theta[5] * d1, theta[5] * d1 * x,
        theta[6] * d2, theta[6] * d2 * x,
        np.ones_like(x), h1, h2,
    ], axis=-1)


def _two_unit_hess(theta, x, unit):
    x, (_, d1, dd1), (_, d2, dd2) = _two_unit(theta, x, unit)
    H = np.zeros(x.shape + (7, 7))
    if dd1 is not None:
        H[..., 0, 0] = theta[5] * dd1
        H[..., 0, 1] = H[..., 1, 0] = theta[5] * dd1 * x
        H[..., 1, 1] = theta[5] * dd1 * x * x
        H[..., 2, 2] = theta[6] * dd2
        H[..., 2, 3] = H[..., 3, 2] = theta[6] * dd2 * x
        H[..., 3, 3] = theta[6] * dd2 * x * x
    # cross terms between hidden-unit parameters and their output weight
    H[..., 0, 5] = H[..., 5, 0] = d1
    H[..., 1, 5] = H[..., 5, 1] = d1 * x
    H[..., 2, 6] = H[..., 6, 2] = d2
    H[..., 3, 6] = H[..., 6, 3] = d2 * x
    return H


def _two_unit_model(name, unit):
    return ExampleModel(name, 7, partial(_two_unit_logit, unit=unit),
                        partial(_two_unit_grad, unit=unit),
                        partial(_two_unit_hess, unit=unit))


_EXAMPLE_MODELS = {
    "M1": ExampleModel("M1", 2, _m1_logit, _m1_grad, _m1_hess),
    "M2": _two_unit_model("M2", _relu_unit),
    "M3": _two_unit_model("M3", _tanh_unit),
}


def example_model(which: str) -> ExampleModel:
    """The three small single-feature binary models M1, M2, M3."""
    try:
        return _EXAMPLE_MODELS[which]
    except KeyError:
        raise ValueError(f"unknown example model: {which}") from None
