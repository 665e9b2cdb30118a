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


def init_params(arch: ArchitectureSpec, scheme: str, seed: int) -> np.ndarray:
    """Deterministic weight initialization; biases are zero.

    glorot_normal: N(0, 2/(fan_in+fan_out)); he_uniform: U(+-sqrt(6/fan_in)).
    """
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    for W, _ in unflatten(params, arch):
        fan_in, fan_out = W.shape
        if scheme == "glorot_normal":
            W[...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), W.shape)
        elif scheme == "he_uniform":
            limit = np.sqrt(6.0 / fan_in)
            W[...] = rng.uniform(-limit, limit, W.shape)
        else:
            raise ValueError(f"unknown init scheme: {scheme}")
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
    derivatives in the parameter vector at a scalar input x.
    """

    name: str
    n_params: int
    logit: Callable
    grad: Callable
    hess: Callable

    def prob1(self, theta: np.ndarray, x: float) -> float:
        z = self.logit(theta, x)
        # sigmoid via stable softmax over (z1, 0)
        return float(softmax(np.array([z, 0.0]))[0])

    def probs(self, theta: np.ndarray, x: float) -> np.ndarray:
        p1 = self.prob1(theta, x)
        return np.array([p1, 1.0 - p1])

    def grad_prob1(self, theta: np.ndarray, x: float) -> np.ndarray:
        p1 = self.prob1(theta, x)
        return p1 * (1.0 - p1) * self.grad(theta, x)

    def hess_prob1(self, theta: np.ndarray, x: float) -> np.ndarray:
        p1 = self.prob1(theta, x)
        s = p1 * (1.0 - p1)
        g = self.grad(theta, x)
        return s * (1.0 - 2.0 * p1) * np.outer(g, g) + s * self.hess(theta, x)


def _m1_logit(theta, x):
    return theta[0] + theta[1] * x


def _m1_grad(theta, x):
    return np.array([1.0, x])


def _m1_hess(theta, x):
    return np.zeros((2, 2))


def _two_unit_logit(theta, x, act):
    a1 = theta[0] + theta[1] * x
    a2 = theta[2] + theta[3] * x
    return theta[4] + theta[5] * act(a1) + theta[6] * act(a2)


def _m2_logit(theta, x):
    return _two_unit_logit(theta, x, lambda s: max(s, 0.0))


def _m2_grad(theta, x):
    a1 = theta[0] + theta[1] * x
    a2 = theta[2] + theta[3] * x
    d1 = 1.0 if a1 > 0 else 0.0
    d2 = 1.0 if a2 > 0 else 0.0
    return np.array([
        theta[5] * d1, theta[5] * d1 * x,
        theta[6] * d2, theta[6] * d2 * x,
        1.0, max(a1, 0.0), max(a2, 0.0),
    ])


def _m2_hess(theta, x):
    a1 = theta[0] + theta[1] * x
    a2 = theta[2] + theta[3] * x
    d1 = 1.0 if a1 > 0 else 0.0
    d2 = 1.0 if a2 > 0 else 0.0
    H = np.zeros((7, 7))
    # only cross terms between hidden-unit parameters and their output weight
    H[0, 5] = H[5, 0] = d1
    H[1, 5] = H[5, 1] = d1 * x
    H[2, 6] = H[6, 2] = d2
    H[3, 6] = H[6, 3] = d2 * x
    return H


def _m3_logit(theta, x):
    return _two_unit_logit(theta, x, np.tanh)


def _m3_grad(theta, x):
    h1 = np.tanh(theta[0] + theta[1] * x)
    h2 = np.tanh(theta[2] + theta[3] * x)
    d1 = 1.0 - h1 * h1
    d2 = 1.0 - h2 * h2
    return np.array([
        theta[5] * d1, theta[5] * d1 * x,
        theta[6] * d2, theta[6] * d2 * x,
        1.0, h1, h2,
    ])


def _m3_hess(theta, x):
    h1 = np.tanh(theta[0] + theta[1] * x)
    h2 = np.tanh(theta[2] + theta[3] * x)
    d1 = 1.0 - h1 * h1
    d2 = 1.0 - h2 * h2
    dd1 = -2.0 * h1 * d1   # second derivative of tanh
    dd2 = -2.0 * h2 * d2
    H = np.zeros((7, 7))
    H[0, 0] = theta[5] * dd1
    H[0, 1] = H[1, 0] = theta[5] * dd1 * x
    H[1, 1] = theta[5] * dd1 * x * x
    H[2, 2] = theta[6] * dd2
    H[2, 3] = H[3, 2] = theta[6] * dd2 * x
    H[3, 3] = theta[6] * dd2 * x * x
    H[0, 5] = H[5, 0] = d1
    H[1, 5] = H[5, 1] = d1 * x
    H[2, 6] = H[6, 2] = d2
    H[3, 6] = H[6, 3] = d2 * x
    return H


_EXAMPLE_MODELS = {
    "M1": ExampleModel("M1", 2, _m1_logit, _m1_grad, _m1_hess),
    "M2": ExampleModel("M2", 7, _m2_logit, _m2_grad, _m2_hess),
    "M3": ExampleModel("M3", 7, _m3_logit, _m3_grad, _m3_hess),
}


def example_model(which: str) -> ExampleModel:
    """The three small single-feature binary models M1, M2, M3."""
    try:
        return _EXAMPLE_MODELS[which]
    except KeyError:
        raise ValueError(f"unknown example model: {which}") from None
