"""Minimal feed-forward network engine with exact backpropagation.

Parameters live in a single flat vector, or in a (K, P) buffer holding K
models' vectors as rows, of the network's dtype: ArchitectureSpec.dtype,
float64 unless the architecture says float32.  unflatten is the only code
that knows the layout: it returns per-layer (W, b) views, and init_params
fills such views of a zero vector.  forward/backward operate on batches
(rows are examples), cast to the network's dtype, and are pure functions
of their inputs.  Every array they compute has that dtype, except the
softmax probabilities, which the losses take in float64.

Both are thin validating wrappers over two private kernels that work on
per-layer (W, b) views built once by the caller: _forward returns the
pre- and post-activations, and _backward writes weight and bias gradients
in place into gradient views and computes the input gradient only when
asked.  The kernels take an optional leading model axis: with views of a
(K, P) buffer, one call runs K models on the same batch, each exactly as
it would run alone.  The training loop and the attacks call the kernels
directly, so a training step builds no views and skips the input-gradient
matmul, and an attack step skips the weight and bias gradients.

_run_tasks is the one worker pool: it runs independent tasks (attack
blocks, cross-validation folds) on worker threads, as many as the rule
in its docstring gives for the task and core counts, with numpy's
OpenBLAS held at one thread while they run, so their bits are those of
one BLAS thread whatever the number of workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from .divergence import _sigmoid, softmax

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Input width, hidden (width, activation) pairs, output classes, and
    the dtype the network's parameters and activations are computed in:
    float64, or float32."""

    input_dim: int
    layers: tuple[tuple[int, str], ...]
    output_classes: int
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        if self.input_dim < 1 or self.output_classes < 2:
            raise ValueError("need input_dim >= 1 and output_classes >= 2")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"network dtype must be float32 or float64, "
                             f"got {self.dtype}")
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
    A (K, P) buffer of K models gives (K, fan_in, fan_out) and (K, fan_out)
    views, one model per leading index.  params of another dtype than
    arch.dtype are refused, not cast: the views would be of a copy.
    """
    params = np.asarray(params)
    if params.dtype != arch.dtype:
        raise ValueError(f"expected {arch.dtype} parameters, got {params.dtype}")
    if params.ndim not in (1, 2) or params.shape[-1] != arch.n_params:
        raise ValueError(
            f"expected {arch.n_params} parameters, got {params.shape}"
        )
    models = params.shape[:-1]
    pairs = []
    offset = 0
    d = arch.dims
    for fan_in, fan_out in zip(d[:-1], d[1:]):
        W = params[..., offset:offset + fan_in * fan_out]
        offset += fan_in * fan_out
        pairs.append((W.reshape(*models, fan_in, fan_out),
                      params[..., offset:offset + fan_out]))
        offset += fan_out
    return pairs


def _model_layers(params, arch: ArchitectureSpec):
    """unflatten of one model's (P,) vector: the public one-model functions
    refuse a (K, P) stack rather than return stacked outputs."""
    if np.ndim(params) != 1:
        raise ValueError(f"expected one model's {arch.n_params} parameters, "
                         f"got shape {np.shape(params)}")
    return unflatten(params, arch)


def init_params(arch: ArchitectureSpec, seed: int) -> np.ndarray:
    """Deterministic Glorot-normal weights, N(0, 2/(fan_in+fan_out)), drawn
    layer by layer in float64 and then cast to arch.dtype; biases are zero."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    for W, _ in unflatten(params, replace(arch, dtype=np.float64)):
        fan_in, fan_out = W.shape
        W[...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), W.shape)
    return params.astype(arch.dtype, copy=False)


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


def _as_inputs(x, arch: ArchitectureSpec) -> np.ndarray:
    """x as an (n, input_dim) batch of arch.dtype, width-checked; one
    (input_dim,) example is a batch of one."""
    X = np.atleast_2d(np.asarray(x, dtype=arch.dtype))
    if X.shape[1] != arch.input_dim:
        raise ValueError(
            f"expected inputs of width {arch.input_dim}, got {X.shape[1]}"
        )
    return X


def _forward(layers, acts, X: np.ndarray) -> tuple[list, list]:
    """Per-layer pre- and post-activations of batch X; the last post is the
    logits.  layers are (W, b) views, acts the activation names.  With
    (K, fan_in, fan_out) weights the outputs gain a leading model axis; X
    is then shared by the K models or has that axis itself."""
    pres, posts = [], []
    h = X
    for (W, b), act in zip(layers, acts):
        pre = np.matmul(h, W)
        pre += b[..., None, :]
        h = _activate(pre, act)
        pres.append(pre)
        posts.append(h)
    return pres, posts


def _backward(X: np.ndarray, pres, posts, layers, acts, delta: np.ndarray,
              grads=None, want_input: bool = True, out=None):
    """Backpropagate delta, the gradient at the logits, through the layers.

    With grads, a list of per-layer (gW, gb) views, the batch-summed weight
    and bias gradients are written into them in place.  Returns the
    per-example input gradient (written into out where given), or None when
    want_input is false, in which case the first layer's delta is not
    propagated.  Every array may carry the leading model axis of _forward.
    """
    for i in range(len(layers) - 1, -1, -1):
        if grads is not None:
            gW, gb = grads[i]
            np.matmul((X if i == 0 else posts[i - 1]).swapaxes(-1, -2), delta,
                      out=gW)
            np.add.reduce(delta, axis=-2, out=gb)
        if i == 0 and not want_input:
            return None
        back = np.matmul(delta, layers[i][0].swapaxes(-1, -2),
                         out=out if i == 0 else None)
        if i > 0:
            back *= _activation_deriv(pres[i - 1], posts[i - 1], acts[i - 1])
        delta = back
    return delta


def forward(params: np.ndarray, arch: ArchitectureSpec, x) -> ForwardTrace:
    """Affine + activation composition ending in linear logits and softmax."""
    X = _as_inputs(x, arch)
    pres, posts = _forward(_model_layers(params, arch), arch.activations, X)
    return ForwardTrace(
        inputs=X,
        pre_activations=pres,
        activations=posts,
        logits=posts[-1],
        probs=softmax(posts[-1]),
    )


def backward(trace: ForwardTrace, params: np.ndarray, arch: ArchitectureSpec,
             grad_logits) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate a logit gradient to (flat parameter grad, input grad).

    The parameter gradient is summed over the batch; the input gradient
    is returned per example.  Both have arch.dtype, to which grad_logits
    is cast.
    """
    g = np.atleast_2d(np.asarray(grad_logits, dtype=arch.dtype))
    if g.shape != trace.logits.shape:
        raise ValueError("grad_logits shape does not match the trace")
    grad = np.empty(arch.n_params, dtype=arch.dtype)
    grad_input = _backward(trace.inputs, trace.pre_activations,
                           trace.activations, _model_layers(params, arch),
                           arch.activations, g, unflatten(grad, arch))
    return grad, grad_input


# ---------------------------------------------------------------------------
# The worker pool.  The kernels above run on numpy's OpenBLAS, whose own
# threads speed up small matmuls little and spin between them; independent
# tasks on worker threads, each on one BLAS thread, use the cores better.
# ---------------------------------------------------------------------------


@cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy links, or None
    where no such library exports them.  They are looked up through
    numpy's core extension module (numpy._core on numpy 2, numpy.core on
    1.x), whose symbol lookup also searches the libraries it links, under
    the names of scipy-openblas (numpy 2's wheels), of openblas64_ (numpy
    1.x's wheels) and of a plain OpenBLAS build."""
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):  # no such module, or not a library
        return None
    for get, set_ in (("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads")):
        if hasattr(lib, get) and hasattr(lib, set_):
            getter, setter = getattr(lib, get), getattr(lib, set_)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


_blas_lock = threading.RLock()
_task_state = threading.local()  # .running: this thread is running a task


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, which receives whether
    it could, and restore its count on leaving.  Callers in other threads
    wait their turn, as each pool already runs on every core.  Inside a
    task of _run_tasks it passes straight through: the pool's caller holds
    OpenBLAS at one thread until every task has ended."""
    blas = _openblas_threads()
    if blas is None or getattr(_task_state, "running", False):
        yield blas is not None
        return
    get, set_ = blas
    with _blas_lock:
        saved = get()
        set_(1)
        try:
            yield True
        finally:
            set_(saved)


def _usable_cores() -> int:
    """Cores this process may run on, from which _run_tasks sizes its pool:
    its CPU affinity where the OS has one (not macOS), else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(task: Callable[[int], object], n: int) -> list:
    """[task(0), ..., task(n - 1)], run on every core with OpenBLAS held at
    one thread (_one_blas_thread) and its count restored afterwards.

    The worker count: with C usable cores, W = n when n < 2C and W = C
    otherwise, and W = 1 (the caller) for n = 0.  Below 2C the tasks run
    in one round, the OS sharing every core among them, instead of in a
    last round that leaves cores idle (three folds on two cores); from 2C
    on, rounds of C keep the thread count at C (a thread per 128-row
    block would be 469 threads for a 60000-row attack).  Where no
    OpenBLAS setter is found, C counts as 1: one worker runs the tasks in
    turn.  Worker k runs tasks k, k + W, ...; the caller is worker 0.

    The first exception a task raises is raised here once every worker
    has stopped, as is one raised in the caller while it waits (Ctrl-C);
    a worker stops before its next task once any has failed.  A call made
    from inside a task runs its own tasks in turn on that task's thread.
    """
    if getattr(_task_state, "running", False):
        return [task(i) for i in range(n)]
    results = [None] * n
    failed = []

    def work(first: int, workers: int):
        _task_state.running = True
        try:
            for i in range(first, n, workers):
                if failed:
                    return
                try:
                    results[i] = task(i)
                except BaseException as exc:  # re-raised in the caller's thread
                    failed.append(exc)
        finally:
            _task_state.running = False

    with _one_blas_thread() as held:
        cores = _usable_cores() if held else 1
        workers = max(1, n if n < 2 * cores else cores)
        threads = [threading.Thread(target=work, args=(k, workers))
                   for k in range(1, workers)]
        try:
            for thread in threads:
                thread.start()
            work(0, workers)
            for thread in threads:
                thread.join()
        except BaseException as exc:  # say Ctrl-C while joining
            failed.append(exc)  # the workers stop after their current task
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join()
            raise
    if failed:
        raise failed[0]
    return results


# ---------------------------------------------------------------------------
# Small single-feature binary models with closed-form derivatives.  These are
# the only models the influence-function machinery supports, since it needs
# exact second derivatives of the single free logit in the parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleModel:
    """Binary classifier on one feature; second logit pinned to 0.

    logit, grad and hess give the free logit z1 and its first and second
    derivatives in the parameter vector.  Every method takes an (n,) array
    of feature values and returns one row per value: (n,) logits and
    prob1, (n, 2) probs, (n, P) gradients and (n, P, P) Hessians.  Like
    any numpy expression they broadcast, so a bare scalar x gives the
    same row without the leading axis.
    """

    name: str
    n_params: int
    logit: Callable
    grad: Callable
    hess: Callable

    def prob1(self, theta: np.ndarray, x):
        return _sigmoid(self.logit(theta, x))

    def probs(self, theta: np.ndarray, x) -> np.ndarray:
        p1 = self.prob1(theta, x)
        return np.stack([p1, 1.0 - p1], axis=-1)

    def grad_prob1(self, theta: np.ndarray, x) -> np.ndarray:
        p1 = self.prob1(theta, x)
        return (p1 * (1.0 - p1))[..., None] * self.grad(theta, x)

    def hess_prob1(self, theta: np.ndarray, x) -> np.ndarray:
        p1 = self.prob1(theta, x)
        s = p1 * (1.0 - p1)
        g = self.grad(theta, x)
        gg = g[..., :, None] * g[..., None, :]
        c = (s * (1.0 - 2.0 * p1))[..., None, None]
        return c * gg + s[..., None, None] * self.hess(theta, x)


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
