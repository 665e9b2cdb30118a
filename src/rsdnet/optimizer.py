"""Adam optimizer and the mini-batch training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec, softmax
from .network import (ArchitectureSpec, _backward, _forward, forward,
                      init_params, unflatten)


# Adam's hyperparameters (Kingma and Ba), fixed for every run
ADAM_ALPHA = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def adam_step(t: int, params: np.ndarray, grad: np.ndarray, m: np.ndarray,
              v: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Adam step t (counted from 1) written in place into params, m and v.

    s1 and s2 are scratch arrays of the same shape; grad is only read.
    Every element sees the same float operations, in the same order, as
    the textbook expressions m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
    and params - alpha*m_hat / (sqrt(v_hat) + eps).
    """
    if not params.shape == grad.shape == m.shape == v.shape:
        raise ValueError("parameter, gradient and moment shapes must agree")
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s1)
    m += s1
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=s1)
    s1 *= grad
    v += s1
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=s1)
    np.sqrt(s1, out=s1)
    s1 += ADAM_EPSILON
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=s2)
    s2 *= ADAM_ALPHA
    s2 /= s1
    params -= s2


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec
    epochs: int
    batch_size: int = 128
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def accuracy(params: np.ndarray, arch: ArchitectureSpec, dataset: Dataset) -> float:
    probs = forward(params, arch, dataset.features).probs
    return float(np.mean(probs.argmax(axis=1) == dataset.labels))


def train(dataset: Dataset, arch: ArchitectureSpec, init_seed: int,
          train_cfg: TrainConfig, eval_set: Dataset | None = None):
    """Mini-batch Adam training at the fixed ADAM_* hyperparameters; returns
    (params, per-epoch metrics).

    Each epoch reshuffles the example order from a per-epoch derived seed
    and visits every example exactly once; the last short batch is kept.
    Metrics rows are (epoch, mean train loss, test accuracy or nan).

    A step gives the same floats as forward -> value_and_grad_logits ->
    backward -> adam_step, but runs the network kernels on (W, b) views of
    the parameter and gradient buffers built once here, updated in place.
    Raises FloatingPointError after an epoch whose mean loss, parameters or
    Adam second moments (squared gradients) are not all finite.
    """
    if dataset.n == 0:
        raise ValueError("empty training dataset")
    if dataset.num_classes != arch.output_classes:
        raise ValueError("dataset classes do not match the architecture output")
    if dataset.features.shape[1] != arch.input_dim:
        raise ValueError("dataset features do not match the architecture input")
    params = init_params(arch, init_seed)
    grad = np.empty_like(params)
    m, v = np.zeros_like(params), np.zeros_like(params)
    s1, s2 = np.empty_like(params), np.empty_like(params)
    layers, grads = unflatten(params, arch), unflatten(grad, arch)
    acts = arch.activations
    features = np.asarray(dataset.features, dtype=np.float64)
    step = 0
    metrics = []
    n = dataset.n
    for epoch in range(1, train_cfg.epochs + 1):
        order = np.random.default_rng(train_cfg.shuffle_seed + epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            X = features[idx]
            pres, posts = _forward(layers, acts, X)
            loss, grad_logits = train_cfg.loss.value_and_grad_probs(
                dataset.labels[idx], softmax(posts[-1]))
            _backward(X, pres, posts, layers, acts, grad_logits, grads,
                      want_input=False)
            step += 1
            adam_step(step, params, grad, m, v, s1, s2)
            loss_sum += loss * len(idx)
        mean_loss = loss_sum / n
        if not (np.isfinite(mean_loss) and np.isfinite(params).all()
                and np.isfinite(v).all()):
            raise FloatingPointError(
                f"non-finite mean loss, parameters or Adam second moments "
                f"after epoch {epoch} (mean loss {mean_loss})")
        test_acc = accuracy(params, arch, eval_set) if eval_set is not None else float("nan")
        metrics.append((epoch, mean_loss, test_acc))
    return params, metrics
