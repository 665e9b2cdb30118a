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

# rows per forward pass in accuracy(); a multiple of 16, so OpenBLAS's
# matmul kernels split a block's rows as they split the whole set's and
# the logits keep their bits (63-row blocks moved them by up to 5e-13)
EVAL_BATCH = 128


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
    """Training settings shared by the models trained in one train() call;
    losses names each model's loss, one model per entry."""

    losses: tuple[LossSpec, ...]
    epochs: int
    batch_size: int = 128
    shuffle_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.losses, tuple) and self.losses
                and all(isinstance(loss, LossSpec) for loss in self.losses)):
            raise ValueError("losses must be a non-empty tuple of LossSpec")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def accuracy(params: np.ndarray, arch: ArchitectureSpec, dataset: Dataset) -> float:
    """Share of the dataset's rows whose most probable class is the label.

    The rows go through forward in blocks of EVAL_BATCH and the hits are
    counted per block, so the result is one exact count divided by n, the
    bits np.mean over the whole set gives.  A 128-row blob-mlp block stays
    on the calling thread, where the whole 500-row set wakes OpenBLAS's
    worker thread, which then spins between epochs; on mnist-mlp, 128-row
    blocks are also faster than the whole set or 32-row blocks.  A block
    of a multiple of 16 rows is split among OpenBLAS's kernels as the
    whole set is, so the logits keep their bits.  Raises ValueError on an
    empty dataset.
    """
    if dataset.n == 0:
        raise ValueError("empty evaluation dataset")
    hits = 0
    for start in range(0, dataset.n, EVAL_BATCH):
        block = slice(start, start + EVAL_BATCH)
        probs = forward(params, arch, dataset.features[block]).probs
        hits += np.count_nonzero(probs.argmax(axis=1) == dataset.labels[block])
    return float(hits / dataset.n)


def train(dataset: Dataset, arch: ArchitectureSpec, init_seed: int,
          train_cfg: TrainConfig, eval_set: Dataset | None = None):
    """Mini-batch Adam training at the fixed ADAM_* hyperparameters of one
    model per loss in train_cfg.losses; returns one (params, per-epoch
    metrics) pair per loss, in order.

    The models start from the same init_params(arch, init_seed) and see
    the same batches: each epoch reshuffles the example order from a
    per-epoch derived seed and visits every example exactly once; the last
    short batch is kept.  Metrics rows are (epoch, mean train loss, test
    accuracy or nan).

    The models train in lockstep.  Their parameters, gradients, moments
    and scratch arrays are rows of (K, P) buffers, so each batch runs one
    forward pass, one backward pass and one adam_step for all K of them,
    and one value_and_grad_probs per model.  Each model gets the same
    floats as forward -> value_and_grad_logits -> backward -> adam_step
    would give it trained alone.  The returned params are row views of the
    stacked buffer.  Raises FloatingPointError, naming the epoch and the
    loss, after an epoch that leaves a model's mean loss, parameters or
    Adam second moments (squared gradients) not all finite; the first such
    model in losses order is named.
    """
    if dataset.n == 0:
        raise ValueError("empty training dataset")
    if dataset.num_classes != arch.output_classes:
        raise ValueError("dataset classes do not match the architecture output")
    if dataset.features.shape[1] != arch.input_dim:
        raise ValueError("dataset features do not match the architecture input")
    losses = train_cfg.losses
    # flat (K * P,) buffers for adam_step, (K, P) row views for the rest
    flat = np.empty(len(losses) * arch.n_params)
    params = flat.reshape(len(losses), arch.n_params)
    params[:] = init_params(arch, init_seed)
    grad = np.empty_like(flat)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    s1, s2 = np.empty_like(flat), np.empty_like(flat)
    layers = unflatten(params, arch)
    grads = unflatten(grad.reshape(params.shape), arch)
    acts = arch.activations
    features = np.asarray(dataset.features, dtype=np.float64)
    step = 0
    metrics = [[] for _ in losses]
    n = dataset.n
    for epoch in range(1, train_cfg.epochs + 1):
        order = np.random.default_rng(train_cfg.shuffle_seed + epoch).permutation(n)
        loss_sums = [0.0] * len(losses)
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            X, labels = features[idx], dataset.labels[idx]
            pres, posts = _forward(layers, acts, X)
            probs = softmax(posts[-1])
            grad_logits = np.empty_like(probs)
            for k, loss in enumerate(losses):
                value, grad_logits[k] = loss.value_and_grad_probs(labels, probs[k])
                loss_sums[k] += value * len(idx)
            _backward(X, pres, posts, layers, acts, grad_logits, grads,
                      want_input=False)
            step += 1
            adam_step(step, flat, grad, m, v, s1, s2)
        mean_losses = [loss_sum / n for loss_sum in loss_sums]
        finite = (np.isfinite(mean_losses) & np.isfinite(params).all(axis=1)
                  & np.isfinite(v.reshape(params.shape)).all(axis=1))
        if not finite.all():
            k = list(finite).index(False)
            raise FloatingPointError(
                f"non-finite mean loss, parameters or Adam second moments "
                f"after epoch {epoch} for loss {losses[k].describe()} "
                f"(mean loss {mean_losses[k]})")
        for k, rows in enumerate(metrics):
            test_acc = (accuracy(params[k], arch, eval_set)
                        if eval_set is not None else float("nan"))
            rows.append((epoch, mean_losses[k], test_acc))
    return list(zip(params, metrics))
