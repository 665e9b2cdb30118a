"""Adam optimizer and the mini-batch training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec, _label_terms, _require, softmax
from .network import (ArchitectureSpec, _backward, _forward, forward,
                      init_params, unflatten)


# Adam's hyperparameters (Kingma and Ba), fixed for every run
ADAM_ALPHA = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# rows per forward pass in accuracy(); a multiple of 16, so OpenBLAS's
# SGEMM kernels split a block's rows as they split the whole set's and
# float32 logits keep their bits.  Float64 logits may not: on OpenBLAS
# 0.3.31's Haswell kernels, DGEMM's (n, 128) x (128, 10) mnist-mlp logit
# layer moves them by an ulp (63-row blocks moved them by up to 5e-13)
EVAL_BATCH = 128


def adam_step(t: int, params: np.ndarray, grad: np.ndarray, m: np.ndarray,
              v: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Adam step t (counted from 1) written in place into params, m and v.

    s1 and s2 are scratch arrays of the same shape; grad is only read.
    Every element sees the same float operations, in the same order, as
    the textbook expressions m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
    and params - alpha*m_hat / (sqrt(v_hat) + eps), in the arrays' dtype:
    the hyperparameters are Python floats, which do not promote float32.
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
    losses names each model's loss, one model per entry.  epochs or
    batch_size below 1 raises ParameterError."""

    losses: tuple[LossSpec, ...]
    epochs: int
    batch_size: int = 128

    def __post_init__(self):
        if not (isinstance(self.losses, tuple) and self.losses
                and all(isinstance(loss, LossSpec) for loss in self.losses)):
            raise ValueError("losses must be a non-empty tuple of LossSpec")
        _require(self.epochs >= 1, "epochs", "must be at least 1", self.epochs)
        _require(self.batch_size >= 1, "batch_size", "must be at least 1",
                 self.batch_size)


def accuracy(params: np.ndarray, arch: ArchitectureSpec, dataset: Dataset,
             rows: np.ndarray | None = None) -> float:
    """Share of the dataset's rows (or of those in the index array rows)
    whose most probable class is the label.

    The rows go through forward in blocks of EVAL_BATCH and the hits are
    counted per block, so the result is one exact count divided by n, the
    bits np.mean over the whole set gives.  A 128-row blob-mlp block stays
    on the calling thread, where the whole 500-row set wakes OpenBLAS's
    worker thread, which then spins between epochs; on mnist-mlp, 128-row
    blocks are also faster than the whole set or 32-row blocks.  In
    float32 a block of a multiple of 16 rows keeps the logits' bits of
    the whole set (see EVAL_BATCH); in float64 the count is the whole
    set's unless a row's top two logits are an ulp apart.  Each block is
    cast to arch.dtype.  Raises ValueError on an empty dataset.  Given
    rows, each block is gathered from the full feature matrix, with the
    bits of the same call on a copy of those rows.
    """
    n = dataset.n if rows is None else len(rows)
    if n == 0:
        raise ValueError("empty evaluation dataset")
    hits = 0
    for start in range(0, n, EVAL_BATCH):
        block = slice(start, start + EVAL_BATCH)
        if rows is not None:
            block = rows[block]
        probs = forward(params, arch, dataset.features[block]).probs
        hits += np.count_nonzero(probs.argmax(axis=1) == dataset.labels[block])
    return float(hits / n)


def train(dataset: Dataset, arch: ArchitectureSpec, init_seed: int,
          train_cfg: TrainConfig, eval_rows: np.ndarray | None = None,
          rows: np.ndarray | None = None, shuffle_seed: int = 0):
    """Mini-batch Adam training at the fixed ADAM_* hyperparameters of one
    model per loss in train_cfg.losses; returns one (params, per-epoch
    metrics) pair per loss, in order.

    Given rows, an index array, the models train on those rows of dataset
    with the bits of the same call on a copy of those rows: each batch is
    gathered from the full feature matrix, so the rows are never copied
    as a whole.

    The models start from the same init_params(arch, init_seed) and see
    the same batches: each epoch reshuffles the example order from the
    seed shuffle_seed + epoch and visits every example exactly once; the last
    short batch is kept.  Metrics rows are (epoch, mean train loss, test
    accuracy), the test accuracy that of accuracy on the eval_rows of
    dataset, or nan without eval_rows.

    The models train in lockstep.  Their parameters, gradients, moments
    and scratch arrays are rows of (K, P) buffers, so each batch runs one
    forward pass, one backward pass and one adam_step for all K of them.
    Its labels' one-hot rows and the K models' labelled probabilities are
    set up once, and each model's loss runs on them the kernel
    _value_and_grad, which value_and_grad_logits also runs.  Each model
    gets the same floats as forward -> value_and_grad_logits -> backward
    -> adam_step would give it trained alone.  The returned params are row
    views of the stacked buffer.  Raises FloatingPointError, naming the
    epoch and the loss, after an epoch that leaves a model's mean loss,
    parameters or Adam second moments (squared gradients) not all finite;
    the first such model in losses order is named.  That check is the one
    report: the epochs run with numpy's overflow, invalid and divide
    warnings off, and an overflowing epoch still runs to its end.

    The models compute in arch.dtype: their buffers have it and each
    gathered batch is cast to it, the float64 features never as a whole.
    The losses take the probabilities in float64, and their logit
    gradients are cast back to arch.dtype for the backward pass.
    """
    n = dataset.n if rows is None else len(rows)
    if n == 0:
        raise ValueError("empty training dataset")
    if dataset.num_classes != arch.output_classes:
        raise ValueError("dataset classes do not match the architecture output")
    if dataset.features.shape[1] != arch.input_dim:
        raise ValueError("dataset features do not match the architecture input")
    losses = train_cfg.losses
    # flat (K * P,) buffers for adam_step, (K, P) row views for the rest
    flat = np.empty(len(losses) * arch.n_params, dtype=arch.dtype)
    params = flat.reshape(len(losses), arch.n_params)
    params[:] = init_params(arch, init_seed)
    grad = np.empty_like(flat)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    s1, s2 = np.empty_like(flat), np.empty_like(flat)
    layers = unflatten(params, arch)
    grads = unflatten(grad.reshape(params.shape), arch)
    acts = arch.activations
    step = 0
    metrics = [[] for _ in losses]
    # the per-epoch finiteness check below reports a diverged model
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, train_cfg.epochs + 1):
            order = np.random.default_rng(shuffle_seed + epoch).permutation(n)
            if rows is not None:
                order = rows[order]
            loss_sums = [0.0] * len(losses)
            for start in range(0, n, train_cfg.batch_size):
                idx = order[start:start + train_cfg.batch_size]
                X = dataset.features[idx].astype(arch.dtype, copy=False)
                labels = dataset.labels[idx]
                pres, posts = _forward(layers, acts, X)
                probs = softmax(posts[-1])
                p_y, onehot = _label_terms(labels, probs)
                grad_logits = np.empty(probs.shape, dtype=arch.dtype)
                for k, loss in enumerate(losses):
                    value, grad_logits[k] = loss._value_and_grad(probs[k], p_y[k], onehot)
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
            for k, history in enumerate(metrics):
                test_acc = (accuracy(params[k], arch, dataset, rows=eval_rows)
                            if eval_rows is not None else float("nan"))
                history.append((epoch, mean_losses[k], test_acc))
    return list(zip(params, metrics))
