"""White-box adversarial example generation (FGSM and PGD).

attack(params, arch, x, labels, cfg) is the one call for both: the
AttackConfig names the kind and its budget, and FGSM is one PGD step of
size epsilon.  Attacks always maximize the CCE loss of the attacked model,
matching the surrogate generation protocol; they are deterministic (no
random start) and respect the L-infinity budget and the box BOX exactly.
The input gradient has the network's dtype, float32 for every network
the CLI trains, as only its sign is used; the attacked features, their
epsilon-ball and the box projection are float64.  An attack checks its
labels and sets up the layer views, the one-hot labels and its buffers
once per call; each step then runs _input_gradient, the kernel
input_gradient also wraps.

adversarial_trainset attacks its ATTACK_BATCH-row blocks as the tasks of
network._run_tasks, each writing its rows into one shared output.  Rows
are attacked independently, so the bits are those of attacking the blocks
one at a time, whatever the number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import _check_labels, _one_hot, softmax
from .network import (ArchitectureSpec, _as_inputs, _backward, _forward,
                      _model_layers, _run_tasks)

# Attacked features always lie in this box; where a feature's epsilon-ball
# leaves it, the box wins.
BOX = (0.0, 1.0)

# Rows per block in adversarial_trainset; the attacked bits are the same at
# every size.  With two workers on 2 vCPUs, 1000 synthetic images (PGD-100
# through a float32 surrogate-64 trained at one BLAS thread; median of 5
# calls, 3 fresh processes per size) took 302-316 / 212-217 / 188-200 /
# 189-191 / 192-195 ms at 32 / 64 / 128 / 256 / 512 rows.  Larger blocks
# buy no time but memory: the attack raised peak RSS by 3.0 / 9.9-11.0 /
# 23.3 MB at 128 / 256 / 512 rows.
ATTACK_BATCH = 128


@dataclass(frozen=True)
class AttackConfig:
    kind: str                   # "fgsm" or "pgd"
    epsilon: float
    step_size: float = 0.01     # pgd only
    max_iters: int = 100        # pgd only

    def __post_init__(self):
        if self.kind not in ("fgsm", "pgd"):
            raise ValueError(f"unknown attack kind: {self.kind}")
        # NaN fails every comparison
        if not (0 <= self.epsilon < math.inf and 0 < self.step_size < math.inf
                and self.max_iters >= 1):
            raise ValueError("invalid attack hyperparameters: need a finite "
                             "epsilon >= 0, a finite step > 0 and iters >= 1")


def _input_gradient(layers, acts, X: np.ndarray, onehot: np.ndarray,
                    out=None) -> np.ndarray:
    """input_gradient's kernel, which every attack step runs: the per-
    example CCE input gradient of the batch X (of arch.dtype) at the
    one-hot labels, through the layer views and activation names, written
    into out where given.  Trusts its inputs."""
    pres, posts = _forward(layers, acts, X)
    grad_logits = softmax(posts[-1])  # a new float64 array
    grad_logits -= onehot  # each example's CCE gradient, not averaged
    return _backward(X, pres, posts, layers, acts,
                     grad_logits.astype(X.dtype, copy=False), out=out)


def input_gradient(params, arch: ArchitectureSpec, x, labels) -> np.ndarray:
    """Gradient of the CCE loss with respect to the input features, one
    (input_dim,) row per example of the batch x, of arch.dtype.

    Equal to backward(...)[1] for the batch-size-scaled logit gradient, but
    computes no weight or bias gradients.  x is cast to arch.dtype, and the
    float64 logit gradient of the loss back to it.  Checks its arguments,
    then runs the kernel _input_gradient; an empty batch gives an empty
    (0, input_dim) result.
    """
    X = _as_inputs(x, arch)
    layers = _model_layers(params, arch)
    shape = (X.shape[0], arch.output_classes)
    return _input_gradient(layers, arch.activations, X,
                           _one_hot(_check_labels(labels, *shape), shape))


def attack(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig, *,
           out=None) -> np.ndarray:
    """cfg's attack on the batch x, into out where given (never into x):
    signed-gradient steps (FGSM one of size epsilon, PGD max_iters of
    step_size), each projected onto the epsilon-ball around x intersected
    with BOX (the box alone where they do not meet).  Updated in place, with
    the bits of np.clip(adv + step * sign(g), lo, hi): minimum then maximum
    is that clip, since lo <= hi.  adv, lo and hi are float64, whatever
    arch.dtype; the gradient g has arch.dtype.

    The width, parameters and labels are checked before the first step
    (ValueError), and the layer views and one-hot labels made once; each
    step copies adv into an arch.dtype buffer and runs _input_gradient on
    it, with the bits of input_gradient.  An empty batch gives an empty
    (0, input_dim) result."""
    if cfg.kind == "fgsm":
        step_size, iters = cfg.epsilon, 1
    else:
        step_size, iters = cfg.step_size, cfg.max_iters
    x0 = np.asarray(x, dtype=np.float64)
    # each step's input, adv cast to arch.dtype; width-checked as in
    # input_gradient
    inputs = _as_inputs(np.empty(x0.shape, dtype=arch.dtype), arch)
    layers = _model_layers(params, arch)
    shape = (inputs.shape[0], arch.output_classes)
    onehot = _one_hot(_check_labels(labels, *shape), shape)
    lo = np.clip(x0 - cfg.epsilon, *BOX)
    hi = np.clip(x0 + cfg.epsilon, *BOX)
    adv = np.empty_like(x0) if out is None else out
    adv[...] = x0
    grad = np.empty(adv.shape, dtype=arch.dtype)  # one for every step
    step = np.empty_like(adv)
    for _ in range(iters):
        np.copyto(inputs, adv, casting="same_kind")
        _input_gradient(layers, arch.activations, inputs, onehot, grad)
        # sign into its own buffer: out=g, aliasing its input, runs slower
        np.sign(grad, out=step)
        step *= step_size
        adv += step
        np.minimum(adv, hi, out=adv)
        np.maximum(adv, lo, out=adv)
    return adv


def adversarial_trainset(params_surrogate, arch_surrogate: ArchitectureSpec,
                         dataset: Dataset, cfg: AttackConfig,
                         rows: np.ndarray | None = None) -> Dataset:
    """Replace every example's features by its attacked version.

    Labels are untouched; the perturbed set is fixed once (static
    adversarial training data).  Given rows, an index array, the result
    holds those rows alone, in that order, with the bits of the same call
    on a copy of those rows: each block is gathered from the full feature
    matrix, so the rows are never copied as a whole.
    The ATTACK_BATCH-row blocks are the tasks of network._run_tasks, so the
    first exception a block raises is raised here once every worker has
    stopped.
    """
    labels = dataset.labels if rows is None else dataset.labels[rows]
    features = np.empty((len(labels), dataset.features.shape[1]))
    starts = range(0, len(labels), ATTACK_BATCH)

    def attack_block(i: int):
        block = slice(starts[i], starts[i] + ATTACK_BATCH)
        attack(params_surrogate, arch_surrogate,
               dataset.features[block if rows is None else rows[block]],
               labels[block], cfg, out=features[block])

    _run_tasks(attack_block, len(starts))
    return Dataset(features=features, labels=labels,
                   num_classes=dataset.num_classes)
