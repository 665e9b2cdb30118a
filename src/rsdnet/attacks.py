"""White-box adversarial example generation (FGSM and PGD).

attack(params, arch, x, labels, cfg) is the one call for both: the
AttackConfig names the kind and its budget, and FGSM is one PGD step of
size epsilon.  Attacks always maximize the CCE loss of the attacked model,
matching the surrogate generation protocol; they are deterministic (no
random start) and respect the L-infinity budget and the box BOX exactly.
The input gradient has the network's dtype, float32 for an IDX-trained
network, as only its sign is used; the attacked features, their epsilon-
ball and the box projection are float64.

adversarial_trainset attacks its ATTACK_BATCH-row blocks as the tasks of
network._run_tasks: on the worker threads its docstring's rule gives, the
caller's included, each writing its rows into one shared output, with
numpy's OpenBLAS held at one thread meanwhile and its count restored
afterwards, also when a block raises.  Rows are attacked independently, so
the bits are those of attacking the blocks one at a time on one BLAS
thread, whatever the number of workers or the thread count OpenBLAS would
pick.  Where no OpenBLAS thread setter is found, one worker attacks the
blocks in turn, at OpenBLAS's own thread count.  `train --attack` runs its
folds in turn, not on the pool, so that each of a fold's attacks gets
every core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec
from .network import (ArchitectureSpec, _as_inputs, _backward, _forward,
                      _model_layers, _run_tasks)

_CCE = LossSpec(kind="cce")

# Attacked features always lie in this box; where a feature's epsilon-ball
# leaves it, the box wins.
BOX = (0.0, 1.0)

# Rows per block in adversarial_trainset; the attacked bits are the same at
# every size.  With two workers on 2 cores, the 1000 rows of pgd-attack-dump
# (PGD-100 on 784 inputs) took 1.04 / 0.76 / 0.61 / 0.53 / 0.53 s at 32 / 64
# / 128 / 256 / 512 rows.  Each worker holds four block-sized buffers, and
# 256 rows raised that workload's peak RSS by 3.6 MB (5%) over 128.
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


def input_gradient(params, arch: ArchitectureSpec, x, labels, *,
                   out=None) -> np.ndarray:
    """Gradient of the CCE loss with respect to the input features, one
    (input_dim,) row per example of the batch x, written into out (an
    (n, input_dim) array of arch.dtype) where given.

    Equal to backward(...)[1] for the batch-size-scaled logit gradient, but
    computes no weight or bias gradients.  x is cast to arch.dtype, and the
    float64 logit gradient of the loss back to it.
    """
    X = _as_inputs(x, arch)
    layers = _model_layers(params, arch)
    pres, posts = _forward(layers, arch.activations, X)
    _, grad_logits = _CCE.value_and_grad_logits(labels, posts[-1])
    # undo the batch averaging: per-example input gradients
    grad_logits *= X.shape[0]
    return _backward(X, pres, posts, layers, arch.activations,
                     grad_logits.astype(arch.dtype, copy=False), out=out)


def attack(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig, *,
           out=None) -> np.ndarray:
    """cfg's attack on the batch x, into out where given (never into x):
    signed-gradient steps (FGSM one of size epsilon, PGD max_iters of
    step_size), each projected onto the epsilon-ball around x intersected
    with BOX (the box alone where they do not meet).  Updated in place, with
    the bits of np.clip(adv + step * sign(g), lo, hi): minimum then maximum
    is that clip, since lo <= hi.  adv, lo and hi are float64, whatever
    arch.dtype; the gradient g has arch.dtype."""
    if cfg.kind == "fgsm":
        step_size, iters = cfg.epsilon, 1
    else:
        step_size, iters = cfg.step_size, cfg.max_iters
    x0 = np.asarray(x, dtype=np.float64)
    lo = np.clip(x0 - cfg.epsilon, *BOX)
    hi = np.clip(x0 + cfg.epsilon, *BOX)
    adv = np.empty_like(x0) if out is None else out
    adv[...] = x0
    grad = np.empty(adv.shape, dtype=arch.dtype)  # one for every step
    step = np.empty_like(adv)
    for _ in range(iters):
        # sign into its own buffer: out=g, aliasing its input, runs slower
        np.sign(input_gradient(params, arch, adv, labels, out=grad), out=step)
        step *= step_size
        adv += step
        np.minimum(adv, hi, out=adv)
        np.maximum(adv, lo, out=adv)
    return adv


def adversarial_trainset(params_surrogate, arch_surrogate: ArchitectureSpec,
                         dataset: Dataset, cfg: AttackConfig) -> Dataset:
    """Replace every example's features by its attacked version.

    Labels are untouched; the perturbed set is fixed once (static
    adversarial training data).  The ATTACK_BATCH-row blocks are the tasks
    of network._run_tasks, so the first exception a block raises is raised
    here once every worker has stopped.
    """
    features = np.empty(dataset.features.shape)
    starts = range(0, dataset.n, ATTACK_BATCH)

    def attack_block(i: int):
        rows = slice(starts[i], starts[i] + ATTACK_BATCH)
        attack(params_surrogate, arch_surrogate, dataset.features[rows],
               dataset.labels[rows], cfg, out=features[rows])

    _run_tasks(attack_block, len(starts))
    return Dataset(features=features, labels=dataset.labels,
                   num_classes=dataset.num_classes)
