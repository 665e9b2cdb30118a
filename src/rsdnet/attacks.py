"""White-box adversarial example generation (FGSM and PGD).

Attacks always maximize the CCE loss of the attacked model, matching the
surrogate generation protocol; both attacks are deterministic (no random
start) and respect the L-infinity budget and the box BOX exactly.  FGSM
is one PGD step of size epsilon: both run the same signed-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec
from .network import (ArchitectureSpec, _as_inputs, _backward, _forward,
                      _model_layers)

_CCE = LossSpec(kind="cce")

# Attacked features always lie in this box; where a feature's epsilon-ball
# leaves it, the box wins.
BOX = (0.0, 1.0)

# Rows attacked per call in adversarial_trainset: fastest among 32-512 rows,
# and the attacked bits are the same at every size.
ATTACK_BATCH = 256


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


def input_gradient(params, arch: ArchitectureSpec, x, labels,
                   loss: LossSpec = _CCE) -> np.ndarray:
    """Gradient of the selected loss with respect to the input features,
    one (input_dim,) row per example of the batch x.

    Equal to backward(...)[1] for the batch-size-scaled logit gradient, but
    computes no weight or bias gradients.
    """
    X = _as_inputs(x, arch)
    layers = _model_layers(params, arch)
    pres, posts = _forward(layers, arch.activations, X)
    _, grad_logits = loss.value_and_grad_logits(labels, posts[-1])
    # undo the batch averaging: per-example input gradients
    return _backward(X, pres, posts, layers, arch.activations,
                     grad_logits * X.shape[0])


def _signed_steps(params, arch: ArchitectureSpec, x, labels, epsilon: float,
                  step_size: float, iters: int) -> np.ndarray:
    """iters signed-gradient steps, each projected onto the epsilon-ball
    around x intersected with BOX (the box alone where they do not meet).
    Updated in place, with the bits of np.clip(adv + step_size * sign(g),
    lo, hi): minimum then maximum is that clip, since lo <= hi."""
    x0 = np.asarray(x, dtype=np.float64)
    lo = np.clip(x0 - epsilon, *BOX)
    hi = np.clip(x0 + epsilon, *BOX)
    adv = x0.copy()  # never write the caller's array
    step = np.empty_like(adv)
    for _ in range(iters):
        # sign into its own buffer: out=g, aliasing its input, runs slower
        np.sign(input_gradient(params, arch, adv, labels), out=step)
        step *= step_size
        adv += step
        np.minimum(adv, hi, out=adv)
        np.maximum(adv, lo, out=adv)
    return adv


def fgsm(params, arch: ArchitectureSpec, x, labels, epsilon: float) -> np.ndarray:
    """Single signed-gradient step of size epsilon, clipped to the box."""
    return _signed_steps(params, arch, x, labels, epsilon, epsilon, 1)


def pgd(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig) -> np.ndarray:
    """Iterated signed steps projected onto the epsilon-ball and the box."""
    return _signed_steps(params, arch, x, labels, cfg.epsilon, cfg.step_size,
                         cfg.max_iters)


def attack(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig) -> np.ndarray:
    if cfg.kind == "fgsm":
        return fgsm(params, arch, x, labels, cfg.epsilon)
    return pgd(params, arch, x, labels, cfg)


def adversarial_trainset(params_surrogate, arch_surrogate: ArchitectureSpec,
                         dataset: Dataset, cfg: AttackConfig) -> Dataset:
    """Replace every example's features by its attacked version.

    Labels are untouched; the perturbed set is fixed once (static
    adversarial training data).
    """
    chunks = []
    for start in range(0, dataset.n, ATTACK_BATCH):
        X = dataset.features[start:start + ATTACK_BATCH]
        y = dataset.labels[start:start + ATTACK_BATCH]
        chunks.append(attack(params_surrogate, arch_surrogate, X, y, cfg))
    features = np.concatenate(chunks) if chunks else dataset.features.copy()
    return Dataset(features=features, labels=dataset.labels,
                   num_classes=dataset.num_classes)
