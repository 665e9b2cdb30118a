"""White-box adversarial example generation (FGSM and PGD).

Attacks always maximize the CCE loss of the attacked model, matching the
surrogate generation protocol; both attacks are deterministic (no random
start) and respect the L-infinity budget and box constraints exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec
from .network import ArchitectureSpec, _as_inputs, _backward, _forward, unflatten

_CCE = LossSpec(kind="cce")


@dataclass(frozen=True)
class AttackConfig:
    kind: str                   # "fgsm" or "pgd"
    epsilon: float
    step_size: float = 0.01     # pgd only
    max_iters: int = 100        # pgd only
    clip_min: float = 0.0
    clip_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fgsm", "pgd"):
            raise ValueError(f"unknown attack kind: {self.kind}")
        if self.epsilon < 0 or self.step_size <= 0 or self.max_iters < 1:
            raise ValueError("invalid attack hyperparameters")


def input_gradient(params, arch: ArchitectureSpec, x, labels,
                   loss: LossSpec = _CCE) -> np.ndarray:
    """Gradient of the selected loss with respect to the input features.

    Equal to backward(...)[1] for the batch-size-scaled logit gradient, but
    computes no weight or bias gradients.
    """
    X, single = _as_inputs(x, arch)
    layers = unflatten(params, arch)
    pres, posts = _forward(layers, arch.activations, X)
    _, grad_logits = loss.value_and_grad_logits(labels, posts[-1])
    # undo the batch averaging: per-example input gradients
    grad_in = _backward(X, pres, posts, layers, arch.activations,
                        grad_logits * X.shape[0])
    return grad_in[0] if single else grad_in


def fgsm(params, arch: ArchitectureSpec, x, labels, epsilon: float,
         loss: LossSpec = _CCE, clip_min: float = 0.0,
         clip_max: float = 1.0) -> np.ndarray:
    """Single signed-gradient step of size epsilon, clipped to the box."""
    x = np.asarray(x, dtype=np.float64)
    g = input_gradient(params, arch, x, labels, loss)
    return np.clip(x + epsilon * np.sign(g), clip_min, clip_max)


def pgd(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig,
        loss: LossSpec = _CCE) -> np.ndarray:
    """Iterated signed steps projected onto the epsilon-ball and the box."""
    x0 = np.asarray(x, dtype=np.float64)
    lo = np.maximum(x0 - cfg.epsilon, cfg.clip_min)
    hi = np.minimum(x0 + cfg.epsilon, cfg.clip_max)
    adv = x0.copy()
    for _ in range(cfg.max_iters):
        g = input_gradient(params, arch, adv, labels, loss)
        adv = np.clip(adv + cfg.step_size * np.sign(g), lo, hi)
    return adv


def attack(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig,
           loss: LossSpec = _CCE) -> np.ndarray:
    if cfg.kind == "fgsm":
        return fgsm(params, arch, x, labels, cfg.epsilon, loss,
                    cfg.clip_min, cfg.clip_max)
    return pgd(params, arch, x, labels, cfg, loss)


def adversarial_trainset(params_surrogate, arch_surrogate: ArchitectureSpec,
                         dataset: Dataset, cfg: AttackConfig,
                         batch_size: int = 256) -> Dataset:
    """Replace every example's features by its attacked version.

    Labels are untouched; the perturbed set is fixed once (static
    adversarial training data).
    """
    chunks = []
    for start in range(0, dataset.n, batch_size):
        X = dataset.features[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        chunks.append(attack(params_surrogate, arch_surrogate, X, y, cfg))
    features = np.concatenate(chunks) if chunks else dataset.features.copy()
    return Dataset(features=features, labels=dataset.labels,
                   num_classes=dataset.num_classes)
