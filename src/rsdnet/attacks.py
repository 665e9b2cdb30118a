"""White-box adversarial example generation (FGSM and PGD).

Attacks always maximize the CCE loss of the attacked model, matching the
surrogate generation protocol; both attacks are deterministic (no random
start) and respect the L-infinity budget and the box BOX exactly.  FGSM
is one PGD step of size epsilon: both run the same signed-step loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec
from .network import ArchitectureSpec, _as_inputs, _backward, _forward, unflatten

_CCE = LossSpec(kind="cce")

# Attacked features always lie in this box; where a feature's epsilon-ball
# leaves it, the box wins.
BOX = (0.0, 1.0)


@dataclass(frozen=True)
class AttackConfig:
    kind: str                   # "fgsm" or "pgd"
    epsilon: float
    step_size: float = 0.01     # pgd only
    max_iters: int = 100        # pgd only

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


def _signed_steps(params, arch: ArchitectureSpec, x, labels, epsilon: float,
                  step_size: float, iters: int) -> np.ndarray:
    """iters signed-gradient steps, each projected onto the epsilon-ball
    around x intersected with BOX (the box alone where they do not meet)."""
    x0 = np.asarray(x, dtype=np.float64)
    lo = np.clip(x0 - epsilon, *BOX)
    hi = np.clip(x0 + epsilon, *BOX)
    adv = x0
    for _ in range(iters):
        g = input_gradient(params, arch, adv, labels)
        adv = np.clip(adv + step_size * np.sign(g), lo, hi)
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
