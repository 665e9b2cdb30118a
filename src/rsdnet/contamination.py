"""Uniform label-noise injection and the corresponding noisy posterior."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset


def _check_eta(eta: float):
    if not 0.0 <= eta < 1.0:  # NaN fails it too
        raise ValueError(f"eta must lie in [0, 1), got {eta}")


@dataclass(frozen=True)
class NoiseConfig:
    eta: float
    seed: int

    def __post_init__(self):
        _check_eta(self.eta)


def corrupt_labels(dataset: Dataset, cfg: NoiseConfig) -> tuple[Dataset, np.ndarray]:
    """Flip each label independently with probability eta.

    A flipped label is replaced by a uniform draw over the J-1 other
    classes.  The RNG stream is consumed in a fixed order (all flip
    decisions, then all replacement draws), so the mask is reproducible
    regardless of how callers iterate.
    """
    J = dataset.num_classes
    rng = np.random.default_rng(cfg.seed)
    n = dataset.n
    flip = rng.random(n) < cfg.eta
    # draw over J-1 offsets and shift past the original class
    offsets = rng.integers(1, J, size=n)
    new_labels = dataset.labels.copy()
    new_labels[flip] = (dataset.labels[flip] + offsets[flip]) % J
    corrupted = Dataset(features=dataset.features, labels=new_labels,
                        num_classes=J)
    return corrupted, flip


def noisy_posterior(p_star, eta: float) -> np.ndarray:
    """(1-eta) p* + eta (1-p*)/(J-1), applied per class."""
    p_star = np.asarray(p_star, dtype=np.float64)
    _check_eta(eta)
    J = p_star.shape[-1]
    return (1.0 - eta) * p_star + eta / (J - 1) * (1.0 - p_star)
