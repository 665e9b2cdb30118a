"""Uniform label-noise injection and the corresponding noisy posterior."""

from __future__ import annotations

import numpy as np

from .data_io import Dataset
from .divergence import _require


def _check_classes(J: int) -> None:
    """Raise ParameterError unless the class count J is at least 2."""
    _require(J >= 2, "J", "must be at least 2", J)


def check_eta(eta: float, J: int | None = None) -> None:
    """Raise ParameterError unless the noise level eta lies in [0, 1) or,
    given the class count J (_check_classes), in [0, (J-1)/J), where the
    excess-risk bound is defined.  NaN fails both."""
    if J is None:
        _require(0.0 <= eta < 1.0, "eta", "must lie in [0, 1)", eta)
        return
    _check_classes(J)
    _require(0.0 <= eta < (J - 1) / J, "eta",
             f"must lie in [0, (J-1)/J) = [0, {(J - 1) / J:g})", eta, J=J)


def corrupt_labels(dataset: Dataset, eta: float, seed: int,
                   rows: np.ndarray | None = None) -> tuple[Dataset, np.ndarray]:
    """Flip each label independently with probability eta, drawn from seed.

    A flipped label is replaced by a uniform draw over the J-1 other
    classes.  The RNG stream is consumed in a fixed order (all flip
    decisions, then all replacement draws), so the mask is reproducible
    regardless of how callers iterate.  Given rows, an index array, only
    those rows' labels are drawn, with the bits of the same call on a copy
    of those rows, and the mask has one entry per row of rows; the other
    labels are kept.  The features are shared, not copied.  Raises
    ParameterError unless eta lies in [0, 1), at eta = 0 too.
    """
    check_eta(eta)
    J = dataset.num_classes
    rng = np.random.default_rng(seed)
    labels = dataset.labels if rows is None else dataset.labels[rows]
    n = len(labels)
    flip = rng.random(n) < eta
    # draw over J-1 offsets and shift past the original class
    offsets = rng.integers(1, J, size=n)
    new_labels = labels.copy()
    new_labels[flip] = (labels[flip] + offsets[flip]) % J
    if rows is not None:
        picked, new_labels = new_labels, dataset.labels.copy()
        new_labels[rows] = picked
    corrupted = Dataset(features=dataset.features, labels=new_labels,
                        num_classes=J)
    return corrupted, flip


def noisy_posterior(p_star, eta: float) -> np.ndarray:
    """(1-eta) p* + eta (1-p*)/(J-1), applied per class: J is the length
    of p*'s last axis, 1 for a scalar p*."""
    p_star = np.asarray(p_star, dtype=np.float64)
    check_eta(eta)
    J = np.atleast_1d(p_star).shape[-1]
    _check_classes(J)
    return (1.0 - eta) * p_star + eta / (J - 1) * (1.0 - p_star)
