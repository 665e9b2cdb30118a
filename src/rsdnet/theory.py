"""Evaluators for population-level quantities of the S-divergence framework:
the label-noise excess-risk bound and its heatmap grid, influence functions
of the minimum-divergence functional for the small example models, and the
classification-calibration check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data_io import posterior_example1
from .divergence import (InvalidTuningError, TuningPair, clip_probs,
                         conditional_sd_risk, make_tuning)
from .network import ExampleModel, example_model

RELU_KINK_TOL = 1e-6
PINV_RCOND = 1e-10


def excess_risk_bound(t: TuningPair, eta: float, J: int) -> float:
    """Upper bound on the clean-risk gap of the noise-trained minimizer."""
    if not 0.0 <= eta < (J - 1) / J:
        raise ValueError(f"eta must lie in [0, (J-1)/J), got {eta}")
    inner = (
        J - J ** (1.0 - t.beta)
        + (1.0 + t.beta) / t.b * abs(1.0 - J ** (1.0 - t.b))
    )
    return eta / (J - 1 - J * eta) * inner / t.a


@dataclass(frozen=True)
class BoundGrid:
    betas: np.ndarray
    lambdas: np.ndarray
    eta: float
    J: int
    values: np.ndarray       # (len(betas), len(lambdas)), NaN where inadmissible
    admissible: np.ndarray   # boolean mask of the same shape


def bound_grid(eta: float, J: int, beta_range=(0.0, 1.0),
               lambda_range=(-1.0, 1.0), resolution: int = 50) -> BoundGrid:
    """Evaluate the excess-risk bound over a (beta, lambda) grid.

    Grid points outside the admissible set are marked, not evaluated.
    """
    betas = np.linspace(beta_range[0], beta_range[1], resolution)
    lambdas = np.linspace(lambda_range[0], lambda_range[1], resolution)
    values = np.full((resolution, resolution), np.nan)
    admissible = np.zeros((resolution, resolution), dtype=bool)
    for i, beta in enumerate(betas):
        for j, lam in enumerate(lambdas):
            try:
                t = make_tuning(beta, lam)
            except InvalidTuningError:
                continue
            admissible[i, j] = True
            values[i, j] = excess_risk_bound(t, eta, J)
    return BoundGrid(betas=betas, lambdas=lambdas, eta=eta, J=J,
                     values=values, admissible=admissible)


# ---------------------------------------------------------------------------
# Influence functions for the example models
# ---------------------------------------------------------------------------


def default_feature_sample(n: int = 100, seed: int = 0) -> np.ndarray:
    """Standard-normal stand-in for the feature distribution expectation."""
    return np.random.default_rng(seed).standard_normal(n)


def _weights(model: ExampleModel, theta, x, t: TuningPair, p_star_fn):
    p = clip_probs(model.probs(theta, x))
    p_star = np.asarray(p_star_fn(x), dtype=np.float64)
    u = np.power(p, t.beta) - np.power(p_star, t.a) * np.power(p, t.b - 1.0)
    du = (
        t.beta * np.power(p, t.beta - 1.0)
        - np.power(p_star, t.a) * (t.b - 1.0) * np.power(p, t.b - 2.0)
    )
    return u, du


def psi(model: ExampleModel, theta, x: float, t: TuningPair,
        p_star_fn) -> np.ndarray:
    """Score-like vector sum_j u_j grad_theta p_j at one feature value."""
    theta = np.asarray(theta, dtype=np.float64)
    u, _ = _weights(model, theta, x, t, p_star_fn)
    # grad p2 = -grad p1 for the pinned-logit binary models
    return (u[0] - u[1]) * model.grad_prob1(theta, x)


def _nudge_off_kinks(model: ExampleModel, theta, sample: np.ndarray) -> np.ndarray:
    """Shift sample points sitting on a ReLU kink of M2 by +1e-6."""
    if model.name != "M2":
        return sample
    sample = sample.copy()
    for i, x in enumerate(sample):
        for _ in range(5):
            a1 = theta[0] + theta[1] * sample[i]
            a2 = theta[2] + theta[3] * sample[i]
            if min(abs(a1), abs(a2)) >= RELU_KINK_TOL:
                break
            sample[i] += RELU_KINK_TOL
    return sample


def big_psi(model: ExampleModel, theta, t: TuningPair, feature_sample,
            p_star_fn) -> np.ndarray:
    """Empirical average of grad_theta psi over the feature sample."""
    theta = np.asarray(theta, dtype=np.float64)
    sample = _nudge_off_kinks(model, theta, np.asarray(feature_sample, dtype=np.float64))
    if sample.size == 0:
        raise ValueError("feature sample must be non-empty")
    total = np.zeros((model.n_params, model.n_params))
    for x in sample:
        u, du = _weights(model, theta, x, t, p_star_fn)
        g1 = model.grad_prob1(theta, x)
        h1 = model.hess_prob1(theta, x)
        total += (du[0] + du[1]) * np.outer(g1, g1) + (u[0] - u[1]) * h1
    return total / sample.size


@dataclass(frozen=True)
class IFRequest:
    model: str
    theta_g: np.ndarray
    tuning: TuningPair
    x_grid: np.ndarray
    feature_sample: np.ndarray = field(default_factory=default_feature_sample)
    p_star_fn: Callable | None = None


def influence_function(req: IFRequest) -> np.ndarray:
    """Per-grid-point influence vectors, shape (len(x_grid), n_params).

    Uses the minimum-norm solution: -pinv(Psi) @ psi(x_t) with an SVD
    cutoff of max(singular) * 1e-10; the kernel element is taken as 0.
    A singular-value decomposition failure propagates as LinAlgError.
    """
    model = example_model(req.model)
    theta = np.asarray(req.theta_g, dtype=np.float64)
    if theta.shape != (model.n_params,):
        raise ValueError(
            f"{req.model} expects {model.n_params} parameters, got {theta.shape}"
        )
    p_star_fn = req.p_star_fn
    if p_star_fn is None:
        def p_star_fn(x):
            p1 = float(posterior_example1(x))
            return np.array([p1, 1.0 - p1])

    big = big_psi(model, theta, req.tuning, req.feature_sample, p_star_fn)
    big_pinv = np.linalg.pinv(big, rcond=PINV_RCOND)
    rows = [
        -big_pinv @ psi(model, theta, x_t, req.tuning, p_star_fn)
        for x_t in np.asarray(req.x_grid, dtype=np.float64)
    ]
    return np.array(rows)


# ---------------------------------------------------------------------------
# Classification-calibration check
# ---------------------------------------------------------------------------


class CalibrationError(RuntimeError):
    pass


def simplex_grid(J: int, step: float) -> np.ndarray:
    """All points of the uniform simplex grid with the given step."""
    m = int(round(1.0 / step))
    if J == 2:
        k = np.arange(m + 1)
        return np.column_stack([k, m - k]) / m

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head, *tail)

    return np.array(list(compositions(m, J)), dtype=np.float64) / m


@dataclass(frozen=True)
class CalibrationResult:
    argmin_point: np.ndarray
    argmax_class: int
    gap: float            # margin to the next-best grid value


def calibration_check(p_star, t: TuningPair, step: float = 0.01) -> CalibrationResult:
    """Minimize the conditional SD-risk over a uniform simplex grid.

    Raises CalibrationError if the minimizer's argmax class disagrees
    with the argmax of p_star (a tie in p_star is not checked).
    """
    p_star = np.asarray(p_star, dtype=np.float64)
    J = p_star.shape[0]
    if J > 4:
        raise ValueError("grid search supported only for J <= 4")
    grid = simplex_grid(J, step)
    risks = conditional_sd_risk(p_star, grid, t)
    order = np.argsort(risks)
    best = grid[order[0]]
    gap = float(risks[order[1]] - risks[order[0]]) if len(order) > 1 else np.inf
    argmax_class = int(best.argmax())
    if argmax_class != int(p_star.argmax()):
        raise CalibrationError(
            f"grid argmin predicts class {argmax_class}, "
            f"but p_star argmax is {int(p_star.argmax())}"
        )
    return CalibrationResult(argmin_point=best, argmax_class=argmax_class, gap=gap)
