"""Evaluators for population-level quantities of the S-divergence framework:
the label-noise excess-risk bound and its heatmap grid, influence functions
of the minimum-divergence functional for the small example models, and the
classification-calibration check.

Each evaluator works on whole arrays, with no per-point Python loop.
bound_grid applies make_tuning's admissibility rules (_admissibility) and
the bound formula _bound to the whole (beta, lambda) mesh at once;
excess_risk_bound evaluates the same formula at one tuning pair.  The
influence-function kernels _weights and _psi take a scalar x or a whole
feature sample or x grid with its (n, 2) reference posteriors
(_reference): psi is their one-point wrapper, big_psi sums the sample in
two matrix products, and influence_function computes the psi rows of
every grid point at once and multiplies them by pinv(Psi) in one product.
simplex_grid builds its compositions level by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data_io import posterior_example1
from .divergence import (TuningPair, _admissibility, clip_probs,
                         conditional_sd_risk)
from .network import ExampleModel, example_model

RELU_KINK_TOL = 1e-6
PINV_RCOND = 1e-10


def _check_eta(eta: float, J: int) -> None:
    if J < 2:
        raise ValueError(f"J must be at least 2, got {J}")
    if not 0.0 <= eta < (J - 1) / J:
        raise ValueError(f"eta must lie in [0, (J-1)/J), got {eta}")


def _bound(beta, a, b, eta: float, J: int):
    """The bound at tuning constants (beta, A, B), scalars or arrays."""
    inner = (
        J - np.power(J, 1.0 - beta)
        + (1.0 + beta) / b * np.abs(1.0 - np.power(J, 1.0 - b))
    )
    return eta / (J - 1 - J * eta) * inner / a


def excess_risk_bound(t: TuningPair, eta: float, J: int) -> float:
    """Upper bound on the clean-risk gap of the noise-trained minimizer."""
    _check_eta(eta, J)
    return float(_bound(t.beta, t.a, t.b, eta, J))


@dataclass(frozen=True)
class BoundGrid:
    betas: np.ndarray
    lambdas: np.ndarray
    values: np.ndarray       # (len(betas), len(lambdas)), NaN where inadmissible
    admissible: np.ndarray   # boolean mask of the same shape


def bound_grid(eta: float, J: int, beta_range=(0.0, 1.0),
               lambda_range=(-1.0, 1.0), resolution: int = 50) -> BoundGrid:
    """Evaluate the excess-risk bound over a (beta, lambda) grid.

    Grid points outside the admissible set are marked, not evaluated.
    eta, J, the resolution (at least 1) and the range ends (finite) are
    checked before the grid is built.
    """
    _check_eta(eta, J)
    if resolution < 1 or not np.isfinite([*beta_range, *lambda_range]).all():
        raise ValueError("need a resolution of at least 1 and finite range ends, "
                         f"got {resolution}, {beta_range}, {lambda_range}")
    betas = np.linspace(beta_range[0], beta_range[1], resolution)
    lambdas = np.linspace(lambda_range[0], lambda_range[1], resolution)
    beta, lam = np.meshgrid(betas, lambdas, indexing="ij")
    a, b, rules = _admissibility(beta, lam)
    admissible = np.logical_and.reduce([holds for _, holds in rules])
    values = np.full((resolution, resolution), np.nan)
    values[admissible] = _bound(beta[admissible], a[admissible],
                                b[admissible], eta, J)
    return BoundGrid(betas=betas, lambdas=lambdas, values=values,
                     admissible=admissible)


# ---------------------------------------------------------------------------
# Influence functions for the example models
# ---------------------------------------------------------------------------


def default_feature_sample(n: int = 100, seed: int = 0) -> np.ndarray:
    """Standard-normal stand-in for the feature distribution expectation."""
    return np.random.default_rng(seed).standard_normal(n)


def _reference(p_star_fn, xs: np.ndarray) -> np.ndarray:
    """(n, 2) reference posteriors at the (n,) points xs: p_star_fn called
    point by point, or the example-1 posterior on the whole array if None."""
    if p_star_fn is None:
        p1 = posterior_example1(xs)
        return np.column_stack([p1, 1.0 - p1])
    return np.array([p_star_fn(x) for x in xs], dtype=np.float64).reshape(-1, 2)


def _weights(model: ExampleModel, theta, x, t: TuningPair, p_star):
    """u_j and du_j/dp_j at scalar x or (n,) x, class axis last."""
    p = clip_probs(model.probs(theta, x))
    u = np.power(p, t.beta) - np.power(p_star, t.a) * np.power(p, t.b - 1.0)
    du = (
        t.beta * np.power(p, t.beta - 1.0)
        - np.power(p_star, t.a) * (t.b - 1.0) * np.power(p, t.b - 2.0)
    )
    return u, du


def _psi(model: ExampleModel, theta, x, t: TuningPair, p_star) -> np.ndarray:
    u, _ = _weights(model, theta, x, t, p_star)
    # grad p2 = -grad p1 for the pinned-logit binary models
    return (u[..., 0] - u[..., 1])[..., None] * model.grad_prob1(theta, x)


def psi(model: ExampleModel, theta, x: float, t: TuningPair,
        p_star_fn) -> np.ndarray:
    """Score-like vector sum_j u_j grad_theta p_j at one feature value.

    u_j = p_j**beta - p_star_j**A * p_j**(B-1) is, up to the factor
    (1+beta)/A, the gradient of conditional_sd_risk(p_star, p) in p_j: psi
    is the estimating equation of the minimiser of that p_star**A form,
    not of the expected one-hot sd_loss that training minimises.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return _psi(model, theta, x, t, np.asarray(p_star_fn(x), dtype=np.float64))


def _nudge_off_kinks(model: ExampleModel, theta, sample: np.ndarray) -> np.ndarray:
    """Shift sample points sitting on a ReLU kink of M2 by +1e-6, at most
    5 times each."""
    if model.name != "M2":
        return sample
    sample = sample.copy()
    for _ in range(5):
        a1 = np.abs(theta[0] + theta[1] * sample)
        a2 = np.abs(theta[2] + theta[3] * sample)
        # not (min(a1, a2) >= tol), with Python's min and its NaN handling
        on_kink = ~(np.where(a2 < a1, a2, a1) >= RELU_KINK_TOL)
        if not on_kink.any():
            break
        sample[on_kink] += RELU_KINK_TOL
    return sample


def big_psi(model: ExampleModel, theta, t: TuningPair, feature_sample,
            p_star_fn) -> np.ndarray:
    """Empirical average of grad_theta psi over the feature sample.

    p_star_fn is called once per sample point; None means the default
    reference of IFRequest.
    """
    theta = np.asarray(theta, dtype=np.float64)
    sample = _nudge_off_kinks(model, theta, np.asarray(feature_sample, dtype=np.float64))
    if sample.size == 0:
        raise ValueError("feature sample must be non-empty")
    u, du = _weights(model, theta, sample, t, _reference(p_star_fn, sample))
    g1 = model.grad_prob1(theta, sample)
    h1 = model.hess_prob1(theta, sample)
    total = g1.T @ ((du[:, 0] + du[:, 1])[:, None] * g1)
    total += np.tensordot(u[:, 0] - u[:, 1], h1, axes=1)
    return total / sample.size


@dataclass(frozen=True)
class IFRequest:
    """Inputs of influence_function.

    p_star_fn maps one feature value to its length-2 reference posterior;
    it is called once per point of the feature sample and of x_grid.  The
    default, None, uses the example-1 posterior posterior_example1.  The
    model's probabilities meet it through clip_probs: a reference meant to
    equal the model must be clipped too, or psi is not 0 where it saturates.
    """

    model: str
    theta_g: np.ndarray
    tuning: TuningPair
    x_grid: np.ndarray
    feature_sample: np.ndarray = field(default_factory=default_feature_sample)
    p_star_fn: Callable | None = None


def influence_function(req: IFRequest) -> np.ndarray:
    """Per-grid-point influence vectors, shape (len(x_grid), n_params).

    The functional is the minimiser of the expected conditional_sd_risk
    (the p_star**A form, minimised at p_star; see psi).  Uses the minimum-norm solution: -pinv(Psi) @ psi(x_t) with an SVD
    cutoff of max(singular) * 1e-10; the kernel element is taken as 0.
    A singular-value decomposition failure propagates as LinAlgError.
    """
    model = example_model(req.model)
    theta = np.asarray(req.theta_g, dtype=np.float64)
    if theta.shape != (model.n_params,):
        raise ValueError(
            f"{req.model} expects {model.n_params} parameters, got {theta.shape}"
        )
    big = big_psi(model, theta, req.tuning, req.feature_sample, req.p_star_fn)
    big_pinv = np.linalg.pinv(big, rcond=PINV_RCOND)
    x_grid = np.asarray(req.x_grid, dtype=np.float64)
    rows = _psi(model, theta, x_grid, req.tuning, _reference(req.p_star_fn, x_grid))
    # -pinv, not a negated product, so that an exact 0 stays +0 as in a
    # matrix-vector product per point
    return rows @ -big_pinv.T


# ---------------------------------------------------------------------------
# Classification-calibration check
# ---------------------------------------------------------------------------


class CalibrationError(RuntimeError):
    pass


def simplex_grid(J: int, step: float) -> np.ndarray:
    """All points of the uniform simplex grid with the given step.

    Rows are the compositions (k_1, ..., k_J) of m = round(1/step), divided
    by m, in lexicographic order.
    """
    if J < 1:
        raise ValueError(f"J must be at least 1, got {J}")
    m = int(round(1.0 / step))
    # one level per leading coordinate: each row with r left to distribute
    # gets r + 1 children, with heads 0..r in order
    cols, rest = [], np.array([m])
    for _ in range(J - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(rest.size), counts)
        head = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [c[parent] for c in cols] + [head]
        rest = rest[parent] - head
    return np.column_stack(cols + [rest]) / m


@dataclass(frozen=True)
class CalibrationResult:
    argmin_point: np.ndarray
    argmax_class: int
    gap: float            # margin to the next-best grid value


def calibration_check(p_star, t: TuningPair, step: float = 0.01) -> CalibrationResult:
    """Minimize the conditional SD-risk over a uniform simplex grid.

    The risk is conditional_sd_risk, the p_star**A form, whose minimiser
    is p_star itself (Fisher consistency); the expected one-hot sd_loss
    that training minimises is not minimised at p_star when A != 1.
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
