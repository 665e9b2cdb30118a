"""Evaluators for population-level quantities of the S-divergence framework:
the label-noise excess-risk bound and its heatmap grid, influence functions
of the minimum-divergence functional for the small example models, and the
Fisher-consistency check (calibration_check).

Each evaluator works on whole arrays, with no per-point Python loop.
bound_grid applies make_tuning's admissibility rules (_admissibility) and
the bound formula _bound to the whole (beta, lambda) mesh at once;
excess_risk_bound evaluates the same formula at one tuning pair.  The
influence-function evaluators psi, big_psi and influence_function take
their arguments in one order (model, theta, tuning, points, reference)
and work on (n,) arrays of feature values.  The reference posterior
p_star_fn maps such an array to its (n, 2) posteriors and is called once
per array (_reference): big_psi sums the sample in two matrix products,
and influence_function computes the psi rows of every grid point at once
and multiplies them by pinv(Psi) in one product.
_compositions builds the integer points of the simplex grid level by
level, and simplex_grid divides them by m = round(1/step).
calibration_check lists no grid point, so it takes any class count J:
each coordinate of a grid point is one of the m + 1 levels k/m, so it
evaluates the per-class terms of conditional_sd_risk once per (class,
level) pair, in a (J, m + 1) table, and a point's risk is the sum of its
entries in class order.  A min-plus search over the table, O(J m**2)
array work, finds the smallest risk with its exact bits and the first
minimiser in grid order, which wins among equal risks; the check accepts
any of p_star's largest classes.  The gap (_runner_up) carries the
smallest sum of the other points from class to class, one scalar addition
per class, in class order for its bits.  From J = 8 numpy's row sum in
conditional_sd_risk adds pairwise, so the two can differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data_io import posterior_example1
from .divergence import TuningPair, _admissibility, _risk_terms, clip_probs
from .network import ExampleModel

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
    eta, J, the resolution (at least 1) and the axis points (finite: a
    span beyond the float range overflows inside linspace) are checked
    before any point is evaluated.
    """
    _check_eta(eta, J)
    if resolution < 1:
        raise ValueError(f"need a resolution of at least 1, got {resolution}")
    with np.errstate(over="ignore", invalid="ignore"):
        betas = np.linspace(beta_range[0], beta_range[1], resolution)
        lambdas = np.linspace(lambda_range[0], lambda_range[1], resolution)
    if not np.isfinite((betas, lambdas)).all():
        raise ValueError(f"need finite grid points, got beta {beta_range} and "
                         f"lambda {lambda_range} at resolution {resolution}")
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
    """(n, 2) reference posteriors at the (n,) points xs: one call of
    p_star_fn on the whole array, or the example-1 posterior if None.

    The model's probabilities meet the reference through clip_probs: a
    reference meant to equal the model must be clipped too, or psi is not
    0 where the model saturates.
    """
    if p_star_fn is None:
        p1 = posterior_example1(xs)
        return np.column_stack([p1, 1.0 - p1])
    return np.asarray(p_star_fn(xs), dtype=np.float64)


def _weights(model: ExampleModel, theta, x, t: TuningPair, p_star):
    """u_j and du_j/dp_j at the (n,) points x, shape (n, 2)."""
    p = clip_probs(model.probs(theta, x))
    u = np.power(p, t.beta) - np.power(p_star, t.a) * np.power(p, t.b - 1.0)
    du = (
        t.beta * np.power(p, t.beta - 1.0)
        - np.power(p_star, t.a) * (t.b - 1.0) * np.power(p, t.b - 2.0)
    )
    return u, du


def psi(model: ExampleModel, theta, t: TuningPair, x, p_star_fn) -> np.ndarray:
    """Score-like vector sum_j u_j grad_theta p_j at each feature value.

    x is an (n,) array (a scalar is a batch of one); the result is
    (n, n_params), one row per point.  p_star_fn maps x to its (n, 2)
    reference posteriors in one call; None means the example-1 posterior.
    u_j = p_j**beta - p_star_j**A * p_j**(B-1) is, up to the factor
    (1+beta)/A, the gradient of conditional_sd_risk(p_star, p) in p_j: psi
    is the estimating equation of the minimiser of that p_star**A form,
    not of the expected one-hot sd_loss that training minimises.
    """
    theta = np.asarray(theta, dtype=np.float64)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    u, _ = _weights(model, theta, xs, t, _reference(p_star_fn, xs))
    # grad p2 = -grad p1 for the pinned-logit binary models
    return (u[:, 0] - u[:, 1])[:, None] * model.grad_prob1(theta, xs)


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
    """Empirical average of grad_theta psi over the (n,) feature sample,
    an (n_params, n_params) matrix.

    p_star_fn is called once, on the whole (nudged) sample; None means the
    example-1 posterior.
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


def influence_function(model: ExampleModel, theta, t: TuningPair, x_grid,
                       feature_sample, p_star_fn=None) -> np.ndarray:
    """Per-grid-point influence vectors, shape (len(x_grid), n_params).

    The functional is the minimiser of the expected conditional_sd_risk
    (the p_star**A form, minimised at p_star; see psi), with the
    expectation over the feature sample.  p_star_fn is called twice, once
    on the sample and once on x_grid; None means the example-1 posterior.
    Uses the minimum-norm solution: -pinv(Psi) @ psi(x_t) with an SVD
    cutoff of max(singular) * 1e-10; the kernel element is taken as 0.
    A singular-value decomposition failure propagates as LinAlgError.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.n_params,):
        raise ValueError(
            f"{model.name} expects {model.n_params} parameters, got {theta.shape}"
        )
    big = big_psi(model, theta, t, feature_sample, p_star_fn)
    big_pinv = np.linalg.pinv(big, rcond=PINV_RCOND)
    rows = psi(model, theta, t, x_grid, p_star_fn)
    # -pinv, not a negated product, so that an exact 0 stays +0 as in a
    # matrix-vector product per point
    return rows @ -big_pinv.T


# ---------------------------------------------------------------------------
# Fisher-consistency check
# ---------------------------------------------------------------------------


class CalibrationError(RuntimeError):
    pass


def _grid_size(step: float) -> int:
    """m = round(1/step), the number of steps of the grid along an axis."""
    inverse = 1.0 / float(step) if step > 0 else 0.0  # NaN is not > 0
    if not (np.isfinite(inverse) and round(inverse) >= 1):
        raise ValueError("step must be positive with 1/step finite and "
                         f"rounding to at least 1, got {step}")
    return round(inverse)


def _compositions(J: int, m: int) -> np.ndarray:
    """The compositions (k_1, ..., k_J) of m, an (n, J) integer array in
    lexicographic order."""
    if J < 1:
        raise ValueError(f"J must be at least 1, got {J}")
    # one level per leading coordinate: each row with r left to distribute
    # gets r + 1 children, with heads 0..r in order
    cols, rest = [], np.array([m])
    for _ in range(J - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(rest.size), counts)
        head = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [c[parent] for c in cols] + [head]
        rest = rest[parent] - head
    return np.column_stack(cols + [rest])


def simplex_grid(J: int, step: float) -> np.ndarray:
    """All points of the uniform simplex grid with the given step.

    Rows are the compositions (k_1, ..., k_J) of m = round(1/step), divided
    by m, in lexicographic order.  A step that is not finite, not positive
    or has round(1/step) < 1 is rejected before any array is built.
    """
    m = _grid_size(step)
    return _compositions(J, m) / m


def _min_plus(v: np.ndarray, row: np.ndarray) -> np.ndarray:
    """out[s] = min over k <= s of v[s - k] + row[k], for (n,) v and row:
    one more class added to the smallest sums of the classes before it."""
    n = row.shape[0]
    padded = np.concatenate([np.full(n - 1, np.inf), v])
    # a read-only (n, n) view whose row k is v shifted right by k, padded
    # with +inf: shifted[k, s] = v[s - k]
    step = padded.strides[0]
    shifted = as_strided(padded[n - 1:], (n, n), (-step, step), writeable=False)
    return (shifted + row[:, None]).min(axis=0)


def _first_minimiser(table: np.ndarray, a: float, total) -> list:
    """The first composition of m = n - 1, in grid order, whose (J, n)
    table entries added in class order and divided by a give the smallest
    risk, total / a, where total is the smallest class-order sum.

    A depth-first search in grid order drops a prefix when its class-order
    sum plus the smallest sum of any completion (a backward min-plus pass)
    exceeds total by more than slack: the rounding error of 2J additions
    of partial sums no larger than the sum of the classes' largest
    |entries|.  So no minimiser is dropped.  The last class takes the
    levels left, so at the last two classes every total is computed
    exactly, in one vector.  The search keeps its own stack of prefixes,
    so J is not bounded by Python's recursion limit.
    """
    J, n = table.shape
    if J == 1:
        return [n - 1]
    risk = total / a
    slack = 2 * J * np.finfo(np.float64).eps * np.abs(table).max(axis=1).sum()
    # completion[j][r]: the smallest sum of classes j + 1.. over the
    # compositions of r, for j < J - 2
    completion = [table[-1]]
    for row in table[-2:0:-1]:
        completion.insert(0, _min_plus(completion[0], row))
    stack = [(0, None, n - 1, [])]
    while stack:
        j, prefix, rest, path = stack.pop()
        entries = table[j, :rest + 1]
        sums = entries if prefix is None else prefix + entries
        if j == J - 2:
            hits = np.flatnonzero((sums + table[-1, rest::-1]) / a == risk)
            if hits.size:
                return [*path, hits[0], rest - hits[0]]
        else:
            # pushed last level first, so that the first is tried first
            reach = sums + completion[j][rest::-1]
            stack += [(j + 1, sums[k], rest - k, [*path, k])
                      for k in np.flatnonzero(reach <= total + slack)[::-1]]


def _runner_up(table: np.ndarray, prefix: list, point: list):
    """The smallest class-order sum of table entries over the compositions
    other than point.

    Such a composition last differs from point at some class L >= 1: it
    is a prefix over classes 0..L with point's level sum there and a
    class-L level other than point's, followed by point's entries.
    Rounded addition is monotone, so the smallest such sum starts from
    the smallest prefix sums prefix[L - 1] of the forward pass, and min
    commutes with adding the same entry: carried, the smallest sum over
    classes 0..L of the compositions that last differ at L or before, is
    min(carried + table[L, point[L]], the smallest that last differs at L),
    one scalar addition per class.
    """
    level_sums = np.cumsum(point)
    carried = np.inf
    for L in range(1, table.shape[0]):
        s = level_sums[L]
        sums = prefix[L - 1][s::-1] + table[L, :s + 1]
        sums[point[L]] = np.inf
        carried = min(carried + table[L, point[L]], sums.min())
    return carried


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
    p_star must be a (J,) distribution, for any J >= 1: finite,
    non-negative and summing to 1 within 1e-9.  The step is checked as in
    simplex_grid.

    Every coordinate of a grid point is one of the m + 1 levels k/m, so
    the per-class terms of the risk (divergence._risk_terms) are computed
    once, in a (J, m + 1) table, and a point's risk is its J table
    entries added in class order, divided by A.  For J < 8 that is
    conditional_sd_risk's bits; from J = 8 numpy sums a row pairwise, so
    the two can differ in the last bits.  No grid point is listed, and J
    has no limit: the table is searched in O(J m**2) array work.
      - A forward min-plus pass keeps the smallest class-order sum of each
        class prefix per level sum.  Rounded addition is monotone, so the
        smallest total keeps its bits.
      - A depth-first search in grid order, pruned by a backward min-plus
        pass, finds the first minimiser in grid order (simplex_grid's),
        which wins among equal risks.
      - gap is the smallest risk of any other grid point minus the
        smallest risk; 0 if another point ties, inf if there is none.
    Raises CalibrationError unless the minimiser's argmax class (its first
    largest coordinate) is one of p_star's largest classes.
    """
    p_star = np.asarray(p_star, dtype=np.float64)
    if (p_star.ndim != 1 or not np.isfinite(p_star).all() or (p_star < 0).any()
            or not abs(p_star.sum() - 1.0) <= 1e-9):
        raise ValueError("p_star must be a 1-D finite, non-negative vector "
                         f"summing to 1 within 1e-9, got {p_star}")
    m = _grid_size(step)
    table = _risk_terms(np.arange(m + 1) / m, p_star[:, None], t)
    prefix = [table[0]]
    for row in table[1:-1]:
        prefix.append(_min_plus(prefix[-1], row))
    total = (prefix[-1][::-1] + table[-1]).min() if len(table) > 1 else table[0, m]
    risk = total / t.a
    point = _first_minimiser(table, t.a, total)
    best = np.array(point) / m
    argmax_class = int(best.argmax())
    if p_star[argmax_class] != p_star.max():
        raise CalibrationError(
            f"grid argmin predicts class {argmax_class}, "
            f"but p_star argmax is {int(p_star.argmax())}"
        )
    gap = float(_runner_up(table, prefix, point) / t.a - risk)
    return CalibrationResult(argmin_point=best, argmax_class=argmax_class, gap=gap)
