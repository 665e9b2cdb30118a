"""S-divergence loss family, its gradients, and baseline classification losses.

The family is indexed by a pair (beta, lambda) with derived constants
A = 1 + lambda*(1-beta) and B = beta - lambda*(1-beta).  Only pairs with
A > 0 and B > 0 are admissible; the beta = 1 line collapses to the squared
L2 distance for every lambda.  In float64 "positive" means at least
MIN_CONSTANT, the smallest normal number: below it 1/A or (1+beta)/B
overflows and every loss value is infinite or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probabilities are clamped away from 0 before any expression involving a
# negative power p**(B-1) (B < 1) or a logarithm; the plain loss values are
# finite on the closed simplex and are left unclamped.
PROB_CLIP = 1e-7

MIN_CONSTANT = float(np.finfo(np.float64).tiny)


class InvalidTuningError(ValueError):
    """Rejected (beta, lambda) pair, with a machine-readable reason tag."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class TuningPair:
    """Admissible tuning pair with its derived constants a and b."""

    beta: float
    lam: float
    a: float
    b: float


def _admissibility(beta, lam):
    """(A, B, rules) of (beta, lambda), elementwise on arrays too.

    rules are make_tuning's admissibility rules in the order it checks
    them, as (reason tag, whether the rule holds) pairs.
    """
    a = 1.0 + lam * (1.0 - beta)
    b = beta - lam * (1.0 - beta)
    return a, b, (
        ("beta_out_of_range", np.isfinite(beta) & np.isfinite(lam)
         & (beta >= 0.0) & (beta <= 1.0)),
        ("a_nonpositive", a >= MIN_CONSTANT),
        ("b_nonpositive", b >= MIN_CONSTANT),
    )


_REJECTIONS = {
    "beta_out_of_range": "beta must lie in [0, 1], got {beta}",
    "a_nonpositive": "A = 1 + lambda*(1-beta) = {a} must be positive",
    "b_nonpositive": "B = beta - lambda*(1-beta) = {b} must be positive",
}


def make_tuning(beta: float, lam: float) -> TuningPair:
    """Validate (beta, lambda) and compute the derived constants.

    Raises InvalidTuningError with reason tag ``beta_out_of_range``,
    ``a_nonpositive`` or ``b_nonpositive`` for pairs outside the
    admissible set.
    """
    beta = float(beta)
    lam = float(lam)
    a, b, rules = _admissibility(beta, lam)
    for reason, holds in rules:
        if not holds:
            raise InvalidTuningError(
                reason, _REJECTIONS[reason].format(beta=beta, a=a, b=b))
    return TuningPair(beta=beta, lam=lam, a=a, b=b)


def clip_probs(probs: np.ndarray) -> np.ndarray:
    return np.clip(probs, PROB_CLIP, 1.0 - PROB_CLIP)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _as_batch(labels, probs):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    single = probs.ndim == 1
    probs = np.atleast_2d(probs)
    if labels.shape[0] != probs.shape[0]:
        raise ValueError("labels and probs have mismatched batch sizes")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError("label index out of range")
    return labels, probs, single


def _one_hot(labels: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    onehot = np.zeros(shape)
    onehot[np.arange(shape[0]), labels] = 1.0
    return onehot


def _sd_values(p: np.ndarray, p_y: np.ndarray, t: TuningPair) -> np.ndarray:
    J = p.shape[1]
    return (
        np.power(p, 1.0 + t.beta).sum(axis=1)
        - (1.0 + t.beta) / t.b * np.power(p_y, t.b)
        + J * t.a / t.b
    ) / t.a


def _sd_grad_probs(p: np.ndarray, onehot: np.ndarray, t: TuningPair) -> np.ndarray:
    pc = clip_probs(p)
    return (1.0 + t.beta) / t.a * (
        np.power(pc, t.beta) - onehot * np.power(pc, t.b - 1.0)
    )


def sd_loss(labels, probs, t: TuningPair):
    """Per-example S-divergence loss between one-hot labels and probs.

    Accepts a single example (int label, length-J probs) or a batch
    ((n,) labels, (n, J) probs).  Note the loss carries the constant
    J*A/B per example, so at probs equal to the one-hot label it equals
    (J-1)/B rather than 0.

    This is the training objective.  Over labels drawn from p_star its
    expectation, sum_j p_star[j] * sd_loss(j, p), weighs p_j**B by
    p_star[j] where conditional_sd_risk weighs it by p_star[j]**A, so it
    is not minimised at p = p_star when A != 1 (its minimiser keeps
    p_star's argmax).
    """
    labels, p, single = _as_batch(labels, probs)
    vals = _sd_values(p, p[np.arange(p.shape[0]), labels], t)
    return float(vals[0]) if single else vals


def sd_loss_grad_probs(labels, probs, t: TuningPair):
    """Gradient of sd_loss with respect to the probability vector."""
    labels, p, single = _as_batch(labels, probs)
    g = _sd_grad_probs(p, _one_hot(labels, p.shape), t)
    return g[0] if single else g


def _chain_softmax(grad_p: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Pull a gradient in probs back through softmax to the logits."""
    inner = (grad_p * p).sum(axis=-1, keepdims=True)
    return p * (grad_p - inner)


def sd_loss_grad_logits(labels, logits, t: TuningPair):
    """Gradient of sd_loss composed with softmax, with respect to logits."""
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    p = softmax(np.atleast_2d(logits))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    g = _chain_softmax(sd_loss_grad_probs(labels, p, t), p)
    return g[0] if single else g


def conditional_sd_risk(p_star, probs, t: TuningPair):
    """S-divergence between a reference distribution p_star and probs.

    A genuine divergence: non-negative, and zero iff probs == p_star.
    This p_star**A form, minimised at p_star, is the objective of the
    Fisher-consistency check (theory.calibration_check) and of the
    influence functions (theory.psi); the expected one-hot sd_loss that
    training minimises is not.  p_star is a (J,) distribution; probs is either one (J,) distribution,
    giving a float, or an (n, J) batch of them, giving an (n,) array.
    """
    p_star = np.asarray(p_star, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if p_star.ndim != 1 or p.ndim not in (1, 2) or p.shape[-1] != p_star.shape[0]:
        raise ValueError(
            f"need a (J,) p_star with (J,) or (n, J) probs, got shapes "
            f"{p_star.shape} and {p.shape}")
    val = (
        np.power(p, 1.0 + t.beta)
        - (1.0 + t.beta) / t.b * np.power(p, t.b) * np.power(p_star, t.a)
        + t.a / t.b * np.power(p_star, 1.0 + t.beta)
    ).sum(axis=-1) / t.a
    return float(val) if p.ndim == 1 else val


def loss_bounds(t: TuningPair, J: int) -> tuple[float, float]:
    """Lower and upper bounds on sum_j sd_loss(e_j, p) over the simplex."""
    if J < 2:
        raise ValueError("J must be at least 2")
    c = (1.0 + t.beta) / (t.a * t.b)
    lower = J ** (1.0 - t.beta) / t.a - c * max(1.0, J ** (1.0 - t.b)) + J * J / t.b
    upper = J / t.a - c * min(1.0, J ** (1.0 - t.b)) + J * J / t.b
    return lower, upper


# ---------------------------------------------------------------------------
# Baseline losses
# ---------------------------------------------------------------------------


def _cce_values(p_y: np.ndarray) -> np.ndarray:
    return -np.log(clip_probs(p_y))


def _trimmed_mean(per: np.ndarray, delta: float) -> tuple[float, np.ndarray]:
    """Mean of per without its ceil(delta * n) largest entries, at most n - 1
    of them, and the mask of the entries kept."""
    n = per.shape[0]
    n_drop = min(int(np.ceil(delta * n)), n - 1)
    # unsorted when nothing is dropped, as the summation order sets the bits
    order = np.argsort(per) if n_drop > 0 else np.arange(n)
    keep = np.ones(n, dtype=bool)
    keep[order[n - n_drop:]] = False
    return float(per[order[: n - n_drop]].mean()), keep


# ---------------------------------------------------------------------------
# Unified loss interface used by the trainer and the attack generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """Selected training loss with its parameters.

    kind is one of {"sd", "cce", "mae", "gce", "tcce"}; tuning applies to
    "sd", q to "gce", delta to "tcce".  For "sd" the objective is the
    batch mean of the one-hot sd_loss, whose population minimiser is not
    p_star when A != 1 (see sd_loss).
    """

    kind: str
    tuning: TuningPair | None = None
    q: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind == "sd" and self.tuning is None:
            raise ValueError("sd loss requires a TuningPair")
        if self.kind == "gce" and (self.q is None or not 0.0 < self.q <= 1.0):
            raise ValueError("gce loss requires q in (0, 1]")
        if self.kind == "tcce" and (self.delta is None or not 0.0 <= self.delta < 1.0):
            raise ValueError("tcce loss requires delta in [0, 1)")
        if self.kind not in ("sd", "cce", "mae", "gce", "tcce"):
            raise ValueError(f"unknown loss kind: {self.kind}")

    def describe(self) -> str:
        if self.kind == "sd":
            return f"sd({self.tuning.beta:g},{self.tuning.lam:g})"
        if self.kind == "gce":
            return f"gce({self.q:g})"
        if self.kind == "tcce":
            return f"tcce({self.delta:g})"
        return self.kind

    def value_and_grad_logits(self, labels, logits):
        """Batch-mean loss and its gradient with respect to the logits.

        The returned gradient is already scaled by 1/batch (1/kept for
        tcce), so summing per-example parameter gradients downstream
        yields the gradient of the batch aggregate.
        """
        logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
        labels, p, _ = _as_batch(labels, softmax(logits))
        return self.value_and_grad_probs(labels, p)

    def value_and_grad_probs(self, labels: np.ndarray, probs: np.ndarray):
        """value_and_grad_logits from probs = softmax(logits) instead.

        Trusts its inputs: labels is an (n,) intp array of classes in
        [0, J) and probs an (n, J) float64 array of softmax rows, as a
        forward pass produces them.
        """
        n, J = probs.shape
        p_y = probs[np.arange(n), labels]
        onehot = _one_hot(labels, (n, J))
        if self.kind == "sd":
            per = _sd_values(probs, p_y, self.tuning)
            grad_p = _sd_grad_probs(probs, onehot, self.tuning)
            return float(np.mean(per)), _chain_softmax(grad_p, probs) / n
        if self.kind == "cce":
            return float(np.mean(_cce_values(p_y))), (probs - onehot) / n
        if self.kind == "mae":
            grad = _chain_softmax(1.0 - 2.0 * onehot, probs) / n
            return float(np.mean(2.0 * (1.0 - p_y))), grad
        if self.kind == "gce":
            pc = clip_probs(p_y)
            per = (1.0 - np.power(pc, self.q)) / self.q
            grad_p = -onehot * np.power(pc, self.q - 1.0)[:, None]
            return float(np.mean(per)), _chain_softmax(grad_p, probs) / n
        # tcce: gradient of the trimmed mean; dropped examples contribute 0
        per = _cce_values(p_y)
        agg, keep = _trimmed_mean(per, self.delta)
        grad = (probs - onehot) * keep[:, None] / keep.sum()
        return agg, grad
