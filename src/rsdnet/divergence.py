"""S-divergence loss family, its gradients, and baseline classification losses.

The family is indexed by a pair (beta, lambda) with derived constants
A = 1 + lambda*(1-beta) and B = beta - lambda*(1-beta).  Only pairs with
A > 0 and B > 0 are admissible; the beta = 1 line collapses to the squared
L2 distance for every lambda.  In float64 "positive" means at least
MIN_CONSTANT, 2**53 times the smallest normal number (about 2e-292).
A + B = 1 + beta, so both are below 2 and every sd_loss value is below
(1 + J)/MIN_CONSTANT: a batch of n values sums to a finite number for n*J
up to 2**52.  At the smallest normal number itself the per-example
constant J*A/B already overflows once J*A > 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probabilities are clamped away from 0 before any expression involving a
# negative power p**(B-1) (B < 1) or a logarithm; the plain loss values are
# finite on the closed simplex and are left unclamped.
PROB_CLIP = 1e-7

MIN_CONSTANT = float(np.finfo(np.float64).tiny) * 2**53


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
    """probs clipped to [PROB_CLIP, 1 - PROB_CLIP], with the bits of
    np.clip: maximum then minimum is that clip, since the bounds are
    ordered, and a NaN stays NaN.  The ufuncs are called directly, as
    np.clip passes through Python wrappers first."""
    return np.minimum(np.maximum(probs, PROB_CLIP), 1.0 - PROB_CLIP)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, in float64.  The
    reductions are the ufuncs' own, which .max and .sum would reach
    through Python wrappers."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _sigmoid(z):
    """1 / (1 + exp(-z)) in float64, with the bits of softmax over (z, 0)'s
    first entry wherever z is finite, 1 at +inf and 0 at -inf; the exp
    never overflows.  A scalar z gives a 0-d array."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_labels(labels, n: int, J: int) -> np.ndarray:
    """labels as an (n,) intp array of classes in [0, J); ValueError if the
    count is not n or a label lies outside.  No labels pass for n = 0."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    if labels.shape[0] != n:
        raise ValueError(f"{labels.shape[0]} labels for a batch of {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= J):
        raise ValueError("label index out of range")
    return labels


def _one_hot(labels: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    onehot = np.zeros(shape)
    onehot[np.arange(shape[0]), labels] = 1.0
    return onehot


def _label_terms(labels: np.ndarray, probs: np.ndarray):
    """(p_y, onehot) of the (n,) labels for probs, (n, J) rows or a (K, n, J)
    stack of them: the labelled classes' entries of probs, (n,) or (K, n),
    and the (n, J) one-hot rows, set up once for all K."""
    return (probs[..., np.arange(probs.shape[-2]), labels],
            _one_hot(labels, probs.shape[-2:]))


def _sd_values(p: np.ndarray, p_y: np.ndarray, t: TuningPair) -> np.ndarray:
    J = p.shape[1]
    return (
        np.add.reduce(np.power(p, 1.0 + t.beta), axis=1)
        - (1.0 + t.beta) / t.b * np.power(p_y, t.b)
        + J * t.a / t.b
    ) / t.a


def sd_loss(labels, probs, t: TuningPair):
    """Per-example S-divergence loss between one-hot labels and probs.

    Takes (n,) labels and (n, J) probs and returns (n,) values; an int
    label with (J,) probs is a batch of one.  Note the loss carries the constant
    J*A/B per example, so at probs equal to the one-hot label it equals
    (J-1)/B rather than 0.

    This is the training objective.  Over labels drawn from p_star its
    expectation, sum_j p_star[j] * sd_loss(j, p), weighs p_j**B by
    p_star[j] where conditional_sd_risk weighs it by p_star[j]**A, so it
    is not minimised at p = p_star when A != 1 (its minimiser keeps
    p_star's argmax).
    """
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = _check_labels(labels, *p.shape)
    return _sd_values(p, p[np.arange(p.shape[0]), labels], t)


def conditional_sd_risk(p_star, probs, t: TuningPair):
    """S-divergence between a reference distribution p_star and probs.

    A genuine divergence: non-negative, and zero iff probs == p_star.
    This p_star**A form, minimised at p_star, is the objective of the
    Fisher-consistency check (theory.calibration_check) and of the
    influence functions (theory.psi); the expected one-hot sd_loss that
    training minimises is not.  p_star is a (J,) distribution and probs an
    (n, J) batch of them; the result is (n,).
    """
    p_star = np.asarray(p_star, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if p_star.ndim != 1 or p.ndim != 2 or p.shape[1] != p_star.shape[0]:
        raise ValueError(
            f"need a (J,) p_star with (n, J) probs, got shapes "
            f"{p_star.shape} and {p.shape}")
    return _risk_terms(p, p_star, t).sum(axis=1) / t.a


def _risk_terms(p, p_star, t: TuningPair):
    """The per-class terms of conditional_sd_risk, before the sum over
    classes and the division by A, element-wise with broadcasting."""
    return (
        np.power(p, 1.0 + t.beta)
        - (1.0 + t.beta) / t.b * np.power(p, t.b) * np.power(p_star, t.a)
        + t.a / t.b * np.power(p_star, 1.0 + t.beta)
    )


# ---------------------------------------------------------------------------
# Baseline losses
# ---------------------------------------------------------------------------


def _cce_values(p_y: np.ndarray) -> np.ndarray:
    return -np.log(clip_probs(p_y))


def _trimmed(per: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """per without its ceil(delta * n) largest entries, at most n - 1 of
    them, and the mask of the entries kept."""
    n = per.shape[0]
    n_drop = min(int(np.ceil(delta * n)), n - 1)
    # unsorted when nothing is dropped, as the summation order sets the bits
    order = np.argsort(per) if n_drop > 0 else np.arange(n)
    keep = np.ones(n, dtype=bool)
    keep[order[n - n_drop:]] = False
    return per[order[: n - n_drop]], keep


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
        for name, owner in (("tuning", "sd"), ("q", "gce"), ("delta", "tcce")):
            if self.kind != owner and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} loss takes no {name}; "
                                 f"{name} applies to {owner} only")

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
        yields the gradient of the batch aggregate.  Checks the labels,
        raises ValueError on an empty batch, whose mean is undefined, for
        every kind, then runs the kernel _value_and_grad on the labels'
        _label_terms, as train does.
        """
        p = softmax(np.atleast_2d(logits))
        labels = _check_labels(labels, *p.shape)
        if p.shape[0] == 0:
            raise ValueError("empty batch: a batch-mean loss needs a row")
        return self._value_and_grad(p, *_label_terms(labels, p))

    def _value_and_grad(self, probs: np.ndarray, p_y: np.ndarray,
                        onehot: np.ndarray):
        """value_and_grad_logits' kernel, which train runs for each model of
        a batch: from the (n, J) probs = softmax(logits), their labelled
        entries p_y and the (n, J) one-hot labels, which _label_terms sets
        up once for all models.  Trusts its inputs.

        Every kind's gradient is a per-example label weight times the CCE
        gradient probs - onehot, over n (the kept count for tcce): 1 for
        cce, 2 p_y for mae, p_y**q for gce, (1+beta)/A * p_y**B for sd and
        the kept mask for tcce, a power p_y**c taken as p_y * pc_y**(c-1)
        with pc = clip_probs(probs).  sd adds a term free of the label,
        (1+beta)/A * probs * (pc**beta - sum_j probs_j * pc_j**beta)."""
        n, weight, free = probs.shape[0], None, None
        if self.kind == "cce":
            per = _cce_values(p_y)
        elif self.kind == "tcce":
            # the trimmed mean's gradient: a dropped example weighs 0
            per, weight = _trimmed(_cce_values(p_y), self.delta)
            n = per.shape[0]
        elif self.kind == "mae":
            per, weight = 2.0 * (1.0 - p_y), 2.0 * p_y
        elif self.kind == "gce":
            pc = clip_probs(p_y)
            per = (1.0 - np.power(pc, self.q)) / self.q
            weight = p_y * np.power(pc, self.q - 1.0)
        else:
            t = self.tuning
            per = _sd_values(probs, p_y, t)
            scale = (1.0 + t.beta) / t.a
            weight = scale * p_y * np.power(clip_probs(p_y), t.b - 1.0)
            pb = np.power(clip_probs(probs), t.beta)
            free = scale * probs * (pb - np.add.reduce(probs * pb, axis=-1,
                                                       keepdims=True))
        grad = probs - onehot
        if weight is not None:
            grad *= weight[:, None]
        if free is not None:
            grad += free
        grad /= n
        return float(np.add.reduce(per) / n), grad
