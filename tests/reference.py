"""Reference implementations the tests compare the package against.

Each is written out on its own from the formula it states, not through
the package's helpers, so a test comparing the two checks the package
and not a formula against itself.  Only public names are imported.
"""

import csv

import numpy as np

from rsdnet.attacks import attack
from rsdnet.contamination import corrupt_labels
from rsdnet.data_io import (BLOB_CENTERS, CSV_BLOCK_CELLS, RESULTS_HEADER,
                             DataFormatError, Dataset)
from rsdnet.divergence import PROB_CLIP
from rsdnet.network import forward
from rsdnet.optimizer import (ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                              train)
from rsdnet.theory import CalibrationError, CalibrationResult, simplex_grid


def same_bits(a, b):
    """Assert that arrays a and b have one dtype and shape and equal bytes.

    A uint64 view of float32 arrays would compare pairs of their words,
    and an array_equal of float32 with float64 their values."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert a.shape == b.shape, (a.shape, b.shape)
    assert a.tobytes() == b.tobytes()


def reference_clip_probs(p):
    """p clipped to [PROB_CLIP, 1 - PROB_CLIP] by np.clip."""
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def textbook_softmax(z):
    """exp(z - max z) / sum exp(z - max z) over the last axis, in float64,
    with the array methods .max and .sum."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _label_probs(labels, probs):
    """(n,) probabilities of the labelled classes of an (n, J) batch, or of
    one (J,) distribution and an int label."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(labels)
    return probs[np.arange(probs.shape[0]), labels]


def cce_loss(labels, probs):
    """Categorical cross-entropy -log p_y per example, p_y clipped to
    [PROB_CLIP, 1 - PROB_CLIP]."""
    return -np.log(reference_clip_probs(_label_probs(labels, probs)))


def mae_loss(labels, probs):
    """Mean absolute error sum_j |y_j - p_j| = 2(1 - p_y) per example."""
    return 2.0 * (1.0 - _label_probs(labels, probs))


def gce_loss(labels, probs, q):
    """Generalized cross-entropy (1 - p_y**q) / q per example, p_y clipped
    as in cce_loss."""
    p_y = reference_clip_probs(_label_probs(labels, probs))
    return (1.0 - np.power(p_y, q)) / q


def tcce_mean(labels, probs, delta):
    """Mean cce of the batch without its ceil(delta * n) largest losses, at
    most n - 1 of them; the kept losses are summed in ascending order when
    any is dropped and in batch order otherwise."""
    per = cce_loss(labels, probs)
    n = per.shape[0]
    n_drop = min(int(np.ceil(delta * n)), n - 1)
    if n_drop == 0:
        return float(per.mean())
    return float(np.sort(per)[:n - n_drop].mean())


def loss_bounds(t, J):
    """(C_L, C_U): the lower and upper bounds on sum_j sd_loss(e_j, p) over
    the J-class simplex at the tuning pair t, the constants of the
    excess-risk bound eta (C_U - C_L) / (J - 1 - J eta) of Ghosh, Kumar &
    Sastry 2017."""
    if J < 2:
        raise ValueError("J must be at least 2")
    c = (1.0 + t.beta) / (t.a * t.b)
    lower = J ** (1.0 - t.beta) / t.a - c * max(1.0, J ** (1.0 - t.b)) + J * J / t.b
    upper = J / t.a - c * min(1.0, J ** (1.0 - t.b)) + J * J / t.b
    return lower, upper


def glorot_params(arch, seed):
    """Flat parameters: per layer, N(0, 2/(fan_in+fan_out)) weights of shape
    (fan_in, fan_out), row-major, from one generator, then a zero bias."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(arch.dims[:-1], arch.dims[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        parts += [rng.normal(0.0, scale, (fan_in, fan_out)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


def textbook_adam(t, params, grad, m, v):
    """Textbook Adam step t (Kingma and Ba, Algorithm 1), one fresh array
    per expression: returns (params, m, v), the inputs untouched."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return params - ADAM_ALPHA * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


def reference_accuracy(params, arch, dataset):
    """Share of the dataset's rows whose most probable class is the label,
    from one forward pass over the whole set."""
    probs = forward(params, arch, dataset.features).probs
    return float(np.mean(probs.argmax(axis=1) == dataset.labels))


def reference_calibration_check(p_star, t, step):
    """calibration_check as a plain grid search: the conditional SD-risk
    at every point of simplex_grid(J, step), in one batch.

    A point p's risk is sum_j (p_j**(1+beta) - (1+beta)/B * p_j**B *
    p*_j**A + A/B * p*_j**(1+beta)) / A, its J class terms added column by
    column in class order.  (For J < 8 that is numpy's row sum; from
    J = 8 numpy sums a row pairwise, in another order.)  The points are
    ordered by a stable argsort, so among equal risks the first point in
    grid order is the minimiser.  (The default argsort leaves the order of
    equal values to numpy's sort, and its SIMD sort on x86 does not keep
    the first: at step 0.02, p_star = (0.25, 0.25, 0.5) and
    make_tuning(0.5, -0.5) it gives (0.26, 0.24, 0.5).)  gap is the
    second-smallest risk minus the smallest, inf for a one-point grid.
    Raises CalibrationError unless the minimiser's argmax class is one of
    p_star's largest classes.
    """
    p_star = np.asarray(p_star, dtype=np.float64)
    grid = simplex_grid(p_star.shape[0], step)
    terms = (np.power(grid, 1.0 + t.beta)
             - (1.0 + t.beta) / t.b * np.power(grid, t.b) * np.power(p_star, t.a)
             + t.a / t.b * np.power(p_star, 1.0 + t.beta))
    total = terms[:, 0]
    for j in range(1, terms.shape[1]):
        total = total + terms[:, j]
    risks = total / t.a
    order = np.argsort(risks, kind="stable")
    best = grid[order[0]]
    gap = float(risks[order[1]] - risks[order[0]]) if len(order) > 1 else np.inf
    argmax_class = int(best.argmax())
    if p_star[argmax_class] != p_star.max():
        raise CalibrationError(
            f"grid argmin predicts class {argmax_class}, "
            f"but p_star argmax is {int(p_star.argmax())}"
        )
    return CalibrationResult(argmin_point=best, argmax_class=argmax_class, gap=gap)


def runner_up_quadratic(table, prefix, point):
    """The smallest class-order sum of the (J, m + 1) table's entries over
    the compositions of m other than point, with prefix[L] the smallest
    class-order sum of classes 0..L per level sum: for each class L >= 1,
    the smallest sum that last differs from point at L, then point's
    entries of every later class added to it one at a time, in class
    order; O(J**2) scalar additions."""
    J = table.shape[0]
    level_sums = np.cumsum(point)
    second = np.inf
    for L in range(1, J):
        s = level_sums[L]
        sums = prefix[L - 1][s::-1] + table[L, :s + 1]
        sums[point[L]] = np.inf
        value = sums.min()
        for j in range(L + 1, J):
            value = value + table[j, point[j]]
        second = min(second, value)
    return second


def dump_per_block(dataset, features_path, labels_path, flip_mask=None):
    """Reference dump_dataset: the header, then blocks of CSV_BLOCK_CELLS
    // width rows (at least one), each written on its own, every cell
    formatted by % on its own: 17 significant digits for a feature, an
    integer for a label or flip."""
    labels = [dataset.labels]
    if flip_mask is not None:
        labels.append(np.asarray(flip_mask, dtype=np.intp))
    for path, header, table, spec in (
        (features_path, [f"x{j}" for j in range(dataset.features.shape[1])],
         dataset.features, "%.17g"),
        (labels_path, ["label", "flipped"][:len(labels)], np.column_stack(labels),
         "%d"),
    ):
        step = max(1, CSV_BLOCK_CELLS // max(len(header), 1))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(table), step):
                fh.write("".join(",".join(spec % value for value in row) + "\n"
                                 for row in table[start:start + step].tolist()))


def subset(dataset, idx):
    """A copy of the rows idx of dataset, with its class count: what every
    rows= call of the package is compared against."""
    return Dataset(features=dataset.features[idx], labels=dataset.labels[idx],
                   num_classes=dataset.num_classes)


def subset_train(dataset, rows, eta, noise_seed, arch, init_seed, train_cfg,
                 shuffle_seed=0):
    """train on a copy of the rows of dataset, their labels corrupted by
    corrupt_labels at eta and noise_seed: the path that copied each
    fold's training rows before train could gather them in place."""
    noisy, _ = corrupt_labels(subset(dataset, rows), eta, noise_seed)
    return train(noisy, arch, init_seed, train_cfg, shuffle_seed=shuffle_seed)


def attack_fold(dataset, train_idx, val_idx, eta, noise_seed, arch, init_seed,
                train_cfg, shuffle_seed, surrogate, surrogate_seed, surrogate_cfg,
                surrogate_shuffle_seed, attack_cfg):
    """One `train --attack` fold on copies of its rows: the training rows'
    labels corrupted by corrupt_labels at eta and noise_seed, a
    surrogate of architecture surrogate trained on them, those rows
    attacked through it in one attack call, the model trained on the
    attacked copy, and its validation rows attacked against the model.
    Returns the model's params, its clean accuracy on the validation rows
    and its accuracy on their attacked copy (reference_accuracy both)."""
    noisy, _ = corrupt_labels(subset(dataset, train_idx), eta, noise_seed)
    [(surrogate_params, _)] = train(noisy, surrogate, surrogate_seed, surrogate_cfg,
                                    shuffle_seed=surrogate_shuffle_seed)
    attacked = Dataset(features=attack(surrogate_params, surrogate, noisy.features,
                                       noisy.labels, attack_cfg),
                       labels=noisy.labels, num_classes=noisy.num_classes)
    [(params, _)] = train(attacked, arch, init_seed, train_cfg,
                          shuffle_seed=shuffle_seed)
    val = subset(dataset, val_idx)
    adv_val = Dataset(features=attack(params, arch, val.features, val.labels,
                                      attack_cfg),
                      labels=val.labels, num_classes=val.num_classes)
    return (params, reference_accuracy(params, arch, val),
            reference_accuracy(params, arch, adv_val))


def signed_steps(grad, x, epsilon, step_size, iters):
    """iters steps adv = clip(adv + step_size * sign(grad(adv)), lo, hi)
    from adv = x, where [lo, hi] is the epsilon-ball around x clipped to
    the box [0, 1]: PGD, and FGSM as one step of size epsilon.  Every
    step is float64, whatever the dtype of grad's values."""
    x = np.asarray(x, dtype=np.float64)
    lo = np.clip(x - epsilon, 0.0, 1.0)
    hi = np.clip(x + epsilon, 0.0, 1.0)
    adv = x
    for _ in range(iters):
        adv = np.clip(adv + step_size * np.sign(grad(adv), dtype=np.float64),
                      lo, hi)
    return adv


def read_results(path):
    """Rows of a write_results CSV as dicts: "" as None, dataset, loss,
    attack and fold as text, epochs as int, anything else as float."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != RESULTS_HEADER:
            raise DataFormatError("bad_header", f"{path}: unexpected header {header}")
        rows = []
        for raw in reader:
            rec = {}
            for key, val in zip(RESULTS_HEADER, raw):
                if val == "":
                    rec[key] = None
                elif key in ("dataset", "loss", "attack", "fold"):
                    rec[key] = val
                elif key == "epochs":
                    rec[key] = int(val)
                else:
                    rec[key] = float(val)
            rows.append(rec)
        return rows


def overlapping_images(n, seed, classes=10):
    """n flattened 28x28 images of overlapping classes, pixels in [0, 1]
    on the byte grid (k / 255), as a Dataset.

    Each class has a prototype of 7x7 uniform blocks of 4x4 pixels.  An
    image blends its class's prototype with another class's at a weight
    drawn from [0.4, 1] and adds N(0, 0.1) pixel noise; below 0.5 the
    other class dominates, so clean accuracy stays well below 1.
    """
    rng = np.random.default_rng(seed)
    blocks = rng.random((classes, 7, 7))
    protos = blocks.repeat(4, axis=1).repeat(4, axis=2).reshape(classes, 784)
    labels = rng.integers(0, classes, n)
    other = (labels + rng.integers(1, classes, n)) % classes
    w = rng.uniform(0.4, 1.0, (n, 1))
    x = w * protos[labels] + (1.0 - w) * protos[other]
    x += rng.normal(0.0, 0.1, x.shape)
    pixels = np.rint(np.clip(x, 0.0, 1.0) * 255.0)
    return Dataset(features=pixels / 255.0, labels=labels.astype(np.intp),
                   num_classes=classes)


def blobs(n, seed, spread, centers=BLOB_CENTERS):
    """n points of 2-D Gaussian blobs of the given spread, one class per
    row of centers, clipped to [0, 1]^2, as a Dataset: synthetic_blobs'
    draws at any spread and centers."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    labels = rng.integers(0, len(centers), n)
    x = centers[labels] + spread * rng.standard_normal((n, 2))
    return Dataset(features=np.clip(x, 0.0, 1.0), labels=labels.astype(np.intp),
                   num_classes=len(centers))
