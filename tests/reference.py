"""Reference implementations the tests compare the package against.

Each is written out on its own from the formula it states, not through
the package's helpers, so a test comparing the two checks the package
and not a formula against itself.  Only public names are imported.
"""

import csv

import numpy as np

from rsdnet.data_io import RESULTS_HEADER, DataFormatError
from rsdnet.divergence import PROB_CLIP


def _label_probs(labels, probs):
    """(n,) probabilities of the labelled classes of an (n, J) batch, or of
    one (J,) distribution and an int label."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(labels)
    return probs[np.arange(probs.shape[0]), labels]


def cce_loss(labels, probs):
    """Categorical cross-entropy -log p_y per example, p_y clipped to
    [PROB_CLIP, 1 - PROB_CLIP]."""
    return -np.log(np.clip(_label_probs(labels, probs), PROB_CLIP, 1.0 - PROB_CLIP))


def mae_loss(labels, probs):
    """Mean absolute error sum_j |y_j - p_j| = 2(1 - p_y) per example."""
    return 2.0 * (1.0 - _label_probs(labels, probs))


def gce_loss(labels, probs, q):
    """Generalized cross-entropy (1 - p_y**q) / q per example, p_y clipped
    as in cce_loss."""
    p_y = np.clip(_label_probs(labels, probs), PROB_CLIP, 1.0 - PROB_CLIP)
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


def glorot_params(arch, seed):
    """Flat parameters: per layer, N(0, 2/(fan_in+fan_out)) weights of shape
    (fan_in, fan_out), row-major, from one generator, then a zero bias."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(arch.dims[:-1], arch.dims[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        parts += [rng.normal(0.0, scale, (fan_in, fan_out)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


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
