"""Output checks.  Each returns a list of problems; an empty list passes.

The checks recompute what they can without rsdnet (closed-form bound,
epsilon-ball limits, row layouts), so that a wrong result cannot pass by
agreeing with itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

RESULTS_HEADER = ["dataset", "loss", "beta", "lambda", "eta", "attack",
                  "fold", "clean_accuracy", "adv_accuracy", "epochs"]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_identical(reference: dict[str, str], current: dict[str, str]) -> list[str]:
    """Every output matches the first pass of the run, byte for byte."""
    if reference.keys() != current.keys():
        return [f"output set changed: {sorted(reference)} -> {sorted(current)}"]
    return [f"{name} differs from the first pass"
            for name in reference if reference[name] != current[name]]


def check_epochs_csv(path: Path, losses: list[str], epochs: int,
                     floor: float) -> tuple[list[str], float]:
    """Per-epoch traces: loss-major rows, finite values, accuracy floor.

    Returns the problems and the mean final-epoch test accuracy.
    """
    rows = _read_csv(path)
    if rows[:1] != [["loss", "epoch", "train_loss", "test_accuracy"]]:
        return [f"bad header {rows[:1]}"], float("nan")
    body = rows[1:]
    if len(body) != len(losses) * epochs:
        return [f"{len(body)} rows, expected {len(losses) * epochs}"], float("nan")
    problems = []
    final = []
    for k, row in enumerate(body):
        loss, epoch = losses[k // epochs], k % epochs + 1
        if len(row) != 4 or row[0] != loss or row[1] != str(epoch):
            problems.append(f"row {k + 1} is {row}, expected {loss} epoch {epoch}")
            continue
        if not (_finite(row[2]) and _finite(row[3])) or not 0 <= float(row[3]) <= 1:
            problems.append(f"row {k + 1} has bad values {row[2:]}")
            continue
        if epoch == epochs:
            final.append(float(row[3]))
    acc = float(np.mean(final)) if len(final) == len(losses) else float("nan")
    if not acc >= floor:
        problems.append(f"mean final test accuracy {acc:.4f} below {floor}")
    return problems, acc


def check_results_csv(path: Path, folds: int, floor: float) -> tuple[list[str], float]:
    """Cross-validation results: one row per fold plus the mean row.

    Returns the problems and the mean clean accuracy.
    """
    rows = _read_csv(path)
    if rows[:1] != [RESULTS_HEADER]:
        return [f"bad header {rows[:1]}"], float("nan")
    body = rows[1:]
    expected = [str(f) for f in range(folds)] + ["mean"]
    if [r[6] if len(r) == len(RESULTS_HEADER) else None for r in body] != expected:
        return [f"fold column is not {expected}"], float("nan")
    col = RESULTS_HEADER.index("clean_accuracy")
    if not all(_finite(r[col]) and 0 <= float(r[col]) <= 1 for r in body):
        return ["clean_accuracy not a finite value in [0, 1]"], float("nan")
    accs = [float(r[col]) for r in body]
    problems = []
    if abs(np.mean(accs[:-1]) - accs[-1]) > 1e-5:
        problems.append(f"mean row {accs[-1]} is not the fold mean {np.mean(accs[:-1])}")
    if not accs[-1] >= floor:
        problems.append(f"mean clean accuracy {accs[-1]:.4f} below {floor}")
    return problems, accs[-1]


def check_attack_dump(features_path: Path, labels_path: Path, x: np.ndarray,
                      labels: np.ndarray, epsilon: float,
                      min_moved: float) -> list[str]:
    """Attacked features stay in [x - eps, x + eps] and [0, 1]; labels unchanged.

    min_moved is the smallest share of features the attack must change,
    which catches an attack that returns its input.
    """
    adv = np.loadtxt(features_path, delimiter=",", skiprows=1, ndmin=2)
    got_labels = np.loadtxt(labels_path, delimiter=",", skiprows=1, dtype=np.int64,
                            ndmin=1)
    if adv.shape != x.shape:
        return [f"features shape {adv.shape}, expected {x.shape}"]
    problems = []
    if not np.isfinite(adv).all():
        problems.append("non-finite attacked features")
    lo = np.maximum(x - epsilon, 0.0)
    hi = np.minimum(x + epsilon, 1.0)
    outside = int(((adv < lo) | (adv > hi)).sum())
    if outside:
        problems.append(f"{outside} features outside the epsilon-ball and box")
    moved = float(np.mean(adv != x))
    if moved < min_moved:
        problems.append(f"attack changed only {moved:.3f} of features")
    if got_labels.shape != labels.shape or (got_labels != labels).any():
        problems.append("labels changed by the attack dump")
    return problems


def bound_closed_form(eta: float, J: int, resolution: int):
    """(betas, lambdas, admissible, values) of the excess-risk bound grid."""
    betas = np.linspace(0.0, 1.0, resolution)
    lambdas = np.linspace(-1.0, 1.0, resolution)
    beta, lam = np.meshgrid(betas, lambdas, indexing="ij")
    a = 1.0 + lam * (1.0 - beta)
    b = beta - lam * (1.0 - beta)
    admissible = (a > 0) & (b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = J - np.power(float(J), 1.0 - beta) + (1.0 + beta) / b * np.abs(
            1.0 - np.power(float(J), 1.0 - b))
        values = eta / (J - 1 - J * eta) * inner / a
    return betas, lambdas, admissible, values


def check_bound_csv(path: Path, eta: float, J: int, resolution: int) -> list[str]:
    """Every cell of the bound grid against the closed form."""
    rows = _read_csv(path)
    if rows[:1] != [["beta", "lambda", "admissible", "value"]]:
        return [f"bad header {rows[:1]}"]
    body = rows[1:]
    if len(body) != resolution * resolution:
        return [f"{len(body)} rows, expected {resolution * resolution}"]
    betas, lambdas, admissible, values = bound_closed_form(eta, J, resolution)
    problems = []
    for k, row in enumerate(body):
        i, j = divmod(k, resolution)
        want = [format(betas[i], ".6g"), format(lambdas[j], ".6g"),
                str(int(admissible[i, j]))]
        if len(row) != 4 or row[:3] != want:
            problems.append(f"row {k + 1} is {row}, expected {want} and a value")
        elif not admissible[i, j]:
            if row[3] != "":
                problems.append(f"row {k + 1} has a value for an inadmissible pair")
        elif not (_finite(row[3]) and math.isclose(float(row[3]), values[i, j],
                                                   rel_tol=1e-5)):
            problems.append(f"row {k + 1} value {row[3]}, closed form {values[i, j]:.6g}")
        if len(problems) >= 5:
            break
    return problems


def check_influence_csv(path: Path, grid: np.ndarray, n_params: int) -> list[str]:
    """One finite value per (grid point, parameter), grid-major."""
    rows = _read_csv(path)
    if rows[:1] != [["x_t", "param_index", "value"]]:
        return [f"bad header {rows[:1]}"]
    body = rows[1:]
    if len(body) != len(grid) * n_params:
        return [f"{len(body)} rows, expected {len(grid) * n_params}"]
    for k, row in enumerate(body):
        i, p = divmod(k, n_params)
        if len(row) != 3 or row[:2] != [format(grid[i], ".6g"), str(p)] \
                or not _finite(row[2]):
            return [f"row {k + 1} is {row}"]
    return []


def check_calibration(p_star: np.ndarray, result) -> list[str]:
    """calibration_check returned (rather than raised) a simplex point whose
    argmax is p_star's argmax."""
    if isinstance(result, Exception):
        return [f"{type(result).__name__}: {result}"]
    problems = []
    point = np.asarray(result.argmin_point)
    if abs(point.sum() - 1.0) > 1e-9 or (point < 0).any():
        problems.append(f"argmin point {point} is not on the simplex")
    if result.argmax_class != int(np.argmax(p_star)):
        problems.append(f"argmax class {result.argmax_class}, "
                        f"p_star argmax {int(np.argmax(p_star))}")
    return problems
