"""Dataset ingestion, synthetic generators, fold plans, and CSV output."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

RESULTS_HEADER = (
    "dataset", "loss", "beta", "lambda", "eta", "attack",
    "fold", "clean_accuracy", "adv_accuracy", "epochs",
)


class DataFormatError(ValueError):
    """Malformed input file or data, with a machine-readable tag."""

    def __init__(self, tag: str, message: str):
        super().__init__(message)
        self.tag = tag


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels in [0, num_classes)."""

    features: np.ndarray   # (n, p) float64
    labels: np.ndarray     # (n,) intp
    num_classes: int
    source: str = "synthetic"

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels have mismatched lengths")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels out of range")
        if not np.isfinite(self.features).all():
            raise DataFormatError("non_finite", "features contain NaN or infinity")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            num_classes=self.num_classes,
            source=self.source,
        )


# ---------------------------------------------------------------------------
# IDX (MNIST distribution format)
# ---------------------------------------------------------------------------


def _read_idx_images(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise DataFormatError("truncated", f"{path}: header shorter than 16 bytes")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError("bad_magic", f"{path}: magic {magic:#010x}")
    expected = 16 + count * rows * cols
    if len(raw) < expected:
        raise DataFormatError("truncated", f"{path}: expected {expected} bytes")
    if len(raw) > expected:
        raise DataFormatError("trailing_bytes", f"{path}: {len(raw) - expected} extra bytes")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def _read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise DataFormatError("truncated", f"{path}: header shorter than 8 bytes")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataFormatError("bad_magic", f"{path}: magic {magic:#010x}")
    if len(raw) < 8 + count:
        raise DataFormatError("truncated", f"{path}: expected {8 + count} bytes")
    if len(raw) > 8 + count:
        raise DataFormatError("trailing_bytes", f"{path}: {len(raw) - 8 - count} extra bytes")
    return np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.intp)


def read_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; strict about sizes and magics."""
    features = _read_idx_images(images_path)
    labels = _read_idx_labels(labels_path)
    if features.shape[0] != labels.shape[0]:
        raise DataFormatError(
            "count_mismatch",
            f"{features.shape[0]} images but {labels.shape[0]} labels",
        )
    return Dataset(features=features, labels=labels,
                   num_classes=max(10, int(labels.max()) + 1 if len(labels) else 10),
                   source="idx_file")


def write_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int):
    """Write a dataset back to an IDX pair (pixel values snapped to bytes)."""
    n = dataset.n
    if rows * cols != dataset.features.shape[1]:
        raise ValueError("rows * cols must equal the feature width")
    pixels = np.rint(dataset.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def posterior_example1(x) -> np.ndarray:
    """Class-1 posterior sigma(sin x + e^x + x^(5/3)).

    The fractional power uses the real branch sign(x)*|x|^(5/3) so that
    negative draws of x stay real-valued.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # exp saturates to inf for huge x
        kappa = np.sin(x) + np.exp(x) + np.sign(x) * np.abs(x) ** (5.0 / 3.0)
    kappa = np.atleast_1d(kappa)
    out = np.empty_like(kappa)
    pos = kappa >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-kappa[pos]))
    e = np.exp(kappa[~pos])
    out[~pos] = e / (1.0 + e)
    return out.reshape(np.shape(x)) if np.ndim(x) else out[0]


def synthetic_example1(n: int, seed: int) -> Dataset:
    """Single-feature binary dataset: x ~ N(0,1), label ~ Bernoulli(p1*(x))."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    p1 = posterior_example1(x)
    labels = (rng.random(n) >= p1).astype(np.intp)  # class 0 with prob p1
    return Dataset(features=x[:, None], labels=labels, num_classes=2)


def synthetic_blobs(n: int, seed: int, centers=((0.35, 0.35), (0.65, 0.65)),
                    spread: float = 0.12) -> Dataset:
    """Two Gaussian blobs in [0,1]^2, clipped to the unit box."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    labels = rng.integers(0, len(centers), n).astype(np.intp)
    features = centers[labels] + spread * rng.standard_normal((n, 2))
    return Dataset(features=np.clip(features, 0.0, 1.0), labels=labels,
                   num_classes=len(centers))


# ---------------------------------------------------------------------------
# Fold plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    k: int
    folds: tuple
    seed: int


def make_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Random partition of [0, n) into k folds with sizes differing by <= 1."""
    if k > n or k < 1:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return FoldPlan(k=k, folds=tuple(np.sort(f) for f in np.array_split(perm, k)),
                    seed=seed)


def fold_split(plan: FoldPlan, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(train indices, validation indices) for fold i."""
    test = plan.folds[i]
    train = np.concatenate([plan.folds[j] for j in range(plan.k) if j != i])
    return np.sort(train), test


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    # float first: it is by far the most common cell (np.float64 included)
    if isinstance(value, float):
        return format(value, ".6g")
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def write_csv(path, header, rows):
    """Plot-ready CSV: the header row, then one line per row of cells.

    Cells are formatted by _fmt: None as empty, str as is, integers and
    bools as integers, other numbers with 6 significant digits.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_results(records, path):
    """Long-format results CSV with a fixed header and 6-significant-digit
    numeric fields.  Each record is a mapping over RESULTS_HEADER keys."""
    write_csv(path, RESULTS_HEADER,
              ([rec.get(key) for key in RESULTS_HEADER] for rec in records))


def read_results(path):
    """Parse-back of write_results output into a list of dicts."""
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


def dump_dataset(dataset: Dataset, features_path, labels_path,
                 flip_mask: np.ndarray | None = None):
    """Features CSV plus labels CSV pair; optional 0/1 flipped column."""
    with open(features_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(dataset.features.shape[1])])
        for row in dataset.features:
            writer.writerow([format(v, ".17g") for v in row])
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if flip_mask is None:
            writer.writerow(["label"])
            for y in dataset.labels:
                writer.writerow([int(y)])
        else:
            writer.writerow(["label", "flipped"])
            for y, m in zip(dataset.labels, flip_mask):
                writer.writerow([int(y), int(m)])


def _read_table(path, parse) -> list:
    """Data rows of a CSV dump, each cell parsed by parse; every row must
    have as many cells as the header."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader, []))
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != width:
                raise DataFormatError(
                    "ragged", f"{where}: {len(row)} cells, header has {width}")
            try:
                rows.append([parse(v) for v in row])
            except ValueError:
                raise DataFormatError("bad_value", f"{where}: {row!r}") from None
    if not (width and rows):
        raise DataFormatError("empty", f"{path}: no columns or no data rows")
    return rows


def load_dataset(features_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Read a dump_dataset pair back; raises DataFormatError (tags empty,
    ragged, bad_value, count_mismatch, bad_label) on malformed files."""
    features = np.array(_read_table(features_path, float))
    try:
        labels = np.array([row[0] for row in _read_table(labels_path, int)],
                          dtype=np.intp)
    except OverflowError:
        raise DataFormatError("bad_label", f"{labels_path}: label too large") from None
    if features.shape[0] != labels.shape[0]:
        raise DataFormatError(
            "count_mismatch",
            f"{features.shape[0]} feature rows but {labels.shape[0]} labels")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DataFormatError(
            "bad_label", f"{labels_path}: labels must lie in [0, {num_classes})")
    return Dataset(features=features, labels=labels, num_classes=num_classes,
                   source="csv")
