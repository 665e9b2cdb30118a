"""Dataset ingestion, synthetic generators, fold plans, and file formats.

One codec per format: IDX pairs through _read_idx and _write_idx;
plot-ready CSV through write_csv, column-wise (6 significant digits, one
formatting rule per column, written in blocks of rows);
exact CSV dumps through dump_dataset (numpy's row formatter, 17
significant digits, so float64 round-trips), read back by load_dataset.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# rows formatted and written at a time by write_csv: bounds the text held
CSV_BLOCK_ROWS = 4096

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
    """Feature matrix with integer labels in [0, num_classes); a breach of
    either rule raises DataFormatError (count_mismatch, bad_label, non_finite)."""

    features: np.ndarray   # (n, p) float64
    labels: np.ndarray     # (n,) intp
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        rows, count = self.features.shape[0], self.labels.shape[0]
        if rows != count:
            raise DataFormatError("count_mismatch",
                                  f"{rows} feature rows but {count} labels")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DataFormatError(
                "bad_label", f"labels must lie in [0, {self.num_classes})")
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
        )


# ---------------------------------------------------------------------------
# IDX (MNIST distribution format)
# ---------------------------------------------------------------------------


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 body of an IDX file with the given magic, in the shape its
    header gives (the magic's low byte counts the big-endian u32 dims)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = 4 + 4 * (magic & 0xFF)
    if len(raw) < head:
        raise DataFormatError("truncated", f"{path}: header shorter than {head} bytes")
    found, *dims = struct.unpack(f">{head // 4}I", raw[:head])
    if found != magic:
        raise DataFormatError("bad_magic", f"{path}: magic {found:#010x}")
    # Python ints: u32 dims can multiply past int64
    expected = head + math.prod(dims)
    if len(raw) < expected:
        raise DataFormatError("truncated", f"{path}: expected {expected} bytes")
    if len(raw) > expected:
        raise DataFormatError("trailing_bytes", f"{path}: {len(raw) - expected} extra bytes")
    return np.frombuffer(raw, dtype=np.uint8, offset=head).reshape(dims)


def _write_idx(path, magic: int, array: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        fh.write(array.tobytes())


def read_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; strict about sizes and magics."""
    pixels = _read_idx(images_path, IDX_IMAGES_MAGIC)
    count, rows, cols = pixels.shape
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC).astype(np.intp)
    return Dataset(features=features, labels=labels,
                   num_classes=max(10, int(labels.max()) + 1 if len(labels) else 10))


def write_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int):
    """Write a dataset back to an IDX pair (pixel values snapped to bytes)."""
    if rows * cols != dataset.features.shape[1]:
        raise ValueError("rows * cols must equal the feature width")
    pixels = np.rint(dataset.features * 255.0).astype(np.uint8)
    _write_idx(images_path, IDX_IMAGES_MAGIC, pixels.reshape(dataset.n, rows, cols))
    _write_idx(labels_path, IDX_LABELS_MAGIC, dataset.labels.astype(np.uint8))


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


def make_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Random partition of [0, n) into k >= 2 folds, sizes differing by <= 1."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= folds <= n, got {k} folds for n = {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return FoldPlan(k=k, folds=tuple(np.sort(f) for f in np.array_split(perm, k)))


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


def _quote(text: str) -> str:
    """A cell as csv.writer's QUOTE_MINIMAL writes it: wrapped in double
    quotes, inner quotes doubled, if it holds a comma, a quote or a line
    break.  "\r" counts as a line break, which Python 3.11's csv.writer
    leaves unquoted although its reader ends the row there."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_text(column):
    """A function from a row slice to the text of column's cells in it, by
    one rule chosen here for the whole column (see write_csv)."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind not in ("f", "b", "i", "u"):
        return lambda rows: [_quote(_fmt(value)) for value in column[rows]]
    values = np.ma.getdata(column)
    missing = np.ma.getmask(column)
    if kind == "f":
        values = values.astype(np.float64, copy=False)  # as _fmt's float(value)
    elif kind == "b":
        values = values.view(np.uint8)
    # equal bits, not equal values: -0.0 and 0.0 format differently
    bits = values.view(f"u{values.itemsize}")
    spec = ".6g" if kind == "f" else ""  # format(int, "") == str(int)

    def text(rows):
        # each distinct value of the block is formatted once; plain Python
        # numbers from .tolist() format fastest
        distinct, where = np.unique(bits[rows], return_inverse=True)
        words = map(format, distinct.view(values.dtype).tolist(), repeat(spec))
        cells = np.array(list(words), dtype=object)[where]
        if missing is not np.ma.nomask:
            cells[missing[rows]] = ""
        return cells.tolist()

    return text


def _lines(cells_by_column) -> str:
    """CSV lines, each ending in a newline, from the cell texts of each
    column; csv.writer quotes a row's only cell if it is empty."""
    lines = map(",".join, zip(*cells_by_column))
    if len(cells_by_column) == 1:
        lines = (line or '""' for line in lines)
    return "\n".join(lines) + "\n"


def write_csv(path, header, columns):
    """Plot-ready CSV: the header row, then one line per row, from one
    sequence of cells per header name.

    Float arrays are written with 6 significant digits, bool and integer
    arrays as integers, and the masked cells of a numpy masked array as
    empty.  Any other column goes cell by cell through _fmt: None as
    empty, str as is, integers and bools as integers, other numbers with
    6 significant digits.  Rows are written CSV_BLOCK_ROWS at a time.
    """
    if not header or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(header)} "
                         f"names and {len(columns)} columns")
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns differ in length")
    texts = [_column_text(column) for column in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([[_quote(name)] for name in header]))
        for start in range(0, n, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            fh.write(_lines([text(rows) for text in texts]))


def write_results(records, path):
    """Long-format results CSV with a fixed header and 6-significant-digit
    numeric fields.  Each record is a mapping over RESULTS_HEADER keys."""
    write_csv(path, RESULTS_HEADER,
              [[rec.get(key) for rec in records] for key in RESULTS_HEADER])


def dump_dataset(dataset: Dataset, features_path, labels_path,
                 flip_mask: np.ndarray | None = None):
    """Features CSV (17 significant digits: float64 round-trips) plus
    labels CSV pair; optional 0/1 flipped column."""
    label_columns = {"label": dataset.labels}
    if flip_mask is not None:
        label_columns["flipped"] = flip_mask
    for path, names, table, fmt in (
        (features_path, [f"x{j}" for j in range(dataset.features.shape[1])],
         dataset.features, "%.17g"),
        (labels_path, list(label_columns),
         np.column_stack(list(label_columns.values())), "%d"),
    ):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")  # savetxt skips an empty header
            np.savetxt(fh, table, fmt=fmt, delimiter=",")


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
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(features=features, labels=labels, num_classes=num_classes)
