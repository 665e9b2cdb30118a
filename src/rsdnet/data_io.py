"""Dataset ingestion, synthetic generators, fold plans, and file formats.

One codec per format: IDX pairs through _read_idx and _write_idx;
plot-ready CSV through write_csv (6 significant digits, one formatting
rule per column) and exact CSV dumps through dump_dataset (17 significant
digits, so float64 round-trips), read back by load_dataset.  Both CSV
writers go through _write_table: blocks of about CSV_BLOCK_CELLS cells,
each distinct value of a block formatted once (_distinct_text).
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

# cells formatted and written at a time by write_csv and dump_dataset (at
# least one row): bounds the text held, however wide the table
CSV_BLOCK_CELLS = 16384

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
    """Feature matrix with integer labels in [0, num_classes), at least 2
    classes; a breach of these rules raises DataFormatError (count_mismatch,
    bad_label, one_class, non_finite)."""

    features: np.ndarray   # (n, p) float64; a network casts each batch
                           # it takes to its own dtype (ArchitectureSpec)
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
        if self.num_classes < 2:
            raise DataFormatError(
                "one_class", f"need at least 2 classes, got {self.num_classes}")
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
    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0  # in place: one float64 copy of the images, not two
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC).astype(np.intp)
    return Dataset(features=features, labels=labels,
                   num_classes=max(10, int(labels.max()) + 1 if len(labels) else 10))


def write_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int):
    """Write a dataset back to an IDX pair (pixel values snapped to bytes).

    IDX holds bytes, so a feature outside [0, 1] (tag outside_box) or a
    label above 255 (tag bad_label) raises DataFormatError before either
    file is opened, rather than wrap round."""
    if rows * cols != dataset.features.shape[1]:
        raise ValueError("rows * cols must equal the feature width")
    features = dataset.features
    outside = np.count_nonzero((features < 0.0) | (features > 1.0))
    if outside:
        raise DataFormatError(
            "outside_box", f"{outside} of {features.size} features lie outside "
            "[0, 1], which IDX pixel bytes cannot hold")
    top = dataset.labels.max(initial=0)
    if top > 255:
        raise DataFormatError("bad_label", f"IDX label bytes cannot hold label {top}")
    pixels = np.rint(features * 255.0).astype(np.uint8)
    _write_idx(images_path, IDX_IMAGES_MAGIC, pixels.reshape(dataset.n, rows, cols))
    _write_idx(labels_path, IDX_LABELS_MAGIC, dataset.labels.astype(np.uint8))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def posterior_example1(x) -> np.ndarray:
    """Class-1 posterior sigma(sin x + e^x + x^(5/3)), in x's shape (a
    scalar x is a batch of one).

    The fractional power uses the real branch sign(x)*|x|^(5/3) so that
    negative draws of x stay real-valued.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore"):  # exp saturates to inf for huge x
        kappa = np.sin(x) + np.exp(x) + np.sign(x) * np.abs(x) ** (5.0 / 3.0)
    out = np.empty_like(kappa)
    pos = kappa >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-kappa[pos]))
    e = np.exp(kappa[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def synthetic_example1(n: int, seed: int) -> Dataset:
    """Single-feature binary dataset: x ~ N(0,1), label ~ Bernoulli(p1*(x))."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    p1 = posterior_example1(x)
    labels = (rng.random(n) >= p1).astype(np.intp)  # class 0 with prob p1
    return Dataset(features=x[:, None], labels=labels, num_classes=2)


# synthetic_blobs' class centers, one row each, and their common spread
BLOB_CENTERS = ((0.35, 0.35), (0.65, 0.65))
BLOB_SPREAD = 0.12


def synthetic_blobs(n: int, seed: int) -> Dataset:
    """Two Gaussian blobs of spread BLOB_SPREAD around BLOB_CENTERS, one
    per class, clipped to the unit box [0,1]^2."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(BLOB_CENTERS), n).astype(np.intp)
    features = np.array(BLOB_CENTERS)[labels] + BLOB_SPREAD * rng.standard_normal((n, 2))
    return Dataset(features=np.clip(features, 0.0, 1.0), labels=labels,
                   num_classes=len(BLOB_CENTERS))


# ---------------------------------------------------------------------------
# Cross-validation folds
# ---------------------------------------------------------------------------


def make_folds(n: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The k (train indices, validation indices) pairs of a random
    partition of [0, n) into k >= 2 folds, sizes differing by <= 1.

    Fold i validates on part i and trains on the other parts; both index
    arrays are sorted.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= folds <= n, got {k} folds for n = {n}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = [np.sort(part) for part in np.array_split(perm, k)]
    return [(np.sort(np.concatenate(parts[:i] + parts[i + 1:])), parts[i])
            for i in range(k)]


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


def _distinct_text(values: np.ndarray, spec: str) -> np.ndarray:
    """The text of each cell of values under the %-format spec, as an
    object array of values' shape.  Each distinct bit pattern is formatted
    once (equal bits, not equal values: -0.0 and 0.0 format differently),
    all of them by one % call, as savetxt formats a row."""
    bits = values.view(f"u{values.itemsize}").ravel()
    distinct, where = np.unique(bits, return_inverse=True)
    words = "\n".join(repeat(spec, distinct.size)) % tuple(
        distinct.view(values.dtype).tolist())  # plain Python numbers
    return np.array(words.split("\n"), dtype=object)[where].reshape(values.shape)


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
    spec = "%.6g" if kind == "f" else "%d"

    def text(rows):
        cells = _distinct_text(values[rows], spec)
        if missing is not np.ma.nomask:
            cells[missing[rows]] = ""
        return cells.tolist()

    return text


def _lines(rows, width: int) -> str:
    """CSV lines, each ending in a newline, from rows of width cell texts;
    csv.writer quotes a row's only cell if it is empty."""
    lines = map(",".join, rows)
    if width == 1:
        lines = (line or '""' for line in lines)
    return "\n".join(lines) + "\n"


def _write_table(path, header, n: int, block_rows):
    """The header row, then n rows, taken from block_rows(row slice) in
    blocks of about CSV_BLOCK_CELLS cells."""
    width = len(header)
    step = max(1, CSV_BLOCK_CELLS // max(width, 1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([header], width))
        for start in range(0, n, step):
            fh.write(_lines(block_rows(slice(start, start + step)), width))


def write_csv(path, header, columns):
    """Plot-ready CSV: the header row, then one line per row, from one
    sequence of cells per header name.

    Float arrays are written with 6 significant digits, bool and integer
    arrays as integers, and the masked cells of a numpy masked array as
    empty.  Any other column goes cell by cell through _fmt: None as
    empty, str as is, integers and bools as integers, other numbers with
    6 significant digits.
    """
    if not header or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(header)} "
                         f"names and {len(columns)} columns")
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns differ in length")
    texts = [_column_text(column) for column in columns]
    _write_table(path, [_quote(name) for name in header], n,
                 lambda rows: zip(*[text(rows) for text in texts]))


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
    for path, names, table, spec in (
        (features_path, [f"x{j}" for j in range(dataset.features.shape[1])],
         dataset.features.astype(np.float64, copy=False), "%.17g"),
        (labels_path, list(label_columns),
         np.column_stack(list(label_columns.values())), "%d"),
    ):
        _write_table(path, names, len(table),
                     lambda rows: _distinct_text(table[rows], spec).tolist())


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
