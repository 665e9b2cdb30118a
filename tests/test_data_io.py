"""Tests for IDX parsing, synthetic data, fold plans and CSV round trips."""

import csv
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rsdnet.data_io import (
    CSV_BLOCK_CELLS,
    RESULTS_HEADER,
    DataFormatError,
    Dataset,
    dump_dataset,
    load_dataset,
    make_folds,
    posterior_example1,
    read_idx,
    synthetic_blobs,
    synthetic_example1,
    write_csv,
    write_idx,
    write_results,
)

from reference import read_results


def write_idx_pair(tmp_path, images, labels, rows=2, cols=2,
                   images_magic=0x803, labels_magic=0x801,
                   extra_image_bytes=b"", truncate_images=0):
    """Hand-assembled IDX pair for format tests."""
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    body = struct.pack(">IIII", images_magic, len(images), rows, cols)
    body += bytes(np.asarray(images, dtype=np.uint8).ravel()) + extra_image_bytes
    if truncate_images:
        body = body[:-truncate_images]
    img_path.write_bytes(body)
    lab_path.write_bytes(struct.pack(">II", labels_magic, len(labels))
                         + bytes(labels))
    return str(img_path), str(lab_path)


class TestIdx:
    def test_small_fixture(self, tmp_path):
        images = [[0, 255, 128, 0], [255, 255, 0, 64]]
        img, lab = write_idx_pair(tmp_path, images, [3, 7])
        ds = read_idx(img, lab)
        assert ds.features.shape == (2, 4)
        # byte 255 maps to exactly 1.0
        np.testing.assert_allclose(ds.features[0], [0.0, 1.0, 128 / 255, 0.0])
        np.testing.assert_array_equal(ds.labels, [3, 7])
        assert ds.num_classes == 10

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1],
                                  images_magic=0x804)
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == "bad_magic"

    def test_bad_label_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1],
                                  labels_magic=0x803)
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == "bad_magic"

    def test_truncated(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1],
                                  truncate_images=2)
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == "truncated"

    def test_trailing_bytes(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1],
                                  extra_image_bytes=b"\x00\x00")
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == "trailing_bytes"

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1, 2])
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == "count_mismatch"

    @pytest.mark.parametrize("which", ["images", "labels"])
    @pytest.mark.parametrize("damage, tag", [
        (lambda raw: raw[:7], "truncated"),
        (lambda raw: raw[:-1], "truncated"),
        (lambda raw: raw + b"\x00", "trailing_bytes"),
    ], ids=["short_header", "short_body", "trailing_bytes"])
    def test_size_tags_of_either_file(self, tmp_path, which, damage, tag):
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1])
        path = Path(img if which == "images" else lab)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == tag

    def test_dims_multiplying_past_int64(self, tmp_path):
        # (2**32 - 1)**3 images' worth of bytes: short, not an overflow
        img, lab = write_idx_pair(tmp_path, [[0, 0, 0, 0]], [1])
        Path(img).write_bytes(struct.pack(">IIII", 0x803, *[2**32 - 1] * 3) + bytes(4))
        with pytest.raises(DataFormatError) as err:
            read_idx(img, lab)
        assert err.value.tag == "truncated"

    def test_empty_pair(self, tmp_path):
        ds = Dataset(features=np.zeros((0, 6)), labels=np.zeros(0, dtype=np.intp),
                     num_classes=3)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(ds, img, lab, rows=2, cols=3)
        assert img.read_bytes() == struct.pack(">IIII", 0x803, 0, 2, 3)
        assert lab.read_bytes() == struct.pack(">II", 0x801, 0)
        back = read_idx(img, lab)
        assert back.features.shape == (0, 6) and back.features.dtype == np.float64
        assert back.labels.shape == (0,) and back.labels.dtype == np.intp
        assert back.num_classes == 10

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 256, (5, 9)) / 255.0
        ds = Dataset(features=features,
                     labels=rng.integers(0, 10, 5).astype(np.intp),
                     num_classes=10)
        img = str(tmp_path / "img.idx")
        lab = str(tmp_path / "lab.idx")
        write_idx(ds, img, lab, rows=3, cols=3)
        back = read_idx(img, lab)
        np.testing.assert_allclose(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_write_checks_the_image_shape(self, tmp_path):
        ds = synthetic_blobs(4, seed=0)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        with pytest.raises(ValueError, match="feature width"):
            write_idx(ds, img, lab, rows=2, cols=2)
        assert list(tmp_path.iterdir()) == []


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)),
                    labels=np.zeros(4, dtype=np.intp), num_classes=2)
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)),
                    labels=np.array([0, 1, 2], dtype=np.intp), num_classes=2)
        with pytest.raises(ValueError, match="2-D"):
            Dataset(features=np.zeros(3), labels=np.zeros(3, dtype=np.intp),
                    num_classes=2)

    @pytest.mark.parametrize("labels, tag", [
        ([0, 1, 1, 0], "count_mismatch"),
        ([0, 1, 2], "bad_label"),
        ([0, -1, 1], "bad_label"),
    ], ids=["count_mismatch", "label_too_large", "negative_label"])
    def test_rule_breaches_are_tagged(self, labels, tag):
        with pytest.raises(DataFormatError) as err:
            Dataset(features=np.zeros((3, 2)),
                    labels=np.array(labels, dtype=np.intp), num_classes=2)
        assert err.value.tag == tag
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("rows, num_classes", [(3, 1), (0, 0)])
    def test_fewer_than_two_classes_rejected(self, rows, num_classes):
        with pytest.raises(DataFormatError) as err:
            Dataset(features=np.zeros((rows, 2)),
                    labels=np.zeros(rows, dtype=np.intp), num_classes=num_classes)
        assert err.value.tag == "one_class"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.zeros((3, 2))
        features[1, 0] = bad
        with pytest.raises(DataFormatError) as err:
            Dataset(features=features, labels=np.zeros(3, dtype=np.intp),
                    num_classes=2)
        assert err.value.tag == "non_finite"

    def test_subset(self):
        ds = synthetic_blobs(20, seed=0)
        sub = ds.subset(np.array([1, 3, 5]))
        assert sub.n == 3
        np.testing.assert_array_equal(sub.features, ds.features[[1, 3, 5]])


class TestSynthetic:
    def test_posterior_values(self):
        # kappa(0) = e^0 = 1; kappa(1) = sin 1 + e + 1; and the real branch
        # of the fractional power for x < 0
        kappa = np.array([1.0, np.sin(1.0) + np.e + 1.0,
                          np.sin(-1.0) + np.exp(-1.0) - 1.0])
        assert posterior_example1([0.0, 1.0, -1.0]) == pytest.approx(
            1 / (1 + np.exp(-kappa)))
        # a scalar is a batch of one
        assert posterior_example1(0.0).shape == (1,)

    def test_posterior_extremes_stable(self):
        vals = posterior_example1(np.array([-1000.0, 1000.0]))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(vals))

    def test_example1_label_frequencies(self):
        ds = synthetic_example1(50000, seed=1)
        assert ds.features.shape == (50000, 1)
        p1 = posterior_example1(ds.features[:, 0])
        # class 0 is drawn with probability p1
        expected = p1.mean()
        observed = np.mean(ds.labels == 0)
        assert abs(observed - expected) < 0.01

    def test_blobs_shapes_and_box(self):
        ds = synthetic_blobs(200, seed=2, spread=0.3)
        assert ds.features.shape == (200, 2)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert ds.num_classes == 2

    def test_deterministic(self):
        a = synthetic_blobs(50, seed=3)
        b = synthetic_blobs(50, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestFolds:
    def test_partition(self):
        folds = make_folds(103, 7, seed=0)
        assert len(folds) == 7
        vals = [val for _, val in folds]
        np.testing.assert_array_equal(np.sort(np.concatenate(vals)), np.arange(103))
        sizes = [len(val) for val in vals]
        assert max(sizes) - min(sizes) <= 1

    def test_split(self):
        folds = make_folds(20, 4, seed=1)
        for train, val in folds:
            assert len(train) + len(val) == 20
            np.testing.assert_array_equal(np.union1d(train, val), np.arange(20))
            assert np.all(np.diff(train) > 0) and np.all(np.diff(val) > 0)
        # fold i validates on part i of the seeded permutation
        perm = np.random.default_rng(1).permutation(20)
        np.testing.assert_array_equal(folds[2][1],
                                      np.sort(np.array_split(perm, 4)[2]))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_folds(3, 5, seed=0)
        with pytest.raises(ValueError):
            make_folds(3, 0, seed=0)

    def test_one_fold_rejected(self):
        # one fold leaves no training data for it
        with pytest.raises(ValueError, match="need 2 <= folds"):
            make_folds(10, 1, seed=0)


class TestResultsCsv:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "results.csv")
        records = [
            {"dataset": "blobs", "loss": "sd(0.1,-0.8)", "beta": 0.1,
             "lambda": -0.8, "eta": 0.4, "attack": None, "fold": "0",
             "clean_accuracy": 0.98123456, "adv_accuracy": None, "epochs": 50},
            {"dataset": "blobs", "loss": "cce", "beta": None, "lambda": None,
             "eta": 0.0, "attack": "pgd(0.3)", "fold": "mean",
             "clean_accuracy": 0.5, "adv_accuracy": 0.25, "epochs": 50},
        ]
        write_results(records, path)
        back = read_results(path)
        assert back[0]["loss"] == "sd(0.1,-0.8)"
        assert back[0]["beta"] == pytest.approx(0.1)
        assert back[0]["adv_accuracy"] is None
        # 6 significant digits
        assert back[0]["clean_accuracy"] == pytest.approx(0.981235, abs=1e-9)
        assert back[1]["attack"] == "pgd(0.3)"
        assert back[1]["epochs"] == 50

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError) as err:
            read_results(str(path))
        assert err.value.tag == "bad_header"

    def test_header_fixed(self, tmp_path):
        path = str(tmp_path / "results.csv")
        write_results([], path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().strip() == ",".join(RESULTS_HEADER)


def fmt_per_cell(value) -> str:
    """The plot-CSV cell rule, as a reference: None empty, str as is,
    integers and bools as integers, other numbers with 6 significant
    digits."""
    if isinstance(value, float):
        return format(value, ".6g")
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def write_csv_per_cell(path, header, rows):
    """Reference plot-ready CSV: csv.writer fed one formatted cell at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt_per_cell(value) for value in row] for row in rows)


AWKWARD_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                  -5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.5e-7, 123456789.0, 1e16]
AWKWARD_TEXT = ["", "plain", "sd(0.1,-0.8)", 'say "hi"', '"', ",", "two\nlines",
                "a,b\nc\"d", " padded ", "é"]
COLUMN_KINDS = ("float", "float32", "longdouble", "masked", "int", "uint64", "bool",
                "masked_int", "mixed", "text")


def random_column(kind: str, n: int, rng):
    """(column as write_csv takes it, its cells as a per-cell writer takes
    them: None where a cell is missing)."""
    def floats(size):
        values = rng.normal(0.0, 10.0 ** rng.integers(-8, 9), size)
        picks = rng.random(size) < 0.3
        values[picks] = rng.choice(AWKWARD_FLOATS, picks.sum())
        return values

    if kind in ("float", "float32", "longdouble", "masked", "masked_int"):
        values = floats(n)
        if kind in ("float32", "longdouble"):
            with np.errstate(over="ignore"):  # 1e300 becomes inf in float32
                values = values.astype(kind)
        if kind == "masked_int":
            values = rng.integers(-1000, 1000, n)
        if kind.startswith("masked"):
            column = np.ma.masked_array(values, mask=rng.random(n) < 0.4)
            return column, [None if m else v for v, m in zip(values.tolist(),
                                                             column.mask.tolist())]
        return values, list(values)
    if kind == "int":
        values = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                              n, dtype=np.int64, endpoint=True)
        return values, list(values)
    if kind == "uint64":
        values = rng.integers(0, np.iinfo(np.uint64).max, n, dtype=np.uint64,
                              endpoint=True)
        return values, list(values)
    if kind == "bool":
        values = rng.random(n) < 0.5
        return values, values.tolist()
    pool = [None, 7, -3, True, False, np.intp(-12), np.float64(2.5e-7),
            np.float32(0.1)] + AWKWARD_FLOATS + AWKWARD_TEXT
    if kind == "text":
        pool = AWKWARD_TEXT + [None]
    cells = [pool[i] for i in rng.integers(0, len(pool), n)]
    return cells, cells


class TestWriteCsv:
    @example(seed=0, kinds=["float", "masked", "bool"], n=0)
    # a block holds CSV_BLOCK_CELLS // width rows
    @example(seed=1, kinds=["masked", "int", "mixed"], n=CSV_BLOCK_CELLS // 3)
    @example(seed=2, kinds=["float", "masked_int", "text", "uint64"],
             n=CSV_BLOCK_CELLS // 4 + 1)
    @example(seed=3, kinds=["text"], n=CSV_BLOCK_CELLS + 1)
    @example(seed=4, kinds=["masked"], n=50)
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5),
           n=st.sampled_from([0, 1, 2, 13, CSV_BLOCK_CELLS // 4,
                              CSV_BLOCK_CELLS // 4 + 1, CSV_BLOCK_CELLS + 1]))
    def test_bytes_match_per_cell_reference(self, tmp_path_factory, seed, kinds, n):
        rng = np.random.default_rng(seed)
        tables = [random_column(kind, n, rng) for kind in kinds]
        header = [AWKWARD_TEXT[i] for i in rng.integers(0, len(AWKWARD_TEXT),
                                                         len(kinds))]
        where = tmp_path_factory.mktemp("csv")
        write_csv(where / "new.csv", header, [column for column, _ in tables])
        write_csv_per_cell(where / "ref.csv", header,
                           zip(*(cells for _, cells in tables)))
        assert (where / "new.csv").read_bytes() == (where / "ref.csv").read_bytes()

    def test_carriage_return_is_quoted(self, tmp_path):
        # Python 3.11's csv.writer leaves a lone "\r" bare, and its reader
        # then ends the row there
        path = tmp_path / "cr.csv"
        write_csv(path, ("a", "b"), (["x\ry"], np.array([1.5])))
        assert path.read_bytes() == b'a,b\n"x\ry",1.5\n'
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["a", "b"], ["x\ry", "1.5"]]

    @pytest.mark.parametrize("header, columns", [
        ((), ()),
        (("a", "b"), ([1.0],)),
        (("a", "b"), ([1.0], [1.0, 2.0])),
    ], ids=["no_columns", "too_few_columns", "ragged_columns"])
    def test_shape_checked(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", header, columns)

    def test_cell_formatting(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ("a", "b", "c", "d", "e", "f", "g", "h", "i"),
                  [[cell] for cell in (None, "sd(0.1,-0.8)", 7, np.intp(-3), True,
                                       0.1234567, np.float64(2.5e-7),
                                       float("nan"), False)])
        assert path.read_text(encoding="utf-8") == (
            "a,b,c,d,e,f,g,h,i\n"
            ',"sd(0.1,-0.8)",7,-3,1,0.123457,2.5e-07,nan,0\n')


def dump_per_cell(dataset, features_path, labels_path, flip_mask=None):
    """Reference dump: csv.writer fed one formatted cell at a time."""
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


class TestDumpLoad:
    @pytest.mark.parametrize("rows, cols", [(7, 3), (1, 1), (0, 2), (3, 0)])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_bytes_match_per_cell_reference(self, tmp_path, rows, cols, flipped):
        rng = np.random.default_rng(rows * 10 + cols)
        awkward = [0.0, -0.0, 5e-324, 1e-300, -1e300, 1 / 3, 0.1, 2.0**53 + 2]
        features = rng.normal(0.0, 1e3, (rows, cols))
        features.flat[:len(awkward)] = awkward[:features.size]
        ds = Dataset(features=features,
                     labels=rng.integers(0, 300, rows).astype(np.intp),
                     num_classes=300)
        mask = rng.random(rows) < 0.5 if flipped else None
        dump_dataset(ds, tmp_path / "f.csv", tmp_path / "l.csv", flip_mask=mask)
        dump_per_cell(ds, tmp_path / "rf.csv", tmp_path / "rl.csv", flip_mask=mask)
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "rf.csv").read_bytes()
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "rl.csv").read_bytes()

    # a block holds CSV_BLOCK_CELLS // width rows, and at least one
    @example(seed=0, rows=0, cols=3, flipped=True)
    @example(seed=1, rows=4, cols=0, flipped=False)
    @example(seed=2, rows=CSV_BLOCK_CELLS // 8 + 1, cols=8, flipped=True)
    @example(seed=3, rows=3, cols=CSV_BLOCK_CELLS + 1, flipped=False)
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.sampled_from([0, 1, 2, 13, CSV_BLOCK_CELLS // 8 + 1]),
           cols=st.sampled_from([0, 1, 2, 8]),
           flipped=st.booleans())
    def test_any_table_matches_per_cell_reference(self, tmp_path_factory, seed,
                                                  rows, cols, flipped):
        rng = np.random.default_rng(seed)
        awkward = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1 / 3, 0.1]
        # drawn from a small pool, so values repeat within a block as
        # attacked pixels do; a fifth of the cells are fresh draws
        pool = np.concatenate([awkward, rng.integers(0, 256, 20) / 255.0,
                               rng.normal(0.0, 10.0 ** rng.integers(-8, 9), 20)])
        features = rng.choice(pool, (rows, cols))
        fresh = rng.random((rows, cols)) < 0.2
        features[fresh] = rng.normal(0.0, 1e3, fresh.sum())
        features.flat[:len(awkward)] = awkward[:features.size]
        ds = Dataset(features=features,
                     labels=rng.integers(0, 300, rows).astype(np.intp),
                     num_classes=300)
        mask = rng.random(rows) < 0.5 if flipped else None
        where = tmp_path_factory.mktemp("dump")
        dump_dataset(ds, where / "f.csv", where / "l.csv", flip_mask=mask)
        dump_per_cell(ds, where / "rf.csv", where / "rl.csv", flip_mask=mask)
        assert (where / "f.csv").read_bytes() == (where / "rf.csv").read_bytes()
        assert (where / "l.csv").read_bytes() == (where / "rl.csv").read_bytes()

    def test_roundtrip_exact(self, tmp_path):
        ds = synthetic_blobs(30, seed=4)
        fpath = str(tmp_path / "f.csv")
        lpath = str(tmp_path / "l.csv")
        dump_dataset(ds, fpath, lpath)
        back = load_dataset(fpath, lpath)
        # .17g formatting preserves float64 exactly
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_flip_column(self, tmp_path):
        ds = synthetic_blobs(10, seed=5)
        mask = np.zeros(10, dtype=bool)
        mask[[2, 4]] = True
        fpath = str(tmp_path / "f.csv")
        lpath = str(tmp_path / "l.csv")
        dump_dataset(ds, fpath, lpath, flip_mask=mask)
        with open(lpath, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "label,flipped"
        assert lines[3].endswith(",1")
        assert lines[1].endswith(",0")

    @pytest.mark.parametrize("features, labels, tag", [
        ("x0,x1\n0.1,abc\n", "label\n0\n", "bad_value"),
        ("x0,x1\n0.1,0.2\n", "label\nzero\n", "bad_value"),
        ("x0,x1\n0.1,0.2\n0.3\n", "label\n0\n1\n", "ragged"),
        ("x0,x1\n0.1,0.2\n0.3,0.4\n", "label\n0\n\n1\n", "ragged"),
        ("", "label\n0\n", "empty"),
        ("x0,x1\n", "label\n", "empty"),
        ("x0,x1\n0.1,0.2\n", "", "empty"),
        ("x0,x1\n0.1,0.2\n", "\n\n", "empty"),
        ("x0,x1\n0.1,0.2\n0.3,0.4\n", "label\n0\n1\n1\n", "count_mismatch"),
        ("x0,x1\n0.1,0.2\n0.3,0.4\n", "label\n0\n-1\n", "bad_label"),
        ("x0,x1\n0.1,0.2\n", "label\n" + "9" * 30 + "\n", "bad_label"),
    ], ids=["bad_feature", "bad_label_value", "ragged_features",
            "blank_label_line", "no_features_header", "no_feature_rows",
            "no_labels_header", "blank_labels_header", "count_mismatch",
            "negative_label", "huge_label"])
    def test_malformed_files_rejected(self, tmp_path, features, labels, tag):
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        fpath.write_text(features, encoding="utf-8")
        lpath.write_text(labels, encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_dataset(fpath, lpath)
        assert err.value.tag == tag

    def test_label_beyond_num_classes_rejected(self, tmp_path):
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        fpath.write_text("x0\n0.1\n0.2\n", encoding="utf-8")
        lpath.write_text("label\n0\n2\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_dataset(fpath, lpath, num_classes=2)
        assert err.value.tag == "bad_label"
