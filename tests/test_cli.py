"""End-to-end tests for the command-line interface."""

import csv
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rsdnet
from rsdnet import attacks, cli, network
from rsdnet.cli import (
    EXIT_BAD_DATA,
    EXIT_BAD_FLAGS,
    EXIT_NUMERIC,
    EXIT_OK,
    CliError,
    main,
    parse_loss,
)
from rsdnet.data_io import (Dataset, dump_dataset, load_dataset,
                            synthetic_blobs, synthetic_example1, write_idx)

from rsdnet.contamination import NoiseConfig
from rsdnet.data_io import make_folds
from rsdnet.optimizer import TrainConfig, accuracy

from reference import overlapping_images, read_results, same_bits, subset_train


def run(args):
    return main([str(a) for a in args])


class TestParseLoss:
    def test_inline_sd(self):
        spec = parse_loss("sd:0.1,-0.8")
        assert spec.kind == "sd"
        assert spec.tuning.beta == 0.1
        assert spec.tuning.lam == -0.8

    def test_sd_without_tuning(self):
        with pytest.raises(CliError):
            parse_loss("sd")

    def test_baselines(self):
        assert parse_loss("cce").kind == "cce"
        assert parse_loss("mae").kind == "mae"
        assert parse_loss("gce:0.7").q == 0.7
        assert parse_loss("tcce:0.2").delta == 0.2

    def test_inadmissible_pair_rejected(self):
        with pytest.raises(CliError):
            parse_loss("sd:0.0,0.0")

    def test_unknown(self):
        with pytest.raises(CliError):
            parse_loss("focal")

    @pytest.mark.parametrize("text", ["cce:", "mae:", "cce:0.7", "mae:x"])
    def test_baseline_with_a_colon_rejected(self, text):
        with pytest.raises(CliError):
            parse_loss(text)


class TestTrainCommand:
    def test_writes_results_and_params(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--dataset", "blobs",
                    "--n", 60, "--arch", "toy", "--loss", "sd:0.1,-0.8",
                    "--folds", 2, "--epochs", 3, "--batch", 16])
        assert code == EXIT_OK
        rows = read_results(out)
        assert [r["fold"] for r in rows] == ["0", "1", "mean"]
        assert rows[0]["loss"] == "sd(0.1,-0.8)"
        assert rows[0]["beta"] == pytest.approx(0.1)
        folds = [r["clean_accuracy"] for r in rows[:2]]
        assert rows[2]["clean_accuracy"] == pytest.approx(np.mean(folds), abs=1e-6)
        params = np.load(out + ".params.npy")
        assert params.shape[0] == 2

    def test_with_noise_and_attack(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 1, "--out", out, "--n", 60,
                    "--arch", "toy", "--loss", "cce", "--folds", 2,
                    "--epochs", 2, "--batch", 16, "--eta", 0.2,
                    "--attack", "fgsm", "--epsilon", 0.1,
                    "--surrogate-epochs", 2])
        assert code == EXIT_OK
        rows = read_results(out)
        assert rows[0]["attack"] == "fgsm(0.1)"
        assert rows[0]["adv_accuracy"] is not None

    @pytest.mark.parametrize("epsilon", [0.05, 0.1])
    def test_adv_accuracy_is_below_clean_accuracy(self, tmp_path, epsilon):
        # the validation set is attacked against the trained model itself;
        # attacked through the surrogate along the true label, it carried
        # the label in its perturbation and scored above clean accuracy
        ds = overlapping_images(600, seed=5)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(ds, img, lab, rows=28, cols=28)
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out,
                    "--dataset", f"idx:{img},{lab}", "--arch", "mnist-mlp",
                    "--loss", "cce", "--folds", 2, "--epochs", 10,
                    "--batch", 64, "--attack", "fgsm", "--epsilon", epsilon,
                    "--surrogate-epochs", 3])
        assert code == EXIT_OK
        for row in read_results(out):
            assert row["adv_accuracy"] < row["clean_accuracy"], row

    def test_arch_mismatch_is_bad_data(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--dataset", "blobs",
                    "--arch", "mnist-mlp", "--loss", "cce"])
        assert code == EXIT_BAD_DATA

    def test_idx_class_count_beyond_the_preset_is_bad_data(self, tmp_path):
        # label 10 makes an 11-class IDX set, which mnist-mlp cannot fit
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.integers(0, 256, (8, 784)) / 255.0,
                     labels=np.arange(3, 11), num_classes=11)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(ds, img, lab, rows=28, cols=28)
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", f"idx:{img},{lab}", "--arch", "mnist-mlp"])
        assert code == EXIT_BAD_DATA
        assert not out.exists()

    def test_tcce_with_a_last_batch_of_one(self, tmp_path):
        # 22 training rows per fold in batches of 21
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--n", 33, "--folds", 3,
                    "--batch", 21, "--epochs", 2, "--arch", "toy",
                    "--loss", "tcce:0.2"])
        assert code == EXIT_OK
        assert len(read_results(out)) == 4

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_is_bad_flags(self, tmp_path, folds, capsys):
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--n", 30,
                    "--epochs", 1, "--folds", folds])
        assert code == EXIT_BAD_FLAGS
        assert "need 2 <= folds <= n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "epochs"])
    @pytest.mark.parametrize("flags", [["--beta", 0.5], ["--lambda", 0.0]],
                             ids=["beta", "lambda"])
    def test_tuning_flags_are_gone(self, tmp_path, command, flags):
        # sd:BETA,LAMBDA is the one spelling of a tuning
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            run([command, "--seed", 0, "--out", out, "--loss", "sd:0.1,-0.8",
                 "--n", 30, "--epochs", 1] + flags)
        assert exc.value.code == EXIT_BAD_FLAGS
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "epochs"])
    @pytest.mark.parametrize("eta", ["-0.3", "nan", "1"])
    def test_eta_outside_unit_interval_is_bad_flags(self, tmp_path, command, eta):
        out = tmp_path / "res.csv"
        code = run([command, "--seed", 0, "--out", out, "--loss", "cce",
                    "--n", 30, "--epochs", 1, f"--eta={eta}"])
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == []

    def test_results_name_input_files_by_file_name(self, tmp_path):
        # the same IDX pair in two directories gives the same bytes
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.integers(0, 256, (30, 784)) / 255.0,
                     labels=rng.integers(0, 10, 30).astype(np.intp),
                     num_classes=10)
        outputs = []
        for where in ("a", tmp_path / "b" / "deeper"):
            where = tmp_path / where
            where.mkdir(parents=True)
            img, lab = where / "img.idx", where / "lab.idx"
            write_idx(ds, img, lab, rows=28, cols=28)
            out = where / "res.csv"
            assert run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                        "--dataset", f"idx:{img},{lab}", "--arch", "surrogate-64",
                        "--folds", 2, "--epochs", 1, "--batch", 16]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert read_results(out)[0]["dataset"] == "idx:img.idx,lab.idx"

    def test_bad_loss_is_bad_flags(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "sd:0,0",
                    "--n", 30, "--epochs", 1])
        assert code == EXIT_BAD_FLAGS

    @pytest.mark.parametrize("command", ["train", "epochs"])
    @pytest.mark.parametrize("loss", ["cce:", "mae:"])
    def test_baseline_with_a_colon_exits_2_without_output(self, tmp_path,
                                                          command, loss):
        code = run([command, "--seed", 0, "--out", tmp_path / "out",
                    "--loss", loss, "--n", 30, "--epochs", 1])
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == []

    def test_missing_idx_file_is_bad_data(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", "idx:/nonexistent/img,/nonexistent/lab"])
        assert code == EXIT_BAD_DATA

    def test_idx_dataset_roundtrip(self, tmp_path):
        # tiny 4-pixel IDX pair run through the surrogate-free train path
        ds = synthetic_blobs(40, seed=0)
        rng = np.random.default_rng(0)
        from rsdnet.data_io import Dataset
        idx_ds = Dataset(features=rng.integers(0, 256, (40, 784)) / 255.0,
                         labels=rng.integers(0, 10, 40).astype(np.intp),
                         num_classes=10)
        img = str(tmp_path / "img.idx")
        lab = str(tmp_path / "lab.idx")
        write_idx(idx_ds, img, lab, rows=28, cols=28)
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", f"idx:{img},{lab}", "--arch", "surrogate-64",
                    "--folds", 2, "--epochs", 1, "--batch", 16])
        assert code == EXIT_OK
        assert ds.n == 40  # keep the unused fixture honest


class TestTrainFolds:
    """train without --attack runs its folds as the tasks of
    network._run_tasks: on its worker threads, each on one BLAS thread,
    with the bits of the folds run in turn.  With --attack the folds run
    in turn."""

    SEED, FOLDS, EPOCHS, BATCH, ETA, LOSS = 3, 3, 2, 32, 0.3, "sd:0.1,-0.8"

    def images(self, tmp_path):
        ds = overlapping_images(240, seed=4)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(ds, img, lab, rows=28, cols=28)
        return ds, f"idx:{img},{lab}"

    def run_train(self, out: Path, dataset: str,
                  folds: int = FOLDS) -> tuple[bytes, bytes]:
        out.parent.mkdir()
        code = run(["train", "--seed", self.SEED, "--out", out, "--dataset",
                    dataset, "--arch", "mnist-mlp", "--loss", self.LOSS,
                    "--folds", folds, "--epochs", self.EPOCHS,
                    "--batch", self.BATCH, "--eta", self.ETA])
        assert code == EXIT_OK
        return (out.read_bytes(),
                Path(str(out) + ".params.npy").read_bytes())

    def serial_folds(self, ds, folds: int = FOLDS):
        """Each fold's params and clean accuracy, trained in turn on a
        copy of its rows, with train's seeds, in float32 as the CLI
        trains on IDX images."""
        arch = replace(cli.ARCH_PRESETS["mnist-mlp"], dtype=np.float32)
        loss = parse_loss(self.LOSS)
        results = []
        for fold, (train_idx, val_idx) in enumerate(
                make_folds(ds.n, folds, self.SEED)):
            [(params, _)] = subset_train(
                ds, train_idx, NoiseConfig(eta=self.ETA, seed=self.SEED + 1000 + fold),
                arch, self.SEED + fold,
                TrainConfig(losses=(loss,), epochs=self.EPOCHS,
                            batch_size=self.BATCH, shuffle_seed=self.SEED + 100 + fold))
            results.append((params, accuracy(params, arch, ds.subset(val_idx))))
        return results

    def assert_matches(self, got: tuple[bytes, bytes], serial, out: Path):
        params = np.load(str(out) + ".params.npy")
        want = np.stack([p for p, _ in serial])
        same_bits(params, want)
        rows = read_results(out)
        assert [r["fold"] for r in rows] == [*map(str, range(len(serial))), "mean"]
        for row, (_, acc) in zip(rows, serial):
            assert row["clean_accuracy"] == pytest.approx(acc, rel=1e-6)

    def test_bytes_do_not_depend_on_the_workers(self, tmp_path, monkeypatch,
                                                blas_count):
        ds, dataset = self.images(tmp_path)
        with network._one_blas_thread():
            serial = self.serial_folds(ds)
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(network, "_usable_cores", lambda w=workers: w)
            out = tmp_path / f"w{workers}" / "res.csv"
            runs[workers] = self.run_train(out, dataset)
            self.assert_matches(runs[workers], serial, out)
        assert runs[1] == runs[2] == runs[3]
        assert blas_count() == 2

    @pytest.mark.parametrize("folds, threads", [(3, 3), (4, 2)])
    def test_folds_below_twice_the_cores_each_get_a_thread(
            self, tmp_path, monkeypatch, blas_count, folds, threads):
        # on two cores three folds run at once, the caller's thread among
        # them, rather than in two rounds; four run in two rounds of two
        ds, dataset = self.images(tmp_path)
        with network._one_blas_thread():
            serial = self.serial_folds(ds, folds)
        monkeypatch.setattr(network, "_usable_cores", lambda: 2)
        ran_on = []
        real = cli.train

        def recorded(*args, **kwargs):
            ran_on.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "train", recorded)
        out = tmp_path / "run" / "res.csv"
        self.assert_matches(self.run_train(out, dataset, folds), serial, out)
        assert len(ran_on) == folds and len(set(ran_on)) == threads
        assert threading.current_thread() in ran_on
        assert blas_count() == 2

    def test_no_blas_setter_runs_the_folds_in_turn(self, tmp_path, monkeypatch):
        # at OpenBLAS's own thread count, as the folds ran before the pool
        ds, dataset = self.images(tmp_path)
        serial = self.serial_folds(ds)
        monkeypatch.setattr(network, "_openblas_threads", lambda: None)
        monkeypatch.setattr(network, "_usable_cores", lambda: 3)
        threads = set()
        real = cli.train

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "train", recorded)
        out = tmp_path / "none" / "res.csv"
        self.assert_matches(self.run_train(out, dataset), serial, out)
        assert threads == {threading.current_thread()}

    def test_with_attack_folds_run_in_turn_and_attacks_on_every_core(
            self, tmp_path, monkeypatch, blas_count):
        # the folds run on the caller's thread, one after another, and each
        # of a fold's two attacks runs its blocks on every worker
        monkeypatch.setattr(attacks, "ATTACK_BATCH", 7)
        callers, blocks = [], []
        real_trainset, real_attack = cli.adversarial_trainset, attacks.attack

        def trainset(*args, **kwargs):
            callers.append(threading.current_thread())
            return real_trainset(*args, **kwargs)

        def attack(*args, **kwargs):
            blocks.append(threading.current_thread())
            return real_attack(*args, **kwargs)

        monkeypatch.setattr(cli, "adversarial_trainset", trainset)
        monkeypatch.setattr(attacks, "attack", attack)
        main = threading.current_thread()
        runs = {}
        for workers in (2, 1):
            monkeypatch.setattr(network, "_usable_cores", lambda w=workers: w)
            callers.clear()
            blocks.clear()
            out = tmp_path / f"w{workers}" / "res.csv"
            out.parent.mkdir()
            code = run(["train", "--seed", 1, "--out", out, "--n", 60, "--arch",
                        "toy", "--loss", "cce", "--folds", 2, "--epochs", 2,
                        "--batch", 16, "--eta", 0.2, "--attack", "pgd",
                        "--epsilon", 0.1, "--step", 0.05, "--iters", 3,
                        "--surrogate-epochs", 2])
            assert code == EXIT_OK
            # two attacks per fold, each of 30 rows in 5 blocks; with two
            # workers each attack starts one thread for blocks 1 and 3, and
            # the caller attacks blocks 0, 2 and 4
            assert callers == [main] * 4 and len(blocks) == 4 * 5
            assert blocks.count(main) == 4 * (3 if workers == 2 else 5)
            helpers = set(blocks) - {main}
            assert len(helpers) == 4 * (workers - 1)
            assert all(blocks.count(t) == 2 for t in helpers)
            runs[workers] = (out.read_bytes(),
                             Path(str(out) + ".params.npy").read_bytes())
        assert runs[2] == runs[1]
        assert blas_count() == 2

    def test_a_failing_fold_exits_4_and_stops_cleanly(self, tmp_path,
                                                      monkeypatch, blas_count):
        # fold 1 runs on a worker thread of the pool; its exception reaches
        # main, which maps it to its exit code
        real = cli.train

        def failing(dataset, arch, init_seed, *args, **kwargs):
            if init_seed == 1:  # --seed 0 plus fold 1
                raise FloatingPointError("injected")
            return real(dataset, arch, init_seed, *args, **kwargs)

        unhandled = []
        monkeypatch.setattr(cli, "train", failing)
        monkeypatch.setattr(network, "_usable_cores", lambda: 2)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        before = threading.enumerate()
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--n", 60, "--arch",
                    "toy", "--loss", "cce", "--folds", 3, "--epochs", 2,
                    "--batch", 16])
        assert code == EXIT_NUMERIC
        assert threading.enumerate() == before
        assert unhandled == []
        assert blas_count() == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--epochs", 0], ["--batch", 0]],
                             ids=["epochs", "batch"])
    def test_bad_flags_raised_in_the_folds_exit_2(self, tmp_path, monkeypatch,
                                                  flags):
        # each fold rejects the flag, fold 1 on the pool's worker thread;
        # the caller re-raises it and main maps it to its exit code
        unhandled = []
        monkeypatch.setattr(network, "_usable_cores", lambda: 2)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        code = run(["train", "--seed", 0, "--out", tmp_path / "res.csv",
                    "--n", 30, "--loss", "cce", *flags])
        assert code == EXIT_BAD_FLAGS
        assert unhandled == []
        assert list(tmp_path.iterdir()) == []


class TestNetworkDtype:
    """Networks trained or attacked on IDX images compute in float32,
    every other network in float64; the features stay float64."""

    def test_rule(self):
        assert cli.network_dtype("idx:a.idx,b.idx") == np.float32
        for selector in ("blobs", "example1", "csv:f.csv,l.csv"):
            assert cli.network_dtype(selector) == np.float64

    @pytest.mark.parametrize("kind, dtype", [("idx", np.float32),
                                             ("csv", np.float64)])
    def test_model_and_surrogate_share_the_dtype(self, tmp_path, monkeypatch,
                                                 kind, dtype):
        ds = overlapping_images(40, seed=1)
        first, second = tmp_path / "a", tmp_path / "b"
        if kind == "idx":
            write_idx(ds, first, second, rows=28, cols=28)
        else:
            dump_dataset(ds, first, second)
        seen = []
        real_train, real_attack = cli.train, cli.adversarial_trainset

        def train(dataset, arch, *args, **kwargs):
            seen.append(("train", arch.dtype, dataset.features.dtype))
            return real_train(dataset, arch, *args, **kwargs)

        def attack(params, arch, dataset, cfg):
            seen.append(("attack", arch.dtype, params.dtype))
            return real_attack(params, arch, dataset, cfg)

        monkeypatch.setattr(cli, "train", train)
        monkeypatch.setattr(cli, "adversarial_trainset", attack)
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--dataset",
                    f"{kind}:{first},{second}", "--arch", "mnist-mlp",
                    "--folds", 2, "--epochs", 1, "--batch", 16,
                    "--attack", "fgsm", "--epsilon", 0.1,
                    "--surrogate-epochs", 1])
        assert code == EXIT_OK
        # per fold: the surrogate trains and attacks, the model trains on
        # the float64 features and attacks the validation rows
        fold = [("train", dtype, np.float64), ("attack", dtype, dtype)] * 2
        assert seen == fold * 2
        assert np.load(str(out) + ".params.npy").dtype == dtype

    def test_csv_dumps_of_images_train_in_float64(self, tmp_path):
        # 1e39 fits in float64 but not in float32, where the cast of its
        # batch would overflow to inf and the run end in exit 4
        ds = overlapping_images(40, seed=2)
        features = ds.features.copy()
        features[5, 100] = 1e39
        first, second = tmp_path / "f.csv", tmp_path / "l.csv"
        dump_dataset(Dataset(features=features, labels=ds.labels,
                             num_classes=10), first, second)
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--dataset",
                    f"csv:{first},{second}", "--arch", "mnist-mlp",
                    "--folds", 2, "--epochs", 1, "--batch", 16])
        assert code == EXIT_OK
        assert np.load(str(out) + ".params.npy").dtype == np.float64


def csv_dataset(tmp_path, features, labels) -> str:
    """Write a two-feature CSV pair as load_dataset reads it; returns the
    csv: selector."""
    feat, lab = tmp_path / "f.csv", tmp_path / "l.csv"
    feat.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n"
                                         for a, b in features.tolist()))
    lab.write_text("label\n" + "".join(f"{y}\n" for y in labels.tolist()))
    return f"csv:{feat},{lab}"


class TestInputHardening:
    @pytest.mark.parametrize("poison", ["nan", "inf", "-inf"])
    def test_non_finite_features_are_bad_data(self, tmp_path, poison):
        ds = synthetic_blobs(40, seed=0)
        features = ds.features.copy()
        features[3, 1] = float(poison)
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", csv_dataset(tmp_path, features, ds.labels),
                    "--folds", 2, "--epochs", 1, "--batch", 16])
        assert code == EXIT_BAD_DATA
        assert not out.exists()

    @pytest.mark.parametrize("features, labels", [
        ("x0,x1\n0.1,abc\n", "label\n0\n"),
        ("x0,x1\n0.1,0.2\n0.3\n", "label\n0\n1\n"),
        ("x0,x1\n0.1,0.2\n", "label\n-1\n"),
        ("x0,x1\n0.1,0.2\n", "label\n0\n1\n"),
        ("x0,x1\n0.1,0.2\n0.3,0.4\n", "label\n0\n\n1\n"),
        ("", "label\n0\n"),
    ], ids=["non_numeric", "ragged", "negative_label", "count_mismatch",
            "blank_label_line", "empty_features"])
    def test_malformed_csv_dataset_is_bad_data(self, tmp_path, features, labels):
        feat, lab = tmp_path / "f.csv", tmp_path / "l.csv"
        feat.write_text(features, encoding="utf-8")
        lab.write_text(labels, encoding="utf-8")
        out = tmp_path / "noisy"
        code = run(["corrupt", "--seed", 0, "--out", out, "--eta", 0.2,
                    "--dataset", f"csv:{feat},{lab}"])
        assert code == EXIT_BAD_DATA

    @pytest.mark.parametrize("command", ["train", "epochs"])
    def test_csv_class_count_comes_from_the_arch_preset(self, tmp_path, command):
        # a 10-class dump whose labels miss class 9 loads as 10 classes
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.random((12, 784)),
                     labels=np.array([0, 1, 2, 8] * 3), num_classes=10)
        feat, lab = tmp_path / "f.csv", tmp_path / "l.csv"
        dump_dataset(ds, feat, lab)
        out = tmp_path / "res.csv"
        code = run([command, "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", f"csv:{feat},{lab}", "--arch", "mnist-mlp",
                    "--epochs", 1, "--batch", 8]
                   + (["--folds", 2] if command == "train" else []))
        assert code == EXIT_OK
        assert out.exists()

    def test_csv_label_beyond_the_arch_preset_is_bad_data(self, tmp_path):
        ds = synthetic_blobs(40, seed=0)
        labels = ds.labels.copy()
        labels[5] = 2  # blob-mlp has 2 classes
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", csv_dataset(tmp_path, ds.features, labels),
                    "--arch", "blob-mlp", "--folds", 2, "--epochs", 1])
        assert code == EXIT_BAD_DATA
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["corrupt", "--eta", 0.2],
        ["attack", "--attack", "fgsm", "--surrogate-epochs", 1],
    ], ids=["corrupt", "attack"])
    def test_empty_idx_pair_is_bad_data(self, tmp_path, command):
        empty = Dataset(features=np.zeros((0, 4)),
                        labels=np.zeros(0, dtype=np.intp), num_classes=10)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(empty, img, lab, rows=2, cols=2)
        out = tmp_path / "out"
        code = run([command[0], "--seed", 0, "--out", out,
                    "--dataset", f"idx:{img},{lab}"] + command[1:])
        assert code == EXIT_BAD_DATA
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", [
        ["corrupt", "--eta", 0.2],
        ["attack", "--attack", "fgsm", "--surrogate-epochs", 1],
    ], ids=["corrupt", "attack"])
    def test_one_class_csv_dump_is_bad_data(self, tmp_path, capsys, command):
        # every label 0: the dump infers one class; no flag is at fault
        ds = synthetic_blobs(20, seed=0)
        dataset = csv_dataset(tmp_path, ds.features, np.zeros(20, dtype=np.intp))
        code = run([command[0], "--seed", 0, "--out", tmp_path / "out",
                    "--dataset", dataset] + command[1:])
        assert code == EXIT_BAD_DATA
        assert "at least 2 classes" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("selector", ["nosuch", "idx:one.idx"])
    def test_unknown_dataset_selector_exits_2_without_output(self, tmp_path,
                                                             selector):
        code = run(["train", "--seed", 0, "--out", tmp_path / "out",
                    "--dataset", selector, "--epochs", 1])
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == []

    def test_synthetic_dataset_of_no_examples_is_bad_flags(self, tmp_path):
        out = tmp_path / "out"
        code = run(["corrupt", "--seed", 0, "--out", out, "--eta", 0.2,
                    "--n", 0])
        assert code == EXIT_BAD_FLAGS
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_training_is_numeric_failure(self, tmp_path):
        # gradients of order 1e200 overflow the Adam second moment
        ds = synthetic_blobs(40, seed=0)
        out = tmp_path / "res.csv"
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--dataset", csv_dataset(tmp_path, ds.features * 1e200,
                                             ds.labels),
                    "--arch", "blob-mlp", "--folds", 2, "--epochs", 2,
                    "--batch", 16])
        assert code == EXIT_NUMERIC
        assert not out.exists()


class TestBoundCommand:
    def test_grid_output(self, tmp_path):
        out = str(tmp_path / "bound.csv")
        code = run(["bound", "--seed", 0, "--out", out, "--eta", 0.2,
                    "--resolution", 5])
        assert code == EXIT_OK
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "beta,lambda,admissible,value"
        assert len(lines) == 1 + 25
        # beta=0, lambda=-1 is inadmissible: empty value column
        assert lines[1] == "0,-1,0,"
        # beta=1, lambda=0 reproduces the anchor
        anchor = [l for l in lines if l.startswith("1,0,")]
        assert anchor and anchor[0].endswith("0.257143")

    def test_eta_out_of_range(self, tmp_path):
        out = str(tmp_path / "bound.csv")
        code = run(["bound", "--seed", 0, "--out", out, "--eta", 0.95])
        assert code != EXIT_OK

    @pytest.mark.parametrize("extra", [
        [],
        # no admissible cell: only an up-front check sees the bad eta
        ["--beta-min=-2", "--beta-max=-1", "--resolution", 5],
        ["--eta", 0.2, "--classes", 1],
        ["--eta", 0.2, "--classes", 0],
    ], ids=["eta", "eta_empty_grid", "one_class", "no_classes"])
    def test_bad_eta_or_classes_exit_2_without_output(self, tmp_path, extra):
        out = tmp_path / "bound.csv"
        code = run(["bound", "--seed", 0, "--out", out, "--eta", 0.95] + extra)
        assert code == EXIT_BAD_FLAGS
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--resolution", 0],
        ["--beta-min", "nan"],
        ["--lambda-max", "inf"],
    ], ids=["no_points", "nan_end", "infinite_end"])
    def test_empty_or_non_finite_grid_exits_2_without_output(self, tmp_path, extra):
        out = tmp_path / "bound.csv"
        code = run(["bound", "--seed", 0, "--out", out, "--eta", 0.2] + extra)
        assert code == EXIT_BAD_FLAGS
        assert not out.exists()


class TestInfluenceCommand:
    def test_m1_curve(self, tmp_path):
        out = str(tmp_path / "if.csv")
        code = run(["influence", "--seed", 0, "--out", out, "--model", "M1",
                    "--beta", 0.5, "--lambda", -0.5, "--grid=-5,5,11",
                    "--sample-size", 50])
        assert code == EXIT_OK
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data.shape == (22, 3)  # 11 grid points x 2 params
        assert np.all(np.isfinite(data))

    def test_correctly_specified_is_zero(self, tmp_path):
        out = str(tmp_path / "if.csv")
        code = run(["influence", "--seed", 0, "--out", out, "--model", "M3",
                    "--beta", 0.1, "--lambda", -0.8, "--grid=-2,2,5",
                    "--sample-size", 30, "--correctly-specified"])
        assert code == EXIT_OK
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        np.testing.assert_allclose(data[:, 2], 0.0, atol=1e-9)

    @pytest.mark.parametrize("model", ["M1", "M2", "M3"])
    @pytest.mark.parametrize("beta, lam", [(0.1, -0.8), (0.5, -0.5)])
    def test_correctly_specified_is_zero_where_the_model_saturates(
            self, tmp_path, model, beta, lam):
        # on the default grid M2's class-1 probability passes 1 - 1e-7
        out = tmp_path / "if.csv"
        code = run(["influence", "--seed", 7, "--out", out, "--model", model,
                    "--beta", beta, f"--lambda={lam}", "--correctly-specified"])
        assert code == EXIT_OK
        values = np.genfromtxt(out, delimiter=",", skip_header=1)[:, 2]
        assert np.abs(values).max() < 1e-12

    def test_theta(self, tmp_path):
        argv = ["influence", "--seed", 0, "--model", "M1", "--beta", 0.5,
                "--lambda", -0.5, "--grid=-3,3,7", "--sample-size", 40]
        paths = [tmp_path / f"{name}.csv" for name in ("default", "ones", "other")]
        for path, theta in zip(paths, ([], ["--theta", "1,1"],
                                       ["--theta", "0.5,-1"])):
            assert run(argv + ["--out", path] + theta) == EXIT_OK
        # all ones is the default theta
        assert paths[0].read_bytes() == paths[1].read_bytes()
        other = np.genfromtxt(paths[2], delimiter=",", skip_header=1)
        assert np.isfinite(other).all()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_inadmissible_tuning(self, tmp_path):
        out = str(tmp_path / "if.csv")
        code = run(["influence", "--seed", 0, "--out", out, "--model", "M1",
                    "--beta", 0.0, "--lambda", 0.0])
        assert code == EXIT_BAD_FLAGS

    @pytest.mark.parametrize("theta", ["nan,1", "1,inf", "-inf,nan"])
    def test_non_finite_theta_exits_2_without_output(self, tmp_path, theta):
        out = tmp_path / "if.csv"
        code = run(["influence", "--seed", 0, "--out", out, "--model", "M1",
                    "--beta", 0.5, "--lambda", -0.5, f"--theta={theta}"])
        assert code == EXIT_BAD_FLAGS
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0,1,0", "0,1,-2", "nan,1,3", "0,inf,3",
                                      "0,1", "0,1,x"])
    def test_bad_grid_exits_2_without_output(self, tmp_path, grid):
        out = tmp_path / "if.csv"
        code = run(["influence", "--seed", 0, "--out", out, "--model", "M1",
                    "--beta", 0.5, "--lambda", -0.5, f"--grid={grid}"])
        assert code == EXIT_BAD_FLAGS
        assert not out.exists()


class TestEpochsCommand:
    def test_two_losses(self, tmp_path):
        out = str(tmp_path / "epochs.csv")
        code = run(["epochs", "--seed", 0, "--out", out, "--n", 80,
                    "--arch", "toy", "--epochs", 3, "--batch", 16,
                    "--loss", "cce", "--loss", "sd:0.1,-0.8"])
        assert code == EXIT_OK
        import csv
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["loss", "epoch", "train_loss", "test_accuracy"]
        assert len(rows) == 1 + 2 * 3
        assert rows[1][:2] == ["cce", "1"]
        assert rows[4][:2] == ["sd(0.1,-0.8)", "1"]

    def test_lockstep_rows_equal_one_loss_runs(self, tmp_path):
        # the models of one run train together; each row must be what a
        # run with that loss alone writes, byte for byte
        argv = ["epochs", "--seed", 1, "--n", 90, "--arch", "toy",
                "--epochs", 3, "--batch", 16, "--eta", 0.2]
        losses = ["cce", "sd:0.1,-0.8", "tcce:0.2"]
        together = tmp_path / "together.csv"
        assert run(argv + ["--out", together]
                   + [a for loss in losses for a in ("--loss", loss)]) == EXIT_OK
        alone = []
        for i, loss in enumerate(losses):
            out = tmp_path / f"alone{i}.csv"
            assert run(argv + ["--out", out, "--loss", loss]) == EXIT_OK
            alone += out.read_bytes().splitlines(keepends=True)[1:]
        rows = together.read_bytes().splitlines(keepends=True)[1:]
        assert len(rows) == 3 * 3
        assert rows == alone

    def test_label_noise(self, tmp_path):
        argv = ["epochs", "--seed", 0, "--n", 80, "--arch", "toy", "--epochs", 3,
                "--batch", 16, "--loss", "cce"]
        clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
        assert run(argv + ["--out", clean]) == EXIT_OK
        assert run(argv + ["--out", noisy, "--eta", 0.4]) == EXIT_OK
        clean_rows = np.genfromtxt(clean, delimiter=",", skip_header=1)[:, 1:]
        noisy_rows = np.genfromtxt(noisy, delimiter=",", skip_header=1)[:, 1:]
        assert noisy_rows.shape == clean_rows.shape == (3, 3)
        assert np.isfinite(noisy_rows).all()
        # same split and seeds: only the flipped training labels differ
        assert not np.array_equal(noisy_rows[:, 1], clean_rows[:, 1])


class TestExample1Preset:
    def test_train_and_epochs(self, tmp_path):
        data = ["--seed", 2, "--dataset", "example1", "--n", 80,
                "--arch", "example1-mlp", "--epochs", 3, "--batch", 16]
        results = tmp_path / "res.csv"
        assert run(["train", "--out", results, "--folds", 2] + data) == EXIT_OK
        rows = read_results(results)
        assert [r["fold"] for r in rows] == ["0", "1", "mean"]
        assert np.isfinite([r["clean_accuracy"] for r in rows]).all()
        traces = tmp_path / "e.csv"
        assert run(["epochs", "--out", traces, "--loss", "cce",
                    "--loss", "sd:0.1,-0.8"] + data) == EXIT_OK
        with open(traces, newline="", encoding="utf-8") as fh:
            table = np.array([row[1:] for row in csv.reader(fh)][1:], dtype=float)
        assert table.shape == (6, 3)
        assert np.isfinite(table).all()

    @pytest.mark.parametrize("command", ["train", "epochs"])
    def test_two_feature_preset_is_bad_data(self, tmp_path, command):
        out = tmp_path / "res.csv"
        code = run([command, "--seed", 2, "--out", out, "--loss", "cce",
                    "--dataset", "example1", "--n", 40, "--arch", "toy",
                    "--epochs", 1])
        assert code == EXIT_BAD_DATA
        assert not out.exists()


class TestCorruptCommand:
    def test_example1_dataset(self, tmp_path):
        out = tmp_path / "c"
        code = run(["corrupt", "--seed", 3, "--out", out, "--n", 50,
                    "--eta", 0.0, "--dataset", "example1"])
        assert code == EXIT_OK
        back = load_dataset(f"{out}.features.csv", f"{out}.labels.csv")
        clean = synthetic_example1(50, 3)
        np.testing.assert_array_equal(back.features, clean.features)
        np.testing.assert_array_equal(back.labels, clean.labels)

    def test_dump_with_flips(self, tmp_path):
        out = str(tmp_path / "corrupt")
        code = run(["corrupt", "--seed", 0, "--out", out, "--n", 100,
                    "--eta", 0.4])
        assert code == EXIT_OK
        with open(out + ".labels.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "label,flipped"
        flips = sum(int(l.split(",")[1]) for l in lines[1:])
        assert 20 <= flips <= 60


class TestAttackCommand:
    def test_dump(self, tmp_path):
        out = str(tmp_path / "attacked")
        code = run(["attack", "--seed", 0, "--out", out, "--n", 60,
                    "--attack", "fgsm", "--epsilon", 0.1,
                    "--surrogate-epochs", 2, "--batch", 16])
        assert code == EXIT_OK
        data = np.genfromtxt(out + ".features.csv", delimiter=",",
                             skip_header=1)
        clean = synthetic_blobs(60, seed=0)
        assert np.max(np.abs(data - clean.features)) <= 0.1 + 1e-12

    @pytest.mark.parametrize("kind", ["pgd", "fgsm"])
    def test_features_outside_the_box_exit_3(self, tmp_path, monkeypatch, capsys,
                                             kind):
        # example1 features are N(0, 1) draws, most of them outside [0, 1];
        # an attack would clamp them to the box, not perturb them
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the features")

        monkeypatch.setattr("rsdnet.cli.train", no_training)
        for command in (["attack"], ["train", "--arch", "example1-mlp"]):
            code = run(command + ["--seed", 0, "--out", tmp_path / "out",
                                  "--n", 400, "--dataset", "example1",
                                  "--attack", kind, "--surrogate-epochs", 1])
            assert code == EXIT_BAD_DATA
            assert "outside the attack box" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["attack", "train"])
    @pytest.mark.parametrize("flags", [
        ["--attack", "fgsm", "--epsilon=nan"],
        ["--attack", "fgsm", "--epsilon=inf"],
        ["--attack", "pgd", "--epsilon=nan"],
        ["--attack", "pgd", "--step=nan"],
        ["--attack", "pgd", "--step=inf"],
    ], ids=["fgsm-epsilon-nan", "fgsm-epsilon-inf", "pgd-epsilon-nan",
            "pgd-step-nan", "pgd-step-inf"])
    def test_non_finite_budget_exits_2_before_training(self, tmp_path, monkeypatch,
                                                        command, flags):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the attack flags")

        monkeypatch.setattr("rsdnet.cli.train", no_training)
        code = run([command, "--seed", 0, "--out", tmp_path / "out", "--n", 20,
                    "--surrogate-epochs", 1] + flags)
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_fills_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.4\nn=100\n# comment line\n\nepochs=2\n")
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--folds", 2, "--batch", 16, "--config", str(cfg)])
        assert code == EXIT_OK
        rows = read_results(out)
        assert rows[0]["eta"] == pytest.approx(0.4)
        assert rows[0]["epochs"] == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.4\nepochs=2\n")
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--folds", 2, "--batch", 16, "--n", 60,
                    "--eta", 0.1, "--config", str(cfg)])
        assert code == EXIT_OK
        rows = read_results(out)
        assert rows[0]["eta"] == pytest.approx(0.1)

    def test_flag_equal_to_default_beats_config(self, tmp_path):
        # --epochs 50 is also the parser default; it must still win over
        # the config file's epochs=2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=2\n")
        out = str(tmp_path / "e.csv")
        code = run(["epochs", "--seed", 0, "--out", out, "--n", 40,
                    "--batch", 40, "--loss", "cce", "--epochs", 50,
                    "--config", str(cfg)])
        assert code == EXIT_OK
        assert len(np.genfromtxt(out, delimiter=",", skip_header=1)) == 50

    def test_bool_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = str(tmp_path / "if.csv")
        argv = ["influence", "--seed", 0, "--out", out, "--model", "M1",
                "--beta", 0.5, "--lambda", 0.0, "--grid=-1,1,3",
                "--sample-size", 20, "--config", str(cfg)]
        for text, zero in (("true", True), ("no", False)):
            cfg.write_text(f"correctly-specified={text}\n")
            assert run(argv) == EXIT_OK
            values = np.genfromtxt(out, delimiter=",", skip_header=1)[:, 2]
            assert bool(np.all(np.abs(values) < 1e-9)) == zero

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs 2\n")
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--config", str(cfg)])
        assert code == EXIT_BAD_FLAGS

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate=0.1\n")
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--config", str(cfg)])
        assert code == EXIT_BAD_FLAGS

    @pytest.mark.parametrize("command", ["train", "epochs"])
    def test_arch_outside_the_presets(self, tmp_path, command):
        # argparse checks choices on the command line, not on config defaults
        cfg = tmp_path / "run.cfg"
        cfg.write_text("arch=nonsense\n")
        code = run([command, "--seed", 0, "--out", tmp_path / "res.csv",
                    "--loss", "cce", "--config", cfg])
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == [cfg]

    def test_repeatable_flag_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss=cce\n")
        code = run(["epochs", "--seed", 0, "--out", tmp_path / "e.csv",
                    "--loss", "mae", "--config", cfg])
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_config_file(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_BAD_DATA

    @pytest.mark.parametrize("command", ["train", "epochs"])
    @pytest.mark.parametrize("key", ["beta=0.1", "lambda=-0.8"])
    def test_tuning_keys_are_unknown(self, tmp_path, command, key):
        # sd:BETA,LAMBDA is the one spelling of a tuning
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        code = run([command, "--seed", 0, "--out", tmp_path / "res.csv",
                    "--loss", "sd:0.5,-0.5", "--n", 30, "--epochs", 1,
                    "--config", cfg])
        assert code == EXIT_BAD_FLAGS
        assert list(tmp_path.iterdir()) == [cfg]


class TestOneParserPerProcess:
    """main parses with one parser per process; a --config run must not
    leave its config defaults behind in it."""

    ARGVS = (
        ["train", "--seed", "0", "--out", "OUT/cfg.csv", "--loss", "cce",
         "--folds", "2", "--batch", "16", "--config", "OUT/run.cfg"],
        ["train", "--seed", "0", "--out", "OUT/plain.csv", "--loss", "cce",
         "--folds", "2", "--batch", "64", "--n", "60"],
        ["epochs", "--seed", "2", "--out", "OUT/e.csv", "--loss", "cce",
         "--batch", "128", "--n", "60"],
    )
    OUTPUTS = ("cfg.csv", "plain.csv", "e.csv")

    def test_each_command_matches_a_fresh_process(self, tmp_path):
        src = str(Path(rsdnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for tag in ("shared", "fresh"):
            d = tmp_path / tag
            d.mkdir()
            (d / "run.cfg").write_text("eta=0.4\nepochs=2\nn=40\n")
            for argv in self.ARGVS:
                argv = [a.replace("OUT", str(d)) for a in argv]
                if tag == "shared":
                    assert run(argv) == EXIT_OK
                else:
                    subprocess.run([sys.executable, "-m", "rsdnet.cli", *argv],
                                   env=env, check=True)
        for name in self.OUTPUTS:
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), name
        # the config's eta and epochs applied to its own run only
        cfg, plain = (read_results(tmp_path / "shared" / n) for n in self.OUTPUTS[:2])
        assert (cfg[0]["eta"], cfg[0]["epochs"]) == (0.4, 2)
        assert (plain[0]["eta"], plain[0]["epochs"]) == (0.0, 50)
        trace = np.genfromtxt(tmp_path / "shared" / "e.csv", delimiter=",",
                              skip_header=1)
        assert len(trace) == 50


class TestDeterminism:
    def byte_compare(self, tmp_path, args, outputs):
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            code = run([a.replace("OUT", str(d)) if isinstance(a, str) else a
                        for a in args])
            assert code == EXIT_OK
        for name in outputs:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_train(self, tmp_path):
        self.byte_compare(
            tmp_path,
            ["train", "--seed", "5", "--out", "OUT/res.csv", "--n", "60",
             "--arch", "toy", "--loss", "sd:0.1,-0.8", "--folds", "2",
             "--epochs", "2", "--batch", "16", "--eta", "0.2"],
            ["res.csv", "res.csv.params.npy"])

    def test_bound(self, tmp_path):
        self.byte_compare(
            tmp_path,
            ["bound", "--seed", "0", "--out", "OUT/bound.csv", "--eta", "0.4",
             "--resolution", "8"],
            ["bound.csv"])

    def test_influence(self, tmp_path):
        self.byte_compare(
            tmp_path,
            ["influence", "--seed", "1", "--out", "OUT/if.csv", "--model",
             "M3", "--beta", "0.5", "--lambda", "-0.5", "--grid=-3,3,7",
             "--sample-size", "40"],
            ["if.csv"])

    def test_epochs(self, tmp_path):
        self.byte_compare(
            tmp_path,
            ["epochs", "--seed", "2", "--out", "OUT/e.csv", "--n", "60",
             "--arch", "toy", "--epochs", "2", "--batch", "16",
             "--loss", "cce"],
            ["e.csv"])

    def test_corrupt(self, tmp_path):
        self.byte_compare(
            tmp_path,
            ["corrupt", "--seed", "3", "--out", "OUT/c", "--n", "50",
             "--eta", "0.3"],
            ["c.features.csv", "c.labels.csv"])

    def test_attack(self, tmp_path):
        self.byte_compare(
            tmp_path,
            ["attack", "--seed", "4", "--out", "OUT/adv", "--n", "40",
             "--attack", "pgd", "--epsilon", "0.2", "--step", "0.05",
             "--iters", "5", "--surrogate-epochs", "2", "--batch", "16"],
            ["adv.features.csv", "adv.labels.csv"])
