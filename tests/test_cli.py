"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from rsdnet.cli import (
    EXIT_BAD_DATA,
    EXIT_BAD_FLAGS,
    EXIT_NUMERIC,
    EXIT_OK,
    CliError,
    main,
    parse_loss,
)
from rsdnet.data_io import read_results, write_idx, synthetic_blobs


def run(args):
    return main([str(a) for a in args])


class TestParseLoss:
    def test_inline_sd(self):
        spec = parse_loss("sd:0.1,-0.8")
        assert spec.kind == "sd"
        assert spec.tuning.beta == 0.1
        assert spec.tuning.lam == -0.8

    def test_sd_from_flags(self):
        spec = parse_loss("sd", beta=0.5, lam=0.0)
        assert spec.tuning.beta == 0.5

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

    def test_arch_mismatch_is_bad_data(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--dataset", "blobs",
                    "--arch", "mnist-mlp", "--loss", "cce"])
        assert code == EXIT_BAD_DATA

    def test_bad_loss_is_bad_flags(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "sd:0,0",
                    "--n", 30, "--epochs", 1])
        assert code == EXIT_BAD_FLAGS

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

    def test_inadmissible_tuning(self, tmp_path):
        out = str(tmp_path / "if.csv")
        code = run(["influence", "--seed", 0, "--out", out, "--model", "M1",
                    "--beta", 0.0, "--lambda", 0.0])
        assert code == EXIT_BAD_FLAGS


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


class TestCorruptCommand:
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

    def test_missing_config_file(self, tmp_path):
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "cce",
                    "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_BAD_DATA

    def test_lambda_key_maps_to_lam(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=0.1\nlambda=-0.8\n")
        out = str(tmp_path / "res.csv")
        code = run(["train", "--seed", 0, "--out", out, "--loss", "sd",
                    "--folds", 2, "--n", 60, "--epochs", 2, "--batch", 16,
                    "--config", str(cfg)])
        assert code == EXIT_OK
        rows = read_results(out)
        assert rows[0]["lambda"] == pytest.approx(-0.8)


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
