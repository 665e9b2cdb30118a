"""The four benchmark workloads.

Each workload generates its inputs from the workload seed, runs one pass of
rsdnet commands in-process through ``rsdnet.cli.main`` (the theory workload
also sweeps ``theory.calibration_check`` as a library call), names the
output files a pass produces, and checks the first pass's outputs.  Why
each workload exists is written down in WORKLOADS.md.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass
class Step:
    """One command (or library sweep) of a pass."""

    label: str
    seconds: float
    problems: list[str] = field(default_factory=list)


def run_cli(rsd, argv) -> list[str]:
    """Run one rsdnet command in-process; anything but exit code 0 is a problem."""
    argv = [str(a) for a in argv]
    try:
        code = rsd.cli.main(argv)
    except SystemExit as exc:  # argparse exits on flags it rejects
        code = exc.code
    except Exception:  # a crash fails the command, not the benchmark
        return [f"{argv[0]} raised {traceback.format_exc(limit=-1).strip()}"]
    return [] if code == 0 else [f"{argv[0]} exited with code {code}"]


def timed(label: str, fn, *args) -> Step:
    t0 = time.perf_counter()
    problems = fn(*args)
    return Step(label, time.perf_counter() - t0, problems)


def synthetic_images(n: int, seed: int, classes: int = 10):
    """Overlapping 28x28 classes as (uint8 pixels, labels).

    Each image mixes its class prototype with another class's prototype at
    a weight drawn from [0.4, 1]; below 0.5 the other class dominates, so
    clean accuracy stays well below 1 and a wrong result cannot hide
    behind a saturated score.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.random((classes, 7, 7))
    protos = np.kron(coarse, np.ones((4, 4))).reshape(classes, 784)
    labels = rng.integers(0, classes, n)
    other = (labels + rng.integers(1, classes, n)) % classes
    w = rng.uniform(0.4, 1.0, n)[:, None]
    x = w * protos[labels] + (1.0 - w) * protos[other]
    x += rng.normal(0.0, 0.1, x.shape)
    return np.rint(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8), labels


class Workload:
    name = ""
    item = ""            # what items_per_s counts
    rate_name = ""       # name of items_per_s in the report, if it has one

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "in"
        self.out = work / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)

    def prepare(self, rsd) -> None:
        """Generate the inputs."""

    def run(self, rsd) -> list[Step]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    @property
    def items_per_pass(self) -> int:
        raise NotImplementedError

    def check(self) -> tuple[list[tuple[str, list[str]]], dict[str, float]]:
        """Checks of the current outputs, and the quality metrics they read."""
        raise NotImplementedError

    def step_metrics(self, passes: list[list[Step]]) -> dict[str, tuple[float, str]]:
        """Workload-specific per-command times; none by default."""
        return {}


def _write_idx_pair(rsd, pixels, labels, stem: Path) -> tuple[Path, Path]:
    images, label_file = stem.with_suffix(".images.idx"), stem.with_suffix(".labels.idx")
    dataset = rsd.data_io.Dataset(features=pixels / 255.0, labels=labels,
                                  num_classes=10)
    rsd.data_io.write_idx(dataset, images, label_file, 28, 28)
    return images, label_file


class BlobNoiseEpochs(Workload):
    name = "blob-noise-epochs"
    item = "example visited by train()"
    rate_name = "train_examples_per_s"
    N = 2000
    EPOCHS = 15
    LOSSES = ("cce", "mae", "gce:0.7", "tcce:0.2", "sd:0.1,-0.8", "sd:0.5,-0.5")
    DESCRIBED = ("cce", "mae", "gce(0.7)", "tcce(0.2)", "sd(0.1,-0.8)", "sd(0.5,-0.5)")
    ACCURACY_FLOOR = 0.75

    def run(self, rsd):
        argv = ["epochs", "--seed", self.seed, "--out", self.out / "epochs.csv",
                "--dataset", "blobs", "--n", self.N, "--arch", "blob-mlp",
                "--eta", 0.4, "--batch", 32, "--epochs", self.EPOCHS]
        for loss in self.LOSSES:
            argv += ["--loss", loss]
        return [timed("epochs", run_cli, rsd, argv)]

    def outputs(self):
        return [self.out / "epochs.csv"]

    @property
    def items_per_pass(self):
        return len(self.LOSSES) * self.EPOCHS * (3 * self.N // 4)

    def check(self):
        problems, acc = checks.check_epochs_csv(
            self.out / "epochs.csv", list(self.DESCRIBED), self.EPOCHS,
            self.ACCURACY_FLOOR)
        return [("epochs_csv", problems)], {"test_accuracy": acc}


class MnistNoiseCV(Workload):
    name = "mnist-noise-cv"
    item = "example visited by train()"
    rate_name = "train_examples_per_s"
    N = 8000
    FOLDS = 3
    EPOCHS = 3
    ACCURACY_FLOOR = 0.6

    def prepare(self, rsd):
        pixels, labels = synthetic_images(self.N, self.seed)
        self.idx = _write_idx_pair(rsd, pixels, labels, self.inputs / "mnist")

    def run(self, rsd):
        argv = ["train", "--seed", self.seed, "--out", self.out / "train.csv",
                "--dataset", "idx:{},{}".format(*self.idx), "--arch", "mnist-mlp",
                "--folds", self.FOLDS, "--epochs", self.EPOCHS, "--batch", 128,
                "--eta", 0.4, "--loss", "sd:0.1,-0.8"]
        return [timed("train", run_cli, rsd, argv)]

    def outputs(self):
        return [self.out / "train.csv", self.out / "train.csv.params.npy"]

    @property
    def items_per_pass(self):
        return (self.FOLDS - 1) * self.N * self.EPOCHS

    def check(self):
        problems, acc = checks.check_results_csv(
            self.out / "train.csv", self.FOLDS, self.ACCURACY_FLOOR)
        return [("results_csv", problems)], {"test_accuracy": acc}


class PgdAttackDump(Workload):
    name = "pgd-attack-dump"
    item = "example attacked with 100 PGD iterations"
    rate_name = "pgd_examples_per_s"
    N = 1000
    EPSILON = 0.3

    def prepare(self, rsd):
        self.pixels, self.labels = synthetic_images(self.N, self.seed)
        self.idx = _write_idx_pair(rsd, self.pixels, self.labels, self.inputs / "pgd")

    def run(self, rsd):
        argv = ["attack", "--seed", self.seed, "--out", self.out / "adv",
                "--dataset", "idx:{},{}".format(*self.idx), "--attack", "pgd",
                "--epsilon", self.EPSILON, "--step", 0.01, "--iters", 100,
                "--surrogate-epochs", 2, "--batch", 128]
        return [timed("attack", run_cli, rsd, argv)]

    def outputs(self):
        return [self.out / "adv.features.csv", self.out / "adv.labels.csv"]

    @property
    def items_per_pass(self):
        return self.N

    def check(self):
        problems = checks.check_attack_dump(
            self.out / "adv.features.csv", self.out / "adv.labels.csv",
            self.pixels / 255.0, self.labels, self.EPSILON, min_moved=0.5)
        return [("attack_dump", problems)], {}


class TheoryFigures(Workload):
    name = "theory-figures"
    item = "theory command or calibration_check call"
    ETA, CLASSES, RESOLUTION = 0.4, 10, 200
    TUNINGS = ((0.5, -0.5), (0.1, -0.8))
    MODELS = {"M1": 2, "M2": 7, "M3": 7}
    GRID = (-10.0, 10.0, 201)
    # number of p_star draws per class count J
    CALIBRATION_DRAWS = {3: 3, 4: 1}

    def prepare(self, rsd):
        rng = np.random.default_rng(self.seed)
        self.p_stars = []
        for J, count in self.CALIBRATION_DRAWS.items():
            while sum(len(p) == J for p in self.p_stars) < count:
                p = rng.dirichlet(np.ones(J))
                top2 = np.sort(p)[-2:]
                if top2[1] - top2[0] >= 0.1:  # a clear argmax, far from a tie
                    self.p_stars.append(p)

    def run(self, rsd):
        steps = [timed("bound", run_cli, rsd, [
            "bound", "--seed", self.seed, "--out", self.out / "bound.csv",
            "--eta", self.ETA, "--classes", self.CLASSES,
            "--resolution", self.RESOLUTION])]
        lo, hi, count = self.GRID
        for beta, lam in self.TUNINGS:
            for model in self.MODELS:
                steps.append(timed("influence", run_cli, rsd, [
                    "influence", "--seed", self.seed,
                    "--out", self._influence_path(model, beta, lam),
                    "--model", model, "--beta", beta, "--lambda", lam,
                    f"--grid={lo:g},{hi:g},{count}", "--sample-size", 1000]))
        results = []
        steps.append(timed("calibration", self._calibrate, rsd, results))
        with open(self.out / "calibration.json", "w", encoding="utf-8") as fh:
            json.dump(results, fh)
        return steps

    def _calibrate(self, rsd, results: list) -> list[str]:
        problems = []
        for p_star in self.p_stars:
            for beta, lam in self.TUNINGS:
                tuning = rsd.divergence.make_tuning(beta, lam)
                try:
                    res = rsd.theory.calibration_check(p_star, tuning, step=0.01)
                except rsd.theory.CalibrationError as exc:
                    res = exc
                problems += checks.check_calibration(p_star, res)
                if not isinstance(res, Exception):
                    results.append([res.argmin_point.tolist(), res.argmax_class,
                                    res.gap])
        return problems

    def _influence_path(self, model, beta, lam) -> Path:
        return self.out / f"influence-{model}-{beta:g}_{lam:g}.csv"

    def outputs(self):
        return [self.out / "bound.csv", self.out / "calibration.json"] + [
            self._influence_path(m, b, l) for b, l in self.TUNINGS for m in self.MODELS]

    @property
    def items_per_pass(self):
        return (1 + len(self.TUNINGS) * len(self.MODELS)
                + len(self.p_stars) * len(self.TUNINGS))

    def check(self):
        found = [("bound_csv", checks.check_bound_csv(
            self.out / "bound.csv", self.ETA, self.CLASSES, self.RESOLUTION))]
        grid = np.linspace(*self.GRID)
        for beta, lam in self.TUNINGS:
            for model, n_params in self.MODELS.items():
                found.append((f"influence_csv {model} ({beta:g},{lam:g})",
                              checks.check_influence_csv(
                                  self._influence_path(model, beta, lam),
                                  grid, n_params)))
        return found, {}

    def step_metrics(self, passes):
        """bound_s and influence_s per command, calibration_s per sweep."""
        out = {}
        for label in ("bound", "influence", "calibration"):
            per_pass = [np.mean([s.seconds for s in steps if s.label == label])
                        for steps in passes]
            out[f"{label}_s"] = (float(np.median(per_pass)), "s")
        return out


WORKLOADS = {w.name: w for w in (BlobNoiseEpochs, MnistNoiseCV, PgdAttackDump,
                                 TheoryFigures)}
