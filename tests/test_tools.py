"""The scripts under tools/ run on this tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digests_are_the_same_on_a_rerun():
    def digests():
        run = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "output_digests.py"),
             "--src", str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=300)
        return json.loads(run.stdout)

    first = digests()
    assert first == digests()
    # every command's outputs, the IDX pair it reads, and the exit code and
    # stderr of each failing command
    errors = {
        "unknown-loss", "bad-loss", "n-zero", "unknown-dataset", "unknown-arch",
        "config-bad-line", "config-unknown-key", "config-repeatable-key",
        "grid-arity", "grid-not-a-number", "grid-count", "grid-non-finite",
        "theta-non-finite", "theta-not-a-number", "theta-empty",
        "sample-size-zero", "features-outside-the-box", "missing-csv",
        "influence-overflow", "classes-one", "resolution-zero", "folds-one",
        "theta-count", "epochs-zero", "surrogate-epochs-zero", "iters-zero",
        "epsilon-nan", "step-zero", "bound-eta", "train-eta", "epochs-eta",
        "corrupt-eta", "epochs-one-row", "sd-without-lambda",
    }
    assert set(first) == {
        "attack.features.csv", "attack.labels.csv", "bound.csv",
        "corrupt.features.csv", "corrupt.labels.csv", "epochs.csv",
        "epochs-idx.csv",
        "corrupt-example1.features.csv", "corrupt-example1.labels.csv",
        "images.idx", "labels.idx", "influence.csv", "influence-m1.csv",
        *(f"train-{kind}.csv{ext}" for kind in ("attack", "blobs", "csv", "idx")
          for ext in ("", ".params.npy")),
        *(f"error {name}" for name in errors),
    }
    # one stderr line each, and every failing exit code
    failures = [first[f"error {name}"] for name in errors]
    assert all(len(f["stderr"]) == 1 for f in failures)
    assert {f["exit"] for f in failures} == {2, 3, 4}


def test_step_timings_time_every_kernel_of_both_setups():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_timings.py"),
         "--src", str(ROOT / "src"), "--repeat", "1", "--budget", "0.001"],
        capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(run.stdout)
    assert {"python", "numpy", "blas"} <= set(report["environment"])
    setups = report["setups"]
    assert set(setups) == {"blob-noise-epochs", "mnist-noise-cv"}
    kernels = {"_forward", "softmax", "_label_terms", "_backward", "adam_step",
               "accuracy", "step"}
    blob, mnist = setups["blob-noise-epochs"], setups["mnist-noise-cv"]
    assert (blob["models"], blob["batch"], mnist["models"], mnist["batch"]) == (
        6, 32, 1, 128)
    assert set(blob["us_per_call"]) == kernels | {
        "loss cce", "loss mae", "loss gce(0.7)", "loss tcce(0.2)",
        "loss sd(0.1,-0.8)", "loss sd(0.5,-0.5)"}
    assert set(mnist["us_per_call"]) == kernels | {"loss sd(0.1,-0.8)"}
    for setup in setups.values():
        assert all(us > 0 for us in setup["us_per_call"].values())
