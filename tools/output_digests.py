"""Print the sha256 of every output of a fixed, seeded set of rsdnet
commands, as JSON, for one source tree.

Run from the repository root, once per tree, and compare the two prints:

    python3 tools/output_digests.py --src ../parent/src > parent.json
    python3 tools/output_digests.py --src src > change.json
    diff parent.json change.json

The commands run in-process, in order, through cli.main of the rsdnet
package under --src, in a fresh temporary directory: `epochs` on blobs
and on an IDX pair, `train` on blobs, on the IDX pair and on a CSV dump,
`train --attack`, `attack`, `corrupt` on blobs and on example 1 (whose
labels are drawn from posterior_example1), `bound`, and `influence` on
M2 and, correctly specified, on M1 (whose reference is the model's own
prob1).  The IDX pair holds IMAGE_ROWS of perfbench's synthetic_images
(seed 1), written by the tree's own write_idx; the CSV dump is the
output of the first `corrupt`.  Every file left in the directory, inputs
included, is digested, keyed by its name; a command that exits non-zero
stops the run.

Then each of a fixed list of failing commands, ERRORS, runs in the same
directory, and its exit code and stderr lines are printed under the key
"error NAME": the error contract, at least one command per exit code
2, 3 and 4, and one per message of a bad flag value.  Their paths are
relative to the directory, so reruns on one tree print the same JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave the trees as checked out

REPO = Path(__file__).resolve().parent.parent
IMAGES = "idx:images.idx,labels.idx"
IMAGE_ROWS = 300

COMMANDS = (
    ["corrupt", "--seed", "7", "--out", "corrupt", "--n", "300", "--eta", "0.3"],
    ["epochs", "--seed", "3", "--out", "epochs.csv", "--n", "800",
     "--arch", "blob-mlp", "--eta", "0.4", "--epochs", "3", "--batch", "32",
     "--loss", "cce", "--loss", "mae", "--loss", "gce:0.7", "--loss", "tcce:0.2",
     "--loss", "sd:0.1,-0.8", "--loss", "sd:0.5,-0.5"],
    ["epochs", "--seed", "4", "--out", "epochs-idx.csv", "--dataset", IMAGES,
     "--arch", "mnist-mlp", "--eta", "0.3", "--epochs", "2", "--batch", "64",
     "--loss", "cce", "--loss", "mae", "--loss", "gce:0.7", "--loss", "sd:0.1,-0.8"],
    ["train", "--seed", "5", "--out", "train-blobs.csv", "--n", "400",
     "--arch", "blob-mlp", "--eta", "0.2", "--epochs", "3", "--batch", "32",
     "--loss", "sd:0.5,-0.5"],
    ["train", "--seed", "6", "--out", "train-idx.csv", "--dataset", IMAGES,
     "--arch", "mnist-mlp", "--eta", "0.2", "--epochs", "2", "--batch", "64"],
    ["train", "--seed", "8", "--out", "train-csv.csv",
     "--dataset", "csv:corrupt.features.csv,corrupt.labels.csv",
     "--arch", "blob-mlp", "--epochs", "3", "--batch", "32", "--loss", "gce:0.7"],
    ["train", "--seed", "9", "--out", "train-attack.csv", "--dataset", IMAGES,
     "--arch", "mnist-mlp", "--eta", "0.2", "--epochs", "2", "--batch", "64",
     "--attack", "pgd", "--epsilon", "0.1", "--step", "0.02", "--iters", "5",
     "--surrogate-epochs", "2"],
    ["attack", "--seed", "10", "--out", "attack", "--dataset", IMAGES,
     "--attack", "pgd", "--epsilon", "0.1", "--step", "0.02", "--iters", "10",
     "--surrogate-epochs", "2", "--batch", "64"],
    ["bound", "--seed", "11", "--out", "bound.csv", "--eta", "0.3",
     "--resolution", "30"],
    ["influence", "--seed", "12", "--out", "influence.csv", "--model", "M2",
     "--beta", "0.1", "--lambda=-0.8", "--grid=-5,5,51"],
    ["corrupt", "--seed", "13", "--out", "corrupt-example1", "--dataset",
     "example1", "--n", "300", "--eta", "0.2"],
    ["influence", "--seed", "14", "--out", "influence-m1.csv", "--model", "M1",
     "--beta", "0.5", "--lambda=-0.5", "--theta", "0.5,-1", "--grid=-5,5,51",
     "--correctly-specified"],
)

# the config files the ERRORS read, written after the outputs are digested
CONFIGS = {
    "bad-line.cfg": "epochs 2\n",
    "unknown-key.cfg": "learning_rate=0.1\n",
    "repeatable.cfg": "loss=cce\n",
    "unknown-arch.cfg": "arch=nonsense\n",
}
TRAIN = ["train", "--seed", "0", "--out", "error.csv", "--loss", "cce"]
INFLUENCE = ["influence", "--seed", "0", "--out", "error.csv", "--model", "M1",
             "--beta", "0.5", "--lambda=-0.5"]
BOUND = ["bound", "--seed", "0", "--out", "error.csv", "--eta", "0.1"]
ERRORS = {
    # exit 2: a bad flag value or config file
    "unknown-loss": TRAIN[:-1] + ["focal"],
    "bad-loss": TRAIN[:-1] + ["sd:0.0,0.0"],
    "n-zero": TRAIN + ["--n", "0"],
    "unknown-dataset": TRAIN + ["--dataset", "nonsense"],
    "unknown-arch": TRAIN + ["--config", "unknown-arch.cfg"],
    "config-bad-line": TRAIN + ["--config", "bad-line.cfg"],
    "config-unknown-key": TRAIN + ["--config", "unknown-key.cfg"],
    "config-repeatable-key": ["epochs", "--seed", "0", "--out", "error.csv",
                              "--loss", "mae", "--config", "repeatable.cfg"],
    "grid-arity": INFLUENCE + ["--grid=1,2"],
    "grid-not-a-number": INFLUENCE + ["--grid=0,1,2.5"],
    "grid-count": INFLUENCE + ["--grid=0,1,0"],
    "grid-non-finite": INFLUENCE + ["--grid=-1e308,1e308,3"],
    "theta-non-finite": INFLUENCE + ["--theta=nan,1"],
    "theta-not-a-number": INFLUENCE + ["--theta=1,x"],
    "theta-empty": INFLUENCE + ["--theta="],
    "sample-size-zero": INFLUENCE + ["--sample-size=0"],
    "classes-one": BOUND + ["--classes", "1"],
    "resolution-zero": BOUND + ["--resolution", "0"],
    "folds-one": TRAIN + ["--n", "40", "--folds", "1"],
    "theta-count": INFLUENCE + ["--theta=1,1,1"],
    "epochs-zero": TRAIN + ["--epochs", "0"],
    "surrogate-epochs-zero": TRAIN + ["--attack", "fgsm", "--surrogate-epochs", "0"],
    "iters-zero": TRAIN + ["--attack", "pgd", "--iters", "0"],
    "epsilon-nan": TRAIN + ["--attack", "pgd", "--epsilon", "nan"],
    "step-zero": TRAIN + ["--attack", "pgd", "--step", "0"],
    "bound-eta": BOUND[:-1] + ["0.95"],
    "train-eta": TRAIN + ["--eta", "1"],
    "epochs-eta": ["epochs", "--seed", "0", "--out", "error.csv", "--loss", "cce",
                   "--eta", "1"],
    "corrupt-eta": ["corrupt", "--seed", "0", "--out", "error", "--eta", "1"],
    "epochs-one-row": ["epochs", "--seed", "0", "--out", "error.csv", "--loss", "cce",
                       "--n", "1"],
    "sd-without-lambda": TRAIN[:-1] + ["sd:0.5"],
    # exit 3: bad data
    "features-outside-the-box": ["attack", "--seed", "0", "--out", "error",
                                 "--dataset", "example1", "--n", "50",
                                 "--attack", "fgsm", "--epsilon", "0.1"],
    "missing-csv": TRAIN + ["--dataset", "csv:missing.features.csv,missing.labels.csv"],
    # exit 4: a numeric failure
    "influence-overflow": ["influence", "--seed", "0", "--out", "error.csv",
                           "--model", "M2", "--beta", "0.5", "--lambda=-0.5",
                           "--theta", "1,1,1,1,1,10,1", "--grid=1e308,1e308,1"],
}


def digests(src: Path) -> dict:
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(0, str(REPO / "perfbench"))
    from rsdnet import cli
    from rsdnet.data_io import Dataset, write_idx
    from workloads import synthetic_images

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pixels, labels = synthetic_images(IMAGE_ROWS, 1)
            write_idx(Dataset(features=pixels / 255.0, labels=labels,
                              num_classes=10),
                      "images.idx", "labels.idx", 28, 28)
            for argv in COMMANDS:
                code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
            report = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                      for name in sorted(os.listdir("."))}
            for name, text in CONFIGS.items():
                Path(name).write_text(text, encoding="utf-8")
            for name, argv in ERRORS.items():
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                report[f"error {name}"] = {"exit": code,
                                           "stderr": err.getvalue().splitlines()}
            return report
        finally:
            os.chdir(cwd)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="a directory holding the rsdnet package")
    args = parser.parse_args()
    print(json.dumps(digests(Path(args.src)), indent=1))


if __name__ == "__main__":
    main()
