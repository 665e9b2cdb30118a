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
stops the run.  Reruns on one tree print the same JSON.
"""

from __future__ import annotations

import argparse
import hashlib
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
     "--loss", "cce", "--loss", "sd:0.1,-0.8"],
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
            return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                    for name in sorted(os.listdir("."))}
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
