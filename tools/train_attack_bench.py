"""Time `rsdnet train --attack` on source trees, in alternating pairs.

Run from the repository root, with a second checkout to compare against:

    python3 tools/train_attack_bench.py compare --rows 3000 --iters 100 \
        --pairs 5 --tree parent=../parent/src --tree change=src \
        --out train-attack.json

The data are perfbench's synthetic_images (seed 1) written as an IDX
pair.  Every run is a fresh process that imports rsdnet from its tree's
src directory and calls cli.main once, in-process, on mnist-mlp with 3
folds, 3 epochs, 3 surrogate epochs, batch 64, loss cce, seed 1 and the
attack at epsilon 0.1 (PGD with step 0.01).  It reports the wall and CPU
seconds of that call, the process's peak RSS and the sha256 of res.csv and
res.csv.params.npy.  Pair i runs the trees in the order given when i is
even and in reverse order when it is odd.

`run` does one such run and prints its JSON line; `--workers W` pins
network._usable_cores to W, so the fold pool's worker count can be
chosen on any machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the trees as checked out

REPO = Path(__file__).resolve().parent.parent


def write_images(rows: int, directory: Path) -> tuple[Path, Path]:
    """perfbench's synthetic_images(rows, 1) as an IDX pair in directory."""
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "src"))
    from rsdnet.data_io import Dataset, write_idx
    from workloads import synthetic_images

    pixels, labels = synthetic_images(rows, 1)
    images, label_file = directory / "images.idx", directory / "labels.idx"
    write_idx(Dataset(features=pixels / 255.0, labels=labels, num_classes=10),
              images, label_file, 28, 28)
    return images, label_file


def argv_for(images: Path, labels: Path, out: Path, attack: str,
             iters: int) -> list[str]:
    return ["train", "--seed", "1", "--out", str(out), "--dataset",
            f"idx:{images},{labels}", "--arch", "mnist-mlp", "--loss", "cce",
            "--folds", "3", "--epochs", "3", "--surrogate-epochs", "3",
            "--batch", "64", "--attack", attack, "--epsilon", "0.1",
            "--step", "0.01", "--iters", str(iters)]


def cpu_model() -> str:
    """The first "model name" of /proc/cpuinfo, else the platform's machine."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(args) -> None:
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy  # noqa: F401  (imported before the clock starts)
    from rsdnet import cli, network

    if args.workers:
        network._usable_cores = lambda: args.workers
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "res.csv"
        argv = argv_for(Path(args.images), Path(args.labels), out,
                        args.attack, args.iters)
        wall, cpu = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if code != 0:
            raise SystemExit(f"train exited {code}")
        record = {
            "wall_s": round(wall, 3), "cpu_s": round(cpu, 3),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024, 1),
            "res_csv_sha256": sha256(out),
            "params_npy_sha256": sha256(Path(str(out) + ".params.npy")),
        }
    print(json.dumps(record))


def spawn(src: str, images: Path, labels: Path, attack: str,
          iters: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "run", "--src", src, "--images", str(images),
         "--labels", str(labels), "--attack", attack, "--iters", str(iters)],
        check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(args) -> None:
    trees = [spec.split("=", 1) for spec in args.tree]
    with tempfile.TemporaryDirectory() as tmp:
        images, labels = write_images(args.rows, Path(tmp))
        pairs = []
        for i in range(args.pairs):
            order = trees if i % 2 == 0 else trees[::-1]
            pair = {"first": order[0][0]}
            for label, src in order:
                pair[label] = spawn(src, images, labels, args.attack, args.iters)
                print(label, pair[label], file=sys.stderr)
            pairs.append(pair)
    import numpy

    medians = {label: {key: statistics.median(p[label][key] for p in pairs)
                       for key in ("wall_s", "cpu_s", "peak_rss_mb")}
               for label, _ in trees}
    report = {
        "rows": args.rows, "attack": args.attack, "iters": args.iters,
        "environment": {"cpu_model": cpu_model(),
                        "usable_cores": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__},
        "pairs": pairs, "medians": medians,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="alternating pairs over two or more trees")
    p.add_argument("--tree", action="append", required=True,
                   help="LABEL=SRC, SRC a directory holding the rsdnet package")
    p.add_argument("--rows", type=int, default=3000)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=compare)
    p = sub.add_parser("run", help="one run, printed as a JSON line")
    p.add_argument("--src", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--workers", type=int, default=0,
                   help="pin network._usable_cores to this count (0: leave it)")
    p.set_defaults(func=run_once)
    for p in sub.choices.values():
        p.add_argument("--attack", default="pgd", choices=["fgsm", "pgd"])
        p.add_argument("--iters", type=int, default=100)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
