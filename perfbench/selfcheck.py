"""Self-check of the benchmark's own code.

Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that
- BENCHMARK.json lists exactly the workloads and metrics (with units) that
  the code defines;
- every output check passes a real rsdnet output and fails on a
  deliberately corrupted copy of it;
- a short run of every workload, untraced and traced, emits every named
  metric with its unit and reports no failure;
- a directory holding only BENCHMARK.json and perfbench/ makes run.py exit
  non-zero without printing a result.

Working files go to .perfbench/selfcheck/.  Exits 1 if anything fails.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS, run_cli, synthetic_images  # noqa: E402

WORK = ROOT / ".perfbench" / "selfcheck"
FAILURES: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def passes(what: str, problems: list[str]) -> None:
    expect(f"{what}: passes the real output", not problems)
    for p in problems:
        print(f"     {p}")


def rejects(what: str, problems: list[str]) -> None:
    expect(f"{what}: rejected", bool(problems))


def edit_csv(path: Path, out: Path, edit) -> Path:
    """Copy a CSV with edit(list of rows as lists of fields) applied."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return out


def check_catalogue() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json workloads match the code",
           [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    for key, catalogue in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(f"BENCHMARK.json {key} names, units and directions match the code",
               listed == catalogue)


def check_outputs(rsd) -> None:
    d = WORK / "outputs"
    d.mkdir(parents=True, exist_ok=True)

    # command runner: a rejected flag and a failing command are problems
    passes("run_cli", run_cli(rsd, ["bound", "--seed", 0, "--out", d / "b.csv",
                                    "--eta", 0.4, "--resolution", 3]))
    rejects("run_cli with a rejected flag",
            run_cli(rsd, ["bound", "--seed", 0, "--out", d / "b.csv",
                          "--eta", 0.4, "--resolution", "many"]))
    rejects("run_cli with an unreadable dataset",
            run_cli(rsd, ["attack", "--seed", 0, "--out", d / "x",
                          "--dataset", f"idx:{d / 'none'},{d / 'none'}",
                          "--attack", "fgsm"]))

    # epochs traces
    losses = ["cce", "sd(0.1,-0.8)"]
    run_cli(rsd, ["epochs", "--seed", 3, "--out", d / "epochs.csv", "--n", 200,
                  "--arch", "blob-mlp", "--eta", 0.4, "--batch", 32,
                  "--epochs", 3, "--loss", "cce", "--loss", "sd:0.1,-0.8"])
    good, acc = checks.check_epochs_csv(d / "epochs.csv", losses, 3, 0.0)
    passes("check_epochs_csv", good)

    def nan_loss(rows):
        rows[2][2] = "nan"

    rejects("check_epochs_csv with a nan loss", checks.check_epochs_csv(
        edit_csv(d / "epochs.csv", d / "bad.csv", nan_loss), losses, 3, 0.0)[0])
    rejects("check_epochs_csv with a missing row", checks.check_epochs_csv(
        edit_csv(d / "epochs.csv", d / "bad.csv", lambda rows: rows.pop()),
        losses, 3, 0.0)[0])
    rejects("check_epochs_csv below the accuracy floor", checks.check_epochs_csv(
        d / "epochs.csv", losses, 3, acc + 0.01)[0])

    # cross-validation results
    run_cli(rsd, ["train", "--seed", 3, "--out", d / "train.csv", "--n", 200,
                  "--arch", "blob-mlp", "--folds", 3, "--epochs", 2,
                  "--batch", 32, "--eta", 0.4, "--loss", "sd:0.1,-0.8"])
    good, acc = checks.check_results_csv(d / "train.csv", 3, 0.0)
    passes("check_results_csv", good)

    def shift_mean(rows):
        rows[-1][7] = str(float(rows[-1][7]) + 0.01)

    rejects("check_results_csv with a wrong mean row", checks.check_results_csv(
        edit_csv(d / "train.csv", d / "bad.csv", shift_mean), 3, 0.0)[0])
    rejects("check_results_csv with a missing fold", checks.check_results_csv(
        edit_csv(d / "train.csv", d / "bad.csv", lambda rows: rows.pop(1)), 3, 0.0)[0])
    rejects("check_results_csv below the accuracy floor",
            checks.check_results_csv(d / "train.csv", 3, acc + 0.01)[0])

    # PGD dump against its IDX input
    pixels, labels = synthetic_images(20, 3)
    x = pixels / 255.0
    rsd.data_io.write_idx(rsd.data_io.Dataset(features=x, labels=labels, num_classes=10),
                          d / "img.idx", d / "lab.idx", 28, 28)
    run_cli(rsd, ["attack", "--seed", 3, "--out", d / "adv",
                  "--dataset", f"idx:{d / 'img.idx'},{d / 'lab.idx'}",
                  "--attack", "pgd", "--epsilon", 0.3, "--iters", 40,
                  "--surrogate-epochs", 1])
    feats, labs = d / "adv.features.csv", d / "adv.labels.csv"
    passes("check_attack_dump",
           checks.check_attack_dump(feats, labs, x, labels, 0.3, 0.5))
    r, c = np.argwhere(x <= 0.6)[0]

    def push_out(rows):  # one attacked pixel just outside the epsilon-ball
        rows[1 + r][c] = repr(float(x[r, c]) + 0.3 + 1e-6)

    rejects("check_attack_dump with a pixel outside the ball",
            checks.check_attack_dump(edit_csv(feats, d / "bad.csv", push_out),
                                     labs, x, labels, 0.3, 0.5))

    def below_box(rows):
        rows[1][0] = "-1e-9"

    rejects("check_attack_dump with a pixel below 0",
            checks.check_attack_dump(edit_csv(feats, d / "bad.csv", below_box),
                                     labs, x, labels, 0.3, 0.5))

    def flip_label(rows):
        rows[1][0] = str((int(rows[1][0]) + 1) % 10)

    rejects("check_attack_dump with a changed label",
            checks.check_attack_dump(feats, edit_csv(labs, d / "bad.csv", flip_label),
                                     x, labels, 0.3, 0.5))
    rsd.data_io.dump_dataset(rsd.data_io.Dataset(features=x, labels=labels,
                                                 num_classes=10),
                             d / "same.features.csv", d / "same.labels.csv")
    rejects("check_attack_dump when the attack returns its input",
            checks.check_attack_dump(d / "same.features.csv", labs, x, labels, 0.3, 0.5))

    # bound grid against the closed form
    run_cli(rsd, ["bound", "--seed", 0, "--out", d / "bound.csv", "--eta", 0.4,
                  "--classes", 10, "--resolution", 20])
    passes("check_bound_csv", checks.check_bound_csv(d / "bound.csv", 0.4, 10, 20))
    with open(d / "bound.csv", newline="", encoding="utf-8") as fh:
        flags = [row[2] for row in csv.reader(fh)]
    k, z = flags.index("1"), flags.index("0")

    def nudge(rows):
        rows[k][3] = format(float(rows[k][3]) * 1.001, ".6g")

    def fill(rows):
        rows[z][3] = "1"

    rejects("check_bound_csv with one cell off by 0.1%", checks.check_bound_csv(
        edit_csv(d / "bound.csv", d / "bad.csv", nudge), 0.4, 10, 20))
    rejects("check_bound_csv with a value for an inadmissible pair",
            checks.check_bound_csv(edit_csv(d / "bound.csv", d / "bad.csv", fill),
                                   0.4, 10, 20))
    rejects("check_bound_csv for another eta",
            checks.check_bound_csv(d / "bound.csv", 0.3, 10, 20))

    # influence curves
    run_cli(rsd, ["influence", "--seed", 0, "--out", d / "if.csv", "--model", "M2",
                  "--beta", 0.5, "--lambda", -0.5, "--grid=-1,1,5"])
    grid = np.linspace(-1.0, 1.0, 5)
    passes("check_influence_csv", checks.check_influence_csv(d / "if.csv", grid, 7))

    def inf_value(rows):
        rows[3][2] = "inf"

    rejects("check_influence_csv with an infinite value", checks.check_influence_csv(
        edit_csv(d / "if.csv", d / "bad.csv", inf_value), grid, 7))
    rejects("check_influence_csv for a model with 2 parameters",
            checks.check_influence_csv(d / "if.csv", grid, 2))

    # calibration
    p_star = np.array([0.2, 0.7, 0.1])
    tuning = rsd.divergence.make_tuning(0.5, -0.5)
    res = rsd.theory.calibration_check(p_star, tuning, step=0.01)
    passes("check_calibration", checks.check_calibration(p_star, res))
    rejects("check_calibration with a wrong argmax", checks.check_calibration(
        p_star, dataclasses.replace(res, argmax_class=0)))
    rejects("check_calibration with a CalibrationError", checks.check_calibration(
        p_star, rsd.theory.CalibrationError("grid argmin predicts class 0")))

    # determinism
    ref = {"a.csv": checks.digest(d / "bound.csv")}
    passes("check_identical", checks.check_identical(ref, dict(ref)))
    rejects("check_identical with changed bytes", checks.check_identical(
        ref, {"a.csv": checks.digest(d / "bad.csv")}))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs() -> None:
    for workload in WORKLOADS:
        for trace, catalogue in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            what = f"run {workload} --trace {trace}"
            proc = run_bench(ROOT, workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(f"{what}: prints a result (exit {proc.returncode})", False)
                print(proc.stderr[-2000:])
                continue
            expect(f"{what}: exits 0", proc.returncode == 0)
            expect(f"{what}: reports every metric with its unit",
                   {k: v["unit"] for k, v in result["metrics"].items()}
                   == {k: u for k, (u, _) in catalogue.items()})
            expect(f"{what}: correct with no failed operation",
                   result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1)


def check_bare_directory() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "theory-figures", 0)
    expect("run.py without the rsdnet sources exits non-zero without a result",
           proc.returncode != 0 and '"correct"' not in proc.stdout)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    import rsdnet.cli  # noqa: F401  (binds rsdnet.cli for run_cli)
    import rsdnet as rsd

    check_catalogue()
    check_outputs(rsd)
    check_runs()
    check_bare_directory()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
