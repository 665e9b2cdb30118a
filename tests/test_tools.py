"""The scripts under tools/ run on this tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        "corrupt-eta", "epochs-one-row", "sd-without-lambda", "seed-negative",
        "influence-beta", "influence-lambda-nan", "gce-q", "tcce-delta",
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


def src_lines(src: Path) -> dict:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), "--src", str(src)],
        capture_output=True, text=True, check=True, timeout=60)
    return json.loads(run.stdout)


def test_src_lines_counts_code_without_blanks_comments_or_docstrings(tmp_path):
    (tmp_path / "rsdnet").mkdir()
    (tmp_path / "rsdnet" / "m.py").write_text(
        '"""A module."""\n\n# a comment\nX = 1  # kept\n\n\ndef f():\n'
        '    """Two\n    lines."""\n    return """a string,\nnot a docstring"""\n')
    (tmp_path / "rsdnet" / "__init__.py").write_text("")
    count = {"lines": 11, "code": 4}
    assert src_lines(tmp_path) == {
        "modules": {"__init__.py": {"lines": 0, "code": 0}, "m.py": count},
        "total": count}


def test_src_lines_counts_every_module_of_this_tree():
    report = src_lines(ROOT / "src")
    package = ROOT / "src" / "rsdnet"
    assert set(report["modules"]) == {path.name for path in package.glob("*.py")}
    assert report["total"] == {
        key: sum(count[key] for count in report["modules"].values())
        for key in ("lines", "code")}


# each tool's command line, with the --src it is given last
TOOL_ARGS = {
    "output_digests.py": [],
    "src_lines.py": [],
    "step_timings.py": ["--repeat", "1", "--budget", "0.001"],
    "train_attack_bench.py": ["run", "--images", "x.idx", "--labels", "y.idx"],
}


def run_tool(tool: str, src: Path) -> subprocess.CompletedProcess:
    # with this tree's src on PYTHONPATH, where a tool that ignored --src
    # would find an rsdnet all the same
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *TOOL_ARGS[tool], "--src", str(src)],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("tool", sorted(TOOL_ARGS))
def test_a_tool_refuses_a_src_without_the_package(tmp_path, tool):
    for src in (tmp_path / "missing", ROOT / "src" / "rsdnet"):
        run = run_tool(tool, src)
        assert run.returncode != 0 and run.stdout == ""
        assert run.stderr.startswith(f"error: --src {src} holds no rsdnet/"), tool


@pytest.mark.parametrize("tool", ["output_digests.py", "step_timings.py",
                                  "train_attack_bench.py"])
def test_a_tool_refuses_an_rsdnet_imported_from_elsewhere(tmp_path, tool):
    # a package under --src that hands the import over to the rsdnet on
    # PYTHONPATH
    (tmp_path / "rsdnet").mkdir()
    (tmp_path / "rsdnet" / "__init__.py").write_text(
        f"import sys\nsys.path.remove({str(tmp_path.resolve())!r})\n"
        "del sys.modules['rsdnet']\nimport rsdnet\n")
    run = run_tool(tool, tmp_path)
    assert run.returncode != 0 and run.stdout == ""
    assert run.stderr.startswith(
        f"error: imported rsdnet from {ROOT.resolve() / 'src' / 'rsdnet'}, "), tool
