"""The benchmark's tracer must find every function it wraps in rsdnet.

perfbench/run.py --trace 1 installs tracing.Tracer against the imported
rsdnet modules; a renamed or moved function would break it there, so this
test installs it here too.
"""

import importlib.util
import sys
from pathlib import Path

import rsdnet.attacks
import rsdnet.cli
import rsdnet.network
from rsdnet.cli import EXIT_OK

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as checked out
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_tracer_wraps_every_target(tmp_path):
    tracing = load_tracing()
    original = rsdnet.cli.data_io.dump_dataset
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rsdnet.cli.data_io.dump_dataset is not original
        code = rsdnet.cli.main(["corrupt", "--seed", "0", "--n", "20",
                                "--eta", "0.2", "--out", str(tmp_path / "c")])
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    assert rsdnet.cli.data_io.dump_dataset is original
    assert set(tracer.labels) == {"cli.main", "contamination.corrupt_labels",
                                  "data_io.dump_dataset"}


def traced_run(tmp_path, argv):
    """The tracer after one traced rsdnet.cli.main(argv) run."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = rsdnet.cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    return tracer


def traced_labels(tmp_path, argv):
    """Span labels of one traced rsdnet.cli.main(argv) run and its tags."""
    tracer = traced_run(tmp_path, argv)
    return tracer.labels, tracer.tags


def test_training_records_one_adam_step_per_batch(tmp_path):
    # 30 training rows of 40 in batches of 16: two steps
    labels, tags = traced_labels(tmp_path, [
        "epochs", "--seed", "0", "--n", "40", "--epochs", "1",
        "--batch", "16", "--loss", "cce"])
    steps = [tag for label, tag in zip(labels, tags)
             if label == "optimizer.adam_step"]
    n_params = rsdnet.cli.ARCH_PRESETS["toy"].n_params
    assert steps == [n_params, n_params]


def test_lockstep_training_records_one_flat_adam_step_per_batch(tmp_path):
    # two losses train in one call: one train span, and each batch's Adam
    # step runs over both models' parameters as one flat buffer
    labels, tags = traced_labels(tmp_path, [
        "epochs", "--seed", "0", "--n", "40", "--epochs", "1",
        "--batch", "16", "--loss", "cce", "--loss", "sd:0.1,-0.8"])
    assert labels.count("optimizer.train") == 1
    steps = [tag for label, tag in zip(labels, tags)
             if label == "optimizer.adam_step"]
    n_params = rsdnet.cli.ARCH_PRESETS["toy"].n_params
    assert steps == [2 * n_params, 2 * n_params]


def test_influence_records_psi(tmp_path):
    labels, _ = traced_labels(tmp_path, [
        "influence", "--seed", "0", "--model", "M1", "--beta", "0.5",
        "--lambda", "-0.5", "--grid=-1,1,3", "--sample-size", "20"])
    assert labels.count("theory.psi") == 1


def test_train_attack_records_both_attacks_per_fold(tmp_path, monkeypatch):
    # per fold: the surrogate trains and attacks the training set, then the
    # model trains and the validation set is attacked against the model.
    # On one core the two folds and their one-block attacks all run on the
    # calling thread, so the tracer's one span stack orders every span.
    # The attack steps run attacks._input_gradient, which the tracer does
    # not wrap; test_cli checks which network each attack steps through
    monkeypatch.setattr(rsdnet.network, "_usable_cores", lambda: 1)
    tracer = traced_run(tmp_path, [
        "train", "--seed", "0", "--n", "40", "--arch", "toy", "--loss", "cce",
        "--folds", "2", "--epochs", "1", "--batch", "16", "--attack", "fgsm",
        "--epsilon", "0.1", "--surrogate-epochs", "1"])
    spans = list(zip(tracer.labels, tracer.parents))
    watched = ("optimizer.train", "attacks.adversarial_trainset")
    top = [i for i, (label, parent) in enumerate(spans)
           if parent == 0 and label in watched]
    assert [spans[i][0] for i in top] == list(watched) * 4
    # each attack starts once the network it attacks through has trained
    for train, trainset in zip(top[::2], top[1::2]):
        assert tracer.ends[train] <= tracer.starts[trainset]


def test_train_on_two_workers_records_every_call(tmp_path, monkeypatch):
    # three folds on two cores run on three threads: their spans' parents
    # may cross threads (one span stack for all threads, ROADMAP item 5),
    # their counts may not, with or without --attack
    argv = ["train", "--seed", "0", "--n", "60", "--arch", "toy", "--loss",
            "cce", "--folds", "3", "--epochs", "2", "--batch", "16"]
    attack = ["--attack", "pgd", "--epsilon", "0.1", "--step", "0.05",
              "--iters", "3", "--surrogate-epochs", "2"]
    counts = {}
    steps = []  # one entry per attack step, from any thread
    real_kernel = rsdnet.attacks._input_gradient

    def kernel(*args, **kwargs):
        steps.append(1)
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(rsdnet.attacks, "_input_gradient", kernel)
    for run, flags in (("plain", []), ("attack", attack)):
        for workers in (1, 2):
            monkeypatch.setattr(rsdnet.network, "_usable_cores",
                                lambda w=workers: w)
            out = tmp_path / run / f"w{workers}"
            out.mkdir(parents=True)
            steps.clear()
            labels = traced_run(out, argv + flags).labels
            counts[run, workers] = {label: labels.count(label)
                                    for label in set(labels)}
            counts[run, workers]["attack steps"] = len(steps)
        assert counts[run, 2] == counts[run, 1]
    assert counts["plain", 1]["optimizer.train"] == 3
    assert counts["plain", 1]["optimizer.adam_step"] == 3 * 2 * 3  # 40 rows, batches of 16
    assert counts["plain", 1]["cli.main"] == 1
    # per fold a surrogate and a model, and their two attacks of 3 steps
    assert counts["attack", 1]["optimizer.train"] == 3 * 2
    assert counts["attack", 1]["attacks.adversarial_trainset"] == 3 * 2
    assert counts["attack", 1]["attack steps"] == 3 * 2 * 3
