"""Time each kernel of one lockstep training step on its own, as JSON.

Run from the repository root:

    python3 tools/step_timings.py --src src
    python3 tools/step_timings.py --src ../parent/src   # another tree

Two set-ups, at the shapes of two benchmark workloads:

- blob-noise-epochs: blob-mlp, the workload's six losses in lockstep
  (K = 6), batch 32, 500 evaluation rows;
- mnist-noise-cv: mnist-mlp, one sd(0.1,-0.8) model (K = 1), batch 128,
  2667 evaluation rows (a third of 8000).

Each set-up runs one step of train() by hand on fixed, seeded inputs
(blob features from synthetic_blobs, images from perfbench's
synthetic_images), then times every kernel of that step with timeit on
the same inputs: network._forward, softmax, divergence._label_terms
(the label set-up train runs once per batch for all K losses), each
loss's kernel LossSpec._value_and_grad on its result, network._backward,
adam_step and accuracy, which train runs once per epoch and model.  `step` is one train() epoch
of STEPS batches, divided by STEPS, train's own set-up included.  Each
figure is the best of --repeat runs, in microseconds per call; a run
makes as many calls as fit in --budget seconds, at least one.

Everything runs on this thread with OpenBLAS held at one thread, as the
folds of mnist-noise-cv train; blob-mlp's small matmuls never wake
OpenBLAS's worker anyway.  The JSON names the Python, numpy and BLAS
versions and the usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from pathlib import Path

sys.dont_write_bytecode = True  # leave the trees as checked out

REPO = Path(__file__).resolve().parent.parent
STEPS = 20

BLOB_LOSSES = ("cce", "mae", "gce:0.7", "tcce:0.2", "sd:0.1,-0.8", "sd:0.5,-0.5")
# (arch preset, losses, batch, evaluation rows)
SETUPS = {
    "blob-noise-epochs": ("blob-mlp", BLOB_LOSSES, 32, 500),
    "mnist-noise-cv": ("mnist-mlp", ("sd:0.1,-0.8",), 128, 8000 // 3 + 1),
}


def time_call(fn, repeat: int, budget: float) -> float:
    """Best of repeat timeit runs of fn, in microseconds per call."""
    timer = timeit.Timer(fn)
    number = max(1, int(budget / timer.timeit(1)))
    return min(timer.repeat(repeat, number)) / number * 1e6


def time_setup(name: str, repeat: int, budget: float) -> dict:
    import numpy as np
    from rsdnet import data_io, divergence, network, optimizer
    from rsdnet.cli import ARCH_PRESETS, parse_loss

    arch_name, specs, batch, eval_rows = SETUPS[name]
    arch = ARCH_PRESETS[arch_name]
    losses = tuple(parse_loss(s) for s in specs)
    K = len(losses)
    n = batch * STEPS + eval_rows
    if arch_name == "blob-mlp":
        dataset = data_io.synthetic_blobs(n, seed=1)
    else:
        sys.path.insert(0, str(REPO / "perfbench"))
        from workloads import synthetic_images
        pixels, labels = synthetic_images(n, 1)
        dataset = data_io.Dataset(features=pixels / 255.0, labels=labels,
                                  num_classes=10)
    train_rows, eval_at = np.arange(batch * STEPS), np.arange(batch * STEPS, n)

    # the buffers and first batch of train()'s lockstep loop
    flat = np.empty(K * arch.n_params, dtype=arch.dtype)
    params = flat.reshape(K, arch.n_params)
    params[:] = network.init_params(arch, 0)
    grad = np.empty_like(flat)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    s1, s2 = np.empty_like(flat), np.empty_like(flat)
    layers = network.unflatten(params, arch)
    grads = network.unflatten(grad.reshape(params.shape), arch)
    acts = arch.activations
    X = dataset.features[:batch].astype(arch.dtype)
    labels = dataset.labels[:batch]
    pres, posts = network._forward(layers, acts, X)
    probs = divergence.softmax(posts[-1])
    p_y, onehot = divergence._label_terms(labels, probs)
    grad_logits = np.empty(probs.shape, dtype=arch.dtype)
    for k, loss in enumerate(losses):
        grad_logits[k] = loss._value_and_grad(probs[k], p_y[k], onehot)[1]

    kernels = {
        "_forward": lambda: network._forward(layers, acts, X),
        "softmax": lambda: divergence.softmax(posts[-1]),
        "_label_terms": lambda: divergence._label_terms(labels, probs),
    }
    for k, loss in enumerate(losses):
        kernels[f"loss {loss.describe()}"] = (
            lambda loss=loss, k=k: loss._value_and_grad(probs[k], p_y[k], onehot))
    kernels["_backward"] = lambda: network._backward(
        X, pres, posts, layers, acts, grad_logits, grads, want_input=False)
    kernels["adam_step"] = lambda: optimizer.adam_step(
        1, flat, grad, m, v, s1, s2)
    kernels["accuracy"] = lambda: optimizer.accuracy(
        params[0], arch, dataset, rows=eval_at)
    cfg = optimizer.TrainConfig(losses=losses, epochs=1, batch_size=batch)
    us = {kernel: time_call(fn, repeat, budget) for kernel, fn in kernels.items()}
    us["step"] = time_call(
        lambda: optimizer.train(dataset, arch, 0, cfg, rows=train_rows),
        repeat, budget) / STEPS
    return {"arch": arch_name, "models": K, "batch": batch,
            "eval_rows": eval_rows, "us_per_call": {
                kernel: round(t, 2) for kernel, t in us.items()}}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "usable_cores": len(os.sched_getaffinity(0))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="a directory holding the rsdnet package")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--budget", type=float, default=0.05,
                        help="seconds of calls per timed run")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from rsdnet.network import _one_blas_thread
    with _one_blas_thread():
        setups = {name: time_setup(name, args.repeat, args.budget)
                  for name in SETUPS}
    print(json.dumps({"environment": environment(), "setups": setups}, indent=1))


if __name__ == "__main__":
    main()
