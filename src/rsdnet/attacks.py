"""White-box adversarial example generation (FGSM and PGD).

Attacks always maximize the CCE loss of the attacked model, matching the
surrogate generation protocol; both attacks are deterministic (no random
start) and respect the L-infinity budget and the box BOX exactly.  FGSM
is one PGD step of size epsilon: both run the same signed-step loop.

adversarial_trainset attacks its ATTACK_BATCH-row blocks on one thread per
core the process may run on, the caller's included, each writing its rows
into one shared output.  Meanwhile numpy's OpenBLAS is held at one thread,
and its count is restored afterwards, also when a block raises.  Rows are
attacked independently, so the bits are those of attacking the blocks one
at a time on one BLAS thread, whatever the number of workers or the thread
count OpenBLAS would pick.  Where no OpenBLAS thread setter is found, one
worker attacks the blocks in turn, at OpenBLAS's own thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .data_io import Dataset
from .divergence import LossSpec
from .network import (ArchitectureSpec, _as_inputs, _backward, _forward,
                      _model_layers)

_CCE = LossSpec(kind="cce")

# Attacked features always lie in this box; where a feature's epsilon-ball
# leaves it, the box wins.
BOX = (0.0, 1.0)

# Rows per block in adversarial_trainset; the attacked bits are the same at
# every size.  With two workers on 2 cores, the 1000 rows of pgd-attack-dump
# (PGD-100 on 784 inputs) took 1.04 / 0.76 / 0.61 / 0.53 / 0.53 s at 32 / 64
# / 128 / 256 / 512 rows.  Each worker holds four block-sized buffers, and
# 256 rows raised that workload's peak RSS by 3.6 MB (5%) over 128.
ATTACK_BATCH = 128


@dataclass(frozen=True)
class AttackConfig:
    kind: str                   # "fgsm" or "pgd"
    epsilon: float
    step_size: float = 0.01     # pgd only
    max_iters: int = 100        # pgd only

    def __post_init__(self):
        if self.kind not in ("fgsm", "pgd"):
            raise ValueError(f"unknown attack kind: {self.kind}")
        # NaN fails every comparison
        if not (0 <= self.epsilon < math.inf and 0 < self.step_size < math.inf
                and self.max_iters >= 1):
            raise ValueError("invalid attack hyperparameters: need a finite "
                             "epsilon >= 0, a finite step > 0 and iters >= 1")


def input_gradient(params, arch: ArchitectureSpec, x, labels,
                   loss: LossSpec = _CCE, *, out=None) -> np.ndarray:
    """Gradient of the selected loss with respect to the input features,
    one (input_dim,) row per example of the batch x, written into out (an
    (n, input_dim) float64 array) where given.

    Equal to backward(...)[1] for the batch-size-scaled logit gradient, but
    computes no weight or bias gradients.
    """
    X = _as_inputs(x, arch)
    layers = _model_layers(params, arch)
    pres, posts = _forward(layers, arch.activations, X)
    _, grad_logits = loss.value_and_grad_logits(labels, posts[-1])
    # undo the batch averaging: per-example input gradients
    return _backward(X, pres, posts, layers, arch.activations,
                     grad_logits * X.shape[0], out=out)


def _signed_steps(params, arch: ArchitectureSpec, x, labels, epsilon: float,
                  step_size: float, iters: int, out=None) -> np.ndarray:
    """iters signed-gradient steps, each projected onto the epsilon-ball
    around the batch x intersected with BOX (the box alone where they do
    not meet), into out where given (never into x).  Updated in place, with
    the bits of np.clip(adv + step_size * sign(g), lo, hi): minimum then
    maximum is that clip, since lo <= hi."""
    x0 = np.asarray(x, dtype=np.float64)
    lo = np.clip(x0 - epsilon, *BOX)
    hi = np.clip(x0 + epsilon, *BOX)
    adv = np.empty_like(x0) if out is None else out
    adv[...] = x0
    grad = np.empty_like(adv)  # one gradient buffer for every step
    step = np.empty_like(adv)
    for _ in range(iters):
        # sign into its own buffer: out=g, aliasing its input, runs slower
        np.sign(input_gradient(params, arch, adv, labels, out=grad), out=step)
        step *= step_size
        adv += step
        np.minimum(adv, hi, out=adv)
        np.maximum(adv, lo, out=adv)
    return adv


def _schedule(cfg: AttackConfig) -> tuple[float, int]:
    """(step size, iterations) of cfg's attack."""
    if cfg.kind == "fgsm":
        return cfg.epsilon, 1
    return cfg.step_size, cfg.max_iters


def fgsm(params, arch: ArchitectureSpec, x, labels, epsilon: float) -> np.ndarray:
    """Single signed-gradient step of size epsilon, clipped to the box."""
    return attack(params, arch, x, labels, AttackConfig(kind="fgsm", epsilon=epsilon))


def pgd(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig) -> np.ndarray:
    """Iterated signed steps projected onto the epsilon-ball and the box."""
    return attack(params, arch, x, labels, replace(cfg, kind="pgd"))


def attack(params, arch: ArchitectureSpec, x, labels, cfg: AttackConfig) -> np.ndarray:
    return _signed_steps(params, arch, x, labels, cfg.epsilon, *_schedule(cfg))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or
    None where no such library exports them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in (("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_set_num_threads64_"),
                          ("openblas_get_num_threads", "openblas_set_num_threads")):
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


_blas_lock = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, which receives whether
    it could, and restore its count on leaving.  Callers in other threads
    wait their turn: each attack already runs on every core."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    get, set_ = blas
    with _blas_lock:
        saved = get()
        set_(1)
        try:
            yield True
        finally:
            set_(saved)


def _usable_cores() -> int:
    """Cores this process may run on: the most attack workers."""
    return len(os.sched_getaffinity(0))


def adversarial_trainset(params_surrogate, arch_surrogate: ArchitectureSpec,
                         dataset: Dataset, cfg: AttackConfig) -> Dataset:
    """Replace every example's features by its attacked version.

    Labels are untouched; the perturbed set is fixed once (static
    adversarial training data).  Worker k of W attacks blocks k, k + W, ...;
    the first exception a block raises is raised here once every worker
    has stopped, as is one raised in the caller while it waits (Ctrl-C).
    """
    features = np.empty(dataset.features.shape)
    starts = range(0, dataset.n, ATTACK_BATCH)
    step_size, iters = _schedule(cfg)
    failed = []

    def work(first: int, workers: int):
        for start in starts[first::workers]:
            if failed:
                return
            rows = slice(start, start + ATTACK_BATCH)
            try:
                _signed_steps(params_surrogate, arch_surrogate,
                              dataset.features[rows], dataset.labels[rows],
                              cfg.epsilon, step_size, iters, out=features[rows])
            except BaseException as exc:  # re-raised in the caller's thread
                failed.append(exc)

    with _one_blas_thread() as held:
        cores = _usable_cores() if held else 1
        workers = max(1, min(cores, len(starts)))  # the caller, even for n = 0
        threads = [threading.Thread(target=work, args=(k, workers))
                   for k in range(1, workers)]
        try:
            for thread in threads:
                thread.start()
            work(0, workers)
            for thread in threads:
                thread.join()
        except BaseException as exc:  # say Ctrl-C while joining
            failed.append(exc)  # the workers stop after their current block
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join()
            raise
    if failed:
        raise failed[0]
    return Dataset(features=features, labels=dataset.labels,
                   num_classes=dataset.num_classes)
