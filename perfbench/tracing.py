"""Timing wrappers around rsdnet's public functions.

The wrappers are installed from outside the package: each wrapped function
is replaced in every rsdnet module namespace that binds it (modules import
names directly, so ``rsdnet.optimizer.forward`` and ``rsdnet.attacks.forward``
are separate bindings of ``network.forward``), and
``LossSpec.value_and_grad_logits`` is replaced on the class.  Spans live in
memory as parallel lists indexed by entry order (label, parent span, start,
end, tag) and are summarised or written out after the traced passes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

# (label, defining module, attribute, namespaces to patch or None for all).
# make_tuning is patched in theory only, so that it counts the per-cell calls
# bound_grid makes and not the few made while parsing flags.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("optimizer.train", "optimizer", "train", None),
    ("optimizer.adam_step", "optimizer", "adam_step", None),
    ("network.forward", "network", "forward", None),
    ("network.backward", "network", "backward", None),
    ("divergence.value_and_grad_logits", "divergence",
     "LossSpec.value_and_grad_logits", None),
    ("attacks.input_gradient", "attacks", "input_gradient", None),
    ("attacks.adversarial_trainset", "attacks", "adversarial_trainset", None),
    ("data_io.read_idx", "data_io", "read_idx", None),
    ("data_io.dump_dataset", "data_io", "dump_dataset", None),
    ("data_io.write_results", "data_io", "write_results", None),
    ("contamination.corrupt_labels", "contamination", "corrupt_labels", None),
    ("theory.bound_grid", "theory", "bound_grid", None),
    ("theory.make_tuning", "divergence", "make_tuning", ("theory",)),
    ("theory.influence_function", "theory", "influence_function", None),
    ("theory.big_psi", "theory", "big_psi", None),
    ("theory.psi", "theory", "psi", None),
    ("theory.calibration_check", "theory", "calibration_check", None),
    ("theory.simplex_grid", "theory", "simplex_grid", None),
)
LABELS = tuple(t[0] for t in TARGETS)

# functions called often enough for per-call percentiles
PERCENTILE_LABELS = (
    "network.forward", "network.backward", "optimizer.adam_step",
    "divergence.value_and_grad_logits", "attacks.input_gradient",
    "theory.psi", "theory.make_tuning",
)
LOSS_KINDS = ("cce", "mae", "gce", "tcce", "sd")


# Tags record what a call worked on, for the shape-computed metrics.  They
# run after the span has closed, so their cost lands in the parent's time.
def _tag_forward(args):
    x = args[2]
    return args[1], np.shape(x)[0] if np.ndim(x) == 2 else 1


def _tag_backward(args):
    return args[2], args[0].inputs.shape[0]


def _tag_adam(args):
    return args[2].shape[0]


def _tag_loss(args):
    return args[0].kind


def _tag_dump(args):
    return sum(os.path.getsize(p) for p in args[1:3])


TAGGERS = {
    "network.forward": _tag_forward,
    "network.backward": _tag_backward,
    "attacks.input_gradient": _tag_forward,
    "optimizer.adam_step": _tag_adam,
    "divergence.value_and_grad_logits": _tag_loss,
    "data_io.dump_dataset": _tag_dump,
}


def forward_flop(arch, rows: int) -> int:
    """Matmul and bias-add FLOPs of one forward pass (activations excluded)."""
    d = arch.dims
    return sum(rows * (2 * d[i] * d[i + 1] + d[i + 1]) for i in range(len(d) - 1))


def backward_flop(arch, rows: int) -> tuple[int, int]:
    """(total, input-gradient part) FLOPs of one backward pass.

    backward() computes, per layer, the weight gradient, the bias gradient
    and the back-propagated delta, and multiplies hidden deltas by the
    activation derivative.  An input gradient needs only the last two.
    """
    d = arch.dims
    weights = sum(2 * d[i] * d[i + 1] + d[i + 1] for i in range(len(d) - 1))
    deltas = sum(2 * d[i] * d[i + 1] for i in range(len(d) - 1)) + sum(d[1:-1])
    return rows * (weights + deltas), rows * deltas


# Adam reads params, grad, m and v and writes m, v and params: 7 float64
# arrays of n_params each, counting no temporaries.
ADAM_ARRAYS_MOVED = 7


class Tracer:
    """Installs the timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.labels: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tags: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "rsdnet" or name.startswith("rsdnet.")}
        for label, home, attr, only in TARGETS:
            owner = modules[f"rsdnet.{home}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(label, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            for mod_name, mod in modules.items():
                if only is not None and mod_name.removeprefix("rsdnet.") not in only:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def _patch(self, obj, name, wrapper):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    def _wrap(self, label, fn):
        labels, parents, starts, ends, tags = (
            self.labels, self.parents, self.starts, self.ends, self.tags)
        stack = self._stack
        tagger = TAGGERS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            tags.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if tagger is not None:
                tags[idx] = tagger(args)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    @property
    def mark(self) -> int:
        """Index of the next span, for slicing spans into passes."""
        return len(self.labels)

    def per_layer(self, pass_bounds: list[tuple[int, int]]) -> dict[str, float]:
        """Per-layer metrics over the spans of the given passes.

        Counts and computed work are per pass; self time is the median over
        passes of each pass's summed self time; percentiles are over all
        calls of all passes.
        """
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parents = np.asarray(self.parents, dtype=np.intp)
        has_parent = parents >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        labels = np.asarray(self.labels, dtype=object)
        n_pass = len(pass_bounds)
        out: dict[str, float] = {}
        for label in LABELS:
            calls_per_pass, self_per_pass = [], []
            for lo, hi in pass_bounds:
                mask = labels[lo:hi] == label
                calls_per_pass.append(int(mask.sum()))
                self_per_pass.append(float(self_time[lo:hi][mask].sum()))
            out[f"{label}.calls"] = float(np.median(calls_per_pass))
            out[f"{label}.self_s"] = float(np.median(self_per_pass))
        sel = np.zeros(len(labels), dtype=bool)
        for lo, hi in pass_bounds:
            sel[lo:hi] = True
        for label in PERCENTILE_LABELS:
            d_us = dur[sel & (labels == label)] * 1e6
            out[f"{label}.p50_us"] = _pct(d_us, 50)
            out[f"{label}.p99_us"] = _pct(d_us, 99)
        kinds = np.asarray([t if l == "divergence.value_and_grad_logits" else None
                            for l, t in zip(self.labels, self.tags)], dtype=object)
        for kind in LOSS_KINDS:
            d_us = dur[sel & (kinds == kind)] * 1e6
            out[f"divergence.value_and_grad_logits.{kind}.p50_us"] = _pct(d_us, 50)
        fwd = bwd = useful = bwd_attack = adam_bytes = dump_bytes = 0
        for i in np.flatnonzero(sel):
            label, tag = self.labels[i], self.tags[i]
            if label == "network.forward":
                fwd += forward_flop(*tag)
            elif label == "network.backward":
                bwd += backward_flop(*tag)[0]
            elif label == "attacks.input_gradient":
                total, part = backward_flop(*tag)
                bwd_attack += total
                useful += part
            elif label == "optimizer.adam_step":
                adam_bytes += ADAM_ARRAYS_MOVED * 8 * tag
            elif label == "data_io.dump_dataset":
                dump_bytes += tag
        out["network.forward.gflop"] = fwd / 1e9 / n_pass
        out["network.backward.gflop"] = bwd / 1e9 / n_pass
        out["optimizer.adam_step.mb_moved"] = adam_bytes / 1e6 / n_pass
        out["data_io.dump_dataset.mb_written"] = dump_bytes / 1e6 / n_pass
        out["attacks.input_gradient.useful_flop_share"] = (
            useful / bwd_attack if bwd_attack else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: span, parent, label, start_us, end_us."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,label,start_us,end_us\n")
            for i, label in enumerate(self.labels):
                fh.write(f"{i},{self.parents[i]},{label},"
                         f"{(self.starts[i] - t0) * 1e6:.1f},"
                         f"{(self.ends[i] - t0) * 1e6:.1f}\n")


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
