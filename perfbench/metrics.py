"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; selfcheck.py keeps the two in step.
"""

from tracing import LABELS, LOSS_KINDS, PERCENTILE_LABELS

# name -> (unit, better); reported by untraced runs (--trace 0)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "items_per_s": ("1/s", "higher"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    out = {}
    for label in LABELS:
        out[f"{label}.calls"] = ("count", "lower")
        out[f"{label}.self_s"] = ("s", "lower")
    for label in PERCENTILE_LABELS:
        out[f"{label}.p50_us"] = ("us", "lower")
        out[f"{label}.p99_us"] = ("us", "lower")
    for kind in LOSS_KINDS:
        out[f"divergence.value_and_grad_logits.{kind}.p50_us"] = ("us", "lower")
    out["network.forward.gflop"] = ("GFLOP", "lower")
    out["network.backward.gflop"] = ("GFLOP", "lower")
    out["optimizer.adam_step.mb_moved"] = ("MB", "lower")
    out["data_io.dump_dataset.mb_written"] = ("MB", "lower")
    out["attacks.input_gradient.useful_flop_share"] = ("share", "higher")
    out["trace.overhead_share"] = ("share", "lower")
    return out


# name -> (unit, better); reported by traced runs (--trace 1)
PER_LAYER = _per_layer()
