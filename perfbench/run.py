"""Benchmark of the rsdnet command line, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload blob-noise-epochs --seed 1 \
        --seconds 20 --trace 0

The run imports rsdnet from ``src/``, sets up (import, input generation
and one checked warm-up pass) several times, then repeats passes for
``--seconds`` seconds, one command at a time in this process.  Every pass's
commands must exit 0 and every pass's output files must be byte-identical
to the first pass's, whose content is checked in full.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run spends half its time on
untraced passes and half on passes traced by tracing.Tracer, and reports
the per-layer metrics.  A human-readable report, the environment and the
per-pass samples precede it, and are also written to
``.perfbench/<workload>-seed<seed>-trace<t>/result.json`` (spans of a
traced run to ``spans.csv`` beside it).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as found, apart from .perfbench/

import numpy  # noqa: E402,F401  (loaded before set-up is timed: not rsdnet's import)

import checks  # noqa: E402
import environment  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 3


class Ledger:
    """Operations attempted (commands and output checks) and those failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def import_rsdnet():
    """Import rsdnet afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "rsdnet" or n.startswith("rsdnet.")]:
        del sys.modules[name]
    rsd = importlib.import_module("rsdnet")
    importlib.import_module("rsdnet.cli")
    return rsd


class Runner:
    def __init__(self, workload_cls, seed: int, work: Path):
        self.workload_cls = workload_cls
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.reference: dict[str, str] | None = None
        self.quality: dict[str, float] = {}

    def setup(self) -> float:
        """Import, generate inputs and run the warm-up pass; returns seconds."""
        t0 = time.perf_counter()
        self.rsd = import_rsdnet()
        self.workload = self.workload_cls(self.seed, self.work)
        self.workload.prepare(self.rsd)
        steps = self.workload.run(self.rsd)
        seconds = time.perf_counter() - t0
        self._judge(steps)
        return seconds

    def one_pass(self):
        """Run and judge one pass; returns (wall s, cpu s, steps)."""
        t0, c0 = time.perf_counter(), time.process_time()
        steps = self.workload.run(self.rsd)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self._judge(steps)
        return wall, cpu, steps

    def measure(self, seconds: float, tracer=None):
        """Passes for at least `seconds`, each (wall s, cpu s, steps, spans),
        where spans is the pass's range of tracer span indices."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            first = tracer.mark if tracer else 0
            passes.append((*self.one_pass(), (first, tracer.mark) if tracer else None))
        return passes

    def _judge(self, steps) -> None:
        for step in steps:
            self.ledger.record(step.label, step.problems)
        digests = {p.name: checks.digest(p) for p in self.workload.outputs()}
        if self.reference is None:
            self.reference = digests
            found, self.quality = self.workload.check()
            for name, problems in found:
                self.ledger.record(name, problems)
        else:
            self.ledger.record("identical_outputs",
                               checks.check_identical(self.reference, digests))


def _summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rsdnet" / "__init__.py").is_file():
        print(f"error: rsdnet sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, run_dir / "work")
    try:
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        rsdnet_file = Path(runner.rsd.__file__).resolve()
        if src.resolve() not in rsdnet_file.parents:
            print(f"error: imported rsdnet from {rsdnet_file}", file=sys.stderr)
            return 2
        passes = runner.measure(args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            traced = runner.measure(args.seconds / 2, tracer)
            tracer.uninstall()
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)

    wl = runner.workload
    walls = [p[0] for p in passes]
    cpus = [p[1] for p in passes]
    rates = [wl.items_per_pass / w for w in walls]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": statistics.median(rates),
    }
    ledger = runner.ledger
    extra = {"failed_share": (ledger.failed / ledger.attempted, "share")}
    if wl.rate_name:
        extra[wl.rate_name] = (end_to_end["items_per_s"], "1/s")
    extra.update(wl.step_metrics([p[2] for p in passes]))
    extra.update({k: (v, "share") for k, v in runner.quality.items()})

    env = environment.describe(ROOT, args.seed)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}; "
          f"one client, one command at a time; item = {wl.item}, "
          f"{wl.items_per_pass} per pass")
    print("environment " + json.dumps(env))
    print(f"setup_s  {_summary(setups)}")
    print(f"wall_s   {_summary(walls)}")
    print(f"cpu_s    {_summary(cpus)}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"operations attempted {ledger.attempted} failed {ledger.failed}")
    for problem in ledger.problems[:20]:
        print(f"problem: {problem}")

    if args.trace:
        traced_wall = statistics.median(p[0] for p in traced)
        reported = tracer.per_layer([p[3] for p in traced])
        reported["trace.overhead_share"] = traced_wall / end_to_end["wall_s"] - 1.0
        catalogue = metrics.PER_LAYER
        tracer.write(run_dir / "spans.csv")
        print(f"traced wall_s {_summary([p[0] for p in traced])}")
        for name in catalogue:
            print(f"  {name} {reported[name]:.6g} {catalogue[name][0]}")
    else:
        reported = end_to_end
        catalogue = metrics.END_TO_END

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": reported[name], "unit": catalogue[name][0]}
                    for name in catalogue},
    }
    record = {"args": vars(args), "environment": env, "result": result,
              "end_to_end": end_to_end,
              "extra": {k: v for k, (v, _) in extra.items()},
              "samples": {"setup_s": setups, "wall_s": walls, "cpu_s": cpus},
              "problems": ledger.problems}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
