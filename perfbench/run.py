"""Run one benchmark workload as a batch job and print its metrics.

    python3 perfbench/run.py --workload genus2 --seed 1 --seconds 50 --trace 0

One process and one thread run the workload's items in a closed loop,
one at a time, in whole passes, until ``--seconds`` have gone by.  Each
item's output is checked against ``reference.json``; a mismatch or an
exception counts as a failed item and the run goes on.

Before an item, at most every quarter second, the run moves to the
least loaded CPU it may use (see ``CpuPicker``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on traced ones, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# name -> (unit, which direction is better).  item_ms_p50 and failed_share
# are printed too but are not in this list: the median jacobian item costs
# one or two Cantor probes depending on the seed, and failed_share is 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "item_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "exact_share": ("share", "higher"),
}
SETUP_REPEATS = 9
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# A fresh interpreter imports the library and builds the workload's inputs.
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[3:5]; import workloads; "
    "workloads.build(sys.argv[1], int(sys.argv[2])); print('ready', flush=True)"
)


def _spin() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


class CpuPicker:
    """Keeps the run on the fastest of the CPUs the process may use.

    On a shared host a neighbour often makes one CPU about 1.45 times
    slower than the other, and which one is slowed changes within a
    second or two.  ``pick`` times a short loop on each allowed CPU and
    pins the process to the fastest, at most once per ``interval``.
    The probes run between items, outside every timed call.
    """

    def __init__(self, interval: float = 0.25):
        can_pin = hasattr(os, "sched_setaffinity")
        self.cpus = sorted(os.sched_getaffinity(0)) if can_pin else []
        self.interval = interval
        self.last = -math.inf
        self.picks = dict.fromkeys(self.cpus, 0)

    def pick(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < self.interval:
            return
        best = min(self.cpus, key=self._probe)
        os.sched_setaffinity(0, {best})
        self.picks[best] += 1
        self.last = time.perf_counter()

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        fastest = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _spin()
            fastest = min(fastest, time.perf_counter() - start)
        return fastest

    def summary(self) -> str:
        total = sum(self.picks.values())
        if not total:
            return f"no CPU choice: the process may use {len(self.cpus) or 'an unknown number of'} CPU(s)"
        return f"{total} picks: " + ", ".join(
            f"cpu{cpu} {n / total:.0%}" for cpu, n in self.picks.items())


@dataclass
class Stats:
    samples: dict[str, list[float]]  # seconds of each call, by item key
    passes: list[float] = field(default_factory=list)  # summed seconds of each whole pass
    marks: list[int] = field(default_factory=list)  # first span of each pass
    attempted: int = 0
    failed: int = 0
    not_exact: set[str] = field(default_factory=set)  # keys with a failed or partial output

    def item_ms(self) -> list[float]:
        """Each item's fastest latency in the run.

        Other tenants of the host slow single calls by up to twice for
        seconds at a time; the fastest of several calls is the estimate
        that such bursts disturb least.
        """
        return [min(v) * 1e3 for v in self.samples.values()]

    def pass_s(self) -> float:
        """The time of a pass with every item at its fastest latency."""
        return sum(self.item_ms()) / 1e3


def measure_setup(name: str, seed: int, cpus: CpuPicker) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first item being ready.

    The interpreter inherits the CPU the picker chose.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        cpus.pick()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, name, str(seed), str(SRC), str(BENCH)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return times


def run_items(workload, reference, seconds: float, cpus: CpuPicker, tracer=None) -> Stats:
    """Call the items in order, pass after pass, until ``seconds`` have gone by.

    The first pass always completes; the last one may stop at any item.
    """
    items = workload.items
    stats = Stats({item.key: [] for item in items})
    deadline = time.perf_counter() + seconds
    total = 0.0
    calls = 0
    while calls < len(items) or time.perf_counter() < deadline:
        item = items[calls % len(items)]
        if tracer is not None and calls % len(items) == 0:
            stats.marks.append(tracer.mark())
        stats.attempted += 1
        cpus.pick()
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.active = True
            try:
                result = item.call()
            finally:
                if tracer is not None:
                    tracer.active = False
            elapsed = time.perf_counter() - start
            out = item.canon(result)
            ok = item.key in reference and item.check(out, reference[item.key])
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            out, ok = None, False
        total += elapsed
        stats.samples[item.key].append(elapsed)
        if not ok:
            stats.failed += 1
            print(f"FAILED {item.key}: {out!r}", file=sys.stderr)
        if not ok or not item.exact(out):
            stats.not_exact.add(item.key)
        calls += 1
        if calls % len(items) == 0:
            stats.passes.append(total)
            total = 0.0
    return stats


def lpoly_peak_alloc_mb(workload) -> float:
    """Peak traced allocation of one ``curve_lpoly`` call at the largest p."""
    if workload.lpoly_probe is None:
        return 0.0
    import quatorsion.genus2.curve as curve_mod

    tracemalloc.start()
    try:
        curve_mod.curve_lpoly(*workload.lpoly_probe)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def environment(name: str) -> dict:
    import numpy
    import sympy
    import workloads

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "threads": 1,
        "parameters": workloads.parameters(name),
    }


def end_to_end(stats: Stats, setup: list[float]) -> dict[str, float]:
    item_ms = stats.item_ms()
    return {
        "setup_s": statistics.median(setup),
        "pass_s": stats.pass_s(),
        "item_ms_p90": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_share": 1 - len(stats.not_exact) / len(item_ms),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quatorsion" / "__init__.py").is_file():
        print(f"no quatorsion sources under {SRC}", file=sys.stderr)
        return 2
    # One thread: pin the native thread pools before numpy is first imported;
    # the set-up processes inherit the setting.
    os.environ.update(dict.fromkeys(THREAD_POOL_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import workloads
    import quatorsion

    if Path(quatorsion.__file__).resolve().parent != SRC / "quatorsion":
        print(f"imported quatorsion from {quatorsion.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    cpus = CpuPicker()
    setup = [] if args.trace else measure_setup(args.workload, args.seed, cpus)
    workload = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()[args.workload]
    env = environment(args.workload)
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, **env}))

    if args.trace:
        from layers import MODULES, PER_LAYER, TARGETS, layer_metrics
        from tracer import Tracer

        plain = run_items(workload, reference, args.seconds / 2, cpus)
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            traced = run_items(workload, reference, args.seconds / 2, cpus, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}.npz", seed=args.seed, marks=traced.marks, **env)
        values = layer_metrics(tracer, traced.marks, traced.passes,
                               traced.pass_s() / plain.pass_s(), lpoly_peak_alloc_mb(workload))
        report_layers(values, PER_LAYER, MODULES, traced)
        units = PER_LAYER
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        stats = run_items(workload, reference, args.seconds, cpus)
        values = end_to_end(stats, setup)
        report_end_to_end(values, stats, setup)
        report_pipelines(stats, workload.pipeline_of)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        attempted, failed = stats.attempted, stats.failed
    print(f"CPU choice: {cpus.summary()}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report_end_to_end(values: dict[str, float], stats: Stats, setup: list[float]) -> None:
    samples = {
        "setup_s": f"median of {len(setup)} set-ups",
        "pass_s": f"fastest of each item over {stats.attempted} calls",
        "item_ms_p90": f"{len(stats.samples)} items, {stats.attempted} calls",
        "peak_rss_mb": "whole run",
        "exact_share": f"{len(stats.samples) - len(stats.not_exact)}/{len(stats.samples)} items",
    }
    rows = [(name, values[name], unit, better, samples[name])
             for name, (unit, better) in END_TO_END.items()]
    rows.insert(2, ("item_ms_p50", statistics.median(stats.item_ms()), "ms", "lower",
                    f"{len(stats.samples)} items, {stats.attempted} calls; no bound"))
    rows.append(("failed_share", stats.failed / stats.attempted, "share", "lower",
                 f"{stats.failed}/{stats.attempted} calls; as failed/attempted"))
    for name, value, unit, better, note in rows:
        print(f"{name:<14} {value:>12.4f} {unit:<6} {better} is better  ({note})")


def report_pipelines(stats: Stats, pipeline_of: dict[str, str]) -> None:
    """``pass_s`` split by the pipeline each item belongs to."""
    share: dict[str, float] = {}
    for key, times in stats.samples.items():
        share[pipeline_of[key]] = share.get(pipeline_of[key], 0.0) + min(times)
    print("pass_s by pipeline: " + ", ".join(f"{p} {t:.4f} s" for p, t in share.items()))


def report_layers(values: dict[str, float], units: dict[str, str], modules, traced: Stats) -> None:
    pass_s = values["trace.pass_s"]
    print(f"traced pass_s {pass_s:.4f} s = span self times + untraced "
          f"{values['trace.untraced_s']:.4f} s  (median of {len(traced.passes)} traced passes)")
    for module in modules:
        own = values[f"{module}.self_s"]
        print(f"  {module:<16} {own:>9.4f} s  {own / pass_s:6.1%}")
    for name, unit in units.items():
        print(f"{name:<50} {values[name]:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
