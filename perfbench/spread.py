"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload certify ...]

For every end-to-end metric this prints the median of the runs, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and the metric's bound from
``BENCHMARK.json``.  The runs are written to ``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, dict] = {}
    for workload in args.workload:
        runs = [run_once(spec, workload, seed)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed}/{attempted}, "
              f"correct {all(r['correct'] for r in runs)}")
        report[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {median:>12.5g}  spread {spread:7.2%}  bound {bound:.0%}{flag}")
            report[workload][name] = {"median": median, "spread": spread, "values": values}
    OUT.mkdir(exist_ok=True)
    (OUT / "spread.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    sys.exit(main())
