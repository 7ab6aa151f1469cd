"""Write ``reference.json``: the checked outputs of every item of each pipeline.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are known good; the benchmark then
checks every later run against this snapshot.  For ``jacobian`` only the
order and the 2-rank are kept, since the checks do not compare the
invariants with the snapshot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def snapshot(name: str) -> dict:
    entries = {}
    for item in workloads.pipeline_items(name, seed=0)[0]:
        out = item.canon(item.call())
        if name == "jacobian":
            out = {"order": out["order"], "two_rank": out["two_rank"]}
        entries[item.key] = out
    return dict(sorted(entries.items()))


def main() -> None:
    lines = []
    for name in workloads.PIPELINES:
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                          for key, value in snapshot(name).items())
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
