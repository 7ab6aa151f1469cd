"""The newform fixture generator rebuilds the shipped records, without sympy.

A subprocess puts a finder at the front of ``sys.meta_path`` that raises
ImportError for sympy, as ``test_no_sympy.py`` does, loads
``scripts/gen_newform_fixtures.py`` as a module, rebuilds ``243.2.a.d``
and ``cm-256-disc-8`` in memory (about 1.5 s on two CPUs) and compares
each with the packaged file byte for byte.  ``972.2.a.e`` takes about
15 s more; the CI workflow regenerates all three by running the script
itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REGENERATE = """
import importlib.util
import sys


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, Refuse())

spec = importlib.util.spec_from_file_location("gen", sys.argv[1])
gen = sys.modules["gen"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
for stage in (gen.fixture_243, gen.fixture_cm_256):
    label, text = stage()
    shipped = (gen.FIXTURE_DIR / f"{label}.json").read_text()
    print("MATCH" if text == shipped else "DIFFER", label)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "sympy"))
"""


def test_generator_rebuilds_the_fast_fixtures_without_sympy():
    flags = ["-O"] if sys.flags.optimize else []
    script = ROOT / "scripts" / "gen_newform_fixtures.py"
    run = subprocess.run([sys.executable, *flags, "-c", REGENERATE, str(script)],
                         capture_output=True, text=True, env=dict(os.environ), timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    verdicts = [line for line in lines if line.startswith(("MATCH", "DIFFER"))]
    assert verdicts == ["MATCH 243.2.a.d", "MATCH cm-256-disc-8"]
    assert lines[-1] == "[]"
