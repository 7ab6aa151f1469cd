"""The package imports and runs with sympy and numpy refused.

A subprocess puts a finder at the front of ``sys.meta_path`` that raises
ImportError for both, imports every quatorsion module and runs one call
of each pipeline.  This is what ``dependencies = []`` in pyproject.toml
promises; sympy and numpy stay test-only oracles.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import quatorsion

SMOKE = """
import importlib
import pkgutil
import sys


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("sympy", "numpy"):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, Refuse())

import quatorsion

for info in pkgutil.walk_packages(quatorsion.__path__, "quatorsion."):
    importlib.import_module(info.name)

from quatorsion import newform, quat, weil
from quatorsion.genus2 import jacobian, torsion

table = torsion.table_curves()[4]  # claimed torsion Z/6
report = torsion.certify_torsion(table.curve, table.torsion, 100)
group = jacobian.jacobian_group_mod_p(table.curve, 37, 1)
order = quat.maximal_order(quat.QuatAlgebra(-1, 3))
scan = weil.torsion_gcd_scan(3, 3, True)
verdict = newform.pqm_criterion(newform.load_fixture("243.2.a.d"))
print(report.verdict, report.order_gcd)
print(group.order, group.invariants)
print(quat.reduced_discriminant(order))
print(scan[0])
print(verdict.is_pqm, verdict.twist_disc, verdict.quaternion_disc)
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("sympy", "numpy")))
"""


def test_package_runs_without_sympy_and_numpy():
    src = str(Path(quatorsion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    flags = ["-O"] if sys.flags.optimize else []
    run = subprocess.run([sys.executable, *flags, "-c", SMOKE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "CONSISTENT 6",
        "900 (30, 30)",
        "6",
        "9",
        "True -3 6",
        "[]",
    ]
