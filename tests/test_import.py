"""What ``import regulus`` loads, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHECK = """
import sys
import regulus
from regulus import EvalCounter, Objective, ProblemDef

loaded = {m for m in sys.modules if m.split(".")[0] == "regulus"}
assert loaded == {
    "regulus", "regulus.core", "regulus.curvature", "regulus.linesearch",
    "regulus.problems", "regulus.solvers",
}, sorted(loaded)
lazy = [m for m in ("csv", "concurrent.futures") if m in sys.modules]
assert not lazy, lazy

objective = Objective(1, abs, abs)
problem = ProblemDef("p", 1, None, objective, None)
for record, field in ((objective, "dim"), (problem, "name")):
    try:
        setattr(record, field, 2)
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{type(record).__name__}.{field} is assignable")

counter = EvalCounter()
assert (counter.n_f, counter.n_g) == (0, 0)

for name in regulus.__all__:
    getattr(regulus, name)
assert "regulus.harness" in sys.modules
print("ok")
"""


def test_import_loads_only_the_solver_path():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
