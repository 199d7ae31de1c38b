import os
import subprocess
import sys
from pathlib import Path

import srlab


def test_import_loads_no_heavy_scipy_modules():
    """`import srlab` leaves the scipy solver and integrator packages unloaded,
    so every command that does not need them starts without their cost."""
    heavy = ["scipy.sparse.linalg", "scipy.linalg", "scipy.integrate", "scipy.optimize"]
    code = ("import sys, srlab; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(srlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
