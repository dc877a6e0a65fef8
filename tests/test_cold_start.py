"""Start-up import path: what a fresh interpreter loads.

A single simulation must not import scipy at all; aggregating
replications into a confidence interval loads ``scipy.special`` only.
The check runs in a fresh interpreter so that modules imported by
other tests cannot mask a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import sys

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

import repro, repro.experiments
from repro.experiments import RunSettings, run_single

run_single("static-optimal", 10.0, settings=RunSettings(scale=0.02))
print("after-run", scipy_modules())

from repro.sim import ReplicationSummary

summary = ReplicationSummary()
for value in (1.0, 1.5, 2.5):
    summary.add_replication(value)
assert summary.interval().half_width > 0.0
loaded = scipy_modules()
print("after-interval", "scipy.special" in loaded, "scipy.stats" in loaded)
"""


def test_single_run_imports_no_scipy_and_intervals_only_special():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=False)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == [
        "after-run []",
        "after-interval True False",
    ]
