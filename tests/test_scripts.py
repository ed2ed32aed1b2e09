"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    # the default windows need 34 lattice steps of margin on each side
    ("run_sawtooth_experiment.py", ["--resolution", "96", "--levels", "2"]),
    ("run_fixed_point_experiment.py", ["--resolution", "16"]),
    ("run_convergence_study.py", ["--resolutions", "16,32"]),
    ("run_lu_scaling.py", ["--resolution", "16", "--repeat", "1"]),
    ("run_lu_scaling.py", ["--dim", "3", "--resolution", "6", "--repeat", "1"]),
    # the finest levels' windows reach below the lattice step and are cut there
    ("run_sawtooth_experiment.py", ["--resolution", "96", "--levels", "5"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
