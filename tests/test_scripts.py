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


CANNED_RUN = """\
workload solve seed 7 seconds 3 trace 0
env {"blas": "scipy-openblas 0.3.31.188.0", "blas_threads": 1, "nproc": 2}
metric setup_s = 0.299384 s (median, n=5)
metric solve_s = 0.458465 s (median, n=3)
metric solve_s_tail = 0.691473 s (max, n=3)
metric solve_s_best = 0.458292 s (min, n=3)
metric solve_nl_s_best = 0.217735 s (min, n=3)
metric job_best_s = 0.734864 s (sum of the fastest sample of each of 3 commands)
metric peak_rss_mb = 126.238 MB (n=1)
loadavg before 0.19 0.48 0.65 after 0.26 0.49 0.65; speed probe before 0.1491 s after 0.1336 s
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.3, \
"unit": "s"}, "job_best_s": {"value": 0.73, "unit": "s"}, "peak_rss_mb": {"value": 126.2, \
"unit": "MB"}}}
"""


def _bench_record():
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_parses_a_run_and_summarizes_pairs():
    """``bench_record`` reads ``run.py``'s output without running it."""
    bench = _bench_record()
    record = bench.parse_run_output(CANNED_RUN)
    assert record["metrics"] == {"setup_s": 0.3, "job_best_s": 0.73, "peak_rss_mb": 126.2}
    assert (record["correct"], record["attempted"], record["failed"]) == (True, 10, 0)
    assert record["best_s"] == {"solve": 0.458292, "solve_nl": 0.217735}
    assert record["env"]["nproc"] == 2
    assert (record["load_before"], record["load_after"]) == ("0.19 0.48 0.65",
                                                             "0.26 0.49 0.65")
    assert (record["probe_before_s"], record["probe_after_s"]) == (0.1491, 0.1336)
    runs = [{"pair": k, "workload": "solve", "side": side,
             "metrics": {"job_best_s": value}}
            for k, (p, c) in enumerate([(1.0, 0.7), (1.1, 0.8), (0.9, 1.2)])
            for side, value in (("parent", p), ("change", c))]
    entry = bench.summarize(runs)["solve"]["job_best_s"]
    assert entry["pairs"] == 3 and entry["change_lower"] == 2
    assert (entry["parent_q1"], entry["parent_median"], entry["parent_q3"]) == (
        pytest.approx(0.95), 1.0, pytest.approx(1.05))
    assert entry["change_median"] == 0.8
