"""Tests of the benchmark itself: tracer equivalence, metric lists, inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from diffusepde import cli  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_job_matches_untraced(name, tmp_path):
    """One job run untraced and traced: outputs byte-identical, oracles pass,
    and each traced command's spans form one well-formed tree."""
    params = workloads.write_inputs(name, 5, tmp_path / "in")
    commands = workloads.WORKLOADS[name].commands(tmp_path / "in", params)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        result = run.run_traced(cli, commands, tmp_path / "out", 0.0, tracer)
    finally:
        tracer.restore()
    assert result.mismatches == []
    assert result.failed == 0
    assert result.attempted == 2 * len(commands)
    assert not hasattr(cli.check_dsolution, "__wrapped__")  # patches undone


def test_span_defects_are_found():
    spans = [["cli.main", 0.0, 10.0, None, 1],
             ["checker.check", 1.0, 6.0, 0, 1],
             ["grids.mask", 5.0, 7.0, 1, 1],       # ends after its parent
             ["grids.io", 5.5, 9.0, 0, 1],         # overlaps checker.check
             ["grids.io", 2.0, None, 0, 1]]        # never closed
    assert tracing.span_defects(spans[:2], 1) == []
    assert tracing.span_defects(spans, 1) == [
        "span grids.mask lies outside its parent checker.check",
        "span grids.io is not closed",
        "children of span cli.main overlap",
    ]
    other_op = [["cli.main", 0.0, 10.0, None, 2], ["checker.check", 1.0, 6.0, 0, 1]]
    assert tracing.span_defects(other_op, 1) == [
        "span checker.check lies outside its parent cli.main", "0 root spans"]
    assert tracing.span_defects(spans[:2], 2) == ["0 root spans"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, u, b) for n, u, b, _, _ in tracing.PER_LAYER]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == (10.0, "p50")


def test_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a, b, c = (tmp_path / name / d for d in "abc")
        workloads.write_inputs(name, 3, a)
        workloads.write_inputs(name, 3, b)
        workloads.write_inputs(name, 4, c)
        assert run.digest(a) == run.digest(b)
        assert run.digest(a) != run.digest(c)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "check", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
