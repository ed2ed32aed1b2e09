"""The benchmark's tracer binds to the package's functions by name.

``perfbench/tracing.py`` wraps functions and methods of every module on the
benchmark's call paths; a renamed or removed one makes ``instrument`` raise.
This test catches that in milliseconds, without running a workload.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_binds_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from diffusepde import solver

    original = solver.DiscreteOperator._assemble
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert solver.DiscreteOperator._assemble is not original
    finally:
        tracer.restore()
    assert solver.DiscreteOperator._assemble is original
