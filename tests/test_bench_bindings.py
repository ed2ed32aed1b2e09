"""The benchmark's tracer binds to the package's functions by name.

``perfbench/tracing.py`` wraps functions and methods of every module on the
benchmark's call paths; a renamed or removed one makes ``instrument`` raise,
and one the package stops calling through its bound name reads zero.  These
tests catch both in well under a second, without running a workload.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_restores(tracing):
    from diffusepde import solver

    original = solver.DiscreteOperator._assemble
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert solver.DiscreteOperator._assemble is not original
    finally:
        tracer.restore()
    assert solver.DiscreteOperator._assemble is original


def _traced_laplace_check(tracing):
    """A traced two-level check of the Laplacian system built through the
    command line's binding; returns the tracer and the windows."""
    from diffusepde import checker, cli
    from diffusepde.frames import build_frame, schedule_window
    from diffusepde.grids import Domain, GridFunction
    from diffusepde.tensors import Tensor4

    dom = Domain.unit_square(32)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    u = GridFunction(dom, base[..., None] * [1.0, 0.0])
    f = GridFunction(dom, -2 * np.pi**2 * base[..., None] * [1.0, 0.0])
    windows = [schedule_window(4 * dom.spacing / 2**lvl, 2, ratio=0.5, order=2)
               for lvl in range(2)]
    frame = build_frame("standard", N=2, n=2)

    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        tracer.run_op(0, "check", lambda: checker.check_dsolution(
            u, cli.tensor_system(Tensor4.laplacian(2, 2)), frame, windows,
            R_list=[10.0, 50.0], f=f))
    finally:
        tracer.restore()
    assert tracing.span_defects(tracer.spans, 0) == []
    return tracer, windows


def test_traced_check_pairs_once_per_level(tracing):
    tracer, windows = _traced_laplace_check(tracing)
    metrics = tracing.layer_metrics(tracer, [0], [])
    assert metrics["measures.pair_calls"] == len(windows)
    assert metrics["measures.pair_s"] > 0.0


def test_traced_check_records_jets_and_linearization(tracing):
    """The check reaches the quotients and the system's linearization
    through the names the tracer binds: one ``frames.jets`` span per
    distinct schedule, one ``checker.linearization`` span."""
    tracer, windows = _traced_laplace_check(tracing)
    _, calls, _ = tracing.span_times(tracer.spans, [0])
    assert calls["frames.jets"] == len({s.rows for w in windows for s in w})
    assert calls["checker.linearization"] == 1
    metrics = tracing.layer_metrics(tracer, [0], [])
    assert metrics["frames.jets_s"] > 0.0
    assert metrics["checker.linearization_s"] > 0.0
