"""Spans and size counters recorded from outside the program.

A :class:`Tracer` replaces public functions of the ``diffusepde`` modules,
in every namespace that binds them on a command's call path, with wrappers
that record a span (name, start, end, parent span, op id).  Spans are kept in
memory; :func:`layer_metrics` turns the spans of a set of ops into per-layer
self times, inclusive span times, call counts and size counters.

The layer of a span is the text before the first dot of its name, which is
the module whose function it wraps.  Counting hooks run inside a span of the
``trace`` layer with tracing paused, so their cost is reported as tracing
cost and never lands in a module's self time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from types import SimpleNamespace

HOOK_SPAN = "trace.hook"


class Tracer:
    """In-memory span recorder; inactive outside :meth:`run_op`."""

    def __init__(self):
        self.spans = []                   # [name, start, end, parent, op]
        self.counts = defaultdict(lambda: defaultdict(int))     # op -> key -> value
        self.sizes = {}                   # op -> exact size counters of that op
        self.op = None
        self._stack = []
        self._paused = False
        self._patches = []

    # recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key, value):
        self.counts[self.op][key] += value

    def sizes_of(self, op):
        return self.sizes.setdefault(op, {"atoms_per_level": []})

    def run_op(self, op_id, root, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root span named ``root``."""
        self.op = op_id
        idx = self._open(root)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.op = None

    def wrap(self, fn, name, after=None, before=None):
        """Wrapper of ``fn`` that records a span named ``name``.

        ``before(args)`` may capture state ahead of the call.
        ``after(tracer, args, result, state)`` runs once the span has closed
        and returns the result handed to the caller (it may substitute a
        traced proxy).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None or tracer._paused:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is None:
                return result
            idx = tracer._open(HOOK_SPAN)
            tracer._paused = True
            try:
                return after(tracer, args, result, state)
            finally:
                tracer._paused = False
                tracer._close(idx)

        return wrapper

    def patch(self, owner, attr, name, after=None, before=None):
        orig = getattr(owner, attr)
        setattr(owner, attr, self.wrap(orig, name, after=after, before=before))
        self._patches.append((owner, attr, orig))

    def restore(self):
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


# aggregation ---------------------------------------------------------------

def span_times(spans, ops):
    """Per-name inclusive seconds and calls, and per-layer self seconds, over
    the spans of ``ops``."""
    ops = set(ops)
    child = defaultdict(float)
    for _, start, end, parent, op in spans:
        if op in ops and parent is not None:
            child[parent] += end - start
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for idx, (name, start, end, _, op) in enumerate(spans):
        if op not in ops:
            continue
        dur = end - start
        inclusive[name] += dur
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += dur - child[idx]
    return inclusive, calls, self_s


def span_defects(spans, op, first=0):
    """Defects in the spans of ``op`` from index ``first`` on: a span left
    open, a span that is not inside its parent's interval or belongs to
    another op, children whose intervals overlap (which makes self times
    wrong, or negative), or other than one root span.  The self times of a
    well-formed tree add up to the root's duration by construction, so these
    defects are what can go wrong with them."""
    defects = []
    roots = 0
    children = defaultdict(list)
    for idx in range(first, len(spans)):
        name, start, end, parent, span_op = spans[idx]
        if span_op != op:
            continue
        if end is None or end < start:
            defects.append(f"span {name} is not closed")
            continue
        if parent is None:
            roots += 1
            continue
        pname, pstart, pend, _, pop = spans[parent]
        if pop != op or pend is None or start < pstart or end > pend:
            defects.append(f"span {name} lies outside its parent {pname}")
        children[parent].append((start, end))
    for parent, intervals in children.items():
        intervals.sort()
        if any(b[0] < a[1] for a, b in zip(intervals, intervals[1:])):
            defects.append(f"children of span {spans[parent][0]} overlap")
    if roots != 1:
        defects.append(f"{roots} root spans")
    return defects


# Per-layer metrics: (name, unit, better, source, key).  ``span`` sums the
# inclusive time of spans named ``key``; ``calls`` counts them; ``self`` is the
# self time of layer ``key``; ``count`` reads a counter recorded by a hook;
# ``setup`` sums spans named ``key`` during input set-up; ``run`` metrics come
# from the benchmark loop itself.
PER_LAYER = [
    ("checker.check_s", "s", "lower", "span", "checker.check"),
    ("checker.self_s", "s", "lower", "self", "checker"),
    ("checker.evaluate_s", "s", "lower", "span", "checker.evaluate"),
    ("checker.evaluated_rows", "count", "lower", "count", "checker.evaluated_rows"),
    ("checker.linearization_s", "s", "lower", "span", "checker.linearization"),
    ("checker.cutoff_s", "s", "lower", "span", "checker.cutoff"),
    ("checker.distance_s", "s", "lower", "span", "checker.distance"),
    ("frames.self_s", "s", "lower", "self", "frames"),
    ("frames.jets_s", "s", "lower", "span", "frames.jets"),
    ("frames.jets_calls", "count", "lower", "calls", "frames.jets"),
    ("frames.quotient1_s", "s", "lower", "span", "frames.quotient1"),
    ("frames.quotient1_calls", "count", "lower", "calls", "frames.quotient1"),
    ("measures.self_s", "s", "lower", "self", "measures"),
    ("measures.diffuse_s", "s", "lower", "span", "measures.diffuse"),
    ("measures.atoms", "count", "lower", "count", "measures.atoms"),
    ("measures.inf_mass_frac", "1", "lower", "count", "measures.inf_mass_frac"),
    ("measures.pair_s", "s", "lower", "span", "measures.pair"),
    ("measures.pair_calls", "count", "lower", "calls", "measures.pair"),
    ("measures.io_s", "s", "lower", "span", "measures.io"),
    ("measures.io_bytes", "count", "lower", "count", "measures.io_bytes"),
    ("solver.self_s", "s", "lower", "self", "solver"),
    ("solver.assemble_s", "s", "lower", "span", "solver.assemble"),
    ("solver.unknowns", "count", "lower", "count", "solver.unknowns"),
    ("solver.factorize_s", "s", "lower", "span", "solver.factorize"),
    ("solver.factorizations", "count", "lower", "count", "solver.factorizations"),
    ("solver.lu_nnz", "count", "lower", "count", "solver.lu_nnz"),
    ("solver.trisolve_s", "s", "lower", "span", "solver.trisolve"),
    ("solver.refine_steps", "count", "lower", "count", "solver.refine_steps"),
    ("solver.projection_s", "s", "lower", "span", "solver.projection"),
    ("solver.evaluate_s", "s", "lower", "span", "solver.evaluate"),
    ("solver.fp_iterations", "count", "lower", "count", "solver.fp_iterations"),
    ("grids.self_s", "s", "lower", "self", "grids"),
    ("grids.mask_calls", "count", "lower", "calls", "grids.mask"),
    ("grids.mask_s", "s", "lower", "span", "grids.mask"),
    ("grids.gridfunction_calls", "count", "lower", "calls", "grids.gridfunction"),
    ("grids.gridfunction_s", "s", "lower", "span", "grids.gridfunction"),
    ("grids.differences_s", "s", "lower", "span", "grids.differences"),
    ("grids.io_s", "s", "lower", "span", "grids.io"),
    ("grids.io_bytes", "count", "lower", "count", "grids.io_bytes"),
    ("tensors.self_s", "s", "lower", "self", "tensors"),
    ("tensors.ellipticity_s", "s", "lower", "span", "tensors.ellipticity"),
    ("tensors.subspaces_s", "s", "lower", "span", "tensors.subspaces"),
    ("tensors.validate_s", "s", "lower", "span", "tensors.validate"),
    ("tensors.regularize_s", "s", "lower", "span", "tensors.regularize"),
    ("cli.self_s", "s", "lower", "self", "cli"),
    ("trace.self_s", "s", "lower", "self", "trace"),
    ("reference.build_s", "s", "lower", "setup", "reference.build"),
    ("trace.overhead_s", "s", "lower", "run", None),
]


def layer_metrics(tracer, ops, setup_ops):
    """The metrics of :data:`PER_LAYER` over the spans and counters of
    ``ops``, and the set-up spans of ``setup_ops``; ``run`` metrics are left
    to the caller."""
    inclusive, calls, self_s = span_times(tracer.spans, ops)
    setup, _, _ = span_times(tracer.spans, setup_ops)
    counts = defaultdict(float)
    for op in ops:
        for key, value in tracer.counts[op].items():
            counts[key] += value
    cells = counts.pop("measures.diffused_cells", 0.0)
    counts["measures.inf_mass_frac"] = (
        counts.pop("measures.inf_mass", 0.0) / cells if cells else 0.0)
    counts["solver.refine_steps"] = (counts["solver.trisolve_calls"]
                                     - counts["solver.operator_solves"])
    sources = {"span": inclusive, "calls": calls, "self": self_s, "count": counts,
               "setup": setup}
    return {name: float(sources[source].get(key, 0.0))
            for name, _, _, source, key in PER_LAYER if source != "run"}


# instrumentation of diffusepde ----------------------------------------------

def _counted(key):
    def after(tracer, args, result, state):
        tracer.add(key, 1)
        return result
    return after


def _file_bytes(key):
    def after(tracer, args, result, state):
        tracer.add(key, os.path.getsize(args[0]))
        return result
    return after


def _count_rows(key):
    def after(tracer, args, result, state):
        tracer.add(key, len(args[2]))
        return result
    return after


def _system_factory(layer, pick=lambda result: result):
    """Hook that wraps the evaluation closures of a returned system."""
    def after(tracer, args, result, state):
        system = pick(result)
        system.evaluate = tracer.wrap(system.evaluate, f"{layer}.evaluate",
                                      after=_count_rows(f"{layer}.evaluated_rows"))
        if system.jet_linearization is not None:
            system.jet_linearization = tracer.wrap(system.jet_linearization,
                                                   f"{layer}.linearization")
        return result
    return after


def _diffused(tracer, args, result, state):
    mask = result.domain.mask()
    cells = int(mask.sum())
    tracer.add("measures.atoms", cells * result.n_atoms)
    tracer.add("measures.diffused_cells", cells)
    tracer.add("measures.inf_mass", float(result.infinity_mass()[mask].sum()))
    tracer.sizes_of(tracer.op)["atoms_per_level"].append(cells * result.n_atoms)
    return result


def _factorized(tracer, args, result, state):
    """Count a new factorization and hand the caller a proxy whose ``solve``
    calls are triangular-solve spans; the factorization is untouched."""
    if state:  # no factorization was cached before the call
        tracer.add("solver.factorizations", 1)
        tracer.add("solver.lu_nnz", result.L.nnz + result.U.nnz)
    return SimpleNamespace(solve=tracer.wrap(result.solve, "solver.trisolve",
                                             after=_counted("solver.trisolve_calls")))


def _assembled(tracer, args, result, state):
    op = args[0]
    tracer.add("solver.unknowns", op.n_cells * op.N)
    return result


def _fixed_point(tracer, args, result, state):
    tracer.add("solver.fp_iterations", len(result[1].increments))
    return result


def _loaded_grid(tracer, args, result, state):
    tracer.add("grids.io_bytes", os.path.getsize(args[0]))
    tracer.sizes_of(tracer.op)["masked_cells"] = int(result.domain.mask().sum())
    return result


def instrument(tracer):
    """Wrap the public functions of every diffusepde module on the call paths
    of the benchmark's commands.  Undo with ``tracer.restore()``."""
    from diffusepde import checker, cli, grids, measures, reference, solver, tensors

    p = tracer.patch
    # checker: entry point, cut-off and distance stages, system closures
    p(cli, "check_dsolution", "checker.check")
    p(checker, "cutoff", "checker.cutoff")
    p(checker, "_distance_residual", "checker.distance")
    p(cli, "infinity_laplace_system", "checker.system", after=_system_factory("checker"))
    p(cli, "tensor_system", "checker.system", after=_system_factory("checker"))
    # frames: quotients as bound in checker and measures
    for owner in (checker, measures):
        p(owner, "jet_difference_quotients", "frames.jets")
        p(owner, "difference_quotient_1", "frames.quotient1")
    # measures: field construction, pairings, measure-file output
    p(cli, "diffuse_field", "measures.diffuse", after=_diffused)
    p(checker, "diffuse_field", "measures.diffuse", after=_diffused)
    p(checker, "pair", "measures.pair")
    p(measures, "default_cutoff", "measures.default_cutoff")
    p(cli, "save_measure_field", "measures.io", after=_file_bytes("measures.io_bytes"))
    # solver: linear and fixed-point solves and the operator stages
    p(solver, "solve_linear", "solver.solve_linear")
    p(solver, "campanato_solve", "solver.campanato", after=_fixed_point)
    p(solver, "make_nonlinearity", "solver.nonlinearity",
      after=_system_factory("solver", pick=lambda result: result[0]))
    p(solver, "fibre_projections", "solver.projection")
    p(solver.DiscreteOperator, "_assemble", "solver.assemble", after=_assembled)
    p(solver.DiscreteOperator, "factorize", "solver.factorize", after=_factorized,
      before=lambda args: args[0]._lu is None)
    p(solver.DiscreteOperator, "solve", "solver.operator_solve",
      after=_counted("solver.operator_solves"))
    # grids: masks, grid-function construction, differences, grid files
    p(grids.Domain, "mask", "grids.mask")
    p(grids.GridFunction, "__init__", "grids.gridfunction")
    p(solver, "gradient_central", "grids.differences")
    p(solver, "hessian_central", "grids.differences")
    p(cli, "load_grid", "grids.io", after=_loaded_grid)
    p(cli, "save_grid", "grids.io", after=_file_bytes("grids.io_bytes"))
    # tensors: validation, subspaces, ellipticity search, regularization
    p(tensors, "validate_decomposition", "tensors.validate")
    p(tensors, "ellipticity_constant", "tensors.ellipticity")
    p(tensors.Tensor4, "rank_one_form", "tensors.rank_one")
    for owner in (tensors, solver):
        p(owner, "ranges_and_subspaces", "tensors.subspaces")
        p(owner, "regularize", "tensors.regularize")
        p(owner, "canonicalize_decomposition", "tensors.canonicalize")
    # reference: input construction during set-up
    p(reference, "sawtooth_map", "reference.build")
