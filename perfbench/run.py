#!/usr/bin/env python3
"""Benchmark of the diffusepde check and solve pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run writes the workload's input files from the seed, then loops its
commands as in-process calls of ``diffusepde.cli.main`` for ``--seconds``
seconds.  The loop is closed with one client: each command starts when the
previous one returns, and whole passes through the command list (jobs) are
run until the time is up.  Every command's exit code and report go through
the workload's oracle.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give each metric with its unit and sample count, the environment, and
the load average and a machine-speed probe before and after the run.

``--trace 0`` runs the commands round-robin and reports the end-to-end
metrics.  Set-up is timed as the median of five fresh interpreters that
import diffusepde and write the inputs.  The gated command time,
``job_best_s``, is the fastest sample of each command in the run, summed
over the workload's command list.  On a small shared host other tenants
slow every command by up to 2x, in spells of seconds to minutes; the
fastest sample is the reading such a spell touched least.  Medians, tails
and fastest samples of each command are in the log.
``--trace 1`` writes the inputs under the tracer instead, runs each command
twice (untraced and traced, in alternating order) into the same output
directory, requires byte-identical outputs and well-formed spans, and
reports the per-layer metrics (medians over jobs) and the tracing overhead
(traced minus untraced job time).  The spans are written to
``.perfbench_work/<workload>/spans.json``.

No command starts once the time it took last would carry the run past
``--seconds``, so a run ends close to its time on a slow host too.

BLAS is pinned to one thread: the solvers and checkers run single-threaded
Python and SuperLU, and one thread keeps timings steadier on a small shared
machine.  Work files go to ``.perfbench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "job_best_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only write the seeded inputs (timed as set-up)")
    return ap.parse_args(argv)


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def speed_probe():
    """Seconds for a fixed batch of 2 x 2 SVDs.  Inside a VM the load average
    does not show other tenants of the host; this reading does."""
    import numpy
    batch = numpy.random.default_rng(0).standard_normal((20000, 2, 2))
    t0 = time.perf_counter()
    for _ in range(5):
        numpy.linalg.svd(batch)
    return time.perf_counter() - t0


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def tail(values):
    """Highest percentile with at least ten samples above it, or the maximum
    when the run holds fewer than eleven samples; returns (value, label)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f}"


def digest(out):
    sums = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            sums[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return sums


def time_setup(args):
    """Wall time of a fresh interpreter that imports diffusepde and writes the
    seeded inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed


class Run:
    """Samples and outcomes of one benchmark run."""

    def __init__(self):
        self.times = defaultdict(list)      # command kind -> untraced seconds
        self.best = {}                      # command out -> fastest untraced seconds
        self.jobs = []                      # untraced seconds per traced job
        self.overheads = []                 # traced minus untraced, per job
        self.job_ops = []                   # traced op ids per job
        self.info = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.mismatches = []


def run_command(cli, cmd, out, tracer=None, op_id=None):
    shutil.rmtree(out, ignore_errors=True)
    argv = cmd.argv + ["--out", str(out)]
    # start without the previous command's garbage, as a fresh CLI process
    # would, and keep collecting it out of the timed call
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        rc = tracer.run_op(op_id, "cli.main", cli.main, argv)
    elapsed = time.perf_counter() - t0
    try:
        ok, info = cmd.oracle(rc, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        print(f"oracle error on {cmd.out}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok, info = False, {}
    return elapsed, ok, info


def run_untraced(cli, commands, outroot, seconds):
    """Run the commands round-robin until the next one, taking as long as it
    took last, would end after ``seconds``; every command runs at least once."""
    run = Run()
    last = {}
    start = time.perf_counter()
    while True:
        for cmd in commands:
            if (len(last) == len(commands)
                    and time.perf_counter() - start + last[cmd.out] > seconds):
                return run
            elapsed = untraced_command(run, cli, cmd, outroot / cmd.out)
            last[cmd.out] = elapsed
            run.best[cmd.out] = min(elapsed, run.best.get(cmd.out, elapsed))


def run_traced(cli, commands, outroot, seconds, tracer):
    """Run whole jobs, each command untraced and traced into the same output
    directory, until the next job, taking as long as the last one, would end
    after ``seconds``; at least one job runs."""
    run = Run()
    start = time.perf_counter()
    last = 0.0
    while not run.jobs or time.perf_counter() - start + last <= seconds:
        job_start = time.perf_counter()
        job, traced_job, ops = 0.0, 0.0, []
        for cmd in commands:
            out = outroot / cmd.out
            op_id = len(tracer.sizes)
            tracer.sizes_of(op_id)["kind"] = cmd.out
            ops.append(op_id)
            # alternate which copy runs first, so warm-up favours neither
            outputs = {}
            for traced in (False, True) if len(run.jobs) % 2 == 0 else (True, False):
                if traced:
                    traced_job += traced_command(run, cli, cmd, out, tracer, op_id)
                else:
                    job += untraced_command(run, cli, cmd, out)
                outputs[traced] = digest(out)
            if outputs[True] != outputs[False]:
                run.mismatches.append(f"{cmd.out}: traced outputs differ")
                run.failed += 1
        run.jobs.append(job)
        run.overheads.append(traced_job - job)
        run.job_ops.append(ops)
        last = time.perf_counter() - job_start
    return run


def untraced_command(run, cli, cmd, out):
    elapsed, ok, info = run_command(cli, cmd, out)
    run.attempted += 1
    run.failed += not ok
    run.times[cmd.kind].append(elapsed)
    for key, value in info.items():
        run.info[key].append(value)
    return elapsed


def traced_command(run, cli, cmd, out, tracer, op_id):
    """Traced copy of a command, whose spans must form one well-formed tree."""
    first = len(tracer.spans)
    elapsed, ok, _ = run_command(cli, cmd, out, tracer, op_id)
    defects = tracing.span_defects(tracer.spans, op_id, first)
    if defects:
        run.mismatches.extend(f"{cmd.out}: {d}" for d in defects)
        ok = False
    run.attempted += 1
    run.failed += not ok
    return elapsed


def median_metric(lines, name, values, unit):
    value = statistics.median(values)
    lines.append(f"metric {name} = {value:.6g} {unit} (median, n={len(values)})")
    return value


def end_to_end(run, setup_times, lines):
    """Named metrics per command for the log, and the generic JSON metrics."""
    metrics = {"setup_s": median_metric(lines, "setup_s", setup_times, "s")}
    for kind, values in run.times.items():
        name = f"{kind}_s"
        median_metric(lines, name, values, "s")
        high, label = tail(values)
        lines.append(f"metric {name}_tail = {high:.6g} s ({label}, n={len(values)})")
        lines.append(f"metric {name}_best = {min(values):.6g} s (min, n={len(values)})")
    metrics["job_best_s"] = sum(run.best.values())
    lines.append(f"metric job_best_s = {metrics['job_best_s']:.6g} s (sum of the "
                 f"fastest sample of each of {len(run.best)} commands)")
    for name, values in run.info.items():
        median_metric(lines, name, values, "1")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"metric peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (n=1)")
    lines.append(f"metric ops_failed = {run.failed / run.attempted:.6g} fraction "
                 f"({run.failed} of {run.attempted})")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def per_layer(run, tracer, lines):
    per_job = [tracing.layer_metrics(tracer, ops, ["setup"]) for ops in run.job_ops]
    metrics = {}
    for name, unit, _, source, _ in tracing.PER_LAYER:
        if source == "run":
            continue
        value = statistics.median(job[name] for job in per_job)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"layer {name} = {value:.6g} {unit} (median, n={len(per_job)} jobs)")
    # spans check that self times are consistent, not that wrapper cost stays
    # out of them; this ratio shows such cost (1 when none, up to noise)
    modules = statistics.median(
        sum(v for k, v in job.items() if k.endswith(".self_s") and k != "trace.self_s")
        / untraced for job, untraced in zip(per_job, run.jobs))
    lines.append(f"trace module self time / untraced time = {modules:.4g} "
                 f"(median, n={len(per_job)} jobs)")
    overhead = statistics.median(run.overheads)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(f"layer trace.overhead_s = {overhead:.6g} s "
                 f"(median, n={len(run.overheads)} jobs)")
    for op_id in run.job_ops[0]:
        sizes = {**tracer.sizes[op_id], **tracer.counts[op_id]}
        kind = sizes.pop("kind")
        lines.append(f"sizes {kind}: {json.dumps({k: v for k, v in sizes.items() if v != []})}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "diffusepde" / "__init__.py").is_file():
        print(f"error: no diffusepde sources under {SRC}", file=sys.stderr)
        return 2
    indir = WORK / args.workload / "inputs"
    load_before = loadavg()
    setup_times = []
    if not args.setup_only and not args.trace:
        try:
            setup_times = [time_setup(args) for _ in range(SETUP_REPEATS)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    # numpy and diffusepde load only here, after the BLAS thread pin
    sys.path.insert(0, str(SRC))
    import diffusepde
    if Path(diffusepde.__file__).resolve().parent != SRC / "diffusepde":
        print(f"error: diffusepde imported from {diffusepde.__file__}", file=sys.stderr)
        return 2
    from diffusepde import cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.write_inputs(args.workload, args.seed, indir)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    try:
        if tracer is None:
            params = workloads.read_params(indir)
        else:
            params = tracer.run_op("setup", "bench.setup", workloads.write_inputs,
                                   args.workload, args.seed, indir)
        commands = workload.commands(indir, params)
        probe_before = speed_probe()
        outroot = WORK / args.workload / "out"
        if tracer is None:
            run = run_untraced(cli, commands, outroot, args.seconds)
        else:
            run = run_traced(cli, commands, outroot, args.seconds, tracer)
        probe_after = speed_probe()
    finally:
        if tracer is not None:
            tracer.restore()

    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}",
             f"env {json.dumps(environment(), sort_keys=True)}"]
    if tracer is None:
        metrics = end_to_end(run, setup_times, lines)
    else:
        metrics = per_layer(run, tracer, lines)
        with open(WORK / args.workload / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    lines.extend(f"mismatch {m}" for m in run.mismatches)
    lines.append(f"loadavg before {load_before} after {loadavg()}; speed probe "
                 f"before {probe_before:.4f} s after {probe_after:.4f} s")
    print("\n".join(lines))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
