#!/usr/bin/env python3
"""Record paired benchmark runs of a parent commit and this checkout into ``BENCH_<pr>.json``.

For each pair and each workload of ``BENCHMARK.json``, runs ``perfbench/run.py``
untraced, for the benchmark's ``run_seconds``, once in an export of the
parent commit and once in this checkout, as separate processes, and
alternates which of the two runs first from pair to pair.  One more pair
runs at a held-out seed, ``--seed`` + 1, which the claim was not measured
on; it is summarized on its own.  Each record keeps
the run's last JSON line (``correct``, ``attempted``, ``failed`` and the
end-to-end metrics), its per-command fastest samples, and the load average
and machine-speed probe before and after the run; the summary gives, per
workload and metric, both sides' medians and quartiles and the number of
pairs in which the change reads lower.

Run from the repository root:

    python3 scripts/bench_record.py --pr 22 --parent HEAD~1 --pairs 5

The parent is exported with ``git archive`` into a temporary directory
(``TMPDIR`` chooses where) that is removed afterwards; the output names the
parent commit and ``git describe --dirty`` of this checkout.
"""

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
_PROBE = re.compile(r"loadavg before (?P<load_before>.+?) after (?P<load_after>.+?); "
                    r"speed probe before (?P<probe_before>\S+) s after (?P<probe_after>\S+) s")
_BEST = re.compile(r"metric (?P<kind>\S+)_s_best = (?P<value>\S+) s")


def parse_run_output(text):
    """The record of one ``run.py`` output: its last JSON line, the metric
    values, the fastest sample of each command kind, the environment line,
    and the load average and speed probe readings."""
    lines = text.strip().splitlines()
    last = json.loads(lines[-1])
    record = {"correct": last["correct"], "attempted": last["attempted"],
              "failed": last["failed"],
              "metrics": {name: m["value"] for name, m in last["metrics"].items()},
              "best_s": {}}
    for line in lines[:-1]:
        if line.startswith("env "):
            record["env"] = json.loads(line[len("env "):])
        elif (best := _BEST.match(line)) is not None:
            record["best_s"][best["kind"]] = float(best["value"])
        elif (probe := _PROBE.fullmatch(line)) is not None:
            record.update(load_before=probe["load_before"], load_after=probe["load_after"],
                          probe_before_s=float(probe["probe_before"]),
                          probe_after_s=float(probe["probe_after"]))
    return record


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def run_once(checkout, workload, seed, seconds):
    """One untraced ``run.py`` in ``checkout``; its parsed record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 10 + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout}: {proc.stderr.strip()}")
    return parse_run_output(proc.stdout)


def quartiles(values):
    """(lower quartile, median, upper quartile); a single value for all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs):
    """Per workload and end-to-end metric: both sides' quartiles and the
    count of pairs in which the change reads lower than the parent."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = [p for _, p in sorted(pairs.items()) if set(p) == set(SIDES)]
        summary[workload] = {}
        for name in pairs[0]["parent"] if pairs else ():
            sides = {side: [p[side][name] for p in pairs] for side in SIDES}
            entry = {f"{side}_{key}": value for side in SIDES
                     for key, value in zip(("q1", "median", "q3"), quartiles(sides[side]))}
            entry["change_lower"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
            entry["pairs"] = len(pairs)
            summary[workload][name] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=5)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    commits = {"parent": _git("rev-parse", args.parent).decode().strip(),
               "change": _git("describe", "--always", "--dirty").decode().strip()}
    runs = []
    with tempfile.TemporaryDirectory() as parent:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", commits["parent"]))) as tar:
            tar.extractall(parent, filter="data")
        checkouts = {"parent": parent, "change": ROOT}
        held_out = args.seed + 1
        for pair, seed in [(k, args.seed) for k in range(args.pairs)] + [(args.pairs, held_out)]:
            for workload in workloads:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    record = run_once(checkouts[side], workload, seed, seconds)
                    runs.append({"pair": pair, "seed": seed, "workload": workload,
                                 "side": side, **record})
                    print(f"pair {pair} seed {seed} {workload} {side}: job_best_s "
                          f"{record['metrics']['job_best_s']:.4f}, peak_rss_mb "
                          f"{record['metrics']['peak_rss_mb']:.1f}", flush=True)
    doc = {"pr": args.pr, "commits": commits, "seed": args.seed, "seconds": seconds,
           "env": runs[0].get("env") if runs else None,
           "summary": summarize([r for r in runs if r["seed"] == args.seed]),
           "held_out_seed": held_out,
           "held_out": summarize([r for r in runs if r["seed"] == held_out]),
           "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs]}
    with open(ROOT / f"BENCH_{args.pr}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
