"""Seeded inputs, command lists and output oracles of the benchmark workloads.

A workload is a job a user runs through the ``diffusepde`` command line: a
fixed list of commands over input files drawn from the seed.  The program
sees only those files.  Each command has an oracle that reads its exit code
and its report; a command whose oracle fails counts as failed.

All grids are 128 x 128 cells, so that one run holds several samples of
every command (the longest, the supremal-energy check, takes 3.5 to 6 s on
a 2-core x86 box).

There are two workloads, one per pipeline.  ``check`` runs the
supremal-energy check, whose time is in per-atom coefficient evaluation
(batched SVD), and the constant-coefficient checks, whose time is in jets
and per-cell pinv; an SVD-only saving shows in the first and not in the
second, which the log reports per command.  They share one workload, and
so one run, so that a fixed total benchmark time allows runs long enough to
sample past the slow spells of a shared host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diffusepde import reference, tensors
from diffusepde.cli import EXIT_CHECK_FAILED, EXIT_OK
from diffusepde.grids import Domain, GridFunction, save_grid
from diffusepde.measures import load_measure_field

RESOLUTION = 128
CHARACTERIZATIONS = ("pairing", "support", "integral", "cutoff", "distance")


@dataclass
class Command:
    """One CLI call.  Timings pool by ``kind`` and are reported as
    ``<kind>_s``; ``out`` names the output directory; ``argv`` excludes
    ``--out``; ``oracle(rc, out)`` returns ``(ok, info)``."""

    kind: str
    out: str
    argv: list
    oracle: object


@dataclass
class Workload:
    name: str
    why: str
    write_inputs: object   # (rng, indir) -> parameters of the commands
    commands: object   # (indir, params) -> list of Command


def _report(out, name):
    with open(Path(out) / name) as fh:
        return json.load(fh)


def _diag_decomposition():
    """Degenerate two-component tensor: each component's second derivative
    along the first axis (acceptance criterion 6)."""
    return tensors.Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                                 (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))


def _sines(x, p, q):
    return np.sin(p * np.pi * x[..., 0]) * np.sin(q * np.pi * x[..., 1])


# supremal-energy check -------------------------------------------------------

def _supremal_inputs(rng, indir):
    M = float(rng.uniform(0.5, 2.0))
    case = reference.sawtooth_map(M, 2, RESOLUTION)
    save_grid(indir / "map.grid", case.grids["map"])
    return {"M": M}


def _supremal_commands(indir, params):
    M = params["M"]

    def oracle(rc, out):
        rep = _report(out, "check_report.json")
        v, pairing = rep["verdicts"], rep["residuals"]["pairing"]
        # fold atoms keep support and integral from settling at this size
        ok = (rc == EXIT_CHECK_FAILED
              and v["pairing"] and v["cutoff"] and v["distance"]
              and not v["support"] and not v["integral"]
              and all(b <= a for a, b in zip(pairing, pairing[1:]))
              and pairing[-1] <= 1e-3 * M**3)
        return ok, {}

    # four levels bring the finest window down to the lattice step, where
    # the pairing cascade settles at 128^2
    return [Command("check_supremal", "check_supremal",
                    ["check", "--grid", str(indir / "map.grid"),
                     "--system", "infinity-laplace", "--levels", "4",
                     "--r-list", f"{10 * M!r},{100 * M!r}"], oracle)]


# constant-coefficient checks -------------------------------------------------

def _linear_inputs(rng, indir):
    dom = Domain.unit_square(RESOLUTION)
    x = dom.node_coords()
    c = rng.uniform([0.5, 0.1, 0.1], [1.0, 0.3, 0.3])
    # T : D^2 u differentiates each component twice along the first axis
    u = np.stack([c[0] * _sines(x, 1, 1) + c[1] * _sines(x, 2, 1),
                  c[2] * _sines(x, 1, 2)], axis=-1)
    f = np.stack([-np.pi**2 * c[0] * _sines(x, 1, 1)
                  - 4 * np.pi**2 * c[1] * _sines(x, 2, 1),
                  -np.pi**2 * c[2] * _sines(x, 1, 2)], axis=-1)
    _diag_decomposition().save(indir / "dec.json")
    save_grid(indir / "u.grid", GridFunction(dom, u))
    save_grid(indir / "f.grid", GridFunction(dom, f))
    save_grid(indir / "f_scaled.grid", GridFunction(dom, 1.8 * f))
    return {"h": dom.spacing}


def _linear_commands(indir, params):
    def diffuse_oracle(rc, out):
        field = load_measure_field(Path(out) / "measure.bin")
        ok = (rc == EXIT_OK and field.n_atoms == 4
              and field.domain.shape == (RESOLUTION + 1,) * 2)
        return ok, {}

    def verdict_oracle(expect_pass):
        def oracle(rc, out):
            v = _report(out, "check_report.json")["verdicts"]
            ok = (rc == (EXIT_OK if expect_pass else EXIT_CHECK_FAILED)
                  and all(v[name] == expect_pass for name in CHARACTERIZATIONS))
            return ok, {}
        return oracle

    check = ["check", "--grid", str(indir / "u.grid"), "--system", "linear-tensor",
             "--tensor", str(indir / "dec.json"), "--base-step", repr(8 * params["h"]),
             "--window", "2", "--c-disc", "132"]
    return [
        Command("diffuse", "diffuse",
                ["diffuse", "--grid", str(indir / "u.grid"), "--order", "2",
                 "--window", "4"], diffuse_oracle),
        Command("check_linear", "check_solution", check + ["--f", str(indir / "f.grid")],
                verdict_oracle(True)),
        Command("check_linear", "check_scaled", check + ["--f", str(indir / "f_scaled.grid")],
                verdict_oracle(False)),
    ]


# solve ------------------------------------------------------------------------

def _solve_inputs(rng, indir):
    dom = Domain.unit_square(RESOLUTION)
    x = dom.node_coords()
    tensors.random_decomposition(rng, 2, 2).save(indir / "coupled.json")
    coef = rng.standard_normal((3, 3, 2))
    f = sum(coef[p - 1, q - 1] / (p * q) * _sines(x, p, q)[..., None]
            for p in (1, 2, 3) for q in (1, 2, 3))
    save_grid(indir / "f_coupled.grid", GridFunction(dom, f))
    c = rng.uniform(0.5, 1.5, size=2)
    f = np.stack([c[0] * _sines(x, 1, 1), c[1] * _sines(x, 2, 1)], axis=-1)
    _diag_decomposition().save(indir / "diag.json")
    save_grid(indir / "f_diag.grid", GridFunction(dom, f))
    return {}


def _solve_commands(indir, params):
    coupled = str(indir / "coupled.json")

    def analyze_oracle(rc, out):
        rep = _report(out, "analyze_tensor_report.json")
        # nu may meet its product bound; allow the slack that
        # tensors.ellipticity_constant itself allows (tol_min = 1e-8)
        slack = max(1e-8, 1e-9 * rep["nu_bound"])
        return rc == EXIT_OK and rep["valid"] and rep["nu"] <= rep["nu_bound"] + slack, {}

    def solve_oracle(rc, out):
        rep = _report(out, "solve_report.json")
        cauchy = rep.get("cauchy_differences", [])
        ok = (rc == EXIT_OK and rep["accepted"]
              and all(b < a for a, b in zip(cauchy, cauchy[1:])))
        return ok, {"solve_residual": rep.get("final_residual")}

    def fixed_point_oracle(rc, out):
        rep = _report(out, "nonlinear_report.json")
        # acceptance criterion 6
        ok = (rc == EXIT_OK and rep["final_residual"] <= 1e-6
              and rep["max_ratio"] <= rep["kappa"] + 0.1)
        return ok, {"solve_nl_residual": rep["final_residual"]}

    return [
        Command("analyze", "analyze",
                ["analyze-tensor", "--decomposition", coupled, "--eps", "0.5"],
                analyze_oracle),
        Command("solve", "solve",
                ["solve-linear", "--decomposition", coupled,
                 "--f", str(indir / "f_coupled.grid")], solve_oracle),
        Command("solve_nl", "solve_nl",
                ["solve-nonlinear", "--decomposition", str(indir / "diag.json"),
                 "--f", str(indir / "f_diag.grid"), "--gamma", "0.2",
                 "--lip-frac", "0.3"], fixed_point_oracle),
    ]


# check -------------------------------------------------------------------------

def _check_inputs(rng, indir):
    return {**_supremal_inputs(rng, indir), **_linear_inputs(rng, indir)}


def _check_commands(indir, params):
    return _supremal_commands(indir, params) + _linear_commands(indir, params)


WORKLOADS = {w.name: w for w in [
    Workload("check",
             "check pipeline: supremal-energy check on a sawtooth map (batched SVD "
             "evaluation), then diffuse and constant-coefficient checks (jets, pinv)",
             _check_inputs, _check_commands),
    Workload("solve",
             "solve pipeline: analyze-tensor and solve-linear on a coupled random "
             "tensor (LU factorization), then a fixed-point solve reusing it",
             _solve_inputs, _solve_commands),
]}


def write_inputs(workload, seed, indir):
    """Write the seeded input files of ``workload`` into ``indir``."""
    indir = Path(indir)
    indir.mkdir(parents=True, exist_ok=True)
    params = WORKLOADS[workload].write_inputs(np.random.default_rng(seed), indir)
    with open(indir / "params.json", "w") as fh:
        json.dump(params, fh)
    return params


def read_params(indir):
    with open(Path(indir) / "params.json") as fh:
        return json.load(fh)
