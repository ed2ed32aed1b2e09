"""Command-line front end: manifest-driven runs, deterministic reports and CSV tables.

Subcommands: ``analyze-tensor``, ``diffuse``, ``check``, ``solve-linear``,
``solve-nonlinear``, ``reference``, ``verify-estimate``.  Every run writes a
JSON report embedding the effective configuration (seed, cutoffs,
tolerances, schedules, grid parameters); identical inputs and seed yield
byte-identical artifacts.

Exit codes: 0 all declared checks pass, 1 check failures, 2 parse errors,
3 internal errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

# ``solver`` loads scipy, which only the solve-side commands need; they import it
from . import grids, measures, reference, tensors
from .checker import (NoFeasibleRadius, check_dsolution, default_margin,
                      infinity_laplace_system, eikonal_system, tangent_system, tensor_system)
from .frames import QuotientOverflow, build_frame, window_cascade
from .grids import Domain, GridFunction, load_grid, save_grid
from .measures import diffuse_field, save_measure_field
from .tensors import Decomposition, reconstruct

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL = 3


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(path, header, rows):
    """Deterministic CSV: fixed column order, shortest-round-trip floats."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in (row[h] for h in header)) + "\n")


def load_manifest(path):
    """The manifest's fields.  An unreadable manifest, one that is not a JSON
    object, or one with a field that no subcommand declares is a parse error;
    a field of another subcommand is ignored, so one manifest can serve several."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    unknown = sorted(set(manifest).difference(*(flags for _, _, flags in COMMANDS.values())))
    if unknown:
        raise ManifestError(f"manifest {path}: no subcommand has the field(s) "
                            + ", ".join(map(repr, unknown)))
    return manifest


class ManifestError(Exception):
    pass


def _load_input(loader, path, flag):
    """Read the input file given by ``flag``; an unreadable or malformed file
    is a parse error."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read {flag} file {path}: {exc}") from exc


class CheckFailure(Exception):
    pass


def effective_config(args):
    """The subcommand's flags as given on the command line, else in the
    manifest, else ``None``; with the seed and the output directory."""
    manifest = load_manifest(args.manifest) if args.manifest else {}
    cfg = {}
    for key in COMMANDS[args.command][2]:
        flag = getattr(args, key.replace("-", "_"))
        cfg[key] = flag if flag is not None else manifest.get(key)
    cfg["seed"] = args.seed
    cfg["out"] = str(args.out)
    return cfg


def _number(cfg, key, default, kind=float, bounds=(-np.inf, np.inf), closed=False):
    """``cfg[key]`` as ``kind``, or ``default`` when it is unset (``None``
    when both are).  A value that does not convert, or lies outside the
    interval ``bounds`` (open, or closed at its lower end when ``closed``),
    is a parse error."""
    value = default if cfg[key] is None else cfg[key]
    if value is None:
        return None
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"--{key}: {exc}") from exc
    lo, hi = bounds
    if not (lo <= value if closed else lo < value) or not value < hi:
        raise ManifestError(f"--{key} must lie in {'[' if closed else '('}{lo}, {hi}), "
                            f"got {value}")
    return value


def _numbers(cfg, key, default, bounds, closed=False):
    """The entries of ``cfg[key]`` (a comma-separated string or a list), each
    read as ``_number`` reads a float, or ``default`` when unset; none is a parse error."""
    raw = cfg[key]
    if raw is None:
        return default
    tokens = [str(t) for t in raw] if isinstance(raw, list) else str(raw).split(",")
    values = [_number({key: t}, key, None, float, bounds, closed) for t in tokens if t != ""]
    if not values:
        raise ManifestError(f"--{key} needs at least one value")
    return values


def _eps_sequence(cfg):
    """``--eps-seq``: two or more strictly decreasing entries in [0, inf)."""
    eps = _numbers(cfg, "eps-seq", [1e-1, 1e-2, 1e-3, 1e-4], (0, np.inf), closed=True)
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ManifestError(f"--eps-seq needs two or more strictly decreasing entries, got {eps}")
    return eps


def _report(out, name, doc, cfg):
    write_json(out / name, {**doc, "config": cfg})


def _grid_block(dom):
    """A report's ``grid`` entry: the lattice and mask of ``dom``."""
    return {"shape": list(dom.shape), "spacing": dom.spacing, "mask": dom.mask_kind,
            "origin": list(dom.origin)}


FIBRES = ("sigma_u", "pi_Du", "xi_D2u")


def _save_fibres(out, fd):
    for name in FIBRES:
        save_grid(out / f"{name}.grid", getattr(fd, name))


def _data_grid(cfg, system, n, M, grid=None):
    """The ``--f`` grid, or ``None`` when unset.  It is a parse error unless
    it lies on an ``n``-D lattice (on ``grid``'s lattice and mask when
    given) and has the ``M`` components of ``system``'s equations."""
    if not cfg["f"]:
        return None
    f = _load_input(load_grid, cfg["f"], "--f")
    if grid is not None and f.domain != grid:
        raise ManifestError(f"--f lies on another lattice or mask than --grid: "
                            f"{f.domain} against {grid}")
    if f.domain.dim != n:
        raise ManifestError(f"--f lies on a {f.domain.dim}-D grid; {system} is posed "
                            f"on {n}-D grids")
    if f.components != M:
        raise ManifestError(f"--f has {f.components} components; {system} has {M} "
                            f"equations")
    return f


def _valid_decomposition(cfg):
    """The ``--decomposition`` file.  It is a parse error unless it meets
    every factor condition of ``tensors.validate_decomposition``."""
    dec = _load_input(Decomposition.load, cfg["decomposition"], "--decomposition")
    failed = tensors.validate_decomposition(dec).failures()
    if failed:
        raise ManifestError("--decomposition fails the factor condition(s) "
                            + ", ".join(failed))
    return dec


# subcommands ---------------------------------------------------------------

def _cmd_analyze_tensor(cfg, out):
    if not cfg["decomposition"]:
        raise ManifestError("analyze-tensor needs a decomposition file")
    eps = _number(cfg, "eps", None, float, (0, np.inf), closed=True)
    dec = _load_input(Decomposition.load, cfg["decomposition"], "--decomposition")
    validation = tensors.validate_decomposition(dec)
    doc = {
        "validation": {k: {"passed": bool(ok), "detail": detail}
                       for k, (ok, detail) in validation.checks.items()},
        "valid": bool(validation.passed),
    }
    if validation.passed:
        data = tensors.ranges_and_subspaces(dec)
        nu, bound = tensors.ellipticity_constant(dec,
                                                 rng=np.random.default_rng(cfg["seed"]))
        doc.update({
            "nu": nu, "nu_bound": bound,
            "dims": {"sigma": data.sigma.dim, "pi": data.pi.dim, "xi": data.xi.dim},
            "witness_vector": (validation.common_vector.tolist()
                               if validation.common_vector is not None else None),
        })
        if eps is not None:
            try:
                a_eps = tensors.regularize(tensors.canonicalize_decomposition(dec), eps)
            except ValueError as exc:
                raise ManifestError(f"--eps: {exc}") from exc
            # 10 000 unit rank-one directions eta (x) a, drawn row by row
            draws = np.random.default_rng(cfg["seed"]).standard_normal((10_000, dec.N + dec.n))
            eta, a = draws[:, :dec.N], draws[:, dec.N:]
            eta /= np.linalg.norm(eta, axis=1, keepdims=True)
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            q = eta[:, :, None] * a[:, None, :]
            vals = np.einsum("aibj,kai,kbj->k", a_eps.entries, q, q)
            doc["regularized_rank_one_min"] = float(vals.min())
            doc["eps"] = eps
    _report(out, "analyze_tensor_report.json", doc, cfg)
    if not validation.passed:
        raise CheckFailure("decomposition invalid: " + ", ".join(validation.failures()))


def _cmd_diffuse(cfg, out):
    if not cfg["grid"]:
        raise ManifestError("diffuse needs a grid file")
    u = _load_input(load_grid, cfg["grid"], "--grid")
    dom = u.domain
    order = _number(cfg, "order", 1, int, (0, np.inf))
    # a step of more lattice spacings than a float holds shifts by no integer
    base = _number(cfg, "base-step", 8 * dom.spacing, float,
                   (0, np.finfo(float).max * dom.spacing))
    count = _number(cfg, "window", 4, int, (0, np.inf))
    ratio = _number(cfg, "ratio", 0.5, float, (0, 1))
    r_inf = _number(cfg, "r-inf", None, float, (0, np.inf))
    frame = build_frame("standard", N=u.components, n=dom.dim)
    windows = window_cascade(base, 1, count, ratio, order, dom.spacing)
    if not windows:
        raise ManifestError("--base-step/--window: every step of the window lies "
                            f"below the lattice spacing {dom.spacing!r}; raise --base-step")
    window = windows[0]
    try:
        r_inf = measures.default_cutoff(u, frame) if r_inf is None else r_inf
        field = diffuse_field(u, frame, order, window, r_inf)
    except QuotientOverflow as exc:
        raise ManifestError(f"--grid: {exc}") from exc
    save_measure_field(out / "measure.bin", field)
    mask = dom.mask()
    inf_mass = field.infinity_mass()
    doc = {
        "R_inf": r_inf,
        "schedules": [s.rows for s in window],
        "infinity_mass": {"max": float(inf_mass[mask].max()),
                          "mean": float(inf_mass[mask].mean())},
        "grid": _grid_block(dom),
    }
    _report(out, "diffuse_report.json", doc, cfg)


def _build_system(cfg, u):
    name = cfg["system"]
    for flag, reader in (("tensor", "linear-tensor"), ("speed", "eikonal-tangent")):
        if cfg[flag] is not None and name != reader:
            raise ManifestError(f"--{flag}: only the {reader} system reads it, not {name!r}")
    if name == "infinity-laplace":
        return infinity_laplace_system(u.domain.dim)
    if name == "linear-tensor":
        if not cfg.get("tensor"):
            raise ManifestError("linear-tensor check needs a decomposition file")
        dec = _load_input(Decomposition.load, cfg["tensor"], "--tensor")
        return tensor_system(reconstruct(dec))
    if name == "eikonal-tangent":
        speed = _number(cfg, "speed", 1.0, float, (0, np.inf), closed=True)
        base = eikonal_system(u.domain.dim, u.components, speed)
        return tangent_system(base)
    raise ManifestError(f"unknown system {name!r}")


def _require_interior(dom, windows, remedy):
    """A parse error ending in ``remedy`` unless a cell of ``dom`` lies beyond ``windows``."""
    if not dom.interior_mask(default_margin(windows, dom)).any():
        raise ManifestError("the grid has no interior cells beyond the reach "
                            f"of the windows; {remedy}")


def _cmd_check(cfg, out):
    if not cfg["grid"] or not cfg["system"]:
        raise ManifestError("check needs a grid file and a system name")
    u = _load_input(load_grid, cfg["grid"], "--grid")
    dom = u.domain
    F = _build_system(cfg, u)
    if (u.components, dom.dim) != (F.N, F.n):
        flag = "--tensor" if cfg["system"] == "linear-tensor" else "--system"
        raise ManifestError(f"{flag}: the {F.name} system takes maps of {F.N} components "
                            f"on {F.n}-D grids; --grid holds {u.components} components "
                            f"on a {dom.dim}-D grid")
    f = _data_grid(cfg, f"the {F.name} system", F.n, F.M, grid=dom)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        finite = f is None or np.isfinite(np.linalg.norm(f.values[dom.mask()], axis=-1)).all()
    if not finite:
        raise ManifestError("--f: the data's norm overflows at some cell, so no "
                            "residual against them is finite")
    levels = _number(cfg, "levels", 3, int)
    base = _number(cfg, "base-step", 16 * dom.spacing, float, (0, np.inf))
    count = _number(cfg, "window", 3, int, (0, np.inf))
    ratio = _number(cfg, "ratio", 0.5, float, (0, 1))
    r_list = _numbers(cfg, "r-list", None, (0, np.inf))
    c_disc = _number(cfg, "c-disc", None, float, (0, np.inf), closed=True)
    frame = build_frame("standard", N=u.components, n=dom.dim)
    windows = window_cascade(base, levels, count, ratio, F.order, dom.spacing)
    if len(windows) < 2:
        raise ManifestError("window cascade needs at least two refinement "
                            "levels above the lattice spacing; lower "
                            "--levels or raise --base-step")
    _require_interior(dom, windows, "refine the grid or lower --base-step or --window")
    kwargs = {} if c_disc is None else {"C_disc": c_disc}
    try:
        report = check_dsolution(u, F, frame, windows, R_list=r_list, f=f, **kwargs)
    except NoFeasibleRadius as exc:
        raise ManifestError(f"--r-list: {exc}") from exc
    except QuotientOverflow as exc:
        raise ManifestError(f"--grid: {exc}") from exc
    doc = report.to_json_dict()
    doc["windows"] = [[s.rows for s in w] for w in windows]
    doc["grid"] = _grid_block(dom)
    if report.residual_field is not None:
        save_grid(out / "residual_support.grid", report.residual_field)
    _report(out, "check_report.json", doc, cfg)
    rows = []
    for name, vals in report.residuals.items():
        for lvl, v in enumerate(vals):
            rows.append({"characterization": name, "level": lvl,
                         "h_level": float(report.levels[lvl]), "residual": float(v)})
    write_csv(out / "residuals.csv", ["characterization", "level", "h_level",
                                      "residual"], rows)
    if not report.passed:
        failing = [k for k, v in report.verdicts.items() if not v]
        raise CheckFailure("characterizations failing: " + ", ".join(failing))


def _solve_or_reject(out, name, cfg, solve):
    """``solve()``; data so large that the solve overflows are a parse error
    of ``--f``.  When it rejects the data (``ValueError``) or fails a
    numerical guard (``ArithmeticError``), writes the report ``name`` with
    ``accepted: false`` and the reason, and fails the check."""
    from .solver import DataOverflow
    try:
        return solve()
    except DataOverflow as exc:
        raise ManifestError(f"--f: {exc}") from exc
    except (ValueError, ArithmeticError) as exc:
        _report(out, name, {"accepted": False, "reason": str(exc)}, cfg)
        raise CheckFailure(str(exc)) from exc


def _cmd_solve_linear(cfg, out):
    from . import solver
    if not cfg["decomposition"] or not cfg["f"]:
        raise ManifestError("solve-linear needs a decomposition and a data grid")
    dec = _valid_decomposition(cfg)
    f = _data_grid(cfg, "the --decomposition tensor", dec.n, dec.N)
    eps_seq = _eps_sequence(cfg)
    fd, rep = _solve_or_reject(out, "solve_report.json", cfg,
                               lambda: solver.solve_linear(dec, f, eps_seq))
    _save_fibres(out, fd)
    doc = rep.to_json_dict()
    doc.update({"accepted": True,
                "fibre_norms": dict(zip(FIBRES, solver.fibre_norms(fd))),
                "grid": _grid_block(f.domain),
                "solver_tol": solver.SOLVER_TOL})
    _report(out, "solve_report.json", doc, cfg)
    rows = [{"eps": float(e), "cauchy_difference": float(c)}
            for e, c in zip(eps_seq[1:], rep.cauchy_differences)]
    write_csv(out / "eps_convergence.csv", ["eps", "cauchy_difference"], rows)


def _cmd_solve_nonlinear(cfg, out):
    from . import solver
    if not cfg["decomposition"] or not cfg["f"]:
        raise ManifestError("solve-nonlinear needs a decomposition and a data grid")
    dec = _valid_decomposition(cfg)
    f = _data_grid(cfg, "the --decomposition tensor", dec.n, dec.N)
    dom = f.domain
    eps_seq = _eps_sequence(cfg)
    gamma = _number(cfg, "gamma", 0.2, float, (-1, 1))
    lip_frac = _number(cfg, "lip-frac", 0.3, float, (0, 1), closed=True)
    max_iter = _number(cfg, "max-iter", 40, int, (0, np.inf))
    tol_final = _number(cfg, "tol-final", 1e-6, float, (0, np.inf))

    lip = lip_frac * tensors.ranges_and_subspaces(dec).nu
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.0 + 0.25 * np.sin(np.pi * x[..., 0]))[..., None])
    N, n = dec.N, dec.n

    def g(Y):
        Yt = Y.reshape(-1, N, n, n)
        return lip * np.sin(Yt[:, :, 0, 0])

    try:
        F, cert = solver.make_nonlinearity(dec, a_of_x, gamma=gamma, g=g,
                                           lipschitz_g=lip)
    except solver.NearnessViolation as exc:
        # the certificate needs |gamma| + lip-frac < 1
        raise ManifestError(
            f"--gamma must lie in ({lip_frac - 1:g}, {1 - lip_frac:g}) for --lip-frac "
            f"{lip_frac:g}, or --lip-frac must lie in [0, {1 - abs(gamma):g}) for --gamma "
            f"{gamma:g}: {exc}") from exc
    fd, log = _solve_or_reject(out, "nonlinear_report.json", cfg,
                               lambda: solver.campanato_solve(F, cert, f, eps_seq,
                                                              max_iter=max_iter,
                                                              tol_final=tol_final))
    _save_fibres(out, fd)
    write_csv(out / "iteration_log.csv", ["iteration", "increment", "ratio",
                                          "residual"], log.to_rows())
    doc = {
        "iterations": len(log.increments),
        "kappa": cert.kappa,
        "certificate": {"B": cert.B, "C": cert.C},
        "final_residual": log.residuals[-1],
        "max_ratio": log.max_ratio(),
        "eps_sequence": eps_seq,
        "tol_final": tol_final,
        "grid": _grid_block(dom),
    }
    _report(out, "nonlinear_report.json", doc, cfg)


def _cmd_reference(cfg, out):
    name = cfg["case"]
    if not name:
        raise ManifestError("reference needs a case name")
    if name not in reference.CASE_PARAMETERS:
        raise ManifestError(f"unknown reference case {name!r}")
    if cfg["check"] and name != "sawtooth":
        raise ManifestError(f"--check: only the sawtooth case has a check, not {name!r}")
    params = {param: _number(cfg, param.lower(), None, kind, (0, np.inf)) for param, kind
              in [("resolution", int), ("M", float), ("k", int), ("depth", int), ("mu", float)]}
    params = {param: v for param, v in params.items() if v is not None}
    for param in params:
        if param not in reference.CASE_PARAMETERS[name]:
            raise ManifestError(f"--{param.lower()}: the {name} case takes no such parameter")
    try:
        case = reference.build_reference(name, **params)
    except ValueError as exc:
        # blame the flag of each parameter the builder's message names
        flags = "".join(f"--{param.lower()}: " for param in params
                        if re.search(rf"\b{param}\b", str(exc)))
        raise ManifestError(f"{flags}reference case {name!r}: {exc}") from exc
    for grid_name, gf in case.grids.items():
        save_grid(out / f"{grid_name}.grid", gf)
    doc = {"name": case.name, "params": case.params, "expected": case.expected}
    settled = True
    if cfg["check"]:
        u = case.grids["map"]
        h = u.domain.spacing
        frame = build_frame("standard", N=2, n=2)
        F = infinity_laplace_system(2)
        windows = window_cascade(16 * h, 4, 3, 0.5, 2, h)
        _require_interior(u.domain, windows, "raise --resolution")
        rep = check_dsolution(u, F, frame, windows, R_list=[10.0, 100.0])
        doc["check"] = {"pairing_residuals": rep.residuals["pairing"],
                        "tolerance": rep.tolerance,
                        "decreasing": rep.trends["pairing"]}
        rows = [{"level": lvl, "h_level": float(rep.levels[lvl]),
                 "pairing_residual": float(v)}
                for lvl, v in enumerate(rep.residuals["pairing"])]
        write_csv(out / "residual_table.csv",
                  ["level", "h_level", "pairing_residual"], rows)
        settled = (rep.trends["pairing"]
                   and rep.residuals["pairing"][-1] <= 1e-3 * case.params["M"]**3)
    _report(out, "reference_report.json", doc, cfg)
    if not settled:
        raise CheckFailure("sawtooth pairing residual did not settle")


def _cmd_verify_estimate(cfg, out):
    from . import solver
    rng = np.random.default_rng(cfg["seed"])
    res = _number(cfg, "resolution", 64, int, (2, np.inf), closed=True)
    eps_list = _numbers(cfg, "eps-list", [0.0, 0.1, 1.0], (0, np.inf), closed=True)
    tol_est = _number(cfg, "tol-est", 0.05, float, (0, np.inf), closed=True)
    dom = Domain.unit_square(res)
    x = dom.node_coords()

    if cfg["decomposition"]:
        dec = _valid_decomposition(cfg)
        if (dec.N, dec.n) != (2, 2):
            raise ManifestError(f"--decomposition takes maps of {dec.N} components on "
                                f"{dec.n}-D grids; the battery's maps have 2 components "
                                f"on the unit square")
        decs = [dec]
    else:
        count = _number(cfg, "battery", 5, int, (0, np.inf))
        decs = [tensors.random_decomposition(rng, 2, 2) for _ in range(count)]

    # the products sin(a pi x) sin(b pi y), a, b = 1..3, row-major in (a, b)
    basis = [np.sin(a * np.pi * x[..., 0]) * np.sin(b * np.pi * x[..., 1])
             for a in range(1, 4) for b in range(1, 4)]

    def random_trig():
        coef = rng.standard_normal((len(basis), 2))
        return GridFunction(dom, sum(c * base[..., None] for c, base in zip(coef, basis)))

    rows = []
    for d, dec in enumerate(decs):
        maps = (random_trig() for _ in range(20 if not cfg["decomposition"] else 5))
        try:
            reps = solver.verify_hessian_estimate(dec, maps, eps_list, tol_est=tol_est)
        except ValueError as exc:
            raise ManifestError(f"--eps-list: {exc}") from exc
        rows += [{"dec": d, "poly": i // len(eps_list), "eps": rep["eps"],
                  "lhs": rep["lhs"], "rhs": rep["rhs"], "nu": rep["nu"],
                  "passed": rep["passed"]} for i, rep in enumerate(reps)]
    all_pass = all(row["passed"] for row in rows)
    write_csv(out / "estimate_battery.csv",
              ["dec", "poly", "eps", "lhs", "rhs", "nu", "passed"], rows)
    doc = {"cases": len(rows), "all_passed": all_pass,
           "tol_est": tol_est, "resolution": res}
    _report(out, "estimate_report.json", doc, cfg)
    if not all_pass:
        raise CheckFailure("hessian estimate battery has failures")


# name: (handler, help, {flag: argparse type}).  The flags are also the
# manifest's fields and the keys of the report's ``config``; ``bool`` marks
# a switch, which reads ``None`` unless it is given.
COMMANDS = {
    "analyze-tensor": (_cmd_analyze_tensor, "validate a factored tensor and report its "
                       "subspaces and constants", {"decomposition": str, "eps": float}),
    "diffuse": (_cmd_diffuse, "build an empirical quotient measure field",
                {"grid": str, "order": int, "base-step": float, "window": int,
                 "ratio": float, "r-inf": float}),
    "check": (_cmd_check, "run the solution characterizations",
              {"grid": str, "system": str, "tensor": str, "f": str, "levels": int,
               "base-step": float, "ratio": float, "window": int, "r-list": str,
               "speed": float, "c-disc": float}),
    "solve-linear": (_cmd_solve_linear, "vanishing-regularization linear solve",
                     {"decomposition": str, "f": str, "eps-seq": str}),
    "solve-nonlinear": (_cmd_solve_nonlinear, "certified nearness fixed-point solve",
                        {"decomposition": str, "f": str, "eps-seq": str, "gamma": float,
                         "lip-frac": float, "max-iter": int, "tol-final": float}),
    "reference": (_cmd_reference, "build a reference case",
                  {"case": str, "resolution": int, "m": float, "k": int, "depth": int,
                   "mu": float, "check": bool}),
    "verify-estimate": (_cmd_verify_estimate, "hessian estimate battery",
                        {"decomposition": str, "battery": int, "resolution": int,
                         "eps-list": str, "tol-est": float}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diffusepde",
        description="Measure-valued solution machinery for fully nonlinear "
                    "PDE systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--manifest", help="JSON manifest; flags override its fields")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        for flag, kind in flags.items():
            if kind is bool:
                p.add_argument(f"--{flag}", action="store_true", default=None)
            else:
                p.add_argument(f"--{flag}", type=kind)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command][0](effective_config(args), out)
        return EXIT_OK
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:  # noqa: BLE001 - report and exit nonzero
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
