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
from typing import NamedTuple

import numpy as np

# ``solver`` loads scipy, which only the solve-side commands need; they import it
from . import measures, reference, tensors
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
    given = vars(args)
    cfg = {key: manifest.get(key) if given[key] is None else given[key]
           for key in COMMANDS[args.command][2]}
    return {**cfg, "seed": args.seed, "out": str(args.out)}


class Flag(NamedTuple):
    """A flag of a subcommand in :data:`COMMANDS`: its ``kind`` (``str`` for
    a file or a name, ``int``, ``float``, ``list`` of floats, ``bool`` for a
    switch), the ``default`` it reads when unset, the interval ``(lo, hi)``
    its numbers lie in (closed at ``lo`` when ``closed``), and whether its
    subcommand requires it."""

    kind: type
    default: object = None
    lo: float = -np.inf
    hi: float = np.inf
    closed: bool = False
    required: bool = False

    def interval(self):
        return f"{'[' if self.closed else '('}{self.lo}, {self.hi})"

    def help(self):
        """The flag's ``--help`` line: its kind, interval and default."""
        text = {str: "file or name", int: "integer", float: "float",
                list: "comma-separated floats", bool: "switch"}[self.kind]
        if (self.lo, self.hi) != (-np.inf, np.inf):
            text += f" in {self.interval()}"
        if self.required or self.default is None:
            return text + ("; required" if self.required else "")
        return f"{text}; default {self.default}"

    def read(self, key, raw):
        """``raw``, the value given for ``--key``, or the default when ``raw``
        is ``None``, read as the flag's kind (a list from a comma-separated
        string or a JSON array).  A value of another kind or JSON type, a
        number outside the interval and an empty list are parse errors."""
        raw = self.default if raw is None else raw
        if raw is None:
            return None
        if self.kind is list:
            tokens = [str(t) for t in raw] if isinstance(raw, list) else str(raw).split(",")
            values = [self._replace(kind=float).read(key, t) for t in tokens if t != ""]
            if not values:
                raise ManifestError(f"--{key} needs at least one value")
            return values
        if self.kind in (str, bool) or isinstance(raw, bool):
            if type(raw) is not self.kind:
                raise ManifestError(f"--{key}: {json.dumps(raw)} is not of kind "
                                    f"{self.kind.__name__}")
            return raw
        try:
            value = self.kind(raw)
            if self.kind is int and isinstance(raw, float) and value != raw:
                raise ValueError(f"{raw!r} is not an integer")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ManifestError(f"--{key}: {exc}") from exc
        if not (self.lo <= value if self.closed else self.lo < value) or not value < self.hi:
            raise ManifestError(f"--{key} must lie in {self.interval()}, got {value}")
        return value


def read_flags(command, cfg):
    """The flags of ``command`` in ``cfg`` (:func:`effective_config`), each
    read by its :class:`Flag` in declaration order; a required flag unset or
    empty is a parse error naming every such flag."""
    flags = COMMANDS[command][2]
    missing = [f"--{key}" for key, flag in flags.items()
               if flag.required and cfg[key] in (None, "")]
    if missing:
        raise ManifestError(f"{command} needs {' and '.join(missing)}")
    return {key: flag.read(key, cfg[key]) for key, flag in flags.items()}


def _report(out, name, doc, cfg):
    with open(out / name, "w") as fh:
        json.dump({**doc, "config": cfg}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _grid_block(dom):
    """A report's ``grid`` entry: the lattice and mask of ``dom``."""
    return {"shape": list(dom.shape), "spacing": dom.spacing, "mask": dom.mask_kind,
            "origin": list(dom.origin)}


FIBRES = ("sigma_u", "pi_Du", "xi_D2u")


def _save_fibres(out, fd):
    for name in FIBRES:
        save_grid(out / f"{name}.grid", getattr(fd, name))


def _data_grid(opts, system, n, M, grid=None):
    """The ``--f`` grid, or ``None`` when unset.  It is a parse error unless
    it lies on an ``n``-D lattice (on ``grid``'s lattice and mask when
    given) and has the ``M`` components of ``system``'s equations."""
    if not opts["f"]:
        return None
    f = _load_input(load_grid, opts["f"], "--f")
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


def _valid_decomposition(opts):
    """The ``--decomposition`` file.  It is a parse error unless it meets
    every factor condition of ``tensors.validate_decomposition``."""
    dec = _load_input(Decomposition.load, opts["decomposition"], "--decomposition")
    failed = tensors.validate_decomposition(dec).failures()
    if failed:
        raise ManifestError("--decomposition fails the factor condition(s) "
                            + ", ".join(failed))
    return dec


# subcommands (report config, flags as read by read_flags, output directory) ---

def _cmd_analyze_tensor(cfg, opts, out):
    dec = _load_input(Decomposition.load, opts["decomposition"], "--decomposition")
    validation = tensors.validate_decomposition(dec)
    doc = {
        "validation": {k: {"passed": bool(ok), "detail": detail}
                       for k, (ok, detail) in validation.checks.items()},
        "valid": bool(validation.passed),
    }
    if validation.passed:
        data = tensors.ranges_and_subspaces(dec)
        nu, bound = tensors.ellipticity_constant(dec)
        doc.update({
            "nu": nu, "nu_bound": bound,
            "dims": {"sigma": data.sigma.dim, "pi": data.pi.dim, "xi": data.xi.dim},
            "witness_vector": (validation.common_vector.tolist()
                               if validation.common_vector is not None else None),
        })
        if opts["eps"] is not None:
            try:
                a_eps = tensors.regularize(tensors.canonicalize_decomposition(dec), opts["eps"])
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
            doc["eps"] = opts["eps"]
    _report(out, "analyze_tensor_report.json", doc, cfg)
    if not validation.passed:
        raise CheckFailure("decomposition invalid: " + ", ".join(validation.failures()))


def _cmd_diffuse(cfg, opts, out):
    u = _load_input(load_grid, opts["grid"], "--grid")
    dom = u.domain
    # a step of more lattice spacings than a float holds shifts by no integer
    base = Flag(float, 8 * dom.spacing, 0, sys.float_info.max * dom.spacing).read(
        "base-step", opts["base-step"])
    frame = build_frame("standard", N=u.components, n=dom.dim)
    windows = window_cascade(base, 1, opts["window"], opts["ratio"], opts["order"], dom.spacing)
    if not windows:
        raise ManifestError("--base-step/--window: every step of the window lies "
                            f"below the lattice spacing {dom.spacing!r}; raise --base-step")
    window = windows[0]
    try:
        r_inf = measures.default_cutoff(u, frame) if opts["r-inf"] is None else opts["r-inf"]
        field = diffuse_field(u, frame, opts["order"], window, r_inf)
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


def _build_system(cfg, opts, u):
    name = opts["system"]
    for flag, reader in (("tensor", "linear-tensor"), ("speed", "eikonal-tangent")):
        if cfg[flag] is not None and name != reader:
            raise ManifestError(f"--{flag}: only the {reader} system reads it, not {name!r}")
    if name == "infinity-laplace":
        return infinity_laplace_system(u.domain.dim)
    if name == "linear-tensor":
        if not opts["tensor"]:
            raise ManifestError("check --system linear-tensor needs --tensor")
        dec = _load_input(Decomposition.load, opts["tensor"], "--tensor")
        return tensor_system(reconstruct(dec))
    if name == "eikonal-tangent":
        return tangent_system(eikonal_system(u.domain.dim, u.components, opts["speed"]))
    raise ManifestError(f"unknown system {name!r}")


def _require_interior(dom, windows, remedy):
    """A parse error ending in ``remedy`` unless a cell of ``dom`` lies beyond ``windows``."""
    if not dom.interior_mask(default_margin(windows, dom)).any():
        raise ManifestError("the grid has no interior cells beyond the reach "
                            f"of the windows; {remedy}")


def _cmd_check(cfg, opts, out):
    u = _load_input(load_grid, opts["grid"], "--grid")
    dom = u.domain
    F = _build_system(cfg, opts, u)
    if (u.components, dom.dim) != (F.N, F.n):
        flag = "--tensor" if opts["system"] == "linear-tensor" else "--system"
        raise ManifestError(f"{flag}: the {F.name} system takes maps of {F.N} components "
                            f"on {F.n}-D grids; --grid holds {u.components} components "
                            f"on a {dom.dim}-D grid")
    f = _data_grid(opts, f"the {F.name} system", F.n, F.M, grid=dom)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        finite = f is None or np.isfinite(np.linalg.norm(f.values[dom.mask()], axis=-1)).all()
    if not finite:
        raise ManifestError("--f: the data's norm overflows at some cell, so no "
                            "residual against them is finite")
    base = 16 * dom.spacing if opts["base-step"] is None else opts["base-step"]
    frame = build_frame("standard", N=u.components, n=dom.dim)
    windows = window_cascade(base, opts["levels"], opts["window"], opts["ratio"], F.order,
                             dom.spacing)
    if len(windows) < 2:
        raise ManifestError("window cascade needs at least two refinement "
                            "levels above the lattice spacing; raise --base-step")
    _require_interior(dom, windows, "refine the grid or lower --base-step or --window")
    kwargs = {} if opts["c-disc"] is None else {"C_disc": opts["c-disc"]}
    try:
        report = check_dsolution(u, F, frame, windows, R_list=opts["r-list"], f=f, **kwargs)
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


def _solve_inputs(opts):
    """A solve's valid ``--decomposition``, its ``--f`` and strictly decreasing ``--eps-seq``."""
    dec = _valid_decomposition(opts)
    f = _data_grid(opts, "the --decomposition tensor", dec.n, dec.N)
    eps = opts["eps-seq"]
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ManifestError(f"--eps-seq needs two or more strictly decreasing entries, got {eps}")
    return dec, f, eps


def _cmd_solve_linear(cfg, opts, out):
    from . import solver
    dec, f, eps_seq = _solve_inputs(opts)
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


def _cmd_solve_nonlinear(cfg, opts, out):
    from . import solver
    dec, f, eps_seq = _solve_inputs(opts)
    dom = f.domain
    gamma, lip_frac = opts["gamma"], opts["lip-frac"]

    lip = lip_frac * tensors.ranges_and_subspaces(dec).nu
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.0 + 0.25 * np.sin(np.pi * x[..., 0]))[..., None])

    def g(Y):
        return lip * np.sin(Y.reshape(-1, dec.N, dec.n, dec.n)[:, :, 0, 0])

    try:
        F, cert = solver.make_nonlinearity(dec, a_of_x, gamma=gamma, g=g,
                                           lipschitz_g=lip)
    except solver.NearnessViolation as exc:
        # the certificate needs |gamma| + lip-frac < 1
        raise ManifestError(
            f"--gamma must lie in ({lip_frac - 1:g}, {1 - lip_frac:g}) for --lip-frac "
            f"{lip_frac:g}, or --lip-frac must lie in [0, {1 - abs(gamma):g}) for --gamma "
            f"{gamma:g}: {exc}") from exc
    fd, log = _solve_or_reject(out, "nonlinear_report.json", cfg, lambda: solver.campanato_solve(
        F, cert, f, eps_seq, max_iter=opts["max-iter"], tol_final=opts["tol-final"]))
    _save_fibres(out, fd)
    write_csv(out / "iteration_log.csv", ["iteration", "increment", "ratio",
                                          "residual"], log.to_rows())
    doc = {"iterations": len(log.increments), "kappa": cert.kappa,
           "certificate": {"B": cert.B, "C": cert.C}, "final_residual": log.residuals[-1],
           "max_ratio": log.max_ratio(), "eps_sequence": eps_seq,
           "tol_final": opts["tol-final"], "grid": _grid_block(dom)}
    _report(out, "nonlinear_report.json", doc, cfg)


def _cmd_reference(cfg, opts, out):
    name = opts["case"]
    if name not in reference.CASE_PARAMETERS:
        raise ManifestError(f"unknown reference case {name!r}")
    if opts["check"] and name != "sawtooth":
        raise ManifestError(f"--check: only the sawtooth case has a check, not {name!r}")
    params = {param: opts[param.lower()] for param in ("resolution", "M", "k", "depth", "mu")
              if opts[param.lower()] is not None}
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
    if opts["check"]:
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


def _cmd_verify_estimate(cfg, opts, out):
    from . import solver
    rng = np.random.default_rng(cfg["seed"])
    res, eps_list, tol_est = opts["resolution"], opts["eps-list"], opts["tol-est"]
    dom = Domain.unit_square(res)
    x = dom.node_coords()

    if opts["decomposition"]:
        dec = _valid_decomposition(opts)
        if (dec.N, dec.n) != (2, 2):
            raise ManifestError(f"--decomposition takes maps of {dec.N} components on "
                                f"{dec.n}-D grids; the battery's maps have 2 components "
                                f"on the unit square")
        decs = [dec]
    else:
        decs = [tensors.random_decomposition(rng, 2, 2) for _ in range(opts["battery"])]

    # the products sin(a pi x) sin(b pi y), a, b = 1..3, row-major in (a, b)
    basis = [np.sin(a * np.pi * x[..., 0]) * np.sin(b * np.pi * x[..., 1])
             for a in range(1, 4) for b in range(1, 4)]

    def random_trig():
        coef = rng.standard_normal((len(basis), 2))
        return GridFunction(dom, sum(c * base[..., None] for c, base in zip(coef, basis)))

    rows = []
    for d, dec in enumerate(decs):
        maps = (random_trig() for _ in range(20 if not opts["decomposition"] else 5))
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


REQUIRED = Flag(str, required=True)
SOLVE_FLAGS = {"decomposition": REQUIRED, "f": REQUIRED,
               "eps-seq": Flag(list, "0.1,0.01,0.001,0.0001", 0, closed=True)}

# name: (handler, help, {flag: Flag}).  The flags are also the manifest's fields
# and the keys of the report's ``config``, which keeps each value as given.
COMMANDS = {
    "analyze-tensor": (_cmd_analyze_tensor, "validate a factored tensor and report its "
                       "subspaces and constants",
                       {"decomposition": REQUIRED, "eps": Flag(float, None, 0, closed=True)}),
    "diffuse": (_cmd_diffuse, "build an empirical quotient measure field (default --base-step 8h)",
                {"grid": REQUIRED, "order": Flag(int, 1, 0), "base-step": Flag(float, None, 0),
                 "window": Flag(int, 4, 0), "ratio": Flag(float, 0.5, 0, 1),
                 "r-inf": Flag(float, None, 0)}),
    "check": (_cmd_check, "run the solution characterizations (default --base-step 16h)",
              {"grid": REQUIRED, "system": REQUIRED, "tensor": Flag(str), "f": Flag(str),
               "levels": Flag(int, 3, 2, closed=True), "base-step": Flag(float, None, 0),
               "ratio": Flag(float, 0.5, 0, 1), "window": Flag(int, 3, 0),
               "r-list": Flag(list, None, 0), "speed": Flag(float, 1.0, 0, closed=True),
               "c-disc": Flag(float, None, 0, closed=True)}),
    "solve-linear": (_cmd_solve_linear, "vanishing-regularization linear solve", SOLVE_FLAGS),
    "solve-nonlinear": (_cmd_solve_nonlinear, "certified nearness fixed-point solve",
                        {**SOLVE_FLAGS, "gamma": Flag(float, 0.2, -1, 1),
                         "lip-frac": Flag(float, 0.3, 0, 1, closed=True),
                         "max-iter": Flag(int, 40, 0), "tol-final": Flag(float, 1e-6, 0)}),
    "reference": (_cmd_reference, "build a reference case",
                  {"case": REQUIRED, "resolution": Flag(int, None, 0), "m": Flag(float, None, 0),
                   "k": Flag(int, None, 0), "depth": Flag(int, None, 0),
                   "mu": Flag(float, None, 0), "check": Flag(bool)}),
    "verify-estimate": (_cmd_verify_estimate, "hessian estimate battery",
                        {"decomposition": Flag(str), "battery": Flag(int, 5, 0),
                         "resolution": Flag(int, 64, 2, closed=True),
                         "eps-list": Flag(list, "0.0,0.1,1.0", 0, closed=True),
                         "tol-est": Flag(float, 0.05, 0, closed=True)}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diffusepde",
        description="Measure-valued solution machinery for fully nonlinear "
                    "PDE systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--manifest", help="JSON manifest; flags override its fields")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        for key, flag in flags.items():
            kind = ({"action": "store_true", "default": None} if flag.kind is bool
                    else {"type": {list: str}.get(flag.kind, flag.kind)})
            p.add_argument(f"--{key}", dest=key, help=flag.help(), **kind)
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
        cfg = effective_config(args)
        COMMANDS[args.command][0](cfg, read_flags(args.command, cfg), out)
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
