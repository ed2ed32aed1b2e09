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
import sys
from pathlib import Path

import numpy as np

# ``solver`` loads scipy, which only the solve-side commands need; they import it
from . import grids, measures, reference, tensors
from .checker import (check_dsolution, default_margin, infinity_laplace_system,
                      eikonal_system, tangent_system, tensor_system)
from .frames import build_frame, schedule_window
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
    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[h]) for h in header) + "\n")


def load_manifest(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc


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


def effective_config(args, keys):
    cfg = {}
    manifest = {}
    if getattr(args, "manifest", None):
        manifest = load_manifest(args.manifest)
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
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


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(out, name, doc, cfg):
    doc = dict(doc)
    doc["config"] = cfg
    write_json(out / name, doc)
    return doc


# subcommands ---------------------------------------------------------------

def cmd_analyze_tensor(args):
    out = _outdir(args)
    cfg = effective_config(args, ["decomposition", "eps"])
    if not cfg["decomposition"]:
        raise ManifestError("analyze-tensor needs a decomposition file")
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
                                                 rng=np.random.default_rng(args.seed))
        doc.update({
            "nu": nu, "nu_bound": bound,
            "dims": {"sigma": data.sigma.dim, "pi": data.pi.dim, "xi": data.xi.dim},
            "witness_vector": (validation.common_vector.tolist()
                               if validation.common_vector is not None else None),
        })
        eps = _number(cfg, "eps", None, float, (0, np.inf), closed=True)
        if eps is not None:
            canon = tensors.canonicalize_decomposition(dec)
            a_eps = tensors.regularize(canon, eps)
            # 10 000 unit rank-one directions eta (x) a, drawn row by row
            draws = np.random.default_rng(args.seed).standard_normal((10_000, dec.N + dec.n))
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
    return doc


def cmd_diffuse(args):
    out = _outdir(args)
    cfg = effective_config(args, ["grid", "order", "base-step", "window",
                                  "ratio", "r-inf"])
    if not cfg["grid"]:
        raise ManifestError("diffuse needs a grid file")
    u = _load_input(load_grid, cfg["grid"], "--grid")
    dom = u.domain
    order = _number(cfg, "order", 1, int, (0, np.inf))
    base = _number(cfg, "base-step", 8 * dom.spacing, float, (0, np.inf))
    count = _number(cfg, "window", 4, int, (0, np.inf))
    ratio = _number(cfg, "ratio", 0.5, float, (0, 1))
    r_inf = _number(cfg, "r-inf", None, float, (0, np.inf))
    frame = build_frame("standard", N=u.components, n=dom.dim)
    window = schedule_window(base, count, ratio=ratio, order=order)
    r_inf = measures.default_cutoff(u, frame) if r_inf is None else r_inf
    field = diffuse_field(u, frame, order, window, r_inf)
    save_measure_field(out / "measure.bin", field)
    mask = dom.mask()
    inf_mass = field.infinity_mass()
    doc = {
        "R_inf": r_inf,
        "schedules": [s.rows for s in window],
        "infinity_mass": {"max": float(inf_mass[mask].max()),
                          "mean": float(inf_mass[mask].mean())},
        "grid": {"shape": list(dom.shape), "spacing": dom.spacing,
                 "mask": dom.mask_kind},
    }
    _report(out, "diffuse_report.json", doc, cfg)
    return doc


def _build_system(cfg, u):
    name = cfg["system"]
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


def cmd_check(args):
    out = _outdir(args)
    cfg = effective_config(args, ["grid", "system", "tensor", "f", "levels",
                                  "base-step", "ratio", "window", "r-list",
                                  "speed", "c-disc"])
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
    f = _load_input(load_grid, cfg["f"], "--f") if cfg["f"] else None
    if f is not None and f.domain != dom:
        raise ManifestError(f"--f lies on another lattice or mask than --grid: "
                            f"{f.domain} against {dom}")
    if f is not None and f.components != F.M:
        raise ManifestError(f"--f has {f.components} components; the {F.name} system "
                            f"has {F.M} equations")
    levels = _number(cfg, "levels", 3, int)
    base = _number(cfg, "base-step", 16 * dom.spacing, float, (0, np.inf))
    count = _number(cfg, "window", 3, int, (0, np.inf))
    ratio = _number(cfg, "ratio", 0.5, float, (0, 1))
    r_list = _numbers(cfg, "r-list", None, (0, np.inf))
    c_disc = _number(cfg, "c-disc", None, float, (0, np.inf), closed=True)
    frame = build_frame("standard", N=u.components, n=dom.dim)
    windows = []
    for lvl in range(levels):
        win = [s for s in schedule_window(base / 2**lvl, count, ratio=ratio,
                                          order=F.order)
               if min(abs(h) for row in s.rows for h in row) >= dom.spacing]
        if win:
            windows.append(win)
    if len(windows) < 2:
        raise ManifestError("window cascade needs at least two refinement "
                            "levels above the lattice spacing; lower "
                            "--levels or raise --base-step")
    if not dom.interior_mask(default_margin(windows, dom)).any():
        raise ManifestError("the grid has no interior cells beyond the reach "
                            "of the windows; refine the grid or lower "
                            "--base-step or --window")
    kwargs = {} if c_disc is None else {"C_disc": c_disc}
    report = check_dsolution(u, F, frame, windows, R_list=r_list, f=f, **kwargs)
    doc = report.to_json_dict()
    doc["windows"] = [[s.rows for s in w] for w in windows]
    doc["grid"] = {"shape": list(dom.shape), "spacing": dom.spacing,
                   "mask": dom.mask_kind, "origin": list(dom.origin)}
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
    return doc


def cmd_solve_linear(args):
    from . import solver
    out = _outdir(args)
    cfg = effective_config(args, ["decomposition", "f", "eps-seq"])
    if not cfg["decomposition"] or not cfg["f"]:
        raise ManifestError("solve-linear needs a decomposition and a data grid")
    dec = _load_input(Decomposition.load, cfg["decomposition"], "--decomposition")
    f = _load_input(load_grid, cfg["f"], "--f")
    eps_seq = _eps_sequence(cfg)
    try:
        fd, rep = solver.solve_linear(dec, f, eps_seq)
    except ValueError as exc:
        doc = {"accepted": False, "reason": str(exc)}
        _report(out, "solve_report.json", doc, cfg)
        raise CheckFailure(str(exc)) from exc
    save_grid(out / "sigma_u.grid", fd.sigma_u)
    save_grid(out / "pi_Du.grid", fd.pi_Du)
    save_grid(out / "xi_D2u.grid", fd.xi_D2u)
    norms = solver.fibre_norms(fd)
    doc = rep.to_json_dict()
    doc.update({"accepted": True,
                "fibre_norms": {"sigma_u": norms[0], "pi_Du": norms[1],
                                "xi_D2u": norms[2]},
                "grid": {"shape": list(f.domain.shape),
                         "spacing": f.domain.spacing,
                         "mask": f.domain.mask_kind,
                         "origin": list(f.domain.origin)},
                "solver_tol": solver.SOLVER_TOL})
    _report(out, "solve_report.json", doc, cfg)
    rows = [{"eps": float(e), "cauchy_difference": float(c)}
            for e, c in zip(eps_seq[1:], rep.cauchy_differences)]
    write_csv(out / "eps_convergence.csv", ["eps", "cauchy_difference"], rows)
    return doc


def cmd_solve_nonlinear(args):
    from . import solver
    out = _outdir(args)
    cfg = effective_config(args, ["decomposition", "f", "eps-seq", "gamma",
                                  "lip-frac", "max-iter", "tol-final"])
    if not cfg["decomposition"] or not cfg["f"]:
        raise ManifestError("solve-nonlinear needs a decomposition and a data grid")
    dec = _load_input(Decomposition.load, cfg["decomposition"], "--decomposition")
    f = _load_input(load_grid, cfg["f"], "--f")
    dom = f.domain
    eps_seq = _eps_sequence(cfg)
    gamma = _number(cfg, "gamma", 0.2)
    lip_frac = _number(cfg, "lip-frac", 0.3)
    max_iter = _number(cfg, "max-iter", 40, int, (0, np.inf))
    tol_final = _number(cfg, "tol-final", 1e-6, float, (0, np.inf))

    data = tensors.ranges_and_subspaces(dec, cross_check=False)
    nu = data.nu
    lip = lip_frac * nu
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.0 + 0.25 * np.sin(np.pi * x[..., 0]))[..., None]
        if dom.dim >= 1 else np.ones(x.shape[:-1])[..., None])
    N, n = dec.N, dec.n

    def g(Y):
        Yt = Y.reshape(-1, N, n, n)
        return lip * np.sin(Yt[:, :, 0, 0])

    F, cert = solver.make_nonlinearity(dec, a_of_x, gamma=gamma, g=g,
                                       lipschitz_g=lip, subspaces=data)
    fd, log = solver.campanato_solve(F, cert, f, eps_seq, max_iter=max_iter,
                                     tol_final=tol_final)
    save_grid(out / "sigma_u.grid", fd.sigma_u)
    save_grid(out / "pi_Du.grid", fd.pi_Du)
    save_grid(out / "xi_D2u.grid", fd.xi_D2u)
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
        "grid": {"shape": list(dom.shape), "spacing": dom.spacing,
                 "mask": dom.mask_kind, "origin": list(dom.origin)},
    }
    _report(out, "nonlinear_report.json", doc, cfg)
    return doc


def cmd_reference(args):
    out = _outdir(args)
    cfg = effective_config(args, ["case", "resolution", "m", "k", "depth",
                                  "mu", "check"])
    if not cfg["case"]:
        raise ManifestError("reference needs a case name")
    params = {name: _number(cfg, name.lower(), None, kind, (0, np.inf)) for name, kind
              in [("resolution", int), ("M", float), ("k", int), ("depth", int), ("mu", float)]}
    try:
        case = reference.build_reference(
            cfg["case"], **{k: v for k, v in params.items() if v is not None})
    except ValueError as exc:
        raise ManifestError(f"reference case {cfg['case']!r}: {exc}") from exc
    for name, gf in case.grids.items():
        save_grid(out / f"{name}.grid", gf)
    doc = {"name": case.name, "params": case.params,
           "expected": {k: v for k, v in case.expected.items()
                        if not isinstance(v, np.ndarray)}}
    doc["expected"].pop("fold_mask", None)

    if cfg["check"] and case.name == "sawtooth":
        u = case.grids["map"]
        dom = u.domain
        h = dom.spacing
        frame = build_frame("standard", N=2, n=2)
        F = infinity_laplace_system(2)
        windows = [schedule_window(16 * h / 2**lvl, 3, ratio=0.5, order=2)
                   for lvl in range(3)]
        rep = check_dsolution(u, F, frame, windows, R_list=[10.0, 100.0])
        doc["check"] = {"pairing_residuals": rep.residuals["pairing"],
                        "tolerance": rep.tolerance,
                        "decreasing": rep.trends["pairing"]}
        rows = [{"level": lvl, "h_level": float(rep.levels[lvl]),
                 "pairing_residual": float(v)}
                for lvl, v in enumerate(rep.residuals["pairing"])]
        write_csv(out / "residual_table.csv",
                  ["level", "h_level", "pairing_residual"], rows)
        _report(out, "reference_report.json", doc, cfg)
        M = case.params["M"]
        if not (rep.trends["pairing"]
                and rep.residuals["pairing"][-1] <= 1e-3 * M**3):
            raise CheckFailure("sawtooth pairing residual did not settle")
        return doc
    _report(out, "reference_report.json", doc, cfg)
    return doc


def cmd_verify_estimate(args):
    from . import solver
    out = _outdir(args)
    cfg = effective_config(args, ["decomposition", "battery", "resolution",
                                  "eps-list", "tol-est"])
    rng = np.random.default_rng(args.seed)
    res = _number(cfg, "resolution", 64, int, (0, np.inf))
    eps_list = _numbers(cfg, "eps-list", [0.0, 0.1, 1.0], (0, np.inf), closed=True)
    tol_est = _number(cfg, "tol-est", 0.05, float, (0, np.inf), closed=True)
    dom = Domain.unit_square(res)
    x = dom.node_coords()

    if cfg["decomposition"]:
        decs = [_load_input(Decomposition.load, cfg["decomposition"], "--decomposition")]
    else:
        count = _number(cfg, "battery", 5, int, (0, np.inf))
        decs = [tensors.random_decomposition(rng, 2, 2) for _ in range(count)]

    def random_trig():
        kmax = 3
        coef = rng.standard_normal((kmax, kmax, 2))
        vals = np.zeros(dom.shape + (2,))
        for a in range(kmax):
            for b in range(kmax):
                basis = (np.sin((a + 1) * np.pi * x[..., 0])
                         * np.sin((b + 1) * np.pi * x[..., 1]))
                vals += coef[a, b] * basis[..., None]
        return GridFunction(dom, vals)

    rows = []
    all_pass = True
    for d, dec in enumerate(decs):
        subspaces = tensors.ranges_and_subspaces(dec, cross_check=False)
        for p in range(20 if not cfg["decomposition"] else 5):
            u = random_trig()
            for eps in eps_list:
                rep = solver.verify_hessian_estimate(dec, u, eps,
                                                     tol_est=tol_est,
                                                     subspaces=subspaces)
                rows.append({"dec": d, "poly": p, "eps": float(eps),
                             "lhs": rep["lhs"], "rhs": rep["rhs"],
                             "nu": rep["nu"], "passed": rep["passed"]})
                all_pass &= rep["passed"]
    write_csv(out / "estimate_battery.csv",
              ["dec", "poly", "eps", "lhs", "rhs", "nu", "passed"], rows)
    doc = {"cases": len(rows), "all_passed": bool(all_pass),
           "tol_est": tol_est, "resolution": res}
    _report(out, "estimate_report.json", doc, cfg)
    if not all_pass:
        raise CheckFailure("hessian estimate battery has failures")
    return doc


COMMANDS = {
    "analyze-tensor": cmd_analyze_tensor,
    "diffuse": cmd_diffuse,
    "check": cmd_check,
    "solve-linear": cmd_solve_linear,
    "solve-nonlinear": cmd_solve_nonlinear,
    "reference": cmd_reference,
    "verify-estimate": cmd_verify_estimate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diffusepde",
        description="Measure-valued solution machinery for fully nonlinear "
                    "PDE systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", help="JSON manifest; flags override its fields")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze-tensor", help="validate a factored tensor and "
                                              "report its subspaces and constants")
    common(p)
    p.add_argument("--decomposition")
    p.add_argument("--eps", type=float)

    p = sub.add_parser("diffuse", help="build an empirical quotient measure field")
    common(p)
    p.add_argument("--grid")
    p.add_argument("--order", type=int)
    p.add_argument("--base-step", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--r-inf", type=float)

    p = sub.add_parser("check", help="run the solution characterizations")
    common(p)
    p.add_argument("--grid")
    p.add_argument("--system")
    p.add_argument("--tensor")
    p.add_argument("--f")
    p.add_argument("--levels", type=int)
    p.add_argument("--base-step", type=float)
    p.add_argument("--ratio", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--r-list")
    p.add_argument("--speed", type=float)
    p.add_argument("--c-disc", type=float)

    p = sub.add_parser("solve-linear", help="vanishing-regularization linear solve")
    common(p)
    p.add_argument("--decomposition")
    p.add_argument("--f")
    p.add_argument("--eps-seq")

    p = sub.add_parser("solve-nonlinear", help="certified nearness fixed-point solve")
    common(p)
    p.add_argument("--decomposition")
    p.add_argument("--f")
    p.add_argument("--eps-seq")
    p.add_argument("--gamma", type=float)
    p.add_argument("--lip-frac", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol-final", type=float)

    p = sub.add_parser("reference", help="build a reference case")
    common(p)
    p.add_argument("--case")
    p.add_argument("--resolution", type=int)
    p.add_argument("--m", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--check", action="store_true", default=None)

    p = sub.add_parser("verify-estimate", help="hessian estimate battery")
    common(p)
    p.add_argument("--decomposition")
    p.add_argument("--battery", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--eps-list")
    p.add_argument("--tol-est", type=float)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        COMMANDS[args.command](args)
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
