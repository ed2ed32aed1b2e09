import hashlib
import json

import numpy as np
import pytest

from diffusepde.cli import main
from diffusepde.grids import Domain, GridFunction, save_grid
from diffusepde.tensors import (Decomposition, canonicalize_decomposition,
                                random_decomposition, regularize, validate_decomposition)


def write_diag_dec(path):
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    dec.save(path)
    return dec


def test_analyze_tensor_diag_example(tmp_path):
    dec_path = tmp_path / "dec.json"
    write_diag_dec(dec_path)
    out = tmp_path / "run"
    code = main(["analyze-tensor", "--decomposition", str(dec_path),
                 "--out", str(out), "--eps", "0.5"])
    assert code == 0
    doc = json.loads((out / "analyze_tensor_report.json").read_text())
    assert doc["valid"]
    assert doc["nu"] == pytest.approx(1.0)
    assert doc["dims"] == {"sigma": 2, "pi": 2, "xi": 2}
    assert doc["regularized_rank_one_min"] >= 0.25 - 1e-9
    assert doc["config"]["seed"] == 0


def test_reference_sawtooth_with_check(tmp_path):
    out = tmp_path / "run"
    code = main(["reference", "--case", "sawtooth", "--m", "1.0", "--k", "2",
                 "--resolution", "256", "--check", "--out", str(out)])
    assert code == 0
    table = (out / "residual_table.csv").read_text().strip().splitlines()
    assert table[0] == "level,h_level,pairing_residual"
    assert len(table) == 5
    resid = [float(r.split(",")[2]) for r in table[1:]]
    assert resid[-1] <= resid[0]
    doc = json.loads((out / "reference_report.json").read_text())
    assert doc["check"]["decreasing"]


def test_reference_sawtooth_check_at_its_defaults_exits_zero(tmp_path):
    """At k 4 on 128^2 the four-level cascade reaches the lattice step,
    where the pairing residual settles."""
    out = tmp_path / "run"
    assert main(["reference", "--case", "sawtooth", "--check", "--out", str(out)]) == 0
    doc = json.loads((out / "reference_report.json").read_text())
    assert len(doc["check"]["pairing_residuals"]) == 4
    assert doc["check"]["pairing_residuals"][-1] <= 1e-3


def test_solve_linear_incompatible_data_exits_one(tmp_path, capsys):
    dec_path = tmp_path / "dec.json"
    dec = Decomposition((np.diag([1.0, 0.0]), np.zeros((2, 2))),
                        (np.eye(2), np.zeros((2, 2))))
    dec.save(dec_path)
    dom = Domain.unit_square(16)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    bad = GridFunction(dom, np.stack([0 * base, base], axis=-1))
    f_path = tmp_path / "f.grid"
    save_grid(f_path, bad)
    out = tmp_path / "run"
    code = main(["solve-linear", "--decomposition", str(dec_path),
                 "--f", str(f_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "incompatible" in err
    doc = json.loads((out / "solve_report.json").read_text())
    assert doc["accepted"] is False


def test_solve_linear_writes_artifacts(tmp_path):
    dec_path = tmp_path / "dec.json"
    write_diag_dec(dec_path)
    dom = Domain.unit_square(24)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    f = GridFunction(dom, np.stack([base, 0.5 * base], axis=-1))
    f_path = tmp_path / "f.grid"
    save_grid(f_path, f)
    out = tmp_path / "run"
    code = main(["solve-linear", "--decomposition", str(dec_path),
                 "--f", str(f_path), "--eps-seq", "0.1,0.01,0.001",
                 "--out", str(out)])
    assert code == 0
    for name in ("sigma_u.grid", "pi_Du.grid", "xi_D2u.grid",
                 "eps_convergence.csv", "solve_report.json"):
        assert (out / name).exists()


def test_write_csv_empty_rows_header_only(tmp_path):
    from diffusepde.cli import write_csv
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"


def _solve_nonlinear_args(tmp_path, *flags):
    dec_path, f_path = tmp_path / "dec.json", tmp_path / "f.grid"
    write_diag_dec(dec_path)
    dom = Domain.unit_square(16)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    save_grid(f_path, GridFunction(dom, np.stack([base, -0.5 * base], axis=-1)))
    return ["solve-nonlinear", "--decomposition", str(dec_path), "--f", str(f_path),
            *flags, "--out", str(tmp_path / "run")]


def test_only_the_nearness_violation_blames_gamma_and_lip_frac(tmp_path, capsys, monkeypatch):
    """``--gamma`` and ``--lip-frac`` that break the nearness requirement
    are a parse error naming both flags; a ``ValueError`` raised elsewhere
    in ``make_nonlinearity`` is not reported against them."""
    from diffusepde import solver
    assert main(_solve_nonlinear_args(tmp_path, "--gamma", "0.8", "--lip-frac", "0.3")) == 2
    err = capsys.readouterr().err
    assert "--gamma must lie in" in err and "nearness requirement" in err

    def broken(dec):
        raise ValueError("a fault outside the nearness check")

    monkeypatch.setattr(solver, "reconstruct", broken)
    assert main(_solve_nonlinear_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "a fault outside the nearness check" in err
    assert "--gamma" not in err and "--lip-frac" not in err


def test_iteration_log_rows():
    from diffusepde.solver import IterationLog
    log = IterationLog(increments=[1.0, 0.5], ratios=[0.5], residuals=[0.2, 0.1])
    rows = log.to_rows()
    assert len(rows) == 2
    assert rows[0]["ratio"] == 0.5  # ratio column aligned to the next step
    assert rows[1]["ratio"] == ""


def test_solve_nonlinear_cli(tmp_path):
    dec_path = tmp_path / "dec.json"
    write_diag_dec(dec_path)
    dom = Domain.unit_square(24)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    f = GridFunction(dom, np.stack([base, -0.5 * base], axis=-1))
    f_path = tmp_path / "f.grid"
    save_grid(f_path, f)
    out = tmp_path / "run"
    code = main(["solve-nonlinear", "--decomposition", str(dec_path),
                 "--f", str(f_path), "--eps-seq", "0.1,0.01,0.001",
                 "--gamma", "0.2", "--lip-frac", "0.3", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "nonlinear_report.json").read_text())
    assert doc["final_residual"] <= 1e-6
    assert isinstance(doc["max_ratio"], (int, float)), \
        f"no contraction ratio above the stop to compare with kappa: {doc['max_ratio']!r}"
    assert doc["max_ratio"] <= doc["kappa"] + 0.1
    log = (out / "iteration_log.csv").read_text().strip().splitlines()
    assert log[0] == "iteration,increment,ratio,residual"
    assert len(log) == doc["iterations"] + 1


@pytest.mark.parametrize("seeds, eps", [(("7", "7"), ["--eps", "0.1"]), (("0", "5"), [])],
                         ids=["same-seed", "seed-free-without-eps"])
def test_report_determinism_same_seed(tmp_path, seeds, eps):
    """A rerun is byte-identical; without ``--eps`` the seed feeds nothing
    but ``config.seed``."""
    dec_path = tmp_path / "dec.json"
    random_decomposition(np.random.default_rng(3), 2, 2).save(dec_path)
    out = tmp_path / "run"
    reports = []
    for seed in seeds:
        assert main(["analyze-tensor", "--decomposition", str(dec_path),
                     "--out", str(out), "--seed", seed, *eps]) == 0
        reports.append((out / "analyze_tensor_report.json").read_bytes())
    first, second = (json.loads(r) for r in reports)
    assert first["config"].pop("seed") == int(seeds[0])
    assert second["config"].pop("seed") == int(seeds[1])
    assert first == second
    if seeds[0] == seeds[1]:
        assert reports[0] == reports[1]  # byte-identical rerun


def test_manifest_and_flag_override(tmp_path):
    dec_path = tmp_path / "dec.json"
    write_diag_dec(dec_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"decomposition": str(dec_path), "eps": 0.5}))
    out = tmp_path / "run"
    code = main(["analyze-tensor", "--manifest", str(manifest),
                 "--out", str(out), "--eps", "0.25"])
    assert code == 0
    doc = json.loads((out / "analyze_tensor_report.json").read_text())
    assert doc["eps"] == 0.25  # flag wins over the manifest


def test_bad_manifest_exits_two(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    code = main(["analyze-tensor", "--manifest", str(manifest),
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_missing_required_input_exits_two(tmp_path):
    code = main(["check", "--out", str(tmp_path / "run")])
    assert code == 2


def test_truncated_grid_exits_two(tmp_path, capsys):
    dom = Domain.unit_square(8)
    path = tmp_path / "u.grid"
    save_grid(path, GridFunction(dom, np.ones(dom.shape + (2,))))
    path.write_bytes(path.read_bytes()[:-8])
    code = main(["diffuse", "--grid", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "truncated grid file" in err and str(path) in err


def test_grid_with_trailing_bytes_exits_two(tmp_path, capsys):
    dom = Domain.unit_square(32)
    path = tmp_path / "u.grid"
    save_grid(path, GridFunction.from_callable(dom, lambda x: np.sin(x)))
    path.write_bytes(path.read_bytes() + bytes(800))
    code = main(["diffuse", "--grid", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "trailing bytes" in err and str(path) in err


def test_verify_estimate_battery(tmp_path):
    out = tmp_path / "run"
    code = main(["verify-estimate", "--battery", "1", "--resolution", "32",
                 "--eps-list", "0.0,0.5", "--out", str(out), "--seed", "3"])
    assert code == 0
    doc = json.loads((out / "estimate_report.json").read_text())
    assert doc["all_passed"]
    lines = (out / "estimate_battery.csv").read_text().strip().splitlines()
    assert lines[0] == "dec,poly,eps,lhs,rhs,nu,passed"
    assert len(lines) == 1 + 20 * 2


@pytest.mark.parametrize("N, n", [(1, 2), (3, 2), (2, 3)])
def test_verify_estimate_on_a_decomposition_of_another_shape_exits_two(tmp_path, capsys,
                                                                        N, n):
    """The battery's maps have 2 components on the unit square; a decomposition
    of another shape is a parse error naming ``--decomposition``."""
    dec_path = tmp_path / "dec.json"
    random_decomposition(np.random.default_rng(0), N, n).save(dec_path)
    out = tmp_path / "run"
    code = main(["verify-estimate", "--decomposition", str(dec_path), "--resolution", "8",
                 "--out", str(out)])
    assert code == 2
    assert "error: --decomposition" in capsys.readouterr().err
    assert not (out / "estimate_battery.csv").exists()


def test_diffuse_writes_measure(tmp_path):
    dom = Domain.unit_square(16)
    u = GridFunction.from_callable(dom, lambda x: np.sin(x))
    g_path = tmp_path / "u.grid"
    save_grid(g_path, u)
    out = tmp_path / "run"
    code = main(["diffuse", "--grid", str(g_path), "--order", "1",
                 "--window", "3", "--out", str(out)])
    assert code == 0
    from diffusepde.measures import load_measure_field
    field = load_measure_field(out / "measure.bin")
    assert field.n_atoms == 3
    doc = json.loads((out / "diffuse_report.json").read_text())
    assert "R_inf" in doc and "schedules" in doc


def test_check_subcommand_manufactured(tmp_path):
    dom = Domain.unit_square(48)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    u = GridFunction(dom, np.stack([base, 0 * base], axis=-1))
    f = GridFunction(dom, -2 * np.pi**2 * u.values)
    dec_path = tmp_path / "dec.json"
    Decomposition((np.eye(2), np.zeros((2, 2))),
                  (np.eye(2), np.zeros((2, 2)))).save(dec_path)
    u_path, f_path = tmp_path / "u.grid", tmp_path / "f.grid"
    save_grid(u_path, u)
    save_grid(f_path, f)
    out = tmp_path / "run"
    code = main(["check", "--grid", str(u_path), "--system", "linear-tensor",
                 "--tensor", str(dec_path), "--f", str(f_path),
                 "--base-step", str(8 * dom.spacing), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "check_report.json").read_text())
    assert doc["passed"]
    assert (out / "residuals.csv").exists()


def test_analyze_tensor_rank_one_min_matches_loop(tmp_path):
    """The vectorized rank-one sampling against the per-direction loop it
    replaced: same random stream, same minimum up to rounding."""
    dec = random_decomposition(np.random.default_rng(7), 2, 2)
    dec_path = tmp_path / "dec.json"
    dec.save(dec_path)
    out = tmp_path / "run"
    assert main(["analyze-tensor", "--decomposition", str(dec_path), "--eps", "0.01",
                 "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads((out / "analyze_tensor_report.json").read_text())
    a_eps = regularize(canonicalize_decomposition(dec), 0.01)
    rng = np.random.default_rng(5)
    vals = []
    for _ in range(10_000):
        eta = rng.standard_normal(dec.N)
        a = rng.standard_normal(dec.n)
        eta /= np.linalg.norm(eta)
        a /= np.linalg.norm(a)
        vals.append(a_eps.rank_one_form(eta, a))
    assert doc["regularized_rank_one_min"] == pytest.approx(min(vals), rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_diffuse_rejects_bad_cutoff(tmp_path, capsys, value):
    dom = Domain.unit_square(16)
    g_path = tmp_path / "u.grid"
    save_grid(g_path, GridFunction.from_callable(dom, lambda x: np.sin(x)))
    out = tmp_path / "run"
    code = main(["diffuse", "--grid", str(g_path), "--r-inf", value, "--out", str(out)])
    assert code == 2
    assert "--r-inf must lie in (0, inf)" in capsys.readouterr().err
    assert not (out / "diffuse_report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-5"])
def test_check_rejects_bad_discretization_constant(tmp_path, capsys, value):
    dom = Domain.unit_square(32)
    g_path = tmp_path / "u.grid"
    save_grid(g_path, GridFunction.from_callable(dom, lambda x: np.sin(x)))
    out = tmp_path / "run"
    code = main(["check", "--grid", str(g_path), "--system", "infinity-laplace",
                 "--c-disc", value, "--out", str(out)])
    assert code == 2
    assert "--c-disc must lie in [0, inf)" in capsys.readouterr().err
    assert not (out / "check_report.json").exists()


def _sine_grid(tmp_path, resolution):
    path = tmp_path / "u.grid"
    save_grid(path, GridFunction.from_callable(Domain.unit_square(resolution),
                                               lambda x: np.sin(x)))
    return path


@pytest.mark.parametrize("flag, value", [
    ("--order", "0"), ("--window", "0"), ("--ratio", "0"), ("--ratio", "1"),
    ("--ratio", "1.5"), ("--base-step", "nan"), ("--base-step", "inf"),
    ("--base-step", "-1"), ("--base-step", "0")])
def test_diffuse_rejects_bad_numeric_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    code = main(["diffuse", "--grid", str(_sine_grid(tmp_path, 16)), flag, value,
                 "--out", str(out)])
    assert code == 2
    assert f"{flag} must lie in" in capsys.readouterr().err
    assert not (out / "diffuse_report.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "0", "--window must lie in"),
    ("--ratio", "0", "--ratio must lie in"),
    ("--ratio", "1.5", "--ratio must lie in"),
    ("--base-step", "nan", "--base-step must lie in"),
    ("--base-step", "-1", "--base-step must lie in"),
    ("--levels", "0", "--levels must lie in [2, inf), got 0"),
    ("--levels", "1", "--levels must lie in [2, inf), got 1"),
    ("--levels", "-1", "--levels must lie in [2, inf), got -1"),
    ("--base-step", "0.04", "at least two refinement levels above the lattice "
     "spacing; raise --base-step")])
def test_check_rejects_bad_numeric_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "run"
    code = main(["check", "--grid", str(_sine_grid(tmp_path, 32)), "--system",
                 "infinity-laplace", flag, value, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "check_report.json").exists()


def test_check_on_a_grid_too_small_for_its_windows_exits_two(tmp_path, capsys,
                                                             monkeypatch):
    """The default windows reach past every cell of a 32^2 grid: a parse
    error before any check runs, and no report."""
    from diffusepde import cli
    monkeypatch.setattr(cli, "check_dsolution",
                        lambda *args, **kwargs: pytest.fail("the check ran"))
    out = tmp_path / "run"
    code = main(["check", "--grid", str(_sine_grid(tmp_path, 32)), "--system",
                 "eikonal-tangent", "--out", str(out)])
    assert code == 2
    assert "no interior cells" in capsys.readouterr().err
    assert not any(out.iterdir())


def _sines_on(dom, components):
    return GridFunction.from_callable(dom, lambda x: np.sin(x[..., [0, 1, 0][:components]]))


@pytest.mark.parametrize("case, flag", [
    ("f of another shape", "--f"),
    ("f with a component per axis too many", "--f"),
    ("f on a disc against a square", "--f"),
    ("tensor of three components", "--tensor"),
    ("infinity-laplace on a three-component map", "--system")])
def test_check_on_a_mismatched_system_map_or_data_exits_two(tmp_path, capsys, case, flag):
    """Each mismatch is a parse error naming its flag, raised before any
    measure field is built; none reaches the check."""
    square = Domain.unit_square(48)
    u = _sines_on(square, 3 if "three-component map" in case else 2)
    f = {"f of another shape": _sines_on(Domain.unit_square(40), 2),
         "f with a component per axis too many": _sines_on(square, 3),
         "f on a disc against a square": _sines_on(Domain.unit_disc(48), 2)}.get(case)
    u_path, f_path, dec_path = tmp_path / "u.grid", tmp_path / "f.grid", tmp_path / "dec.json"
    save_grid(u_path, u)
    argv = ["check", "--grid", str(u_path), "--base-step", str(8 * square.spacing),
            "--out", str(tmp_path / "run")]
    if case == "tensor of three components":
        random_decomposition(np.random.default_rng(3), 3, 2).save(dec_path)
        argv += ["--system", "linear-tensor", "--tensor", str(dec_path)]
    else:
        argv += ["--system", "infinity-laplace"]
    if f is not None:
        save_grid(f_path, f)
        argv += ["--f", str(f_path)]
    assert main(argv) == 2
    assert f"error: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "check_report.json").exists()


@pytest.mark.parametrize("case", ["three components", "a 1-D grid"])
@pytest.mark.parametrize("command, report", [("solve-linear", "solve_report.json"),
                                             ("solve-nonlinear", "nonlinear_report.json")])
def test_solve_with_data_of_another_shape_exits_two(tmp_path, capsys, command, report, case):
    """A data grid whose component count or dimension the 2 x 2 decomposition
    cannot take is a parse error naming ``--f``, raised before any solve."""
    write_diag_dec(tmp_path / "dec.json")
    if case == "three components":
        f = _sines_on(Domain.unit_square(16), 3)
    else:
        f = GridFunction.from_callable(Domain.interval(0.0, 1.0, 16),
                                       lambda x: np.sin(np.pi * x[..., [0, 0]]))
    save_grid(tmp_path / "f.grid", f)
    out = tmp_path / "run"
    code = main([command, "--decomposition", str(tmp_path / "dec.json"),
                 "--f", str(tmp_path / "f.grid"), "--out", str(out)])
    assert code == 2
    assert "error: --f" in capsys.readouterr().err
    assert not (out / report).exists()


@pytest.mark.parametrize("flag, value", [
    ("--max-iter", "0"), ("--max-iter", "-3"), ("--tol-final", "0"),
    ("--tol-final", "nan"), ("--tol-final", "-0.001"), ("--gamma", "nan"),
    ("--lip-frac", "inf"), ("--gamma", "0.9"), ("--lip-frac", "0.9"), ("--gamma", "-5"),
    ("--lip-frac", "-0.5")])
def test_solve_nonlinear_rejects_bad_numeric_flag(tmp_path, capsys, flag, value):
    dec_path = tmp_path / "dec.json"
    write_diag_dec(dec_path)
    dom = Domain.unit_square(8)
    f_path = tmp_path / "f.grid"
    save_grid(f_path, GridFunction(dom, np.zeros(dom.shape + (2,))))
    out = tmp_path / "run"
    code = main(["solve-nonlinear", "--decomposition", str(dec_path), "--f", str(f_path),
                 flag, value, "--out", str(out)])
    assert code == 2
    assert f"{flag} must lie in" in capsys.readouterr().err
    assert not (out / "nonlinear_report.json").exists()


def test_manifest_number_that_does_not_convert_exits_two(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    for command, key, system in [("diffuse", "window", None), ("diffuse", "r-inf", None),
                                 ("check", "c-disc", "infinity-laplace")]:
        manifest.write_text(json.dumps({"grid": str(_sine_grid(tmp_path, 16)),
                                        "system": system, key: "abc"}))
        code = main([command, "--manifest", str(manifest), "--out", str(tmp_path / "run")])
        assert code == 2, key
        assert f"--{key}:" in capsys.readouterr().err


def _command_args(tmp_path, command):
    """Inputs that let ``command`` run up to its numeric flags, and its report."""
    if command in ("analyze-tensor", "solve-linear", "solve-nonlinear"):
        dec = ["--decomposition", str(tmp_path / "dec.json")]
        write_diag_dec(tmp_path / "dec.json")
        if command == "analyze-tensor":
            return dec, "analyze_tensor_report.json"
        f_path = tmp_path / "f.grid"
        save_grid(f_path, GridFunction(Domain.unit_square(8), np.zeros((9, 9, 2))))
        return dec + ["--f", str(f_path)], {"solve-linear": "solve_report.json",
                                            "solve-nonlinear": "nonlinear_report.json"}[command]
    if command == "check":
        return (["--grid", str(_sine_grid(tmp_path, 32)), "--system", "eikonal-tangent"],
                "check_report.json")
    if command == "reference":
        return ["--case", "sawtooth"], "reference_report.json"
    return ["--battery", "1", "--resolution", "16"], "estimate_report.json"


@pytest.mark.parametrize("command, flag, value", [
    ("analyze-tensor", "--eps", "nan"), ("analyze-tensor", "--eps", "-1"),
    ("check", "--speed", "nan"), ("check", "--speed", "-1"),
    ("reference", "--resolution", "0"), ("reference", "--m", "nan"),
    ("reference", "--m", "0"), ("reference", "--k", "0"), ("reference", "--depth", "0"),
    ("reference", "--mu", "nan"), ("verify-estimate", "--battery", "0"),
    ("verify-estimate", "--battery", "-1"), ("verify-estimate", "--resolution", "0"),
    ("verify-estimate", "--tol-est", "nan"), ("verify-estimate", "--tol-est", "-0.1"),
    ("check", "--r-list", "nan"), ("check", "--r-list", "10,0"),
    ("check", "--r-list", "-1"), ("check", "--r-list", "10,inf"),
    ("solve-linear", "--eps-seq", "0.1,-0.1"), ("solve-linear", "--eps-seq", "0.1,nan"),
    ("solve-nonlinear", "--eps-seq", "inf,0.1"),
    ("verify-estimate", "--eps-list", "0.5,-0.5"), ("verify-estimate", "--eps-list", "nan")])
def test_flag_out_of_range_exits_two(tmp_path, capsys, command, flag, value):
    args, report = _command_args(tmp_path, command)
    out = tmp_path / "run"
    code = main([command, *args, flag, value, "--out", str(out)])
    assert code == 2
    assert f"{flag} must lie in" in capsys.readouterr().err
    assert not (out / report).exists()


@pytest.mark.parametrize("command, args, flag", [
    ("reference", ["--case", "oscillation", "--k", "3"], "--k"),
    ("reference", ["--case", "fat-cantor", "--mu", "300"], "--mu"),
    ("reference", ["--case", "sawtooth", "--depth", "3"], "--depth"),
    ("reference", ["--case", "disc-explicit", "--resolution", "16", "--m", "2"], "--m"),
    ("check", ["--system", "infinity-laplace", "--speed", "3", "--tensor",
               "/nonexistent.json"], "--tensor"),
    ("check", ["--system", "eikonal-tangent", "--tensor", "dec.json"], "--tensor"),
    ("check", ["--system", "infinity-laplace", "--speed", "3"], "--speed"),
])
def test_flag_the_case_or_system_does_not_read_exits_two(tmp_path, capsys, command, args,
                                                         flag):
    """A flag that the chosen reference case or check system does not read
    is a parse error naming it, not a setting recorded and ignored."""
    if command == "check":
        args = ["--grid", str(_sine_grid(tmp_path, 32)), *args]
    out = tmp_path / "run"
    assert main([command, *args, "--out", str(out)]) == 2
    assert f"error: {flag}" in capsys.readouterr().err
    assert not (out / f"{command}_report.json").exists()


@pytest.mark.parametrize("condition, dec", [
    ("psd", Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                          (np.diag([1.0, -0.5]), np.diag([1.0, 0.0])))),
    ("range_orthogonality", Decomposition((np.diag([1.0, 0.0]), np.full((2, 2), 0.5)),
                                          (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))),
    ("common_eigenvector", Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                                         (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))),
])
@pytest.mark.parametrize("command, report", [("solve-linear", "solve_report.json"),
                                             ("solve-nonlinear", "nonlinear_report.json"),
                                             ("verify-estimate", "estimate_report.json")])
def test_invalid_decomposition_exits_two(tmp_path, capsys, command, report, condition, dec):
    """A decomposition that fails a factor condition is a parse error naming
    ``--decomposition`` and the condition, raised before any solve."""
    assert validate_decomposition(dec).failures() == [condition]
    dec.save(tmp_path / "dec.json")
    args = [command, "--decomposition", str(tmp_path / "dec.json")]
    if command == "verify-estimate":
        args += ["--resolution", "8"]
    else:
        save_grid(tmp_path / "f.grid", _sines_on(Domain.unit_square(16), 2))
        args += ["--f", str(tmp_path / "f.grid")]
    out = tmp_path / "run"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: --decomposition" in err and condition in err
    assert not (out / report).exists()


def test_analyze_tensor_reads_eps_before_the_decomposition(tmp_path, capsys):
    """A bad ``--eps`` is a parse error even when the decomposition fails a
    factor condition, which is otherwise a check failure (exit 1)."""
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, -0.5]), np.diag([1.0, 0.0])))
    dec.save(tmp_path / "dec.json")
    args = ["analyze-tensor", "--decomposition", str(tmp_path / "dec.json")]
    assert main([*args, "--out", str(tmp_path / "ok")]) == 1
    out = tmp_path / "run"
    assert main([*args, "--eps", "nan", "--out", str(out)]) == 2
    assert "error: --eps" in capsys.readouterr().err
    assert not (out / "analyze_tensor_report.json").exists()


@pytest.mark.parametrize("command, flag", [
    ("check", "--r-list"), ("solve-linear", "--eps-seq"),
    ("solve-nonlinear", "--eps-seq"), ("verify-estimate", "--eps-list")])
def test_list_flag_that_does_not_convert_exits_two(tmp_path, capsys, command, flag):
    args, _ = _command_args(tmp_path, command)
    code = main([command, *args, flag, "0.5,x", "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{flag}: could not convert" in capsys.readouterr().err


@pytest.mark.parametrize("command, value", [
    ("solve-linear", "0.1"), ("solve-linear", "0.1,0.1"),
    ("solve-nonlinear", "0.1,0.2"), ("solve-nonlinear", "0.1")])
def test_eps_sequence_that_does_not_decrease_exits_two(tmp_path, capsys, command, value):
    args, report = _command_args(tmp_path, command)
    out = tmp_path / "run"
    code = main([command, *args, "--eps-seq", value, "--out", str(out)])
    assert code == 2
    assert "--eps-seq needs two or more strictly decreasing entries" in capsys.readouterr().err
    assert not (out / report).exists()


def test_manifest_list_flag_as_json_array(tmp_path, capsys):
    args = ["--grid", str(_sine_grid(tmp_path, 32)), "--system", "eikonal-tangent",
            "--base-step", "0.125", "--window", "2", "--levels", "2"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"r-list": [10, 100.5]}))
    out = tmp_path / "run"
    assert main(["check", *args, "--manifest", str(manifest), "--out", str(out)]) in (0, 1)
    assert json.loads((out / "check_report.json").read_text())["R_values"] == [10.0, 100.5]
    manifest.write_text(json.dumps({"r-list": [10, "x"]}))
    code = main(["check", *args, "--manifest", str(manifest), "--out", str(tmp_path / "bad")])
    assert code == 2
    assert "--r-list: could not convert" in capsys.readouterr().err


def test_reference_parameter_the_case_rejects_exits_two(tmp_path, capsys):
    code = main(["reference", "--case", "oscillation", "--mu", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "frequency too low" in capsys.readouterr().err


def test_explicit_zero_is_not_replaced_by_the_default(tmp_path):
    """``--eps 0`` runs the regularized probe at eps 0, and ``--tol-est 0``
    compares without slack; both used to fall back silently."""
    write_diag_dec(tmp_path / "dec.json")
    out = tmp_path / "analyze"
    assert main(["analyze-tensor", "--decomposition", str(tmp_path / "dec.json"),
                 "--eps", "0", "--out", str(out)]) == 0
    doc = json.loads((out / "analyze_tensor_report.json").read_text())
    assert doc["eps"] == 0.0 and "regularized_rank_one_min" in doc
    out = tmp_path / "estimate"
    main(["verify-estimate", "--battery", "1", "--resolution", "16", "--eps-list",
          "0.5", "--tol-est", "0", "--out", str(out)])
    assert json.loads((out / "estimate_report.json").read_text())["tol_est"] == 0.0


def test_check_report_keys_match_the_schema(tmp_path):
    from importlib.resources import files
    schema = json.loads(files("diffusepde").joinpath("schemas/formats.json").read_text())
    out = tmp_path / "run"
    assert main(["check", "--grid", str(_sine_grid(tmp_path, 32)), "--system",
                 "eikonal-tangent", "--base-step", "0.125", "--window", "2", "--levels", "2",
                 "--out", str(out)]) in (0, 1)
    doc = json.loads((out / "check_report.json").read_text())
    assert sorted(doc) == sorted(schema["check_report"]["keys"])


def _grid_with_header(path, edit):
    """An 8^2 one-component grid file whose JSON header is rewritten by ``edit``."""
    dom = Domain.unit_square(8)
    save_grid(path, GridFunction(dom, np.ones(dom.shape + (1,))))
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(head))).encode("ascii") + b"\n" + body)


def _dec_with_doc(path, edit):
    """A one-component decomposition file whose JSON document is rewritten by ``edit``."""
    doc = Decomposition((np.eye(1),), (np.eye(2),)).to_json_dict()
    path.write_text(json.dumps(edit(doc)))


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: {**doc, key: value}


@pytest.mark.parametrize("command, flag, write, edit", [
    ("diffuse", "--grid", _grid_with_header, _without("components")),
    ("diffuse", "--grid", _grid_with_header, _without("origin")),
    ("diffuse", "--grid", _grid_with_header, _with("spacing", "abc")),
    ("diffuse", "--grid", _grid_with_header, _with("dims", [9.0, 9.0])),
    ("diffuse", "--grid", _grid_with_header, _with("components", 1.0)),
    ("diffuse", "--grid", _grid_with_header, lambda doc: [doc]),
    ("analyze-tensor", "--decomposition", _dec_with_doc, _without("A_factors")),
    ("analyze-tensor", "--decomposition", _dec_with_doc, lambda doc: [doc]),
    ("analyze-tensor", "--decomposition", _dec_with_doc,
     _with("A_factors", [[[1.0, 0.0], [0.0, float("nan")]]])),
    ("analyze-tensor", "--decomposition", _dec_with_doc,
     _with("A_factors", [[[{}, 0.0], [0.0, 1.0]]])),
    ("analyze-tensor", "--decomposition", _dec_with_doc,
     _with("A_factors", [[[True, 0.0], [0.0, 1.0]]])),
], ids=["no-components", "no-origin", "text-spacing", "float-dims", "float-components",
        "list-header", "no-A-factors", "list-document", "nan-factor", "object-entry",
        "bool-entry"])
def test_malformed_input_file_exits_two(tmp_path, capsys, command, flag, write, edit):
    path = tmp_path / "input"
    write(path, edit)
    code = main([command, flag, str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"cannot read {flag} file" in capsys.readouterr().err


def test_manifest_field_no_subcommand_declares_exits_two(tmp_path, capsys):
    dec_path = tmp_path / "dec.json"
    write_diag_dec(dec_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"decomposition": str(dec_path), "eps_seq": "0.5,0.4"}))
    code = main(["analyze-tensor", "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "'eps_seq'" in capsys.readouterr().err
    # a field another subcommand declares is left to that subcommand
    manifest.write_text(json.dumps({"decomposition": str(dec_path), "eps-seq": "0.5,0.4"}))
    assert main(["analyze-tensor", "--manifest", str(manifest),
                 "--out", str(tmp_path / "run")]) == 0


def test_reference_check_on_a_case_without_one_exits_two(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["reference", "--case", "disc-explicit", "--resolution", "16", "--check",
                 "--out", str(out)])
    assert code == 2
    assert "--check" in capsys.readouterr().err
    assert not (out / "reference_report.json").exists()


@pytest.mark.parametrize("command, dec, eps_seq, report, reason", [
    ("solve-linear", random_decomposition(np.random.default_rng(7), 2, 2), "1e100,1e99",
     "solve_report.json", "discrete residual above the solver tolerance"),
    ("solve-nonlinear", None, "1e300,1e299", "nonlinear_report.json",
     "iteration is not contracting"),
    ("solve-nonlinear", Decomposition((np.diag([1.0, 0.0]), np.zeros((2, 2))),
                                      (np.eye(2), np.zeros((2, 2)))), None,
     "nonlinear_report.json", "incompatible"),
], ids=["linear-residual-guard", "nonlinear-contraction-guard", "nonlinear-incompatible"])
def test_solve_that_fails_a_guard_exits_one(tmp_path, capsys, command, dec, eps_seq,
                                            report, reason):
    """A solve whose numerical guard fails, or whose data the system cannot
    take, writes its report with the reason and exits 1."""
    dec_path = tmp_path / "dec.json"
    if dec is None:
        write_diag_dec(dec_path)
    else:
        dec.save(dec_path)
    dom = Domain.unit_square(16)
    f = _sines_on(dom, 2)
    if reason == "incompatible":
        f = GridFunction(dom, f.values * [0.0, 1.0])
    f_path = tmp_path / "f.grid"
    save_grid(f_path, f)
    out = tmp_path / "run"
    args = [command, "--decomposition", str(dec_path), "--f", str(f_path), "--out", str(out)]
    code = main(args + (["--eps-seq", eps_seq] if eps_seq else []))
    assert code == 1
    assert reason in capsys.readouterr().err
    doc = json.loads((out / report).read_text())
    assert doc["accepted"] is False and reason in doc["reason"]


@pytest.mark.parametrize("args, digest", [
    (["--battery", "2", "--resolution", "32"],
     "734ed47de9a022f27eca3fd7245a4b8099df7e21f69dddf9aa381493d65aa47a"),
    (["--decomposition", "diag.json"],
     "1dc4debeb2bb46f87c58d3d03b5223540b4d7610528ff7a82af7f81f72c77f66"),
], ids=["battery", "diagonal-tensor"])
def test_verify_estimate_battery_is_pinned(tmp_path, args, digest):
    """sha256 of ``estimate_battery.csv`` for a two-tensor battery on 32^2
    and for the diagonal tensor at the defaults."""
    write_diag_dec(tmp_path / "diag.json")
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "run"
    assert main(["verify-estimate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "estimate_battery.csv").read_bytes()).hexdigest() == digest


def test_verify_estimate_on_a_lattice_without_active_cells_exits_two(tmp_path, capsys):
    """``--resolution 1`` is a 2x2 lattice of boundary nodes only."""
    out = tmp_path / "run"
    code = main(["verify-estimate", "--resolution", "1", "--out", str(out)])
    assert code == 2
    assert "--resolution must lie in [2, inf)" in capsys.readouterr().err
    assert not (out / "estimate_battery.csv").exists()


def test_check_with_windows_reaching_past_the_lattice_exits_two(tmp_path, capsys):
    """A base step of 1e300 reaches past every cell; the interior guard
    answers without one erosion pass per lattice step of that reach."""
    out = tmp_path / "run"
    code = main(["check", "--grid", str(_sine_grid(tmp_path, 32)), "--system",
                 "infinity-laplace", "--base-step", "1e300", "--out", str(out)])
    assert code == 2
    assert "no interior cells" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_reference_check_on_a_grid_too_small_for_its_windows_exits_two(tmp_path, capsys):
    """The sawtooth check's four-level cascade from 16h needs a margin of 34h,
    more than a 32^2 lattice has."""
    out = tmp_path / "run"
    code = main(["reference", "--case", "sawtooth", "--check", "--resolution", "32",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "no interior cells" in err and "--resolution" in err
    assert not (out / "reference_report.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("analyze-tensor", "--eps", "1e200"),
    ("verify-estimate", "--eps-list", "1e308"),
    ("solve-linear", "--eps-seq", "1e308,1"),
])
def test_an_eps_whose_regularization_overflows(tmp_path, capsys, command, flag, value):
    """The regularized tensor's entries overflow: a parse error naming the
    flag, or for a solve a rejected report giving that reason."""
    dec_path = tmp_path / "dec.json"
    random_decomposition(np.random.default_rng(7), 2, 2).save(dec_path)
    f_path = tmp_path / "f.grid"
    save_grid(f_path, _sines_on(Domain.unit_square(16), 2))
    out = tmp_path / "run"
    args = {"analyze-tensor": ["--decomposition", str(dec_path)],
            "verify-estimate": ["--battery", "1", "--resolution", "8"],
            "solve-linear": ["--decomposition", str(dec_path), "--f", str(f_path)]}[command]
    code = main([command, *args, flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert "overflows" in err
    if command == "solve-linear":
        assert code == 1
        doc = json.loads((out / "solve_report.json").read_text())
        assert doc["accepted"] is False and "overflows" in doc["reason"]
    else:
        assert code == 2 and f"error: {flag}: " in err
        assert not any(out.iterdir())


def test_diffuse_drops_the_steps_below_the_lattice_spacing(tmp_path):
    """``--window 10`` from the default 8h keeps the four steps 8h, 4h, 2h, h."""
    out = tmp_path / "run"
    code = main(["diffuse", "--grid", str(_sine_grid(tmp_path, 32)), "--window", "10",
                 "--out", str(out)])
    assert code == 0
    h = 1.0 / 32
    doc = json.loads((out / "diffuse_report.json").read_text())
    assert doc["schedules"] == [[[8 * h]], [[4 * h]], [[2 * h]], [[h]]]


def test_diffuse_on_a_lattice_coarser_than_one_runs_without_a_warning(tmp_path):
    """On a spacing of 2 the bound ``--base-step < float max * spacing`` is
    infinite; computing it raises no overflow warning (an error under the
    test configuration, so an exit 3)."""
    dom = Domain(shape=(17, 17), spacing=2.0, origin=(0.0, 0.0), mask_kind="rect")
    save_grid(tmp_path / "u.grid", GridFunction.from_callable(dom, lambda x: np.sin(x)))
    assert main(["diffuse", "--grid", str(tmp_path / "u.grid"),
                 "--out", str(tmp_path / "run")]) == 0


def test_diffuse_with_every_step_below_the_lattice_spacing_exits_two(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["diffuse", "--grid", str(_sine_grid(tmp_path, 32)), "--base-step", "0.001",
                 "--out", str(out)])
    assert code == 2
    assert "error: --base-step/--window: " in capsys.readouterr().err
    assert not any(out.iterdir())


def test_check_with_no_feasible_cut_off_radius_exits_two(tmp_path, capsys):
    """At R = 1e-9 the zero set of the manufactured data misses every ball."""
    dom = Domain.unit_square(48)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    u = GridFunction(dom, np.stack([base, 0 * base], axis=-1))
    dec_path, u_path, f_path = tmp_path / "dec.json", tmp_path / "u.grid", tmp_path / "f.grid"
    Decomposition((np.eye(2), np.zeros((2, 2))),
                  (np.eye(2), np.zeros((2, 2)))).save(dec_path)
    save_grid(u_path, u)
    save_grid(f_path, GridFunction(dom, -2 * np.pi**2 * u.values))
    out = tmp_path / "run"
    code = main(["check", "--grid", str(u_path), "--system", "linear-tensor",
                 "--tensor", str(dec_path), "--f", str(f_path),
                 "--base-step", str(8 * dom.spacing), "--r-list", "1e-9", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --r-list: no cut-off radius admits a zero" in err
    assert not (out / "check_report.json").exists()


def test_verify_estimate_with_a_non_finite_estimate_exits_two(tmp_path, capsys):
    """At eps 1e152 the regularized entries stay finite but the right-hand
    side's norm overflows."""
    out = tmp_path / "run"
    code = main(["verify-estimate", "--eps-list", "1e152", "--battery", "1",
                 "--resolution", "16", "--out", str(out)])
    assert code == 2
    assert "error: --eps-list: the estimate with eps=1e+152 is not finite" in (
        capsys.readouterr().err)
    assert not any(out.iterdir())


def _checkerboard_grid(tmp_path):
    """A finite 32^2 map of +-1.5e308 values, whose quotients overflow."""
    dom = Domain.unit_square(32)
    sign = np.where(np.indices(dom.shape).sum(axis=0) % 2 == 0, 1.0, -1.0)
    path = tmp_path / "big.grid"
    save_grid(path, GridFunction(dom, 1.5e308 * np.stack([sign, sign], axis=-1)))
    return path


@pytest.mark.parametrize("args, message", [
    (["diffuse", "--grid", "u", "--base-step", "1e308"], "--base-step must lie in"),
    # the steps that underflow are dropped with those below the spacing, and
    # the default windows then leave no interior cell of the 32^2 grid
    (["check", "--grid", "u", "--system", "infinity-laplace", "--ratio", "1e-308"],
     "lower --base-step or --window"),
    (["reference", "--case", "sawtooth", "--m", "1e308"], "M = 1e+308 is too large"),
    (["diffuse", "--grid", "big"], "--grid: difference quotients of step"),
    (["check", "--grid", "big", "--system", "infinity-laplace", "--base-step", "0.125",
      "--levels", "2", "--window", "2"], "--grid: difference quotients of step"),
], ids=["diffuse-base-step", "check-ratio", "reference-m", "diffuse-overflow",
        "check-overflow"])
def test_input_whose_derived_quantities_overflow_or_vanish_exits_two(tmp_path, capsys,
                                                                     args, message):
    files = {"u": _sine_grid(tmp_path, 32), "big": _checkerboard_grid(tmp_path)}
    args = [str(files.get(a, a)) for a in args]
    out = tmp_path / "run"
    assert main([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("args, target", [
    (["diffuse", "--grid", "u"], "diffuse_field"),
    (["check", "--grid", "u", "--system", "infinity-laplace", "--base-step", "0.125",
      "--levels", "2", "--window", "2"], "check_dsolution"),
], ids=["diffuse", "check"])
def test_overflow_elsewhere_than_the_quotients_is_internal(tmp_path, capsys, monkeypatch,
                                                          args, target):
    """Only an overflow of the map's difference quotients is blamed on
    ``--grid``; any other overflow stays an internal error."""
    from diffusepde import cli

    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, target, overflow)
    args = [str(_sine_grid(tmp_path, 32)) if a == "u" else a for a in args]
    assert main([*args, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "internal error: OverflowError" in err and "--grid" not in err


def test_check_with_a_ratio_whose_steps_underflow_runs(tmp_path):
    """Steps that underflow to zero lie below the spacing and are dropped:
    from 4h the windows hold one schedule each, of step 4h, 2h and h."""
    out = tmp_path / "run"
    code = main(["check", "--grid", str(_sine_grid(tmp_path, 32)), "--system",
                 "infinity-laplace", "--base-step", "0.125", "--ratio", "1e-308",
                 "--out", str(out)])
    assert code in (0, 1)
    h = 1.0 / 32
    doc = json.loads((out / "check_report.json").read_text())
    assert doc["windows"] == [[[[s], [s, s]]] for s in (4 * h, 2 * h, h)]


def _pinned_solve_run(tmp_path, command):
    """The output directory of a 32^2 ``command`` run on the benchmark's kind
    of input."""
    dom = Domain.unit_square(32)
    x = dom.node_coords()
    dec_path, f_path = tmp_path / "dec.json", tmp_path / "f.grid"
    if command == "solve-linear":
        random_decomposition(np.random.default_rng(7), 2, 2).save(dec_path)
        f = sum(np.sin(p * np.pi * x[..., 0])[..., None] * np.sin(q * np.pi * x[..., 1])[..., None]
                * [1.0 / (p * q), (-1.0) ** q / (p + q)] for p in (1, 2, 3) for q in (1, 2))
    else:
        write_diag_dec(dec_path)
        f = np.stack([0.8 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
                      1.2 * np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])], axis=-1)
    save_grid(f_path, GridFunction(dom, f))
    out = tmp_path / "run"
    assert main([command, "--decomposition", str(dec_path), "--f", str(f_path),
                 "--out", str(out)]) == 0
    return out


def _pinned_solve_digests(tmp_path, command):
    """sha256 of every output of :func:`_pinned_solve_run`: the reports
    without their ``config`` (it names the run's paths), the CSV tables and
    the three fibre grids."""
    digests = {}
    for path in sorted(_pinned_solve_run(tmp_path, command).iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            del doc["config"]
            data = json.dumps(doc, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("command, digests", [
    ("solve-linear", {
        "eps_convergence.csv": "917314a12cf7197676a1ca605fe8cde0909ff17e53eb524004cebc37eefad8b9",
        "pi_Du.grid": "94ce0f54a5151c143b92176266fbadff68f15674927a7487f62dfd7c90f60f17",
        "sigma_u.grid": "31cd17f6c7aa9d66b3373771de0b700f6042ff30b28fa448272a2fadcb0c35ed",
        "solve_report.json": "e4fddd2cf193774837003be7af0a3b63ca9128e0824da543f2ebe82c92632be7",
        "xi_D2u.grid": "d8aa74cb97d31253442cf39bcb651fa1896b4b5e9e4d1f23d91ec4e7fa87afe7"}),
    ("solve-nonlinear", {
        "iteration_log.csv": "8c918b48dcc4798c0cf3137a0901c9fc526c6036ef8b1f21f46bc59cfac61259",
        "nonlinear_report.json": "7a4bba7500aafbe5bf67a918fe3d853b56edad477ecb89f531e4d3477d38bf83",
        "pi_Du.grid": "f7f1414bc8660a89c0c5c188dd80e8a9b0c1aede835f9049d22ce139819ccda7",
        "sigma_u.grid": "ee9ddade2cc26ec9746638dcf2d1a95e08a1a901f1cd4f81ec6071a1853813ca",
        "xi_D2u.grid": "421a7cd4f527ee677692cecd6996e0843e22f332345431a6125b22d229146d65"}),
])
def test_solve_outputs_are_pinned(tmp_path, command, digests):
    """The solves' outputs, bit for bit, at the default epsilon sequence."""
    assert _pinned_solve_digests(tmp_path, command) == digests


def test_pinned_linear_solve_matches_a_superlu_reference(tmp_path, monkeypatch):
    """The pinned ``solve-linear`` run's fibre grids agree to 1e-10 relative
    with the same run whose group operators are each factored by the
    minimum-degree SuperLU LU: two groups for each of the four epsilons."""
    import scipy.sparse.linalg as spla

    from diffusepde import solver
    from diffusepde.grids import load_grid

    (tmp_path / "torus").mkdir()
    (tmp_path / "superlu").mkdir()
    out = _pinned_solve_run(tmp_path / "torus", "solve-linear")
    kinds = []

    def superlu(self, sub, size):
        factor = spla.splu(solver._kron_sum(solver.lattice_patterns(self.domain), sub),
                           permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        kinds.append(type(factor))
        return factor

    monkeypatch.setattr(solver.DiscreteOperator, "_factor", superlu)
    ref = _pinned_solve_run(tmp_path / "superlu", "solve-linear")
    assert kinds == [spla.SuperLU] * 8
    for name in ("sigma_u", "pi_Du", "xi_D2u"):
        got, want = (load_grid(d / f"{name}.grid").values for d in (out, ref))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("args, flag", [
    (["diffuse", "--grid", "big"], "--grid"),
    (["check", "--grid", "big", "--system", "infinity-laplace", "--base-step", "0.125",
      "--levels", "2", "--window", "2"], "--grid"),
    (["solve-linear", "--decomposition", "coupled", "--f", "big"], "--f"),
    (["solve-nonlinear", "--decomposition", "diag", "--f", "big"], "--f"),
    (["check", "--system", "linear-tensor", "--tensor", "diag", "--grid", "u", "--f", "big",
      "--base-step", "0.0625", "--levels", "2", "--window", "2"], "--f"),
], ids=["diffuse-overflow", "check-overflow", "solve-linear-overflow",
        "solve-nonlinear-overflow", "check-linear-f-overflow"])
def test_an_overflowing_quotient_exits_two_without_a_warning(tmp_path, capsys, args, flag):
    """The quotients of the +-1.5e308 checkerboard overflow, and so do the
    quantities a solve or a check derives from it as data: the command
    exits 2 naming the flag, and numpy prints no floating-point warning."""
    import warnings

    dom = Domain.unit_square(32)
    x = dom.node_coords()
    sines = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    save_grid(tmp_path / "u.grid", GridFunction(dom, sines[..., None] * [1.0, 0.5]))
    files = {"big": _checkerboard_grid(tmp_path), "coupled": tmp_path / "coupled.json",
             "diag": tmp_path / "diag.json", "u": tmp_path / "u.grid"}
    random_decomposition(np.random.default_rng(7), 2, 2).save(files["coupled"])
    write_diag_dec(files["diag"])
    args = [str(files.get(a, a)) for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*args, "--out", str(tmp_path / "run")]) == 2
    assert [str(w.message) for w in caught] == []
    assert f"error: {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("case, code", [("coupled", 0), ("no-second-component", 1)])
def test_a_zero_eps_solve_is_not_blamed_on_the_data(tmp_path, capsys, case, code):
    """``--eps-seq 0.1,0`` solves the unregularized tensor last, which is
    only degenerate elliptic.  The coupled decomposition's operator is still
    definite and the solve is accepted; one whose second component has no
    second derivative gives an operator that is singular on the disc, whose
    band factor breaks down: exit 1 with a rejected report, not a parse
    error of ``--f``."""
    if case == "coupled":
        dec, dom = random_decomposition(np.random.default_rng(7), 2, 2), Domain.unit_square(32)
    else:
        dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                            (np.eye(2), np.zeros((2, 2))))
        dom = Domain.unit_disc(24)
    dec.save(tmp_path / "dec.json")
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    save_grid(tmp_path / "f.grid", GridFunction(dom, base[..., None] * [1.0, 0.0]))
    out = tmp_path / "run"
    assert main(["solve-linear", "--decomposition", str(tmp_path / "dec.json"),
                 "--f", str(tmp_path / "f.grid"), "--eps-seq", "0.1,0",
                 "--out", str(out)]) == code
    doc = json.loads((out / "solve_report.json").read_text())
    assert doc["accepted"] is (code == 0)
    if code:
        assert "numerically singular" in doc["reason"]
        assert "error: --f" not in capsys.readouterr().err


@pytest.mark.parametrize("case", ["empty-rect", "empty-disc", "nan"])
def test_every_grid_flag_rejects_a_bad_grid_file(tmp_path, capsys, case):
    """A 2 x 2 lattice keeps no active cell under either mask, and a NaN on
    an active node has no differences.  Every command that reads a grid
    file exits 2 on such a file and names the file's flag, instead of an
    internal error, a failed solve, or an accepted empty one."""
    files = {"bad": tmp_path / "bad.grid", "coupled": tmp_path / "coupled.json",
             "diag": tmp_path / "diag.json"}
    if case == "nan":
        dom = Domain.unit_square(16)
        values = np.ones(dom.shape + (2,))
        save_grid(files["bad"], GridFunction(dom, values))
        # the NaN goes into the file's body, which save_grid would refuse
        values[8, 8, 0] = np.nan
        head = files["bad"].read_bytes()[:-values.nbytes]
        files["bad"].write_bytes(head + values.astype("<f8").tobytes())
    else:
        dom = Domain(shape=(2, 2), spacing=0.5, origin=(0.0, 0.0), mask_kind=case[6:])
        save_grid(files["bad"], GridFunction(dom, np.ones((2, 2, 2))))
    random_decomposition(np.random.default_rng(7), 2, 2).save(files["coupled"])
    write_diag_dec(files["diag"])
    runs = [(["diffuse", "--grid", "bad"], "--grid"),
            (["check", "--grid", "bad", "--system", "infinity-laplace"], "--grid"),
            (["solve-linear", "--decomposition", "coupled", "--f", "bad"], "--f"),
            (["solve-linear", "--decomposition", "diag", "--f", "bad"], "--f"),
            (["solve-nonlinear", "--decomposition", "diag", "--f", "bad"], "--f")]
    for k, (args, flag) in enumerate(runs):
        args = [str(files.get(a, a)) for a in args]
        assert main([*args, "--out", str(tmp_path / f"run{k}")]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "--gamma" not in err, (args, err)


SWEPT_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "1e-308", "1e30", "3.5"]
FILE_FLAGS = ("--grid", "--f", "--tensor", "--decomposition")


@pytest.mark.parametrize("resolution", [16, 32])
def test_every_numeric_flag_exits_zero_one_or_two(tmp_path, capsys, resolution):
    """Every numeric flag of ``cli.COMMANDS``, set to each value of
    ``SWEPT_VALUES`` in one base invocation per command (two for ``check``):
    no run is an internal error, and each parse error names the flag or an
    input file's flag."""
    from diffusepde.cli import COMMANDS

    dom = Domain.unit_square(resolution)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    u, f, dec = tmp_path / "u.grid", tmp_path / "f.grid", tmp_path / "dec.json"
    save_grid(u, GridFunction(dom, base[..., None] * [1.0, 0.5]))
    save_grid(f, GridFunction(dom, -2 * np.pi**2 * base[..., None] * [1.0, 0.5]))
    write_diag_dec(dec)
    u, f, dec = str(u), str(f), str(dec)
    windows = ["--base-step", repr(2 / resolution), "--levels", "2", "--window", "2"]
    bases = [["analyze-tensor", "--decomposition", dec],
             ["diffuse", "--grid", u],
             ["check", "--grid", u, "--system", "infinity-laplace", *windows],
             ["check", "--grid", u, "--system", "linear-tensor", "--tensor", dec,
              "--f", f, *windows],
             ["solve-linear", "--decomposition", dec, "--f", f],
             ["solve-nonlinear", "--decomposition", dec, "--f", f],
             ["reference", "--case", "sawtooth", "--resolution", str(resolution)],
             ["verify-estimate", "--battery", "1", "--resolution", str(resolution)]]
    faults, runs = [], 0
    for argv in bases:
        for flag, spec in COMMANDS[argv[0]][2].items():
            if spec.kind not in (int, float, list):
                continue
            for value in SWEPT_VALUES:
                args = list(argv)
                if f"--{flag}" in args:
                    args[args.index(f"--{flag}") + 1] = value
                else:
                    args += [f"--{flag}", value]
                code = main([*args, "--out", str(tmp_path / "run")])
                err = capsys.readouterr().err
                runs += 1
                names = [f"--{flag}"] + [a for a in args if a in FILE_FLAGS]
                if code not in (0, 1, 2) or (code == 2 and not any(n in err for n in names)):
                    faults.append((args, code, err.strip().splitlines()[-1:]))
    assert runs == 350
    assert faults == []


def test_read_flags_honours_each_interval():
    """``read_flags`` alone, on every numeric flag of ``cli.COMMANDS``: the
    lower end of the flag's interval is read exactly when it is closed, a
    value just inside it is read, the upper end is a parse error naming the
    flag, and a declared default lies in the interval."""
    from diffusepde.cli import COMMANDS, ManifestError, read_flags

    checked = 0
    for command, (_, _, flags) in COMMANDS.items():
        unset = {key: "x" if flag.required else None for key, flag in flags.items()}
        for key, flag in flags.items():
            if flag.kind not in (int, float, list):
                continue

            def reads(value):
                raw = [value] if flag.kind is list else value
                try:
                    return read_flags(command, {**unset, key: raw})[key] == raw
                except ManifestError as exc:
                    assert str(exc).startswith(f"--{key}"), exc
                    return False

            if flag.kind is int:
                inside = flag.lo + 1 if np.isfinite(flag.lo) else -2**62
            else:
                inside = np.nextafter(flag.lo, flag.hi)
            assert reads(flag.lo) is flag.closed, (command, key)
            assert reads(inside), (command, key, inside)
            assert not reads(flag.hi), (command, key)
            flag.read(key, None)  # the default, if any, lies in the interval
            checked += 1
    assert checked == 28


@pytest.mark.parametrize("key, value, message", [
    ("window", 2.9, "--window: 2.9 is not an integer"),
    ("window", True, "--window: true is not of kind int"),
    ("window", "2.5", "--window: invalid literal for int()"),
    ("ratio", True, "--ratio: true is not of kind float")])
def test_manifest_value_of_another_kind_exits_two(tmp_path, capsys, key, value, message):
    """A manifest value that its flag's kind does not hold is a parse error
    naming the flag: it is not converted (``2.9`` to 2 windows, ``true`` to a
    ratio of 1.0) while the report's ``config`` records the value given."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"grid": str(_sine_grid(tmp_path, 16)), key: value}))
    out = tmp_path / "run"
    assert main(["diffuse", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, fields, message", [
    ("diffuse", {"grid": 0}, "--grid: 0 is not of kind str"),
    ("diffuse", {"grid": ["u.grid"]}, '--grid: ["u.grid"] is not of kind str'),
    ("reference", {"case": "sawtooth", "check": "yes"}, '--check: "yes" is not of kind bool')])
def test_manifest_file_name_or_switch_of_another_type_exits_two(tmp_path, capsys, command,
                                                               fields, message):
    """A file, name or switch flag takes a JSON string or boolean; another
    value is a parse error naming the flag, where an integer used to be
    opened as a file descriptor and a list to exit 3."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(fields))
    out = tmp_path / "run"
    assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["check"], "check needs --grid and --system"),
    (["check", "--system", "infinity-laplace"], "check needs --grid"),
    (["solve-linear"], "solve-linear needs --decomposition and --f"),
    (["solve-nonlinear", "--f", "f.grid"], "solve-nonlinear needs --decomposition"),
    (["analyze-tensor"], "analyze-tensor needs --decomposition"),
    (["diffuse"], "diffuse needs --grid"),
    (["reference"], "reference needs --case")])
def test_missing_required_input_names_its_flags(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err


def test_check_with_more_levels_than_a_float_step_can_halve_runs(tmp_path):
    """``--levels 1100`` asks for steps below 2**-1023 of the base step; the
    cascade stops at its first level below the lattice spacing, so from 4h
    it holds the windows from 4h, 2h and h."""
    out = tmp_path / "run"
    code = main(["check", "--grid", str(_sine_grid(tmp_path, 32)), "--system",
                 "infinity-laplace", "--base-step", "0.125", "--levels", "1100",
                 "--out", str(out)])
    assert code in (0, 1)
    h = 1.0 / 32
    doc = json.loads((out / "check_report.json").read_text())
    assert [w[0][0][0] for w in doc["windows"]] == [4 * h, 2 * h, h]
    assert doc["config"]["levels"] == 1100


def test_help_lines_come_from_the_flag_table(capsys):
    """``--help`` gives each flag's kind, interval and default or
    requiredness as ``cli.COMMANDS`` declares them."""
    assert main(["check", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for line in ["--grid GRID file or name; required", "--levels LEVELS integer in [2, inf); default 3",
                 "--ratio RATIO float in (0, 1); default 0.5",
                 "--r-list R-LIST comma-separated floats in (0, inf)",
                 "--c-disc C-DISC float in [0, inf)"]:
        assert line in text
    assert main(["solve-linear", "--help"]) == 0
    assert ("--eps-seq EPS-SEQ comma-separated floats in [0, inf); default "
            "0.1,0.01,0.001,0.0001") in " ".join(capsys.readouterr().out.split())
