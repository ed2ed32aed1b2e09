import hashlib
import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diffusepde import solver
from diffusepde.checker import CoefficientSystem, check_dsolution, tensor_system
from diffusepde.frames import build_frame, schedule_window
from diffusepde.grids import Domain, GridFunction, shift_array
from diffusepde.solver import (BandCholesky, DiscreteOperator, EllipticityCertificate,
                               IterationLog, SineFactor, TorusFactor, _negated_band,
                               assemble_and_solve_eps,
                               boundary_ring_norm, campanato_solve,
                               check_sigma_valued,
                               fibre_norms, gradient_central,
                               hessian_central, lattice_patterns, make_nonlinearity,
                               poincare_check, solve_linear, verify_hessian_estimate)
from diffusepde.tensors import (Decomposition, Tensor4, canonicalize_decomposition,
                                random_decomposition, ranges_and_subspaces,
                                reconstruct, regularize)


def sinsin(dom, eta=(1.0,)):
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    return GridFunction(dom, base[..., None] * np.asarray(eta))


def test_manufactured_solve_second_order_rate():
    eta = np.array([1.0, 0.5])
    eta /= np.linalg.norm(eta)
    errs = []
    for res in (32, 64):
        dom = Domain.unit_square(res)
        ustar = sinsin(dom, eta)
        f = GridFunction(dom, -2 * np.pi**2 * ustar.values)
        u = assemble_and_solve_eps(Tensor4.laplacian(2, 2), f, dom)
        errs.append((u - ustar).l2_norm())
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.8


def test_zero_data_gives_zero_solution():
    dom = Domain.unit_square(24)
    f = GridFunction(dom, np.zeros(dom.shape + (2,)))
    u = assemble_and_solve_eps(Tensor4.laplacian(2, 2), f, dom)
    assert np.abs(u.values).max() == 0.0


def test_anisotropic_scalar_solve_preserves_symmetry():
    dom = Domain.unit_square(32)
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    from diffusepde.tensors import canonicalize_decomposition
    a_eps = regularize(canonicalize_decomposition(dec), 0.5)
    f = sinsin(dom)
    u = assemble_and_solve_eps(a_eps, f, dom)
    v = u.values[..., 0]
    assert np.allclose(v, v[::-1, :], atol=1e-9)
    assert np.allclose(v, v[:, ::-1], atol=1e-9)


def test_solve_linear_matches_full_rank_direct_solve():
    dom = Domain.unit_square(32)
    dec = Decomposition((np.eye(2), np.zeros((2, 2))),
                        (np.eye(2), np.zeros((2, 2))))
    eta = np.array([0.6, 0.8])
    ustar = sinsin(dom, eta)
    f = GridFunction(dom, -2 * np.pi**2 * ustar.values)
    fd, rep = solve_linear(dec, f, [1e-1, 1e-2, 1e-3])
    direct = assemble_and_solve_eps(reconstruct(dec), f, dom)
    assert (fd.sigma_u - direct).l2_norm() < 5e-3 * direct.l2_norm()
    assert rep.final_residual < 0.05
    assert rep.cauchy_differences[-1] < rep.cauchy_differences[0]


def test_solve_linear_rejects_incompatible_data():
    dom = Domain.unit_square(16)
    dec = Decomposition((np.diag([1.0, 0.0]), np.zeros((2, 2))),
                        (np.diag([1.0, 1.0]), np.zeros((2, 2))))
    bad = sinsin(dom, (0.0, 1.0))  # valued along the dead component
    with pytest.raises(ValueError, match="incompatible"):
        solve_linear(dec, bad, [1e-1, 1e-2])
    assert check_sigma_valued(bad.values, ranges_and_subspaces(dec)) > 0.5


@pytest.mark.parametrize("case", ["three components", "a 1-D grid"])
def test_solves_reject_data_of_another_shape_before_assembly(monkeypatch, case):
    """Both solves reject data whose component count or lattice dimension is
    not the decomposition's before they assemble any operator."""
    dom = Domain.unit_square(8)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    F, cert = make_nonlinearity(dec, GridFunction(dom, np.ones(dom.shape + (1,))),
                                gamma=0.1)
    if case == "three components":
        f = sinsin(dom, (1.0, 0.5, 0.25))
    else:
        line = Domain.interval(0.0, 1.0, 8)
        f = GridFunction(line, np.ones(line.shape + (2,)))

    def assembled(*args, **kwargs):
        raise AssertionError("an operator was assembled")

    monkeypatch.setattr(solver, "DiscreteOperator", assembled)
    with pytest.raises(ValueError, match="right-hand side has"):
        solve_linear(dec, f, [1e-1, 1e-2])
    with pytest.raises(ValueError, match="right-hand side has"):
        campanato_solve(F, cert, f, [1e-1, 1e-2])


@pytest.mark.parametrize("dec", [
    random_decomposition(np.random.default_rng(7), 2, 2),
    Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                  (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))),
], ids=["coupled", "diagonal"])
def test_solves_reject_an_empty_mask_before_assembly(monkeypatch, dec):
    """On a 2 x 2 box no cell is active: both solves name the empty mask
    before they build any operator."""
    dom = Domain.unit_square(8)
    F, cert = make_nonlinearity(dec, GridFunction(dom, np.ones(dom.shape + (1,))),
                                gamma=0.1)
    empty = Domain.unit_square(1)
    f = GridFunction(empty, np.zeros(empty.shape + (2,)))

    def assembled(*args, **kwargs):
        raise AssertionError("an operator was assembled")

    monkeypatch.setattr(solver, "DiscreteOperator", assembled)
    for solve in (lambda: solve_linear(dec, f, [1e-1, 1e-2]),
                  lambda: campanato_solve(F, cert, f, [1e-1, 1e-2])):
        with pytest.raises(ValueError, match="rect mask of the 2 x 2 lattice has no active cell"):
            solve()


@pytest.mark.parametrize("dec", [
    random_decomposition(np.random.default_rng(7), 2, 2),
    Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                  (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))),
], ids=["coupled-lu", "diagonal-spectral"])
def test_solve_linear_scales_exactly_with_its_data(dec):
    """Doubling the data doubles every fibre component and every Cauchy
    difference bit for bit, since scaling by a power of two is exact, and
    leaves the relative residual as it is: on the LU path (mixed terms) and
    on the sine-transform path (the diagonal tensor)."""
    dom = Domain.unit_square(32)
    x = dom.node_coords()
    f = GridFunction(dom, np.stack([np.sin(np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]),
                                    x[..., 0] * (1 - x[..., 0]) * x[..., 1]], axis=-1))
    fd1, rep1 = solve_linear(dec, f, [1e-1, 1e-2, 1e-3])
    fd2, rep2 = solve_linear(dec, f * 2.0, [1e-1, 1e-2, 1e-3])
    for a, b in zip((fd1.sigma_u, fd1.pi_Du, fd1.xi_D2u), (fd2.sigma_u, fd2.pi_Du, fd2.xi_D2u)):
        assert np.array_equal(b.values, 2 * a.values)
    assert rep2.cauchy_differences == [2 * c for c in rep1.cauchy_differences]
    assert rep2.final_residual == rep1.final_residual


def test_degenerate_disc_solve_matches_explicit_solution():
    from diffusepde.reference import disc_explicit_solution
    res = 64
    dom = Domain.unit_disc(res)
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    f = GridFunction.from_callable(dom, lambda x: np.ones(x.shape[:-1])[..., None])
    fd, _ = solve_linear(dec, f, [1e-1, 1e-2, 1e-3, 1e-4])
    ref = disc_explicit_solution(lambda x1, x2: 1.0, res).grids["solution"]
    assert (fd.sigma_u - ref).l2_norm() <= 0.05 * ref.l2_norm()


def test_fibre_norms_basics():
    dom = Domain.unit_square(64)
    dec = Decomposition((np.eye(1),), (np.eye(2),))
    zero = GridFunction(dom, np.zeros(dom.shape + (1,)))
    from diffusepde.solver import FibreData, fibre_projections
    data = ranges_and_subspaces(dec)
    fd0 = fibre_projections(zero, data)
    assert fibre_norms(fd0) == (0.0, 0.0, 0.0)
    u = sinsin(dom)
    fd = fibre_projections(u, data)
    n_u, n_du, n_d2u = fibre_norms(fd)
    assert n_u == pytest.approx(0.5, rel=2e-3)
    # full subspaces: the hessian norm integrates to pi^4 over the square
    assert n_d2u == pytest.approx(np.pi**2, rel=2e-2)
    fd2 = fibre_projections(GridFunction(dom, 2 * u.values), data)
    doubled = fibre_norms(fd2)
    assert doubled[0] == pytest.approx(2 * n_u, rel=1e-12)
    assert doubled[2] == pytest.approx(2 * n_d2u, rel=1e-12)


def test_eps_stability_of_fibre_norms():
    # regularized solves stay uniformly bounded by the data norm
    dom = Domain.unit_square(48)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    f = sinsin(dom, (1.0, -0.5))
    from diffusepde.solver import fibre_projections
    from diffusepde.tensors import canonicalize_decomposition
    canon = canonicalize_decomposition(dec)
    bound = (dom.diameter() ** 2 + dom.diameter() + 1) / data.nu * f.l2_norm()
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        u_eps = assemble_and_solve_eps(regularize(canon, eps), f, dom)
        norms = fibre_norms(fibre_projections(u_eps, data))
        assert sum(norms) <= bound


def test_uniqueness_under_eps_sequence_change():
    dom = Domain.unit_square(32)
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    f = sinsin(dom)
    fd1, rep1 = solve_linear(dec, f, [1e-1, 1e-2, 1e-3, 1e-4])
    fd2, rep2 = solve_linear(dec, f, [3e-2, 1e-3, 1e-4, 1e-5])
    tol = 2 * (rep1.cauchy_differences[-1] + rep2.cauchy_differences[-1])
    diff = ((fd1.sigma_u - fd2.sigma_u).l2_norm()
            + (fd1.pi_Du - fd2.pi_Du).l2_norm()
            + (fd1.xi_D2u - fd2.xi_D2u).l2_norm())
    assert diff <= tol


def test_hessian_estimate_trace_comparison_equality_case():
    dom = Domain.unit_square(64)
    dec = Decomposition((np.eye(1),), (np.eye(2),))
    v = sinsin(dom)
    rep = verify_hessian_estimate(dec, [v], [0.0])[0]
    assert rep["passed"]
    assert rep["hessian_norm"] <= rep["trace_norm"]
    assert rep["trace_norm"] == pytest.approx(np.pi**2, rel=2e-2)


def test_hessian_estimate_zero_function():
    dom = Domain.unit_square(16)
    dec = Decomposition((np.eye(1),), (np.eye(2),))
    zero = GridFunction(dom, np.zeros(dom.shape + (1,)))
    rep = verify_hessian_estimate(dec, [zero], [0.1])[0]
    assert rep["passed"] and rep["lhs"] == 0.0


def test_hessian_estimate_random_battery(rng):
    dom = Domain.unit_square(48)
    x = dom.node_coords()
    for _ in range(3):
        dec = random_decomposition(rng, 2, 2)
        maps = []
        for _ in range(4):
            coef = rng.standard_normal((2, 2, 2))
            vals = np.zeros(dom.shape + (2,))
            for a in range(2):
                for b in range(2):
                    base = (np.sin((a + 1) * np.pi * x[..., 0])
                            * np.sin((b + 1) * np.pi * x[..., 1]))
                    vals += coef[a, b] * base[..., None]
            maps.append(GridFunction(dom, vals))
        reps = verify_hessian_estimate(dec, maps, (0.0, 0.1, 1.0))
        assert len(reps) == 12 and all(rep["passed"] for rep in reps)


def test_hessian_estimate_is_one_pass_per_decomposition(monkeypatch, rng):
    """One call canonicalizes and works out the subspaces once, regularizes
    once per eps and differentiates each map once; its reports, maps
    outermost, equal those of one call per (map, eps), bit for bit."""
    from diffusepde import solver
    calls = {}
    for name in ("ranges_and_subspaces", "canonicalize_decomposition", "regularize",
                 "hessian_central"):
        def counted(*args, _orig=getattr(solver, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args)
        monkeypatch.setattr(solver, name, counted)
    dom = Domain.unit_square(16)
    maps = [sinsin(dom, eta) for eta in rng.standard_normal((4, 2))]
    dec, eps_list = random_decomposition(rng, 2, 2), [0.0, 0.1, 1.0]
    reps = verify_hessian_estimate(dec, maps, eps_list)
    assert calls == {"ranges_and_subspaces": 1, "canonicalize_decomposition": 1,
                     "regularize": 3, "hessian_central": 4}
    assert reps == [verify_hessian_estimate(dec, [u], [eps])[0]
                    for u in maps for eps in eps_list]


def test_make_nonlinearity_properties(rng):
    dom = Domain.unit_square(16)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.5 + 0.5 * np.sin(np.pi * x[..., 0]))[..., None])
    lip = 0.3 * data.nu
    F, cert = make_nonlinearity(dec, a_of_x, gamma=0.2,
                                g=lambda Y: lip * np.sin(Y.reshape(-1, 2, 2, 2)[:, :, 0, 0]),
                                lipschitz_g=lip)
    assert cert.kappa == pytest.approx(0.5)
    # constant along the complement of the hessian subspace
    x = dom.node_coords().reshape(-1, 2)[:50]
    X = rng.standard_normal((50, 8))
    comp = data.xi.complement_basis()
    Z = rng.standard_normal((50, comp.shape[0])) @ comp
    a = a_of_x.values.reshape(-1, 1)[:50]
    assert np.allclose(F.evaluate(x, a, X + Z), F.evaluate(x, a, X),
                       atol=1e-12)
    # the certified nearness on symmetric samples, at masked cells:
    # |T:Z - A (F(X+Z) - F(X))| <= B nu |xi Z| + C |T:Z|
    mask = dom.mask()
    x, a = dom.node_coords()[mask][:200], a_of_x.values[mask][:200]
    X, Z = (0.5 * (Y + Y.transpose(0, 1, 3, 2))
            for Y in rng.standard_normal((2, len(a), 2, 2, 2)))
    TZ = np.einsum("aibj,cbij->ca", reconstruct(dec).entries, Z)
    X, Z = X.reshape(len(a), -1), Z.reshape(len(a), -1)
    lhs = np.linalg.norm(TZ - a * (F.evaluate(x, a, X + Z) - F.evaluate(x, a, X)), axis=1)
    xiZ = data.xi.project(Z.reshape(-1, 2, 2, 2)).reshape(len(a), -1)
    rhs = (cert.B * data.nu * np.linalg.norm(xiZ, axis=1)
           + cert.C * np.linalg.norm(TZ, axis=1))
    assert len(a) == 200 and (lhs <= rhs + 1e-9).all()
    with pytest.raises(ValueError):
        make_nonlinearity(dec, a_of_x, gamma=0.9, g=None, lipschitz_g=0.2 * data.nu)


def test_campanato_linear_case_converges_immediately():
    dom = Domain.unit_square(32)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    a_of_x = GridFunction(dom, np.ones(dom.shape + (1,)))
    F, cert = make_nonlinearity(dec, a_of_x, gamma=0.0)
    f = sinsin(dom, (1.0, 0.5))
    fd, log = campanato_solve(F, cert, f, [1e-1, 1e-2, 1e-3], max_iter=5,
                              tol=1e-8)
    # exact nearness: the first step lands on the linear solve up to the
    # regularization-extrapolation floor
    assert len(log.increments) <= 2
    assert log.residuals[0] < 1e-4
    assert log.residuals[-1] < 1e-8


def test_campanato_zero_data_fixed_point():
    dom = Domain.unit_square(24)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    a_of_x = GridFunction(dom, np.ones(dom.shape + (1,)))
    F, cert = make_nonlinearity(dec, a_of_x, gamma=0.1)
    f = GridFunction(dom, np.zeros(dom.shape + (2,)))
    fd, log = campanato_solve(F, cert, f, [1e-1, 1e-2], max_iter=5)
    assert np.abs(fd.sigma_u.values).max() == 0.0
    assert len(log.increments) == 1


def nearness_system(dom, gamma=0.2, lip_frac=0.3):
    """Acceptance criterion 6's certified system on ``dom``: ``kappa`` is
    ``gamma + lip_frac``."""
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    lip = lip_frac * ranges_and_subspaces(dec).nu
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.0 + 0.3 * np.sin(np.pi * x[..., 0])
                        * np.cos(np.pi * x[..., 1]))[..., None])
    return make_nonlinearity(
        dec, a_of_x, gamma=gamma,
        g=lambda Y: lip * np.sin(Y.reshape(-1, 2, 2, 2)[:, :, 0, 0]),
        lipschitz_g=lip)


def criterion_6_data(dom):
    x = dom.node_coords()
    return GridFunction(dom, np.stack(
        [np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
         np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])], axis=-1))


def test_campanato_contraction_ratios():
    dom = Domain.unit_square(32)
    F, cert = nearness_system(dom)
    f = sinsin(dom, (1.0, -0.7))
    fd, log = campanato_solve(F, cert, f, [1e-1, 1e-2, 1e-3, 1e-4],
                              max_iter=40, tol_final=1e-6)
    assert max(log.ratios) <= cert.kappa + 0.1
    assert log.residuals[-1] <= 1e-6
    # the first step is Picard's: its quotient is the increments' ratio
    assert log.ratios[0] == log.increments[1] / log.increments[0]
    # the loop's bookkeeping must not move the iterates: pinned count and norms
    assert len(log.increments) == 11
    assert fibre_norms(fd) == pytest.approx(
        (0.04190172119260556, 0.12727467146430604, 0.4133625665418222),
        rel=1e-11, abs=0.0)


def test_campanato_matches_a_picard_reference():
    """On criterion 6's system at 32^2 the fibres agree to 1e-10 relative
    with those of a plain Picard loop built from :func:`solve_linear`, which
    stops at the same increment."""
    dom = Domain.unit_square(32)
    F, cert = nearness_system(dom)
    f = criterion_6_data(dom)
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    fd, log = campanato_solve(F, cert, f, eps)

    mask, a = dom.mask(), cert.A_of_x.values
    x, a_rows, f_rows = dom.node_coords()[mask], a[mask], f.values[mask]
    b = a * f.values
    for steps in range(1, 41):
        ref, _ = solve_linear(cert.dec, GridFunction(dom, b), eps)
        update = np.zeros_like(b)
        update[mask] = a_rows * (F.evaluate(x, a_rows, ref.xi_D2u.values[mask]) - f_rows)
        if GridFunction(dom, update).l2_norm() <= log.stop:
            break
        b = b - update
    assert (steps, len(log.increments)) == (32, 12)
    for name in ("sigma_u", "pi_Du", "xi_D2u"):
        got, want = getattr(fd, name).values, getattr(ref, name).values
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_campanato_converges_near_kappa_one():
    """At kappa 0.95 Picard steps contract too slowly to reach the stop in
    40 iterations; the accelerated ones do, under the certificate."""
    dom = Domain.unit_square(32)
    F, cert = nearness_system(dom, gamma=0.6, lip_frac=0.35)
    _, log = campanato_solve(F, cert, criterion_6_data(dom), [1e-1, 1e-2, 1e-3, 1e-4])
    assert cert.kappa == pytest.approx(0.95)
    assert len(log.increments) <= 40 and log.increments[-1] <= log.stop
    assert max(log.ratios) <= cert.kappa


def test_eps_refinement_that_does_not_settle_is_rejected():
    """From eps = 9.99e-4 to 1e-6 the projected solution moves a thousand
    times as far as from 1e-3 to 9.99e-4: no extrapolation, neither from the
    linear solve nor from a step of the fixed-point iteration."""
    dom = Domain.unit_square(32)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    f = sinsin(dom, (1.0, 0.5))
    eps = [1e-3, 9.99e-4, 1e-6]
    with pytest.raises(ArithmeticError, match="epsilon refinement is not settling"):
        solve_linear(dec, f, eps)
    F, cert = make_nonlinearity(dec, GridFunction(dom, np.ones(dom.shape + (1,))),
                                gamma=0.1)
    with pytest.raises(ArithmeticError, match="epsilon refinement is not settling"):
        campanato_solve(F, cert, f, eps)


def shift_gradient(u):
    """Central-difference gradient by shifts of the zero-extended lattice
    array, components ``(c, axis)``: ``(v[+1] - v[-1]) / 2h``."""
    dom, h = u.domain, u.domain.spacing
    return np.stack([(shift_array(u.values[..., c], k, 1)
                      - shift_array(u.values[..., c], k, -1)) / (2 * h)
                     for c in range(u.components) for k in range(dom.dim)], axis=-1)


def shift_second_difference(v, i, j, h):
    """``(v[+1] - 2 v + v[-1]) / h^2`` along axis ``i == j``, else
    ``(v[++] - v[+-] - v[-+] + v[--]) / 4h^2`` along axes ``i`` and ``j``."""
    if i == j:
        return (shift_array(v, i, 1) - 2 * v + shift_array(v, i, -1)) / h**2
    pp, pm, mp, mm = (shift_array(shift_array(v, i, a), j, b)
                      for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
    return (pp - pm - mp + mm) / (4 * h**2)


def shift_hessian(u):
    """Central-difference hessian by shifts, components ``(c, i, j)``."""
    dom = u.domain
    return np.stack([shift_second_difference(u.values[..., c], min(i, j), max(i, j),
                                             dom.spacing)
                     for c in range(u.components) for i in range(dom.dim)
                     for j in range(dom.dim)], axis=-1)


@pytest.mark.parametrize("domain", [
    Domain.unit_square(12),
    Domain.unit_disc(16),
    Domain.interval(0, 1, 20),
    Domain(shape=(6, 7, 5), spacing=0.2, origin=(0.0, 0.0, 0.0)),
    Domain.unit_square(16),
    Domain(shape=(6, 7, 5), spacing=0.25, origin=(0.0, 0.0, 0.0)),
], ids=["rect", "disc", "interval", "box", "rect-dyadic", "box-dyadic"])
def test_derivative_maps_match_shift_differences(domain, rng):
    """The pattern products of ``_derivative_rows``, and the grid functions
    ``gradient_central`` and ``hessian_central`` built from them, are the
    shift stencils' central gradient and hessian of the same two-component
    map, whose zero extension enters at the cells next to masked-out nodes.
    At a power-of-two spacing they are bit-identical."""
    u = GridFunction(domain, rng.standard_normal(domain.shape + (2,)))
    mask = domain.mask()
    X = u.values[mask]
    dyadic = math.frexp(domain.spacing)[0] == 0.5
    for want, got in ((shift_gradient(u), (solver._derivative_rows(domain, X, 1),
                                           gradient_central(u).values)),
                      (shift_hessian(u), (solver._derivative_rows(domain, X, 2),
                                          hessian_central(u).values))):
        assert not got[1][~mask].any()
        want = want[mask].reshape(-1)
        for g in (got[0].reshape(-1), got[1][mask].reshape(-1)):
            if dyadic:
                assert np.array_equal(g, want)
            else:
                assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


def test_derivative_maps_are_built_once_per_domain():
    """An equal domain reads the cached patterns, which the gradient and
    hessian rows multiply, not new copies."""
    for dom in (Domain.unit_square(12), Domain.unit_disc(16)):
        assert lattice_patterns(dom) is lattice_patterns(Domain(**vars(dom)))


def test_poincare_closed_form_and_battery(rng):
    dom = Domain.unit_square(48)
    u = sinsin(dom)
    rep = poincare_check(u, [(np.array([1.0]), np.array([1.0, 0.0]))])
    r = rep["results"][0]
    assert r["passed"]
    assert r["lhs"] == pytest.approx(0.5, rel=1e-2)
    assert r["rhs"] == pytest.approx(np.sqrt(2) * np.pi / 2 * 0.5 * 2, rel=3e-2)
    zero = GridFunction(dom, np.zeros(dom.shape + (1,)))
    assert poincare_check(zero, [(np.array([1.0]), np.array([0.0, 1.0]))])["passed"]
    x = dom.node_coords()
    dirs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(4)]
    for _ in range(10):
        coef = rng.standard_normal((2, 2, 2))
        vals = np.zeros(dom.shape + (2,))
        for a in range(2):
            for b in range(2):
                base = (np.sin((a + 1) * np.pi * x[..., 0])
                        * np.sin((b + 1) * np.pi * x[..., 1]))
                vals += coef[a, b] * base[..., None]
        assert poincare_check(GridFunction(dom, vals), dirs)["passed"]


def test_solver_output_passes_checker():
    """End to end: the projected solve of the degenerate linear system is a
    generalized solution in the adapted frame, restricted to the hessian
    directions the coefficients see."""
    res = 48
    dom = Domain.unit_square(res)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])
    f = GridFunction(dom, np.stack([base, -0.5 * base], axis=-1))
    fd, _ = solve_linear(dec, f, [1e-1, 1e-2, 1e-3, 1e-4])
    u_full = fd.sigma_u
    F = tensor_system(reconstruct(dec))
    frame = build_frame("from_decomposition", dec=dec)
    h = dom.spacing
    windows = [schedule_window(8 * h / 2**lvl, 2, ratio=0.5, order=2)
               for lvl in range(2)]
    rep = check_dsolution(u_full, F, frame, windows, R_list=[1e3], f=f,
                          project=data.xi, C_disc=120.0)
    assert rep.passed, rep.residuals


# Cascades of the same check under the default (COLAMD) column ordering of the
# operator's LU; the sine-transform solve, which this diagonal tensor on the
# open box takes, moves them only by rounding.
COLAMD_CASCADES = {
    "pairing": ["0x1.e6352e72a9105p-4", "0x1.65bf6e5616e91p-5"],
    "support": ["0x1.a55a1a822b4c3p-3", "0x1.4e45e70e120abp-4"],
    "integral": ["0x1.263e87049a28cp-3", "0x1.dc818d772cf5ap-5"],
    "cutoff": ["0x1.4e45e70e120abp-4", "0x1.1c774cd235d5dp-5"],
    "distance": ["0x1.d8bbc6098efb4p-4", "0x1.924bb2d9a5601p-5"],
}
COLAMD_R_INF = "0x1.f78c0341d404dp+21"


def test_projected_linear_check_cascades_are_pinned():
    """Exact residual cascades of the projected check of the solver output
    (the setting of ``test_solver_output_passes_checker``, solved by
    :class:`SineFactor`), and their agreement with the cascades under the
    COLAMD ordering of an LU."""
    dom = Domain.unit_square(48)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    x = dom.node_coords()
    base = np.sin(np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])
    f = GridFunction(dom, np.stack([base, -0.5 * base], axis=-1))
    fd, _ = solve_linear(dec, f, [1e-1, 1e-2, 1e-3, 1e-4])
    h = dom.spacing
    windows = [schedule_window(8 * h / 2**lvl, 2, ratio=0.5, order=2)
               for lvl in range(2)]
    rep = check_dsolution(fd.sigma_u, tensor_system(reconstruct(dec)),
                          build_frame("from_decomposition", dec=dec), windows,
                          R_list=[1e3], f=f, project=data.xi, C_disc=120.0)
    assert {k: [x.hex() for x in v] for k, v in rep.residuals.items()} == {
        "pairing": ["0x1.e6352e72a8ed1p-4", "0x1.65bf6e5616659p-5"],
        "support": ["0x1.a55a1a822b448p-3", "0x1.4e45e70e11cc1p-4"],
        "integral": ["0x1.263e87049a154p-3", "0x1.dc818d772c4f8p-5"],
        "cutoff": ["0x1.4e45e70e11cc1p-4", "0x1.1c774cd2350c9p-5"],
        "distance": ["0x1.d8bbc6098ea2bp-4", "0x1.924bb2d9a4437p-5"],
    }
    assert rep.R_inf.hex() == "0x1.f78c0341d3f5ep+21"
    assert rep.tolerance.hex() == "0x1.4000000000000p+3"
    for k, v in COLAMD_CASCADES.items():
        assert rep.residuals[k] == pytest.approx([float.fromhex(x) for x in v],
                                                 rel=1e-12, abs=0.0)
    assert rep.R_inf == pytest.approx(float.fromhex(COLAMD_R_INF), rel=1e-12, abs=0.0)


def test_nonlinearity_reads_scaling_from_state_rows(rng):
    """``make_nonlinearity`` takes ``A(x)`` from the cell-aligned ``uval``
    rows, on a domain whose origin is off the lattice zero."""
    dom = Domain.unit_disc(24)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (2.0 + np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1]))[..., None])
    gamma = 0.2
    F, cert = make_nonlinearity(dec, a_of_x, gamma=gamma)
    assert F.u_source(None, None, None) is a_of_x
    cells = np.argwhere(dom.mask())
    pick = cells[rng.choice(len(cells), size=40, replace=False)]
    x = dom.node_coords()[tuple(pick.T)]
    a = a_of_x.values[tuple(pick.T)]
    X = rng.standard_normal((40, 8))
    Xp = data.xi.project(X.reshape(-1, 2, 2, 2))
    T = reconstruct(dec).entries
    expected = (1 + gamma) * np.einsum("aibj,cbij->ca", T, Xp) / a
    assert np.allclose(F.evaluate(x, a, X), expected, rtol=1e-13, atol=0.0)
    # the coordinates play no part in finding the cell
    assert np.array_equal(F.evaluate(np.zeros_like(x), a, X), F.evaluate(x, a, X))


def test_boundary_ring_norm_decays_on_disc():
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    norms = []
    for res in (32, 64):
        dom = Domain.unit_disc(res)
        f = GridFunction.from_callable(dom, lambda x: np.ones(x.shape[:-1])[..., None])
        fd, _ = solve_linear(dec, f, [1e-1, 1e-2, 1e-3])
        norms.append(boundary_ring_norm(fd.sigma_u))
    assert norms[1] < norms[0]


def _coupled_eps01():
    dec = random_decomposition(np.random.default_rng(3), 2, 2)
    return regularize(canonicalize_decomposition(dec), 0.1)


@pytest.mark.parametrize("tensor, domain, digests", [
    (_coupled_eps01(), Domain.unit_square(32),
     ("cd2b1c2c14e1ce39b2d56fc98d08a1ba654361b29ca6df1fe8fe99b7f62c6141",
      "29adb1805b430d79b67d47e0e21e4be67ba70b9f6cff0f449bf917e9bb0ccf3d",
      "b32fca596bc34a89d097589a526c36e87beb1e0580cca44f97c56dfb688029ef")),
    (Tensor4.laplacian(2, 2), Domain.unit_disc(24),
     ("a45328968a317968c2eb5e0309b257a4c042dfd6110bae7b14f4945cd5a62ce5",
      "6249d60f1f0bb600405475b1cd200a2a232639003d1e803332d165ae185e689a",
      "56c5dfb33d4f3504702e9bd685ace8a125bcb813d16dc3ab602bedc2ccbeffff")),
    (Tensor4.laplacian(2, 1), Domain.interval(0, 1, 50),
     ("e256de500b8c017afc7c6b43f08208d8a456e65b899b9175c59c4a8fdae3aa54",
      "e2f0ccdef6c36ab24653bbf5f71018f1b712fb08fb0e3b6e368bcd1ad811a910",
      "9205df0d258b21e8125f1cb97d1bc104ac9d7053934ef4a6d274493babc1a375")),
], ids=["coupled-square", "laplacian-disc", "laplacian-interval"])
def test_operator_matrix_is_pinned(tensor, domain, digests):
    """The assembled CSC matrix, bit for bit: sha256 of ``indptr`` and
    ``indices`` as int64 and of ``data`` as float64."""
    m = DiscreteOperator(tensor, domain).matrix
    got = tuple(hashlib.sha256(np.asarray(a, dtype=t).tobytes()).hexdigest()
                for a, t in ((m.indptr, np.int64), (m.indices, np.int64),
                             (m.data, np.float64)))
    assert got == digests


@pytest.mark.parametrize("tensor, domain", [
    (_coupled_eps01(), Domain.unit_square(32)),
    (Tensor4.laplacian(2, 2), Domain.unit_disc(24)),
    (Tensor4.laplacian(2, 1), Domain.interval(0, 1, 50)),
    (Tensor4.laplacian(2, 3), Domain(shape=(9, 9, 9), spacing=1 / 8,
                                     origin=(0.0, 0.0, 0.0))),
], ids=["coupled-square", "laplacian-disc", "laplacian-interval", "laplacian-cube"])
def test_solve_matches_colamd_ordering(tensor, domain, rng):
    """The operator's solve (sine, torus or band factors) agrees with an LU
    under the default COLAMD ordering, up to rounding; the unknown order is
    the same."""
    op = DiscreteOperator(tensor, domain)
    f = GridFunction(domain, rng.standard_normal(domain.shape + (op.N,)))
    u = op.solve(op.rhs_vector(f))
    ref = spla.splu(op.matrix).solve(op.rhs_vector(f))
    assert np.max(np.abs(u - ref)) <= 1e-11 * np.max(np.abs(ref))


def _non_commuting_eps():
    return regularize(Decomposition((0.5 * np.diag([1.0, 0.0]), np.full((2, 2), 0.25)),
                                    (np.diag([1.0, 0.5]), np.diag([0.5, 1.0]))), 1e-2)


def _cube(resolution):
    return Domain(shape=(resolution + 1,) * 3, spacing=1 / resolution, origin=(0.0,) * 3)


def _coupled_3d():
    """A random 3-D decomposition: it splits into scalar groups with mixed terms."""
    dec = random_decomposition(np.random.default_rng(3), 2, 3)
    return regularize(canonicalize_decomposition(dec), 0.1)


def _non_commuting_3d():
    return regularize(Decomposition((0.5 * np.diag([1.0, 0.0]), np.full((2, 2), 0.25)),
                                    (np.diag([1.0, 0.5, 0.75]), np.diag([0.5, 1.0, 0.25]))),
                      1e-2)


@pytest.mark.parametrize("tensor, group", [(_coupled_3d(), 1), (_non_commuting_3d(), 2)],
                         ids=["split", "coupled"])
def test_band_is_as_wide_as_the_mixed_stencil(tensor, group):
    """Guards the band width of a 3-D group: at 8^3 (7^3 active cells) the
    mixed stencil reaches 7^2 + 7 = 56 cells ahead, so a group of ``g``
    components stores ``u + 1 = 56 g + g`` band rows for each of its ``7^3
    g`` unknowns."""
    op = DiscreteOperator(tensor, _cube(8))
    lu = op.factorize()
    assert [f.band.shape for f, _ in lu.factors] == [(57 * group, 7**3 * group)] * (2 // group)
    assert lu.L.nnz + lu.U.nnz == 2 * group * 57 * 7**3


def _mmd(matrix):
    return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("domain", [
    Domain.unit_square(24), Domain.unit_disc(24),
    Domain(shape=(9, 9, 9), spacing=1 / 8, origin=(0.0, 0.0, 0.0)),
], ids=["square", "disc", "box"])
def test_band_factor_of_regularized_operators(N, domain, rng):
    """A regularized tensor is strictly Legendre-Hadamard, so the band
    Cholesky of its whole negated operator succeeds on any mask; it and the
    operator's own group factors solve as the minimum-degree LU does to
    1e-11."""
    dec = random_decomposition(np.random.default_rng(N), N, domain.dim)
    op = DiscreteOperator(regularize(canonicalize_decomposition(dec), 1e-3), domain)
    b = op.rhs_vector(GridFunction(domain, rng.standard_normal(domain.shape + (N,))))
    ref = _mmd(op.matrix).solve(b)
    whole = BandCholesky(_negated_band(domain, op._blocks))
    for x in (whole.solve(b), op.factorize().solve(b)):
        assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_negated_laplacian_has_no_band_cholesky():
    """The negated Laplacian's operator is positive, not negative, definite:
    its band factor breaks down at the first minor."""
    op = DiscreteOperator(Tensor4(2, 2, -Tensor4.laplacian(2, 2).entries), Domain.unit_disc(16))
    with pytest.raises(ArithmeticError, match="numerically singular"):
        BandCholesky(_negated_band(op.domain, op._blocks))


def _strip(shape):
    """The open box on a 2-D lattice of ``shape``, unit spacing."""
    return Domain(shape=shape, spacing=1.0, origin=(0.0, 0.0))


@pytest.mark.parametrize("domain, N, shape, band", [
    (Domain.unit_square(128), 1, (129, 127**2), False),
    (Domain.unit_square(160), 1, (161, 159**2), False),
    (Domain.unit_square(192), 1, (193, 191**2), False),
    (Domain.unit_square(96), 2, (2 * 96 + 2, 2 * 95**2), False),
    (Domain.unit_square(128), 2, (2 * 128 + 2, 2 * 127**2), False),
    (_cube(32), 2, (2 * (31**2 + 31) + 2, 2 * 31**3), True),
    (Domain.interval(0, 1, 4096), 3, (3 * 1 + 3, 3 * 4095), True),
    (_strip((3, 20001)), 1, (2, 19999), True),
    (_strip((9, 2049)), 2, (2 * 8 + 2, 2 * 7 * 2047), True),
    (_strip((2049, 9)), 2, (2 * 8 + 2, 2 * 7 * 2047), True),
], ids=["128-scalar", "160-scalar", "192-scalar", "96-pair", "128-pair", "32-cube-pair",
        "interval", "strip-3", "strip-9", "strip-9-upright"])
def test_band_budget_is_read_before_allocation(domain, N, shape, band):
    """A group takes the band off 2-D lattices, whatever its size (at 32^3
    a pair's band would hold 118 M entries), and on a 2-D lattice whenever
    its Cholesky costs fewer flops than the torus factor's bordered LU.  The
    band's shape is read from the lattice patterns' reach, along the shorter
    axis of a 2-D lattice, without allocating it: on the squares the torus
    is cheaper, on the strips (whose ghost ring runs their length, 20001
    nodes at 3 x 20001) the band, a few rows wide."""
    assert solver._band_shape(solver._band_lattice(domain), N) == shape
    assert solver._takes_torus(domain, N) is not band


@pytest.mark.parametrize("shape, rows", [((3, 20001), 2), ((9, 2049), 9), ((2049, 9), 9)],
                         ids=["3-wide", "9-wide", "9-wide-upright"])
def test_thin_strip_takes_a_narrow_band(shape, rows, rng):
    """On a thin strip the ghost ring runs the strip's length, so its groups
    take the band, stored along the short axis whichever way up the strip
    lies: each scalar group of the coupled tensor keeps ``rows`` band rows
    (the mixed stencil reaches one short row and one cell ahead), permutes
    its cells only when the long axis is the second, and solves as the
    minimum-degree LU of the whole operator does to 1e-11."""
    domain = _strip(shape)
    op = DiscreteOperator(_coupled_eps01(), domain)
    lu = op.factorize()
    assert {type(f) for f, _ in lu.factors} == {BandCholesky}
    assert {f.band.shape[0] for f, _ in lu.factors} == {rows}
    assert all((f.cells is None) == (shape[0] > shape[1]) for f, _ in lu.factors)
    b = op.rhs_vector(GridFunction(domain, rng.standard_normal(shape + (2,))))
    ref = _mmd(op.matrix).solve(b)
    assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_non_finite_solution_names_its_cause():
    """A non-finite solution raises ``DataOverflow`` when the unit-scaled
    data solve finitely (the data are too large) and a plain
    ``ArithmeticError`` when the operator itself is too near singular."""
    dom = Domain.unit_disc(16)
    op = DiscreteOperator(Tensor4.laplacian(1, 2), dom)
    with pytest.raises(solver.DataOverflow, match="too large"):
        op.solve(np.full(op.n_cells, 1.5e308))
    op = DiscreteOperator(Tensor4(1, 2, 1e-310 * Tensor4.laplacian(1, 2).entries), dom)
    with pytest.raises(ArithmeticError, match="non-finite values") as caught:
        op.solve(np.ones(op.n_cells))
    assert not isinstance(caught.value, OverflowError)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("domain", [Domain.unit_square(32), Domain.unit_disc(32)],
                         ids=["square", "disc"])
def test_split_factorization_of_commuting_tensor(N, domain, rng):
    """A random decomposition's B factors commute: the operator is factored
    one component at a time in a rotated basis, with less fill than the
    coupled factor and the solution of the whole operator."""
    dec = random_decomposition(np.random.default_rng(N), N, 2)
    op = DiscreteOperator(regularize(canonicalize_decomposition(dec), 1e-2), domain)
    lu = op.factorize()
    assert lu.Q is not None
    assert sorted(len(g) for _, groups in lu.factors for g in groups) == [1] * N
    assert lu.L.nnz + lu.U.nnz < _mmd(op.matrix).nnz
    b = op.rhs_vector(GridFunction(domain, rng.standard_normal(domain.shape + (N,))))
    ref = spla.splu(op.matrix).solve(b)
    assert np.max(np.abs(op.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_non_commuting_tensor_is_one_group(rng):
    """B factors that do not commute leave no decoupled components: one
    factor of the whole operator, solving as its minimum-degree LU does to
    1e-11."""
    dom = Domain.unit_square(32)
    op = DiscreteOperator(_non_commuting_eps(), dom)
    lu = op.factorize()
    assert lu.Q is None
    assert [[g.tolist() for g in groups] for _, groups in lu.factors] == [[[0, 1]]]
    b = op.rhs_vector(GridFunction(dom, rng.standard_normal(dom.shape + (2,))))
    ref = _mmd(op.matrix).solve(b)
    assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_diagonal_tensor_components_share_one_factor(diag_dec, rng):
    op = DiscreteOperator(regularize(canonicalize_decomposition(diag_dec), 1e-3),
                          Domain.unit_square(32))
    lu = op.factorize()
    assert lu.Q is None
    assert [len(groups) for _, groups in lu.factors] == [2]
    b = rng.standard_normal(op.matrix.shape[0])
    ref = _mmd(op.matrix).solve(b)
    assert np.max(np.abs(op.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


def _commuting_diagonal_tensor():
    """B factors projecting onto a rotated orthonormal pair (they commute)
    and diagonal A factors: no mixed second derivative in the rotated basis."""
    c, s = np.cos(0.5), np.sin(0.5)
    q = np.array([[c, -s], [s, c]])
    dec = Decomposition((np.outer(q[:, 0], q[:, 0]), np.outer(q[:, 1], q[:, 1])),
                        (np.diag([1.0, 0.3]), np.diag([0.4, 1.0])))
    return regularize(canonicalize_decomposition(dec), 1e-2)


@pytest.mark.parametrize("tensor, domain, kind", [
    (regularize(canonicalize_decomposition(
        Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                      (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))), 1e-3),
     Domain.unit_square(32), SineFactor),
    (Tensor4.laplacian(2, 1), Domain.interval(0, 1, 50), SineFactor),
    (Tensor4.laplacian(2, 2), Domain.unit_square(20), SineFactor),
    (Tensor4.laplacian(1, 3), Domain(shape=(9, 10, 8), spacing=1 / 8,
                                     origin=(0.0, 0.0, 0.0)), SineFactor),
    (_commuting_diagonal_tensor(), Domain.unit_square(32), SineFactor),
    (Tensor4.laplacian(2, 2), Domain.unit_disc(32), TorusFactor),
    (_coupled_eps01(), Domain.unit_square(32), TorusFactor),
    (_non_commuting_eps(), Domain.unit_square(32), TorusFactor),
    (_non_commuting_eps(), Domain((18, 27), 1 / 26, (0.0, 0.0)), TorusFactor),
    (Tensor4.laplacian(2, 2), Domain.unit_disc(24), BandCholesky),
    (_non_commuting_eps(), _strip((257, 9)), BandCholesky),
    (Tensor4.laplacian(2, 2), Domain((9, 257), 1.0, (0.0, 0.0), "disc"), BandCholesky),
    (Tensor4.laplacian(2, 1), Domain(shape=(51,), spacing=1 / 50, origin=(0.0,),
                                     mask_kind="disc"), BandCholesky),
    (_coupled_3d(), _cube(8), BandCholesky),
    (_non_commuting_3d(), Domain(shape=(9, 8, 7), spacing=1 / 8, origin=(0.0,) * 3,
                                 mask_kind="disc"), BandCholesky),
], ids=["diagonal", "laplacian-interval", "laplacian-square", "laplacian-box",
        "commuting-diagonal", "laplacian-disc", "mixed-terms", "non-commuting",
        "non-commuting-odd-box", "small-disc-band", "non-commuting-strip-band", "strip-disc-band", "interval-disc-band", "mixed-cube-band", "non-commuting-ball-band"])
def test_solve_path_follows_the_operator(tensor, domain, kind, rng):
    """Single-component groups with no mixed term on the open box are solved
    by the sine transform.  Every other group on a 2-D lattice (disc masks,
    mixed terms, coupled groups) is solved by the torus factor where it
    costs less than the band Cholesky (the 32^2 box and disc, the odd
    non-square box) and by the band elsewhere (the 24-step disc, whose ghost
    ring is long for its cells, and thin strips either way up); on a 1-D or
    3-D lattice by the band Cholesky.  Each factor solves as the
    minimum-degree LU of the whole operator does, up to rounding."""
    op = DiscreteOperator(tensor, domain)
    lu = op.factorize()
    assert {type(factor) for factor, _ in lu.factors} == {kind}
    if kind is SineFactor:
        assert all(f.L.nnz == f.U.nnz == 0 for f, _ in lu.factors)
        assert lu.L.nnz == lu.U.nnz == 0
    b = op.rhs_vector(GridFunction(domain, rng.standard_normal(domain.shape + (op.N,))))
    ref = _mmd(op.matrix).solve(b)
    assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


def _coupled_decomposition():
    return canonicalize_decomposition(random_decomposition(np.random.default_rng(3), 2, 2))


def _non_commuting_decomposition():
    return Decomposition((0.5 * np.diag([1.0, 0.0]), np.full((2, 2), 0.25)),
                         (np.diag([1.0, 0.5]), np.diag([0.5, 1.0])))


def _rank_one_decomposition():
    """One component differentiated twice along ``(1, -1)``: at eps 0 its
    symbol vanishes at the constant mode alone, but only to fourth order
    along ``(1, 1)``."""
    a = np.array([1.0, -1.0]) / np.sqrt(2)
    return Decomposition((np.eye(1),), (np.outer(a, a),))


def _diagonal_decomposition():
    """At eps 0 each component's symbol vanishes on the whole line of modes
    constant along the first axis."""
    return Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                         (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 0.0])
@pytest.mark.parametrize("make, group", [(_coupled_decomposition, 1),
                                         (_non_commuting_decomposition, 2)],
                         ids=["mixed-scalar", "non-commuting-pair"])
@pytest.mark.parametrize("domain", [
    Domain.unit_square(32), Domain.unit_disc(32), Domain((18, 27), 1 / 26, (0.0, 0.0)),
    Domain.unit_disc(33),
], ids=["box", "disc", "odd-box", "odd-disc"])
def test_torus_factor_matches_a_minimum_degree_lu(domain, make, group, eps, rng):
    """Scalar groups with mixed terms and the non-commuting pair are solved
    on the torus, down to eps 0, as the minimum-degree LU of the whole
    operator solves them, to 1e-11: on even and odd tori (an odd side has
    no Nyquist mode), square or not.  Only the constant modes are
    bordered."""
    op = DiscreteOperator(regularize(make(), eps), domain)
    lu = op.factorize()
    assert {type(f) for f, _ in lu.factors} == {TorusFactor}
    assert {len(g) for _, groups in lu.factors for g in groups} == {group}
    assert all(len(f.k0) == group and len(f.sines) == 0 for f, _ in lu.factors)
    b = op.rhs_vector(GridFunction(domain, rng.standard_normal(domain.shape + (2,))))
    ref = _mmd(op.matrix).solve(b)
    assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("make, domain, bordered", [
    (_rank_one_decomposition, Domain.unit_square(32), 1),
    (_rank_one_decomposition, Domain.unit_disc(32), 1),
    (_diagonal_decomposition, Domain.unit_disc(32), 32),
    (_rank_one_decomposition, Domain((18, 27), 1 / 26, (0.0, 0.0)), 1),
    (_diagonal_decomposition, Domain.unit_disc(33), 33),
], ids=["rank-one-box", "rank-one-disc", "diagonal-disc", "rank-one-odd-box",
        "diagonal-odd-disc"])
def test_torus_factor_borders_the_singular_modes(make, domain, bordered, rng):
    """At eps 0 the torus symbol is singular beyond the constant modes of
    the diagonal tensor: the 32 modes constant along the first axis of the
    32-step torus are bordered as 32 real functions (17 cosines and 15
    sines), and the 33 of the 33-step torus as 17 cosines and 16 sines.
    The solve still matches the minimum-degree LU to 1e-11."""
    op = DiscreteOperator(regularize(canonicalize_decomposition(make()), 0.0), domain)
    lu = op.factorize()
    assert {type(f) for f, _ in lu.factors} == {TorusFactor}
    assert {len(f.k0) + len(f.sines) for f, _ in lu.factors} == {bordered}
    b = op.rhs_vector(GridFunction(domain, rng.standard_normal(domain.shape + (op.N,))))
    ref = _mmd(op.matrix).solve(b)
    assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_ghost_ring_of_the_box_is_the_identified_layers():
    """On the 128^2 box the ghost ring is the torus's inactive cross, the
    identified first and last layers: 255 nodes."""
    op = DiscreteOperator(_coupled_eps01(), Domain.unit_square(128))
    factor = TorusFactor(op.domain, op._blocks)
    assert factor.ghost.sum() == 255
    assert factor.ghost[0].all() and factor.ghost[:, 0].all()
    assert factor.U.nnz == (2 * 255 + 2) ** 2


def _wave():
    """``u_11 - u_22``: indefinite, singular on the disc's lattice."""
    entries = np.zeros((1, 2, 1, 2))
    entries[0, 0, 0, 0], entries[0, 1, 0, 1] = 1.0, -1.0
    return Tensor4(1, 2, entries)


@pytest.mark.parametrize("tensor, reason", [
    (Tensor4(1, 2, np.zeros((1, 2, 1, 2))), "1024 torus modes are singular"),
    (_wave(), "bordered capacitance system"),
], ids=["zero", "wave"])
def test_singular_torus_group_raises_without_a_warning(tensor, reason):
    """A group singular on the torus beyond what its ghost ring can border,
    or whose bordered system is singular, raises ``ArithmeticError`` and
    emits no warning first."""
    import warnings
    op = DiscreteOperator(tensor, Domain.unit_disc(32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=f"numerically singular: .*{reason}"):
            op.factorize()


def test_zero_tensor_operator_is_singular():
    op = DiscreteOperator(Tensor4(2, 2, np.zeros((2, 2, 2, 2))), Domain.unit_square(8))
    assert op.matrix.nnz == 0
    with pytest.raises(ArithmeticError, match="singular"):
        op.factorize()


def test_condition_estimate_matches_dense_condition_number():
    op = DiscreteOperator(Tensor4.laplacian(2, 2), Domain.unit_square(16))
    dense = np.linalg.cond(op.matrix.toarray(), 1)
    est = op.condition_estimate()
    # both norm estimates are lower bounds, so the product is too
    assert np.isfinite(est)
    assert dense / 3 <= est <= dense * (1 + 1e-12)


def test_max_ratio_ignores_increments_at_the_stopping_floor():
    """Perturbing the quotients whose earlier increment is near the stopping
    tolerance moves the largest quotient of the whole log but not the
    reported one."""
    dom = Domain.unit_square(16)
    F, cert = nearness_system(dom)
    _, log = campanato_solve(F, cert, sinsin(dom, (1.0, -0.5)), [1e-1, 1e-2, 1e-3])
    floor = np.array(log.increments[:-1]) < 100 * log.stop
    ratios = np.array(log.ratios)
    ratios[floor] *= 1 + np.arange(1, floor.sum() + 1)
    perturbed = IterationLog(log.increments, list(ratios), log.residuals, log.stop)
    assert max(perturbed.ratios) != max(log.ratios)
    assert perturbed.max_ratio() == log.max_ratio() <= cert.kappa
    assert IterationLog([1e-9, 5e-10], [0.5], [0.0, 0.0], stop=1e-12).max_ratio() is None


def test_campanato_aborts_when_not_contracting():
    """A system three times the tensor action, certified as within C = 0.2
    of it: the update doubles every step and the iteration aborts."""
    dom = Domain.unit_square(16)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    T = reconstruct(dec).entries

    def evaluate(x, uval, X):
        return 3.0 * np.einsum("aibj,cbij->ca", T, X.reshape(-1, 2, 2, 2))

    F = CoefficientSystem(order=2, n=2, N=2, M=2, evaluate=evaluate)
    a_of_x = GridFunction(dom, np.ones(dom.shape + (1,)))
    cert = EllipticityCertificate(dec=dec, A_of_x=a_of_x, B=0.0, C=0.2)
    with pytest.raises(ArithmeticError, match="not contracting"):
        campanato_solve(F, cert, sinsin(dom, (1.0, 0.5)), [1e-1, 1e-2], max_iter=20)


def test_campanato_quotients_near_the_stop_do_not_abort():
    """The system of the test above, stopped at 0.1 relative: the
    increments double from 1.1 but stay below 1e3 times the stop for four
    steps, so their quotients near 2 abort nothing and the loop runs out."""
    dom = Domain.unit_square(16)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    T = reconstruct(dec).entries

    def evaluate(x, uval, X):
        return 3.0 * np.einsum("aibj,cbij->ca", T, X.reshape(-1, 2, 2, 2))

    F = CoefficientSystem(order=2, n=2, N=2, M=2, evaluate=evaluate)
    cert = EllipticityCertificate(dec=dec, A_of_x=GridFunction(dom, np.ones(dom.shape + (1,))),
                                  B=0.0, C=0.2)
    with pytest.raises(ArithmeticError, match="no convergence within 4 iterations"):
        campanato_solve(F, cert, sinsin(dom, (1.0, 0.5)), [1e-1, 1e-2], max_iter=4, tol=0.1)


def test_campanato_solves_the_coarser_epsilons_once(monkeypatch, diag_dec):
    """The loop reads only the extrapolation from the two finest epsilons:
    their operators take one solve per iteration, the last of which also
    serves the returned triple, and the others one solve each."""
    created, solves = [], {}
    init, solve = DiscreteOperator.__init__, DiscreteOperator.solve

    def counted_init(self, *args):
        init(self, *args)
        created.append(self)

    def counted_solve(self, b):
        solves[id(self)] = solves.get(id(self), 0) + 1
        return solve(self, b)

    monkeypatch.setattr(DiscreteOperator, "__init__", counted_init)
    monkeypatch.setattr(DiscreteOperator, "solve", counted_solve)
    dom = Domain.unit_square(16)
    F, cert = make_nonlinearity(diag_dec, GridFunction(dom, np.ones(dom.shape + (1,))),
                                gamma=0.2)
    _, log = campanato_solve(F, cert, sinsin(dom, (1.0, -0.5)), [1e-1, 1e-2, 1e-3, 1e-4])
    n = len(log.increments)
    assert n > 2
    assert [solves[id(op)] for op in created] == [1, 1, n, n]


def test_a_single_use_solve_holds_one_group_factor_at_a_time(monkeypatch):
    """``solve_linear`` solves each operator once.  On the coupled tensor at
    32^2 (two scalar torus groups per epsilon) it builds a group's factor,
    solves with it and frees it before it builds the next: no more than one
    :class:`TorusFactor` is ever alive."""
    import weakref

    live, counts = weakref.WeakSet(), []
    init = TorusFactor.__init__

    def tracked(self, domain, blocks):
        init(self, domain, blocks)
        live.add(self)
        counts.append(len(live))

    monkeypatch.setattr(TorusFactor, "__init__", tracked)
    dom = Domain.unit_square(32)
    solve_linear(random_decomposition(np.random.default_rng(7), 2, 2),
                 sinsin(dom, (1.0, -0.5)), [1e-1, 1e-2, 1e-3, 1e-4])
    assert counts == [1] * 8


def test_campanato_factors_its_finest_operators_once(monkeypatch, diag_dec):
    """Each operator's group factor is built once per run: the two finest,
    which every iteration solves, before the loop, and the others for their
    one solve after it."""
    created, builds = [], {}
    init, factor = DiscreteOperator.__init__, DiscreteOperator._factor

    def counted_init(self, *args):
        init(self, *args)
        created.append(self)

    def counted_factor(self, sub, size):
        builds[id(self)] = builds.get(id(self), 0) + 1
        return factor(self, sub, size)

    monkeypatch.setattr(DiscreteOperator, "__init__", counted_init)
    monkeypatch.setattr(DiscreteOperator, "_factor", counted_factor)
    dom = Domain.unit_disc(16)
    F, cert = make_nonlinearity(diag_dec, GridFunction(dom, np.ones(dom.shape + (1,))),
                                gamma=0.2)
    _, log = campanato_solve(F, cert, sinsin(dom, (1.0, -0.5)), [1e-1, 1e-2, 1e-3, 1e-4])
    assert len(log.increments) > 2
    assert [builds[id(op)] for op in created] == [1, 1, 1, 1]


def test_campanato_takes_one_hessian_per_iteration(monkeypatch, diag_dec):
    """An iteration extrapolates its two finest solutions and differentiates
    only the result: one hessian per iteration, and after the loop one
    gradient and one hessian per epsilon for the returned triple."""
    orders = []
    rows = solver._derivative_rows

    def counted(domain, X, order):
        orders.append(order)
        return rows(domain, X, order)

    monkeypatch.setattr(solver, "_derivative_rows", counted)
    dom = Domain.unit_disc(16)
    F, cert = make_nonlinearity(diag_dec, GridFunction(dom, np.ones(dom.shape + (1,))),
                                gamma=0.2)
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    _, log = campanato_solve(F, cert, sinsin(dom, (1.0, -0.5)), eps)
    assert len(log.increments) > 2
    assert orders == [2] * len(log.increments) + [1, 2] * len(eps)


_MODULES_AFTER_A_SOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from diffusepde import solver
from diffusepde.grids import Domain, GridFunction
from diffusepde.tensors import random_decomposition
factor, kinds = solver.DiscreteOperator._factor, []
def recorded(self, sub, size):
    lu = factor(self, sub, size)
    kinds.append(type(lu).__name__)
    return lu
solver.DiscreteOperator._factor = recorded
dim, kind, steps = int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
dom = Domain((steps + 1,) * dim, 1 / steps, (0.0,) * dim, kind)
x = dom.node_coords()
f = np.prod(np.sin(np.pi * x), axis=-1)[..., None] * [1.0, -0.5]
solver.solve_linear(random_decomposition(np.random.default_rng(7), 2, dim),
                    GridFunction(dom, f), [1e-1, 1e-2, 1e-3])
print(json.dumps(["scipy.sparse.linalg" in sys.modules, sorted(set(kinds)), len(kinds)]))
"""


def _modules_after_a_solve(dim, kind, steps=8):
    """Whether ``scipy.sparse.linalg`` is loaded after a ``solve_linear`` of
    the coupled tensor on a ``dim``-D lattice of ``steps`` steps with mask
    ``kind``, the factor kinds it built and how many: two groups at each of
    three epsilons."""
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER_A_SOLVE, str(src), str(dim),
                           kind, str(steps)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("dim, kind", [(3, "rect"), (2, "disc")], ids=["band", "disc-band"])
def test_a_band_solve_does_not_load_sparse_linalg(dim, kind):
    """A 3-D box solve, or one on the 8-step disc, factors its groups by the
    band Cholesky and leaves ``scipy.sparse.linalg`` unloaded."""
    assert _modules_after_a_solve(dim, kind) == [False, ["BandCholesky"], 6]


@pytest.mark.parametrize("kind", ["rect", "disc"], ids=["box", "disc"])
def test_a_torus_solve_does_not_load_sparse_linalg(kind):
    """A 2-D box or disc solve at 32 steps factors its groups on the torus
    and leaves ``scipy.sparse.linalg`` unloaded."""
    assert _modules_after_a_solve(2, kind, steps=32) == [False, ["TorusFactor"], 6]


def _chain_adjacency():
    """Components 0-1-2-3-4 coupled in a chain (one way round) and 5 alone."""
    adjacency = np.zeros((6, 6), dtype=int)
    for a in range(4):
        adjacency[a + 1, a] = 1
    return adjacency


def _split_adjacency(tensor):
    _, blocks, _ = solver._component_split(DiscreteOperator(tensor, Domain.unit_square(8))._blocks)
    return sum(E != 0 for E in blocks.values())


@pytest.mark.parametrize("adjacency", [
    _chain_adjacency(),
    _split_adjacency(Tensor4.laplacian(3, 2)),
    _split_adjacency(regularize(canonicalize_decomposition(
        random_decomposition(np.random.default_rng(3), 3, 2)), 1e-2)),
    _split_adjacency(_non_commuting_eps()),
], ids=["chain", "decoupled", "rotated", "coupled"])
def test_coupled_groups_match_connected_components(adjacency):
    """The transitive closure's groups are scipy's connected components of
    the undirected graph, in the same order."""
    from scipy.sparse.csgraph import connected_components
    count, labels = connected_components(adjacency, directed=False)
    want = [np.flatnonzero(labels == g).tolist() for g in range(count)]
    assert [g.tolist() for g in solver._coupled_groups(adjacency)] == want


def test_band_solve_raises_on_a_rejected_argument():
    """``dpbtrs`` rejects the right-hand side of an operator without
    unknowns (its leading dimension is below 1): the solve raises instead of
    returning LAPACK's untouched output."""
    lu = BandCholesky(np.zeros((2, 0), order="F"))
    with pytest.raises(ValueError, match="argument number 8"):
        lu.solve(np.zeros((0, 1)))


def test_one_refinement_step_mends_a_perturbed_group_solve(monkeypatch, rng):
    """A first group solve that is off by 1e-6 relative leaves a residual
    above ``SOLVER_TOL``; one refinement step brings it within the
    tolerance, and the solution matches the unperturbed one to 1e-11."""
    dom = Domain.unit_square(32)
    op = DiscreteOperator(_coupled_eps01(), dom)
    b = op.rhs_vector(GridFunction(dom, rng.standard_normal(dom.shape + (2,))))
    ref = DiscreteOperator(_coupled_eps01(), dom).solve(b)
    calls, residuals = [], []
    solve, apply = TorusFactor.solve, DiscreteOperator._apply

    def perturbed(self, rhs):
        calls.append(rhs.shape)
        x = solve(self, rhs)
        return x * (1 + 1e-6) if len(calls) == 1 else x

    def measured(self, x):
        y = apply(self, x)
        residuals.append(np.linalg.norm(y - b) / np.linalg.norm(b))
        return y

    monkeypatch.setattr(TorusFactor, "solve", perturbed)
    monkeypatch.setattr(DiscreteOperator, "_apply", measured)
    x = op.solve(b)
    assert len(calls) == 4  # two groups, solved once and refined once
    assert residuals[0] > solver.SOLVER_TOL >= residuals[1] and len(residuals) == 2
    assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("tensor", [
    _coupled_eps01(),
    regularize(canonicalize_decomposition(
        Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                      (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))), 1e-3),
], ids=["lu", "spectral"])
def test_split_operator_solves_without_its_matrix(tensor, monkeypatch, rng):
    """A tensor that splits into groups is factored group by group and its
    residual is applied block by block: the whole matrix is never built.
    Built afterwards, it gives the same residual up to rounding."""
    dom = Domain.unit_square(32)
    op = DiscreteOperator(tensor, dom)
    monkeypatch.setattr(DiscreteOperator, "_assemble",
                        lambda self: pytest.fail("the matrix was assembled"))
    b = op.rhs_vector(GridFunction(dom, rng.standard_normal(dom.shape + (2,))))
    x = op.solve(b)
    assert sum(len(groups) for _, groups in op.factorize().factors) == 2
    monkeypatch.undo()
    assert np.max(np.abs(op._apply(x) - op.matrix @ x)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("domain, kind, stored_transposed", [
    (Domain.unit_square(32), TorusFactor, (False, False)),
    (Domain.unit_disc(33), TorusFactor, (False, False)),
    (Domain(shape=(9, 257), spacing=1 / 256, origin=(0.0, 0.0), mask_kind="rect"),
     BandCholesky, (True, False)),
], ids=["box-torus", "disc-torus", "strip-band"])
def test_solve_linear_commutes_with_the_axis_swap(domain, kind, stored_transposed):
    """Transposing a 2-D lattice and conjugating every ``A_g`` by the axis
    swap transposes ``sigma_u``, to 1e-12 relative.  The 9 x 257 strip's band
    is stored in column order (:func:`solver._column_order`) and its swap's,
    257 x 9, in row order, so the pipeline runs both orders."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    dec = random_decomposition(np.random.default_rng(7), 2, 2)
    decs = (dec, Decomposition(dec.B_factors, tuple(swap @ A @ swap for A in dec.A_factors)))
    domains = (domain, solver._transposed(domain))
    x = domain.node_coords()
    values = np.stack([np.sin(np.pi * x[..., 0]) * np.cos(2 * x[..., 1]),
                       np.exp(x[..., 0] - x[..., 1])], axis=-1)
    sigma = []
    for d, dom, vals, transposed in zip(decs, domains, (values, values.transpose(1, 0, 2)),
                                        stored_transposed):
        lu = DiscreteOperator(regularize(canonicalize_decomposition(d), 0.1), dom).factorize()
        assert [(type(f), getattr(f, "cells", None) is not None) for f, _ in lu.factors] \
            == [(kind, transposed)] * 2
        fd, _ = solve_linear(d, GridFunction(dom, vals), [0.1, 0.01, 0.001, 1e-4])
        sigma.append(fd.sigma_u.values)
    want = sigma[0].transpose(1, 0, 2)
    assert np.max(np.abs(sigma[1] - want)) <= 1e-12 * np.max(np.abs(want))
