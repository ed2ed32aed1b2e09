"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from diffusepde.checker import check_dsolution, infinity_laplace_system, tensor_system
from diffusepde.frames import HSchedule, build_frame, difference_quotient_1, schedule_window
from diffusepde.grids import Domain, GridFunction
from diffusepde.measures import diffuse_field, is_concentrated
from diffusepde.reference import (disc_explicit_solution, fat_cantor_indicator,
                                  fold_distance_mask, infinity_witness_cells,
                                  sawtooth_map)
from diffusepde.solver import (assemble_and_solve_eps, boundary_ring_norm,
                               campanato_solve, make_nonlinearity,
                               poincare_check, solve_linear,
                               verify_hessian_estimate)
from diffusepde.tensors import (Decomposition, Tensor4, random_decomposition,
                                ranges_and_subspaces, reconstruct, subspace_H)


def criterion(number, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {tag}: {label} {detail}")
    assert passed, f"criterion {number} failed: {label} {detail}"


def sin_product(dom, eta=(1.0,), modes=((1, 1),), coeffs=(1.0,)):
    x = dom.node_coords()
    vals = np.zeros(dom.shape + (len(eta),))
    for (a, b), c in zip(modes, coeffs):
        base = np.sin(a * np.pi * x[..., 0]) * np.sin(b * np.pi * x[..., 1])
        vals += c * base[..., None] * np.asarray(eta)
    return GridFunction(dom, vals)


def test_criterion_1_hessian_trace_equality_case():
    t0 = time.monotonic()
    dom = Domain.unit_square(128)
    v = sin_product(dom)
    dec = Decomposition((np.eye(1),), (np.eye(2),))
    rep = verify_hessian_estimate(dec, [v], [0.0])[0]
    gap_h = abs(rep["hessian_norm"] - np.pi**2) / np.pi**2
    gap_t = abs(rep["trace_norm"] - np.pi**2) / np.pi**2
    elapsed = time.monotonic() - t0
    criterion(1, "hessian/trace norms both equal pi^2 within 1% at 128^2",
              gap_h < 0.01 and gap_t < 0.01 and elapsed < 5.0,
              f"(gaps {gap_h:.4f}, {gap_t:.4f}; {elapsed:.1f}s)")


def test_criterion_2_hessian_estimate_battery():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    dom = Domain.unit_square(64)
    x = dom.node_coords()
    failures = 0
    total = 0
    for _ in range(5):
        dec = random_decomposition(rng, 2, 2)
        maps = []
        for _ in range(20):
            coef = rng.standard_normal((3, 3, 2))
            vals = np.zeros(dom.shape + (2,))
            for a in range(3):
                for b in range(3):
                    base = (np.sin((a + 1) * np.pi * x[..., 0])
                            * np.sin((b + 1) * np.pi * x[..., 1]))
                    vals += coef[a, b] * base[..., None]
            maps.append(GridFunction(dom, vals))
        for rep in verify_hessian_estimate(dec, maps, (0.0, 0.1, 1.0), tol_est=0.05):
            total += 1
            failures += 0 if rep["passed"] else 1
    elapsed = time.monotonic() - t0
    criterion(2, "degenerate hessian estimate holds on the 300-case battery",
              failures == 0 and elapsed < 30.0,
              f"({total} cases, {failures} failures; {elapsed:.1f}s)")


def test_criterion_3_hessian_subspace_two_constructions_agree():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = rng.standard_normal((n, n))
        a = m @ m.T
        if rng.random() < 0.5 and n > 1:
            w, v = np.linalg.eigh(a)
            w[: rng.integers(1, n)] = 0.0
            a = (v * w) @ v.T
        subspace_H(a)  # raises beyond 1e-10 disagreement
    elapsed = time.monotonic() - t0
    criterion(3, "block-pattern and product-span subspaces agree to 1e-10 "
                 "on 100 random matrices", elapsed < 5.0,
              f"({elapsed:.1f}s)")


def test_criterion_4_manufactured_convergence_rate():
    t0 = time.monotonic()
    eta = np.array([1.0, 0.5])
    eta /= np.linalg.norm(eta)
    errs = []
    for res in (32, 64, 128):
        dom = Domain.unit_square(res)
        ustar = sin_product(dom, eta=eta)
        f = GridFunction(dom, -2 * np.pi**2 * ustar.values)
        u = assemble_and_solve_eps(Tensor4.laplacian(2, 2), f, dom)
        errs.append((u - ustar).l2_norm())
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    elapsed = time.monotonic() - t0
    criterion(4, "manufactured linear solve converges at rate >= 1.8",
              min(rates) >= 1.8 and elapsed < 60.0,
              f"(rates {rates[0]:.2f}, {rates[1]:.2f}; {elapsed:.1f}s)")


def test_criterion_5_degenerate_disc_solve_matches_explicit_oracle():
    t0 = time.monotonic()
    res = 128
    dom = Domain.unit_disc(res)
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    worst = 0.0
    for fname, fc in (("constant", lambda x1, x2: np.ones_like(x1)),
                      ("linear", lambda x1, x2: x2)):
        f = GridFunction.from_callable(
            dom, lambda x: fc(x[..., 0], x[..., 1])[..., None])
        fd, _ = solve_linear(dec, f, [1e-1, 1e-2, 1e-3, 1e-4])
        ref = disc_explicit_solution(
            lambda x1, x2: float(fc(np.asarray(x1), np.asarray(x2))), res
        ).grids["solution"]
        rel = (fd.sigma_u - ref).l2_norm() / ref.l2_norm()
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    criterion(5, "one-directional disc solve matches the explicit solution "
                 "within 5% at 128^2", worst <= 0.05 and elapsed < 60.0,
              f"(worst rel error {worst:.4f}; {elapsed:.1f}s)")


def test_criterion_6_fixed_point_convergence():
    t0 = time.monotonic()
    dom = Domain.unit_square(64)
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    data = ranges_and_subspaces(dec)
    lip = 0.3 * data.nu
    a_of_x = GridFunction.from_callable(
        dom, lambda x: (1.0 + 0.3 * np.sin(np.pi * x[..., 0])
                        * np.cos(np.pi * x[..., 1]))[..., None])
    F, cert = make_nonlinearity(
        dec, a_of_x, gamma=0.2,
        g=lambda Y: lip * np.sin(Y.reshape(-1, 2, 2, 2)[:, :, 0, 0]),
        lipschitz_g=lip)
    x = dom.node_coords()
    f = GridFunction(dom, np.stack(
        [np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
         np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])], axis=-1))
    fd, log = campanato_solve(F, cert, f, [1e-1, 1e-2, 1e-3, 1e-4],
                              max_iter=40, tol=1e-10, tol_final=1e-6)
    elapsed = time.monotonic() - t0
    max_ratio = max(log.ratios)
    criterion(6, "fixed-point iteration contracts at kappa + 0.1 and reaches "
                 "1e-6 within 40 iterations",
              max_ratio <= cert.kappa + 0.1 and log.residuals[-1] <= 1e-6
              and len(log.increments) <= 40 and elapsed < 120.0,
              f"(kappa {cert.kappa}, max ratio {max_ratio:.3f}, "
              f"{len(log.increments)} iterations, final "
              f"{log.residuals[-1]:.2e}; {elapsed:.1f}s)")


def _battery_cases():
    """Ten manufactured solutions and ten perturbed non-solutions.

    Higher-mode components enter with damped amplitudes so every solution
    keeps an O(h) discretization residual of comparable size, while the
    perturbations are scaled against each case's own data.
    """
    cases = []
    res = 48
    sq = Domain.unit_square(res)
    x = sq.node_coords()

    def add(dec, u, f, solution):
        cases.append((dec, u, f, solution))

    lap2 = Decomposition((np.eye(2), np.zeros((2, 2))),
                         (np.eye(2), np.zeros((2, 2))))
    lap1 = Decomposition((np.eye(1),), (np.eye(2),))
    aniso1 = Decomposition((np.eye(1),), (np.diag([1.0, 2.0]),))
    deg1 = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    diag2 = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                          (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))

    s11 = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    s21 = np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    s12 = np.sin(np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])

    # solutions with analytic data for each tensor
    u1 = GridFunction(sq, s11[..., None] * np.array([1.0, 0.0]))
    add(lap2, u1, GridFunction(sq, -2 * np.pi**2 * u1.values), True)
    u2 = GridFunction(sq, np.stack([s11, 0.2 * s21], axis=-1))
    f2 = GridFunction(sq, np.stack([-2 * np.pi**2 * s11,
                                    0.2 * (-5 * np.pi**2) * s21], axis=-1))
    add(lap2, u2, f2, True)
    u3 = GridFunction(sq, s11[..., None])
    add(lap1, u3, GridFunction(sq, -2 * np.pi**2 * u3.values), True)
    add(aniso1, u3, GridFunction(sq, -3 * np.pi**2 * u3.values), True)
    add(deg1, u3, GridFunction(sq, -np.pi**2 * u3.values), True)
    u6 = GridFunction(sq, np.stack([s11, 0.25 * s12], axis=-1))
    f6 = GridFunction(sq, np.stack([-np.pi**2 * s11,
                                    -0.25 * np.pi**2 * s12], axis=-1))
    add(diag2, u6, f6, True)  # per-component second derivative along axis 1
    u7 = GridFunction(sq, 0.3 * s21[..., None])
    add(lap1, u7, GridFunction(sq, -5 * np.pi**2 * u7.values), True)
    u8 = GridFunction(sq, (s11 + 0.2 * s21)[..., None])
    add(lap1, u8, GridFunction(
        sq, (-2 * np.pi**2 * s11 - np.pi**2 * s21)[..., None]), True)
    add(aniso1, u7, GridFunction(sq, -6 * np.pi**2 * u7.values), True)
    u10 = GridFunction(sq, (s11 + 0.3 * s21)[..., None])
    add(deg1, u10, GridFunction(sq, -np.pi**2 * u10.values), True)

    # non-solutions: smooth relative wobbles of the map, and rescaled data
    # (the mismatch stays proportional to the active data everywhere)
    wob = 1 + 0.4 * np.sin(3 * np.pi * x[..., 0:1]) * np.sin(2 * np.pi * x[..., 1:2])
    for k in (0, 2, 3, 4, 5):
        dec, u, f, _ = cases[k]
        add(dec, GridFunction(sq, u.values * wob), f, False)
    for k in (0, 1, 2, 3, 7):
        dec, u, f, _ = cases[k]
        add(dec, u, GridFunction(sq, 1.8 * f.values), False)
    return cases


def test_criterion_7_characterization_verdicts_agree():
    cases = _battery_cases()
    assert len(cases) == 20
    fr2 = build_frame("standard", N=2, n=2)
    fr1 = build_frame("standard", N=1, n=2)
    agreements = 0
    worst_solution, weakest_non = 0.0, np.inf
    tol = None
    for dec, u, f, is_solution in cases:
        dom = u.domain
        h = dom.spacing
        F = tensor_system(reconstruct(dec))
        frame = fr2 if u.components == 2 else fr1
        windows = [schedule_window(8 * h / 2**lvl, 2, ratio=0.5, order=2)
                   for lvl in range(3)]
        rep = check_dsolution(u, F, frame, windows, f=f, C_disc=132.0)
        tol = rep.tolerance
        finals = [v[-1] for v in rep.residuals.values()]
        if is_solution:
            worst_solution = max(worst_solution, max(finals))
        else:
            weakest_non = min(weakest_non, min(finals))
        verdicts = list(rep.verdicts.values())
        consistent = all(v == verdicts[0] for v in verdicts)
        correct = verdicts[0] == is_solution
        agreements += 1 if (consistent and correct) else 0
    # the two classes must straddle the tolerance with real margin
    assert worst_solution < 0.6 * tol, (worst_solution, tol)
    assert weakest_non > 1.6 * tol, (weakest_non, tol)
    criterion(7, "all characterization verdicts agree on the 20-case battery",
              agreements == 20,
              f"({agreements}/20 agree; residual split "
              f"{worst_solution:.2f} / {tol:.2f} / {weakest_non:.2f})")


def test_criterion_8_indicator_infinity_mass_and_cancellation():
    t0 = time.monotonic()
    case = fat_cantor_indicator(depth=8, resolution=8192)
    u = case.grids["indicator"]
    dom = u.domain
    h = dom.spacing
    steps = [j * h for j in range(1, 17)]
    fr = build_frame("standard", N=1, n=1)
    r_inf = 0.5 / (16 * h)  # crossing quotients run at 1/step >= 1/(16h)
    window = [HSchedule.first_order(s) for s in steps]
    field = diffuse_field(u, fr, 1, window, r_inf)
    witness = infinity_witness_cells(case, steps)
    inf_ok = witness.sum() >= 3 and field.infinity_mass()[witness].min() >= 0.99
    cancel = GridFunction(dom, u.values + (-u.values))
    field_sum = diffuse_field(cancel, fr, 1, window, r_inf)
    sum_ok = (np.abs(field_sum.points).max() == 0.0
              and not field_sum.infinite.any())
    elapsed = time.monotonic() - t0
    criterion(8, "indicator quotients escape on stencil-crossing cells while "
                 "the cancelled sum is a unit atom at zero",
              inf_ok and sum_ok and elapsed < 10.0,
              f"({int(witness.sum())} witness cells; {elapsed:.1f}s)")


def test_criterion_9_sawtooth_supremal_system():
    t0 = time.monotonic()
    M, k = 1.0, 2
    case = sawtooth_map(M, k, 256)
    u = case.grids["map"]
    dom = u.domain
    h = dom.spacing
    fr = build_frame("standard", N=2, n=2)
    q = difference_quotient_1(u, fr, h)
    keep = fold_distance_mask(dom, k, 2 * h) & dom.interior_mask(2 * h)
    P = q.values.reshape(dom.shape + (2, 2))[keep]
    norms = np.einsum("cai,cai->c", P, P)
    dets = np.abs(np.linalg.det(P))
    identities = (np.abs(norms - 2 * M**2).max() < 1e-10
                  and np.abs(dets - M**2).max() < 1e-10)
    F = infinity_laplace_system(2)
    windows = [schedule_window(16 * h / 2**lvl, 3, ratio=0.5, order=2)
               for lvl in range(3)]
    rep = check_dsolution(u, F, fr, windows)
    pairing = rep.residuals["pairing"]
    monotone = all(pairing[i + 1] <= pairing[i] * 1.1 + 1e-14 for i in range(2))
    small = pairing[-1] < 1e-3 * M**3
    elapsed = time.monotonic() - t0
    criterion(9, "sawtooth gradient identities hold off folds and the "
                 "supremal-system pairing residual settles below 1e-3",
              identities and monotone and small and elapsed < 60.0,
              f"(pairing {['%.2e' % p for p in pairing]}; {elapsed:.1f}s)")


def test_criterion_10_gradient_concentration():
    dom = Domain.unit_square(64)
    h = dom.spacing
    eta = np.array([0.8, 0.6])
    u = GridFunction.from_callable(
        dom, lambda x: (np.sin(x[..., 0]) * x[..., 1])[..., None] * eta)
    fr = build_frame("standard", N=2, n=2)
    window = [HSchedule.first_order(s) for s in (h, 2 * h)]
    field = diffuse_field(u, fr, 1, window, R_inf=1e6)
    x = dom.node_coords()
    du = np.stack([np.cos(x[..., 0]) * x[..., 1], np.sin(x[..., 0])], axis=-1)
    ref = GridFunction(dom, np.einsum("a,...i->...ai", eta, du)
                       .reshape(dom.shape + (4,)))
    passes, _ = is_concentrated(field, ref, radius=4 * h, mass_threshold=0.99)
    inner = dom.interior_mask(3 * h)
    frac = passes[inner].mean()
    criterion(10, "diffuse-gradient mass concentrates within 4h of the "
                  "classical gradient on 99% of interior cells",
              frac >= 0.99, f"(fraction {frac:.4f})")


def test_criterion_11_poincare_battery():
    rng = np.random.default_rng(11)
    dom = Domain.unit_square(64)
    x = dom.node_coords()
    dirs = []
    for _ in range(4):
        eta = rng.standard_normal(2)
        a = rng.standard_normal(2)
        dirs.append((eta, a))
    passed = 0
    for _ in range(20):
        coef = rng.standard_normal((3, 3, 2))
        vals = np.zeros(dom.shape + (2,))
        for am in range(3):
            for bm in range(3):
                base = (np.sin((am + 1) * np.pi * x[..., 0])
                        * np.sin((bm + 1) * np.pi * x[..., 1]))
                vals += coef[am, bm] * base[..., None]
        rep = poincare_check(GridFunction(dom, vals), dirs)
        passed += 1 if rep["passed"] else 0
    criterion(11, "directional Poincare comparison holds on the 20x4 battery",
              passed == 20, f"({passed}/20)")


def test_criterion_12_boundary_trace_decay():
    dec = Decomposition((np.array([[1.0]]),), (np.diag([0.0, 1.0]),))
    norms, hs = [], []
    for res in (32, 64, 128):
        dom = Domain.unit_disc(res)
        f = GridFunction.from_callable(
            dom, lambda x: np.ones(x.shape[:-1])[..., None])
        fd, _ = solve_linear(dec, f, [1e-1, 1e-2, 1e-3, 1e-4])
        norms.append(boundary_ring_norm(fd.sigma_u))
        hs.append(dom.spacing)
    rates = [np.log(norms[i] / norms[i + 1]) / np.log(hs[i] / hs[i + 1])
             for i in range(2)]
    criterion(12, "boundary-ring values of the disc solve decay at rate >= 0.9",
              min(rates) >= 0.9,
              f"(rates {rates[0]:.2f}, {rates[1]:.2f})")
