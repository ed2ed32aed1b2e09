import hashlib
import json

import numpy as np
import pytest

from diffusepde.checker import (CheckReport, check_dsolution, cutoff, eikonal_system,
                                infinity_laplace_system, tangent_system, tensor_system,
                                witness_family)
from diffusepde.frames import HSchedule, build_frame, schedule_window, window_cascade
from diffusepde.grids import Domain, GridFunction
from diffusepde.measures import bump
from diffusepde.tensors import Tensor4


def manufactured_laplace(res=64, eta=(1.0, 0.0)):
    dom = Domain.unit_square(res)
    x = dom.node_coords()
    eta = np.asarray(eta)
    base = np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    u = GridFunction(dom, base[..., None] * eta)
    f = GridFunction(dom, -2 * np.pi**2 * base[..., None] * eta)
    return dom, u, f


def default_windows(dom, levels=3, base_factor=8, count=2, order=2):
    h = dom.spacing
    return [schedule_window(base_factor * h / 2**lvl, count, ratio=0.5, order=order)
            for lvl in range(levels)]


# coefficient systems -------------------------------------------------------

def test_infinity_laplace_full_rank_drops_projection():
    F = infinity_laplace_system(2)
    P = np.array([[1.0, 0.0], [0.0, 2.0]])  # full rank
    X = np.arange(8, dtype=float).reshape(2, 2, 2)
    X = 0.5 * (X + X.transpose(0, 2, 1))
    x = np.zeros((1, 2))
    out = F.evaluate(x, P.reshape(1, 4), X.reshape(1, 8))[0]
    expected = np.einsum("ai,bj,bij->a", P, P, X)
    assert np.allclose(out, expected)


def test_infinity_laplace_zero_gradient():
    F = infinity_laplace_system(2)
    X = np.ones((1, 8))
    out = F.evaluate(np.zeros((1, 2)), np.zeros((1, 4)), X)
    assert np.allclose(out, 0.0)


def test_infinity_laplace_scalar_case():
    # one dimension: the system collapses to (u')^2 u''
    F = infinity_laplace_system(1)
    P = np.array([[3.0]])
    X = np.array([[2.0]])
    out = F.evaluate(np.zeros((1, 1)), P, X)
    assert out[0, 0] == pytest.approx(9.0 * 2.0)


def test_infinity_laplace_rank_deficient_adds_orthogonal_term():
    F = infinity_laplace_system(2)
    P = np.zeros((1, 4))
    P[0, 0] = 2.0  # gradient e1 (x) e1: range span{e1}
    X = np.zeros((1, 2, 2, 2))
    X[0, 1, 0, 0] = 1.0  # second-component pure-11 curvature
    out = F.evaluate(np.zeros((1, 2)), P, X.reshape(1, 8))
    # coefficient: P(x)P + |P|^2 proj_{e2} (x) I acting on X
    assert out[0, 0] == pytest.approx(0.0)
    assert out[0, 1] == pytest.approx(4.0 * 1.0)


def test_eikonal_tangent_matches_hand_contraction():
    base = eikonal_system(2, 2, speed=1.5)
    tang = tangent_system(base)
    assert tang.order == 2 and tang.M == 2
    P = np.array([[0.3, -0.4], [1.0, 0.2]])
    X = np.arange(8, dtype=float).reshape(2, 2, 2)
    X = 0.5 * (X + X.transpose(0, 2, 1))
    out = tang.evaluate(np.zeros((1, 2)), P.reshape(1, 4), X.reshape(1, 8))[0]
    # per direction i: 2 sum_{b j} P[b, j] X[b, j, i]
    expected = 2 * np.einsum("bj,bji->i", P, X)
    assert np.allclose(out, expected)
    assert not tang.fd_fallback


def test_linear_system_tangent_with_fd_fallback():
    # F(P) = a . P - c with fixed coefficients: the jet derivative is a itself
    a = np.array([1.0, -2.0])

    def evaluate(x, uval, X):
        return (X @ a)[:, None] - 3.0

    from diffusepde.checker import CoefficientSystem
    base = CoefficientSystem(order=1, n=2, N=1, M=1, evaluate=evaluate,
                             name="affine")
    tang = tangent_system(base)
    assert tang.fd_fallback
    P = np.zeros((1, 2))
    X = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
    X = 0.5 * (X + X.transpose(0, 1, 3, 2))
    out = tang.evaluate(np.zeros((1, 2)), P, X.reshape(1, 4))[0]
    expected = np.einsum("j,ji->i", a, X[0, 0])
    assert np.allclose(out, expected, atol=1e-5)


def test_linear_tangent_with_space_dependence():
    # F(x, P) = a . P - f(x): the differentiated system reads a :: X = Df
    a = np.array([2.0, 1.0])

    def evaluate(x, uval, X):
        return (X @ a - np.sin(x[:, 0]))[:, None]

    def F_x(x, uval, P):
        return np.stack([-np.cos(x[:, 0]), np.zeros(x.shape[0])],
                        axis=1)[:, None, :]

    def F_X(x, uval, P):
        return np.broadcast_to(a, (x.shape[0], 1, 2)).copy()

    from diffusepde.checker import CoefficientSystem
    base = CoefficientSystem(order=1, n=2, N=1, M=1, evaluate=evaluate,
                             name="affine-x")
    tang = tangent_system(base, F_x=F_x, F_X=F_X)
    x = np.array([[0.3, 0.7]])
    X = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
    X = 0.5 * (X + X.transpose(0, 1, 3, 2))
    out = tang.evaluate(x, np.zeros((1, 2)), X.reshape(1, 4))[0]
    expected = (np.einsum("j,ji->i", a, X[0, 0])
                - np.array([np.cos(0.3), 0.0]))
    assert np.allclose(out, expected)


def test_constant_system_tangent_vanishes():
    from diffusepde.checker import CoefficientSystem
    base = CoefficientSystem(order=1, n=2, N=1, M=1,
                             evaluate=lambda x, u, X: np.full((x.shape[0], 1), 7.0),
                             name="constant")
    tang = tangent_system(base)
    X = np.random.default_rng(0).standard_normal((3, 4))
    out = tang.evaluate(np.zeros((3, 2)), np.zeros((3, 2)), X)
    assert np.allclose(out, 0.0, atol=1e-5)


def test_coefficient_system_takes_exactly_one_definition():
    from diffusepde.checker import CoefficientSystem

    def evaluate(x, uval, X):
        return X[:, :1]

    def jet_linearization(x, uval):
        return np.ones((len(x), 1, 2)), np.zeros((len(x), 1))

    with pytest.raises(ValueError, match="exactly one of"):
        CoefficientSystem(order=1, n=2, N=1, M=1, evaluate=evaluate,
                          jet_linearization=jet_linearization)
    with pytest.raises(ValueError, match="exactly one of"):
        CoefficientSystem(order=1, n=2, N=1, M=1)
    F = CoefficientSystem(order=1, n=2, N=1, M=1, jet_linearization=jet_linearization)
    X = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert np.array_equal(F.evaluate(np.zeros((2, 2)), np.zeros((2, 1)), X),
                          [[3.0], [-1.0]])


@pytest.mark.parametrize("system", ["infinity-laplace", "linear-tensor"])
def test_check_linearizes_once_on_node_rows(system):
    """A jet-linear system is bound once per check: one linearization over
    the lattice nodes, and no row-wise evaluation at any level or radius."""
    dom, u, f = manufactured_laplace(res=32)
    if system == "infinity-laplace":
        F, f = infinity_laplace_system(2), None
    else:
        F = tensor_system(Tensor4.laplacian(2, 2))
    calls = []
    linearize = F.jet_linearization

    def recorded(x, uval):
        calls.append(x.copy())
        return linearize(x, uval)

    def evaluate(x, uval, X):
        raise AssertionError("check evaluated a jet-linear system row by row")

    F.jet_linearization, F.evaluate = recorded, evaluate
    check_dsolution(u, F, build_frame("standard", N=2, n=2),
                    default_windows(dom, levels=2, base_factor=4), R_list=[10.0, 50.0], f=f)
    assert len(calls) == 1
    assert np.array_equal(calls[0], dom.node_coords().reshape(-1, 2))


# cut-offs -------------------------------------------------------------------

def test_cutoff_identity_inside_ball():
    dom = Domain.unit_square(8)
    U = GridFunction(dom, np.full(dom.shape + (8,), 0.1))
    F = tensor_system(Tensor4.laplacian(2, 2))
    u = GridFunction(dom, np.zeros(dom.shape + (2,)))
    out = cutoff(U, F, u, R=10.0)
    assert np.array_equal(out.values, U.values)


def test_cutoff_linear_overflow_to_zero():
    dom = Domain.unit_square(8)
    vals = np.full(dom.shape + (8,), 0.1)
    vals[4, 4] = 100.0
    U = GridFunction(dom, vals)
    F = tensor_system(Tensor4.laplacian(2, 2))
    u = GridFunction(dom, np.zeros(dom.shape + (2,)))
    out = cutoff(U, F, u, R=10.0)
    assert np.allclose(out.values[4, 4], 0.0)
    assert np.allclose(out.values[3, 3], 0.1)


def test_cutoff_eikonal_projects_to_sphere():
    dom = Domain.unit_square(8)
    speed = 2.0
    F = eikonal_system(2, 1, speed)
    vals = np.zeros(dom.shape + (2,))
    vals[4, 4] = [30.0, 40.0]
    U = GridFunction(dom, vals)
    u = GridFunction(dom, np.zeros(dom.shape + (1,)))
    out = cutoff(U, F, u, R=3.0)
    assert np.linalg.norm(out.values[4, 4]) == pytest.approx(speed)
    with pytest.raises(ValueError):
        cutoff(U, F, u, R=1.0)  # ball misses the zero set


def test_cutoff_feasibility_reads_cells_outside_the_interior():
    """A zero set that misses the R-ball only at cells within the margin
    still makes R infeasible, and a check with no feasible R still raises."""
    dom = Domain.unit_square(32)
    values = np.zeros(dom.shape + (2,))
    values[3, 16, 0] = 1.0  # a spike near the edge: jets beyond R = 1 around it
    u = GridFunction(dom, values)
    F = tensor_system(Tensor4.laplacian(2, 2))
    frame = build_frame("standard", N=2, n=2)
    windows = default_windows(dom, levels=2, base_factor=4)
    interior = dom.interior_mask(check_dsolution(
        u, F, frame, windows, R_list=[1.0]).metadata["interior_margin"])
    # data whose zeros have norm 1e3 / sqrt(2) on the cells within the margin
    f = GridFunction(dom, np.where(interior[..., None], 0.0, [1e3, 1e3]))
    rep = check_dsolution(u, F, frame, windows, R_list=[1.0, 1e6], f=f)
    assert [R for R, _ in rep.metadata["infeasible_R"]["1"]] == [1.0]
    with pytest.raises(ValueError, match="no cut-off radius admits a zero"):
        check_dsolution(u, F, frame, windows, R_list=[1.0], f=f)


def test_check_raises_on_a_faulty_zero_set_oracle():
    """An oracle whose points are no zeros of the system is a fault, not an
    infeasible radius: the check raises instead of recording R = 4 in
    ``infeasible_R`` and passing on R = 1.8 alone."""
    from diffusepde.checker import CoefficientSystem

    dom = Domain.unit_disc(32)
    u = GridFunction.from_callable(
        dom, lambda x: 1.5 * np.hypot(x[..., 0] - 0.2, x[..., 1] + 0.1)[..., None])
    base = eikonal_system(2, 1, 1.5)
    faulty = CoefficientSystem(
        order=1, n=2, N=1, M=1, evaluate=base.evaluate, name="faulty",
        zero_set_oracle=lambda x, uval, R: (2.0 if R > 3 else 1.0) * base.zero_set_oracle(
            x, uval, R))
    windows = default_windows(dom, levels=2, base_factor=4, order=1)
    with pytest.raises(ValueError, match="oracle points are not zeros of the system"):
        check_dsolution(u, faulty, build_frame("standard", N=1, n=2), windows,
                        R_list=[1.8, 4.0])


# full checker ---------------------------------------------------------------

def test_manufactured_solution_passes_all_characterizations():
    dom, u, f = manufactured_laplace()
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    rep = check_dsolution(u, F, fr, default_windows(dom), R_list=[100.0], f=f)
    assert rep.passed, rep.residuals
    assert all(rep.trends.values())


def test_perturbed_solution_fails_all_characterizations():
    dom, u, f = manufactured_laplace()
    x = dom.node_coords()
    wob = 1 + 0.5 * np.sin(3 * np.pi * x[..., 0:1]) * np.sin(2 * np.pi * x[..., 1:2])
    pert = GridFunction(dom, u.values * wob)
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    rep = check_dsolution(pert, F, fr, default_windows(dom), R_list=[100.0], f=f)
    assert not any(rep.verdicts.values()), rep.residuals


def test_noise_keeps_support_residual_bounded_away():
    dom, u, f = manufactured_laplace(res=48)
    rng = np.random.default_rng(0)
    noisy = GridFunction(dom, u.values * (1 + 0.1 * rng.standard_normal(u.values.shape)))
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    rep = check_dsolution(noisy, F, fr, default_windows(dom), R_list=[100.0], f=f)
    support = rep.residuals["support"]
    assert min(support) > 10 * rep.tolerance
    assert support[-1] >= support[0]  # refining makes rough quotients worse


def test_strong_solution_compatibility_both_directions():
    """The checker verdict matches the strong residual for twice
    differentiable maps: small strong residual iff pass."""
    dom, u, f = manufactured_laplace(res=48)
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    windows = default_windows(dom)
    good = check_dsolution(u, F, fr, windows, R_list=[50.0], f=f)
    assert good.passed
    wrong_f = GridFunction(dom, 1.25 * f.values)
    bad = check_dsolution(u, F, fr, windows, R_list=[50.0], f=wrong_f)
    assert not bad.passed


def test_monotone_refinement_for_solutions():
    dom, u, f = manufactured_laplace(res=96)
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    rep = check_dsolution(u, F, fr, default_windows(dom, levels=3), R_list=[50.0], f=f)
    for name, seq in rep.residuals.items():
        for a, b in zip(seq, seq[1:]):
            assert b <= a * 1.1 + 1e-14, (name, seq)


def test_report_serialization_and_metadata():
    dom, u, f = manufactured_laplace(res=32)
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    rep = check_dsolution(u, F, fr, default_windows(dom, levels=2, base_factor=4),
                          R_list=[50.0], f=f)
    doc = rep.to_json_dict()
    assert set(doc) >= {"residuals", "verdicts", "tolerance", "R_inf", "levels"}
    assert doc["metadata"]["system"] == "linear-tensor"


def test_skipped_characterizations_without_oracle():
    from diffusepde.checker import CoefficientSystem
    dom, u, f = manufactured_laplace(res=32)

    def evaluate(x, uval, X):
        return np.tanh(X[:, :2])  # nonlinear, no oracle supplied

    F = CoefficientSystem(order=2, n=2, N=2, M=2, evaluate=evaluate, name="opaque")
    fr = build_frame("standard", N=2, n=2)
    rep = check_dsolution(u, F, fr, default_windows(dom, levels=2, base_factor=4),
                          R_list=[10.0])
    assert set(rep.skipped) == {"cutoff", "distance"}
    assert "cutoff" not in rep.residuals


def test_schedule_battery_worst_case():
    """The solution passes every characterization over window cascades of
    step ratio 1/2 and 1/3 alike."""
    dom, u, f = manufactured_laplace(res=64)
    F = tensor_system(Tensor4.laplacian(2, 2))
    fr = build_frame("standard", N=2, n=2)
    h = dom.spacing
    for ratio in (0.5, 1.0 / 3.0):
        rep = check_dsolution(u, F, fr, window_cascade(8 * h, 2, 2, ratio, 2, h), f=f)
        assert rep.passed, (ratio, rep.residuals)
        assert len(rep.verdicts) == 5


def test_phi_family_shapes():
    dom, u, f = manufactured_laplace(res=32)
    fr = build_frame("standard", N=2, n=2)
    from diffusepde.measures import diffuse_field
    h = dom.spacing
    field = diffuse_field(u, fr, 2, schedule_window(4 * h, 2, 0.5, order=2), 1e9)
    mask = dom.mask()
    phis = witness_family(field.points[mask][~field.infinite[mask]])
    assert len(phis) == 6
    assert all(p.compactly_supported for p in phis)


def test_sawtooth_escaping_cluster_pairing_decreases():
    """A witness centered on the coarse-level curvature cluster sees the mass
    march to infinity: its pairing decays to zero across refinements."""
    from diffusepde.reference import sawtooth_map
    case = sawtooth_map(1.0, 2, 128)
    u = case.grids["map"]
    dom = u.domain
    h = dom.spacing
    fr = build_frame("standard", N=2, n=2)
    F = infinity_laplace_system(2)
    # one schedule per level with steps (s, s): curvature atoms live on the
    # lattice {2mh/s^2} which coarsens by a factor four per refinement
    windows = [[HSchedule(rows=((s,), (s, s)))] for s in (8 * h, 4 * h, 2 * h)]
    center = np.zeros(8)
    center[0] = -1.0 / (32 * h)  # smallest level-0 curvature magnitude
    phi = bump(center, radius=0.5 / (32 * h))
    rep = check_dsolution(u, F, fr, windows, R_list=[1e6],
                          Phi_family=[phi])
    pairing = rep.residuals["pairing"]
    assert pairing[0] > 0.0
    assert pairing[-1] == 0.0
    assert pairing[0] >= pairing[1] >= pairing[2]


def test_sawtooth_check_cascades_are_pinned():
    """Exact residual cascades of a small supremal-energy check.  Rounding
    changes in the per-atom residual, the shared linearization or the
    cut-off show up here bit for bit."""
    from diffusepde.reference import sawtooth_map
    u = sawtooth_map(1.0, 2, 64).grids["map"]
    h = u.domain.spacing
    windows = [schedule_window(8 * h / 2**lvl, 2, ratio=0.5, order=2)
               for lvl in range(2)]
    rep = check_dsolution(u, infinity_laplace_system(2),
                          build_frame("standard", N=2, n=2), windows,
                          R_list=[10.0, 100.0])
    assert {k: [x.hex() for x in v] for k, v in rep.residuals.items()} == {
        "pairing": ["0x1.a407662b6ae7ep+2", "0x1.cc84890cf39a1p+1"],
        "support": ["0x1.6a09e667f3bcdp+5", "0x1.6a09e667f3bcdp+6"],
        "integral": ["0x1.c48c6001f0ac0p+4", "0x1.c48c6001f0ac0p+5"],
        "cutoff": ["0x1.6a09e667f3bcdp+5", "0x1.6a09e667f3bcdp+6"],
        "distance": ["0x1.ffffffffffffdp+5", "0x1.ffffffffffffdp+6"],
    }
    assert rep.R_inf.hex() == "0x1.594458ff7aee4p+24"
    assert rep.tolerance.hex() == "0x1.9000000000000p+1"


def _counted_pinv(monkeypatch):
    """Record the number of matrices of each ``np.linalg.pinv`` call."""
    rows, pinv = [], np.linalg.pinv

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    return rows


def test_check_takes_pinv_on_the_rows_it_reads(monkeypatch):
    """A supremal check takes one ``pinv`` over exactly the interior rows and
    the rows some (level, R) cut-off replaces, fewer than the cells."""
    from diffusepde import checker
    from diffusepde.reference import sawtooth_map
    u = sawtooth_map(1.0, 2, 64).grids["map"]
    h = u.domain.spacing
    windows = [schedule_window(8 * h / 2**lvl, 2, ratio=0.5, order=2)
               for lvl in range(2)]
    overs, cut = [], checker._cut

    def recorded(vals, over, *args):
        overs.append(over.copy())
        return cut(vals, over, *args)

    monkeypatch.setattr(checker, "_cut", recorded)
    rows = _counted_pinv(monkeypatch)
    rep = check_dsolution(u, infinity_laplace_system(2),
                          build_frame("standard", N=2, n=2), windows,
                          R_list=[10.0, 100.0])
    assert len(overs) == 4
    read = np.logical_or.reduce(
        [u.domain.interior_mask(rep.metadata["interior_margin"]).reshape(-1)] + overs)
    assert rows == [int(read.sum())]
    assert rows[0] < read.size
    assert all(np.isfinite(v).all() for v in rep.residuals.values())


def test_constant_coefficient_check_takes_one_pinv(monkeypatch):
    dom, u, f = manufactured_laplace(res=32)
    rows = _counted_pinv(monkeypatch)
    check_dsolution(u, tensor_system(Tensor4.laplacian(2, 2)),
                    build_frame("standard", N=2, n=2),
                    default_windows(dom, levels=2, base_factor=4), R_list=[10.0, 50.0], f=f)
    assert rows == [1]


def test_cutoff_takes_pinv_on_its_over_rows(monkeypatch):
    dom = Domain.unit_square(8)
    vals = np.full(dom.shape + (8,), 0.1)
    vals[4, 4] = vals[2, 5] = 100.0
    uval = GridFunction(dom, np.random.default_rng(0).standard_normal(dom.shape + (4,)))
    rows = _counted_pinv(monkeypatch)
    out = cutoff(GridFunction(dom, vals), infinity_laplace_system(2), uval, R=10.0)
    assert rows == [2]
    assert np.isfinite(out.values).all()
    assert np.linalg.norm(out.values[4, 4]) <= 10.0


@pytest.mark.parametrize("C_disc", [np.nan, np.inf, -5.0])
def test_check_rejects_bad_discretization_constant(C_disc):
    dom, u, f = manufactured_laplace(res=16)
    with pytest.raises(ValueError, match="C_disc must be finite and nonnegative"):
        check_dsolution(u, tensor_system(Tensor4.laplacian(2, 2)),
                        build_frame("standard", N=2, n=2), default_windows(dom),
                        f=f, C_disc=C_disc)


@pytest.mark.parametrize("case, match", [
    ("three-component tensor", "candidate map does not match the system"),
    ("data on a disc", "another lattice or mask"),
    ("data of another shape", "another lattice or mask"),
    ("three-component data", "right-hand side does not match the system")])
def test_check_rejects_a_mismatched_system_or_data(case, match):
    dom, u, f = manufactured_laplace(res=16)
    F = tensor_system(Tensor4.laplacian(3 if case == "three-component tensor" else 2, 2))
    if case == "data on a disc":
        f = GridFunction(Domain.unit_disc(16), f.values)
    elif case == "data of another shape":
        f = GridFunction(Domain.unit_square(12), np.zeros((13, 13, 2)))
    elif case == "three-component data":
        f = GridFunction(dom, np.zeros(dom.shape + (3,)))
    with pytest.raises(ValueError, match=match):
        check_dsolution(u, F, build_frame("standard", N=2, n=2), default_windows(dom), f=f)


def test_check_computes_each_jet_once(monkeypatch):
    """Overlapping windows share their schedules: one quotient per distinct
    schedule per check, the default cut-off's included."""
    from diffusepde import checker, measures
    from diffusepde.frames import jet_difference_quotients
    calls = []

    def counted(u, frame, sched):
        calls.append(sched.rows)
        return jet_difference_quotients(u, frame, sched)

    monkeypatch.setattr(checker, "jet_difference_quotients", counted)
    monkeypatch.setattr(measures, "jet_difference_quotients", counted)
    dom, u, f = manufactured_laplace(res=64)
    windows = default_windows(dom, levels=2, base_factor=8, count=3)
    check_dsolution(u, tensor_system(Tensor4.laplacian(2, 2)),
                    build_frame("standard", N=2, n=2), windows, R_list=[100.0], f=f)
    distinct = {s.rows for w in windows for s in w}
    assert len(distinct) < sum(len(w) for w in windows)
    assert sorted(calls) == sorted(distinct)


def test_rotated_domain_frame_gives_the_same_verdicts():
    """Off-lattice quotients along a domain frame rotated by 0.37 rad reach
    the verdicts of the standard frame: all five pass on the solution's
    data and fail on 1.8 times it."""
    from diffusepde.frames import Frame
    dom, u, f = manufactured_laplace(64)
    F = tensor_system(Tensor4.laplacian(2, 2))
    c, s = np.cos(0.37), np.sin(0.37)
    rot = np.array([[c, -s], [s, c]])
    frames = [build_frame("standard", N=2, n=2), Frame(np.eye(2), np.stack([rot.T, rot.T]))]
    for data, expect in ((f, True), (f * 1.8, False)):
        verdicts = [check_dsolution(u, F, fr, default_windows(dom), R_list=[100.0],
                                    f=data).verdicts for fr in frames]
        assert verdicts[0] == verdicts[1]
        assert len(verdicts[0]) == 5
        assert all(v == expect for v in verdicts[0].values()), verdicts


def _transposed(u):
    """``u`` with its lattice axes swapped, on the same square lattice."""
    assert len(set(u.domain.shape)) == 1
    return GridFunction(u.domain, u.values.transpose(1, 0, 2))


def test_sawtooth_check_commutes_with_the_axis_swap():
    """The supremal check of ``reference --check`` (128 steps, four levels
    of three steps from 16 h) gives the same verdicts and bit-identical
    residual cascades on the map with its lattice axes swapped."""
    from diffusepde.reference import sawtooth_map
    u = sawtooth_map(1.0, 4, 128).grids["map"]
    h = u.domain.spacing
    windows = window_cascade(16 * h, 4, 3, 0.5, 2, h)
    F, fr = infinity_laplace_system(2), build_frame("standard", N=2, n=2)
    reps = [check_dsolution(v, F, fr, windows, R_list=[10.0, 100.0])
            for v in (u, _transposed(u))]
    assert not np.array_equal(u.values, _transposed(u).values)
    assert len(reps[0].residuals) == 5
    assert reps[0].verdicts == reps[1].verdicts
    assert reps[0].residuals == reps[1].residuals


def test_laplace_check_commutes_with_the_axis_swap():
    """The Laplace tensor check of :func:`manufactured_laplace`, with
    ``x0**2 x1`` added to the first component so that the swap moves the map,
    gives the same verdicts on the map and data with their lattice axes
    swapped: on the solution's data (all five pass, residual cascades bit
    for bit) and on 1.8 times it (all five fail, cascades equal but for
    rounding, 9e-15 at most)."""
    dom, u, f = manufactured_laplace(64)
    x = dom.node_coords()
    u = GridFunction(dom, u.values + (x[..., 0] ** 2 * x[..., 1])[..., None] * [1.0, 0.0])
    f = GridFunction(dom, f.values + 2 * x[..., 1][..., None] * [1.0, 0.0])
    F, fr = tensor_system(Tensor4.laplacian(2, 2)), build_frame("standard", N=2, n=2)
    for scale, expect in ((1.0, True), (1.8, False)):
        reps = [check_dsolution(v, F, fr, default_windows(dom), R_list=[100.0], f=g * scale)
                for v, g in ((u, f), (_transposed(u), _transposed(f)))]
        assert len(reps[0].verdicts) == 5
        assert all(v == expect for v in reps[0].verdicts.values()), reps[0].verdicts
        assert reps[0].verdicts == reps[1].verdicts
        for key, cascade in reps[0].residuals.items():
            assert np.allclose(cascade, reps[1].residuals[key], rtol=1e-12, atol=0)
        if expect:
            assert reps[0].residuals == reps[1].residuals


def _pinned_check(case):
    """One check off the benchmark's jet-linear path, serialized: the report's
    JSON document followed by the finest-level residual field as float64."""
    from diffusepde.checker import CoefficientSystem
    from diffusepde.solver import make_nonlinearity
    from diffusepde.tensors import Decomposition, ranges_and_subspaces, reconstruct

    if case == "eikonal":
        # a cone of slope 1.5 with its apex inside the disc: R = 1 misses the
        # zero set |P| = 1.5 wherever a jet overflows
        dom = Domain.unit_disc(32)
        u = GridFunction.from_callable(
            dom, lambda x: 1.5 * np.hypot(x[..., 0] - 0.2, x[..., 1] + 0.1)[..., None])
        windows = default_windows(dom, levels=2, base_factor=4, order=1)
        reports = [check_dsolution(u, eikonal_system(2, 1, 1.5),
                                   build_frame("standard", N=1, n=2), windows,
                                   R_list=[1.0, 1.8, 4.0])]
    elif case == "tangent-fd":
        base = CoefficientSystem(
            order=1, n=2, N=1, M=1, name="quadratic",
            evaluate=lambda x, uval, X: (X[:, :1] ** 2 + X[:, 1:] - 1.0))
        dom = Domain.unit_square(32)
        u = GridFunction.from_callable(
            dom, lambda x: (np.sin(2 * x[..., 0]) + x[..., 1] ** 2)[..., None])
        reports = [check_dsolution(u, tangent_system(base),
                                   build_frame("standard", N=1, n=2),
                                   default_windows(dom, levels=2, base_factor=4),
                                   R_list=[10.0, 100.0])]
    elif case == "nonlinearity":
        dom = Domain.unit_disc(32)
        dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                            (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
        a_of_x = GridFunction.from_callable(
            dom, lambda x: (2.0 + np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1]))[..., None])
        F, _ = make_nonlinearity(dec, a_of_x, gamma=0.2)
        u = GridFunction.from_callable(
            dom, lambda x: np.stack([np.sin(x[..., 0]) * x[..., 1],
                                     np.cos(2 * x[..., 1])], axis=-1))
        reports = [check_dsolution(u, F, build_frame("from_decomposition", dec=dec),
                                   default_windows(dom, levels=2, base_factor=4),
                                   R_list=[10.0])]
    elif case == "projected":
        dom = Domain.unit_square(32)
        dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                            (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
        u = GridFunction.from_callable(
            dom, lambda x: np.stack([np.sin(np.pi * x[..., 0]) * x[..., 1] ** 2,
                                     x[..., 0] * np.cos(x[..., 1])], axis=-1))
        reports = [check_dsolution(u, tensor_system(reconstruct(dec)),
                                   build_frame("from_decomposition", dec=dec),
                                   default_windows(dom, levels=2, base_factor=4),
                                   R_list=[10.0, 1e3],
                                   project=ranges_and_subspaces(dec).xi)]
    else:
        dom, u, f = manufactured_laplace(res=32)
        h = dom.spacing
        # cascades of step ratio 1/2 and 1/3, then windows of random steps
        families = [window_cascade(4 * h, 2, 2, ratio, 2, h) for ratio in (0.5, 1.0 / 3.0)]
        rng = np.random.default_rng(5)
        families.append([[HSchedule(rows=(tuple(steps[:1]), tuple(steps)))
                          for steps in rng.uniform(max(h, top / 3), top, size=(2, 2))]
                         for top in (4 * h, 2 * h)])
        reports = [check_dsolution(u, tensor_system(Tensor4.laplacian(2, 2)),
                                   build_frame("standard", N=2, n=2), windows,
                                   f=f, R_list=[50.0])
                   for windows in families]
    return b"".join(json.dumps(rep.to_json_dict(), sort_keys=True).encode()
                    + np.asarray(rep.residual_field.values, np.float64).tobytes()
                    for rep in reports)


@pytest.mark.parametrize("case, digest", [
    ("eikonal",
     "36e44102c0b6ba8a7821aec15dfd4c03fba533f6b3923c0e1356d4c4b90c7f0a"),
    ("tangent-fd",
     "407c3609fb519368b3a7b00e23448e7cd63fe770a6bd5b628b4c86213707c268"),
    ("nonlinearity",
     "3d6da29bf631b7355d6f0f54d7550d94af1a2daf5b4ee7f27fae4b21fbc30fac"),
    ("projected",
     "9c3aa193fd85cf5c1c03380751e19c5b5eea10fe2484109b0415a60d181ffb61"),
    ("battery",
     "76d98fd9a59fcc0ee9777c6569f9e5152c4731717ebf73161fc6718f6c62b142"),
], ids=["eikonal", "tangent-fd", "nonlinearity", "projected", "battery"])
def test_check_reports_are_pinned(case, digest):
    """Whole reports of checks the benchmark does not run, bit for bit: the
    zero-set oracle's cut-off and distance, the finite-difference tangent,
    the row-wise evaluation of the certified nonlinearity, a projected check
    and a battery; sha256 of the serialized reports."""
    assert hashlib.sha256(_pinned_check(case)).hexdigest() == digest


def test_cut_raises_on_a_non_finite_selection():
    """A NaN ``pinv`` row would select a NaN jet, which the radius and range
    tests both let through; ``_cut`` names the row instead."""
    from diffusepde import checker
    F = tensor_system(Tensor4.laplacian(2, 2))
    x, uv = np.zeros((5, 2)), np.zeros((5, 2))
    L, c = F.jet_linearization(x, uv)
    L, c = (np.broadcast_to(a, (5,) + a.shape[1:]) for a in (L, c))
    pinv = np.linalg.pinv(L)
    pinv[3] = np.nan
    over = np.zeros(5, bool)
    over[[1, 3]] = True
    vals = np.full((5, 8), 100.0)
    with pytest.raises(ValueError, match=r"not finite at 1 row\(s\), first \[3\]"):
        checker._cut(vals, over, F, 10.0, x, uv, None, (L, c, pinv))


def test_a_check_evaluates_each_distinct_jet_once(monkeypatch):
    """Four overlapping windows (11 passes over 5 distinct jets, the last
    two levels ending on the same jet): each jet is clipped, evaluated by
    the witnesses and turned into residual rows once, and each (last jet,
    R) reaches the cut-off selection once."""
    from diffusepde import checker, measures
    from diffusepde.frames import difference_quotient_1
    from diffusepde.reference import sawtooth_map

    u = sawtooth_map(1.0, 2, 32).grids["map"]
    dom = u.domain
    h = dom.spacing
    jets = [HSchedule(rows=((s * h,), (s * h, s * h))) for s in (5, 4, 3, 2, 1)]
    windows = [jets[0:3], jets[1:4], jets[2:5], jets[3:5]]
    fr = build_frame("standard", N=2, n=2)
    clipped, witnessed, cuts = [], [], []

    def counted(calls, fn, record):
        def wrapper(*args):
            calls.append(record(*args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(measures, "_clip_to_infinity", counted(
        clipped, measures._clip_to_infinity, lambda pts, R: pts.shape[-2]))
    monkeypatch.setattr(checker, "witness_values", counted(
        witnessed, checker.witness_values, lambda phis, pts: len(pts)))
    monkeypatch.setattr(checker, "_cut", counted(
        cuts, checker._cut, lambda vals, over, F, R, *rest: (vals.tobytes(), R)))
    check_dsolution(u, infinity_laplace_system(2), fr, windows, R_list=[10.0, 100.0])
    interior = int(dom.interior_mask(checker.default_margin(windows, dom)).sum())
    assert clipped == [5]
    assert witnessed == [interior] * 5
    assert len(cuts) == 3 * 2 and len(set(cuts)) == len(cuts)

    # the same system given by its evaluation: one residual row per cell
    # for the zero jet and the finest window's two jets, one per interior
    # cell for the three others
    F = infinity_laplace_system(2)
    rows = []
    evaluated = checker.CoefficientSystem(
        order=2, n=2, N=2, M=2, u_source=difference_quotient_1,
        evaluate=counted(rows, F.evaluate, lambda x, uval, X: len(X)))
    check_dsolution(u, evaluated, fr, windows, R_list=[10.0, 100.0])
    assert sum(rows) == 3 * dom.n_nodes + 3 * interior
