from fractions import Fraction

import numpy as np
import pytest

from diffusepde.grids import Domain, GridFunction
from diffusepde.reference import (build_reference, disc_explicit_solution,
                                  fat_cantor_indicator,
                                  fat_cantor_removed_intervals,
                                  infinity_witness_cells,
                                  interval_union_measure, oscillation_example,
                                  sawtooth_map, stern_brocot_rationals)
from diffusepde.solver import hessian_central


def test_stern_brocot_prefix_is_fixed():
    rs = stern_brocot_rationals(7)
    assert rs == [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                  Fraction(2, 3), Fraction(1, 4), Fraction(2, 5)]
    # enumeration is deterministic across calls
    assert stern_brocot_rationals(7) == rs


def test_interval_union_measure():
    assert interval_union_measure([(0.0, 0.5), (0.25, 0.75)]) == pytest.approx(0.75)
    assert interval_union_measure([(-1.0, 2.0)]) == pytest.approx(1.0)
    assert interval_union_measure([]) == 0.0


def test_fat_cantor_depth_one_removes_single_interval():
    case = fat_cantor_indicator(depth=1, resolution=512)
    removed = case.expected["removed_intervals"]
    assert len(removed) == 1
    a, b = removed[0]
    assert b - a == pytest.approx(2.0 / 3.0)


def test_fat_cantor_depth8_measure_positive():
    case = fat_cantor_indicator(depth=8, resolution=4096)
    measure = case.expected["retained_measure"]
    # interval-union oracle on the truncation
    removed = fat_cantor_removed_intervals(8)
    assert measure == pytest.approx(1.0 - interval_union_measure(removed))
    assert measure > 0.0
    grid_fraction = case.grids["indicator"].values.mean()
    assert grid_fraction == pytest.approx(measure, abs=0.01)


def test_fat_cantor_witness_cells_exist():
    case = fat_cantor_indicator(depth=8, resolution=8192)
    h = case.grids["indicator"].domain.spacing
    wit = infinity_witness_cells(case, [h, 2 * h, 3 * h])
    assert wit.sum() >= 3


def test_sawtooth_identities():
    for M in (1.0, 2.0):
        case = sawtooth_map(M, 4, 128)
        u = case.grids["map"]
        dom = u.domain
        h = dom.spacing
        from diffusepde.frames import build_frame, difference_quotient_1
        from diffusepde.reference import fold_distance_mask
        fr = build_frame("standard", N=2, n=2)
        q = difference_quotient_1(u, fr, h)
        keep = fold_distance_mask(dom, 4, 2 * h) & dom.interior_mask(2 * h)
        P = q.values.reshape(dom.shape + (2, 2))[keep]
        norms = np.einsum("cai,cai->c", P, P)
        dets = np.abs(np.linalg.det(P))
        assert np.allclose(norms, 2 * M**2, atol=1e-10)
        assert np.allclose(dets, M**2, atol=1e-10)
        svals = np.linalg.svd(P, compute_uv=False)
        assert np.allclose(svals, M, atol=1e-10)
        # eikonal residual vanishes off folds
        assert np.allclose(norms - 2 * M**2, 0.0, atol=1e-10)


def test_sawtooth_resolution_snaps_to_fold_grid():
    case = sawtooth_map(1.0, 3, 100)
    assert case.params["resolution"] % 6 == 0


def test_disc_solution_constant_data():
    res = 128
    case = disc_explicit_solution(lambda x1, x2: 1.0, res)
    u = case.grids["solution"]
    dom = u.domain
    x = dom.node_coords()
    expected = 0.5 * (x[..., 1] ** 2 - (1.0 - x[..., 0] ** 2))
    mask = dom.mask()
    assert np.abs(u.values[mask, 0] - expected[mask]).max() < 1e-10


def test_disc_solution_zero_data():
    case = disc_explicit_solution(lambda x1, x2: 0.0, 64)
    assert np.abs(case.grids["solution"].values).max() == 0.0


def test_disc_solution_linear_data():
    res = 128
    case = disc_explicit_solution(lambda x1, x2: x2, res)
    u = case.grids["solution"]
    dom = u.domain
    x = dom.node_coords()
    b2 = 1.0 - x[..., 0] ** 2
    expected = (x[..., 1] ** 3 - x[..., 1] * b2) / 6.0
    mask = dom.mask()
    assert np.abs(u.values[mask, 0] - expected[mask]).max() < 5e-4


def test_disc_solution_boundary_and_interior_residual():
    res = 128
    f = lambda x1, x2: np.cos(2.0 * x2) + x1
    case = disc_explicit_solution(f, res)
    u = case.grids["solution"]
    dom = u.domain
    h = dom.spacing
    ring = dom.boundary_ring()
    # vanishes toward the rim at quadrature accuracy plus geometric O(h)
    assert np.abs(u.values[ring]).max() < 10 * h
    d22 = hessian_central(u).values[..., 3]  # (component 0, axis 1, axis 1)
    inner = dom.interior_mask(3 * h)
    x = dom.node_coords()
    target = f(x[..., 0], x[..., 1])
    assert np.abs(d22[inner] - target[inner]).max() < 200 * h**2


def test_oscillation_decay_and_range():
    case = oscillation_example(mu=100.0, resolution=4096)
    u = case.grids["map"]
    assert np.abs(u.values).max() <= 1.0 / 100.0 + 1e-12
    with pytest.raises(ValueError):
        oscillation_example(mu=1.0, resolution=64)


def test_build_reference_dispatch():
    case = build_reference("sawtooth", M=1.0, k=2, resolution=32)
    assert case.name == "sawtooth"
    with pytest.raises(ValueError):
        build_reference("unknown-case")
