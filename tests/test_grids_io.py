import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusepde.grids import Domain, GridFunction, load_grid, save_grid, shift_array
from diffusepde.solver import gradient_central, hessian_central


def test_rect_mask_excludes_outer_ring():
    dom = Domain.unit_square(8)
    m = dom.mask()
    assert not m[0].any() and not m[-1].any()
    assert not m[:, 0].any() and not m[:, -1].any()
    assert m[1:-1, 1:-1].all()


def test_disc_mask_geometry():
    dom = Domain.unit_disc(64)
    m = dom.mask()
    x = dom.node_coords()
    r = np.sqrt(np.einsum("...k,...k->...", x, x))
    assert (r[m] < 1.0).all()
    assert not m[r > 1.0].any()
    assert abs(dom.diameter() - 2.0) < 1e-12


def test_domain_diameter_rect():
    dom = Domain.unit_square(10)
    assert dom.diameter() == pytest.approx(np.sqrt(2.0))


def test_interval_spans_its_endpoints():
    dom = Domain.interval(-1.0, 3.0, 8)
    assert dom.spacing == 0.5
    assert np.array_equal(dom.node_coords()[:, 0], np.linspace(-1.0, 3.0, 9))


def test_shift_array_reads_forward_neighbour():
    v = np.arange(5, dtype=float)
    assert np.array_equal(shift_array(v, 0, 1), [1, 2, 3, 4, 0])
    assert np.array_equal(shift_array(v, 0, -2), [0, 0, 0, 1, 2])


def test_boundary_ring_and_interior():
    dom = Domain.unit_square(10)
    ring = dom.boundary_ring()
    inner = dom.interior_mask(2 * dom.spacing)
    assert ring.sum() > 0
    assert not (ring & inner).any()
    assert (ring | inner).sum() <= dom.mask().sum()


@pytest.mark.parametrize("dom", [Domain((13, 9), 0.125, (0.0, 0.0)),
                                 Domain((15, 15), 0.25, (0.0, 0.0), "disc"),
                                 Domain((7, 6, 5), 0.5, (0.0, 0.0, 0.0))],
                         ids=["rect", "disc", "box-3d"])
def test_interior_mask_erodes_once_per_lattice_step(dom):
    """``interior_mask(margin)`` is ``ceil(margin / h)`` erosions of the mask
    by the lattice neighbours, for margins reaching past every node too; a
    margin of 1e300 spacings returns at once, with no node left."""
    out = dom.mask()
    for steps in range(3 * max(dom.shape)):
        got = dom.interior_mask(steps * dom.spacing)
        assert np.array_equal(got, out), steps
        eroded = out.copy()
        for k in range(dom.dim):
            eroded &= shift_array(out, k, 1) & shift_array(out, k, -1)
        out = eroded
    assert not out.any()
    assert not dom.interior_mask(1e300 * dom.spacing).any()


def test_gradient_exact_on_linear():
    dom = Domain.unit_square(16)
    u = GridFunction.from_callable(dom, lambda x: (2 * x[..., 0] - 3 * x[..., 1])[..., None])
    g = gradient_central(u)
    inner = dom.interior_mask(2 * dom.spacing)
    assert np.allclose(g.values[inner], [2.0, -3.0])


def test_hessian_exact_on_quadratic():
    dom = Domain.unit_square(16)
    s = np.array([[2.0, 0.5], [0.5, -1.0]])
    u = GridFunction.from_callable(
        dom, lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, s, x)[..., None])
    h = hessian_central(u)
    inner = dom.interior_mask(2 * dom.spacing)
    assert np.allclose(h.values[inner], s.reshape(-1), atol=1e-9)


def test_values_zeroed_outside_mask():
    dom = Domain.unit_disc(16)
    gf = GridFunction(dom, np.ones(dom.shape + (1,)))
    assert (gf.values[~dom.mask()] == 0).all()


def test_l2_norm_cell_weighted():
    dom = Domain.unit_square(64)
    u = GridFunction.from_callable(
        dom, lambda x: (np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]))[..., None])
    assert u.l2_norm() == pytest.approx(0.5, rel=1e-3)


def test_roundtrip_bit_exact(tmp_path, rng):
    dom = Domain(shape=(7, 5), spacing=0.125, origin=(-0.3, 0.7), mask_kind="rect")
    vals = rng.standard_normal(dom.shape + (3,))
    gf = GridFunction(dom, vals)
    path = tmp_path / "field.grid"
    save_grid(path, gf)
    back = load_grid(path)
    assert back.domain == dom
    assert back.values.tobytes() == gf.values.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 9), st.integers(3, 9), st.integers(1, 3),
       st.floats(0.01, 2.0), st.integers(0, 2**31 - 1))
def test_roundtrip_bit_exact_property(tmp_path_factory, nx, ny, d, spacing, seed):
    dom = Domain(shape=(nx, ny), spacing=spacing, origin=(0.0, 0.0))
    vals = np.random.default_rng(seed).standard_normal(dom.shape + (d,))
    gf = GridFunction(dom, vals)
    path = tmp_path_factory.mktemp("grids") / "f.grid"
    save_grid(path, gf)
    back = load_grid(path)
    assert back.values.tobytes() == gf.values.tobytes()
    assert back.domain.spacing == dom.spacing


@pytest.mark.parametrize("extra", [1, 8, 800])
def test_load_rejects_trailing_bytes(tmp_path, extra):
    dom = Domain.unit_square(6)
    path = tmp_path / "f.grid"
    save_grid(path, GridFunction(dom, np.ones(dom.shape + (2,))))
    path.write_bytes(path.read_bytes() + b"\0" * extra)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_grid(path)


def test_load_rejects_other_files(tmp_path):
    p = tmp_path / "bogus.grid"
    p.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_grid(p)


def test_nonfinite_values_rejected():
    dom = Domain.unit_square(4)
    vals = np.ones(dom.shape + (1,))
    vals[2, 2, 0] = np.nan
    with pytest.raises(ValueError):
        GridFunction(dom, vals)


@pytest.mark.parametrize("spacing, origin", [
    (np.nan, (0.0, 0.0)), (np.inf, (0.0, 0.0)), (0.1, (np.nan, 0.0)),
    (0.1, (0.0, -np.inf))])
def test_domain_rejects_nonfinite_spacing_and_origin(spacing, origin):
    with pytest.raises(ValueError):
        Domain(shape=(5, 5), spacing=spacing, origin=origin)
