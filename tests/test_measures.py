import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusepde.checker import check_dsolution, tensor_system
from diffusepde.frames import (HSchedule, build_frame, difference_quotient_1,
                               schedule_window)
from diffusepde.grids import Domain, GridFunction
from diffusepde.measures import (AtomicMeasure, TestFunction, YoungMeasureField,
                                 barycenter_field, barycenter_off_infinity,
                                 bump, chordal_distance, constant_one,
                                 diffuse_field, diffuse_jet_field, dirac_field,
                                 is_concentrated, load_measure_field, pair,
                                 pair_product, reduced_support,
                                 save_measure_field, translate,
                                 translate_field)
from diffusepde.reference import fat_cantor_indicator, infinity_witness_cells, oscillation_example
from diffusepde.tensors import Tensor4


def atom(points, weights, infinite):
    return AtomicMeasure(points=np.array(points, float),
                         weights=np.array(weights, float),
                         infinite=np.array(infinite, bool))


def test_dirac_field_zero_map():
    dom = Domain.unit_square(8)
    v = GridFunction(dom, np.zeros(dom.shape + (2,)))
    field = dirac_field(v, R_inf=10.0)
    assert field.n_atoms == 1
    assert not field.infinite.any()
    assert np.all(field.points == 0.0)


def test_dirac_field_identity_map():
    dom = Domain.interval(0.0, 1.0, 16)
    v = GridFunction(dom, dom.axis_coords(0)[:, None])
    field = dirac_field(v, R_inf=10.0)
    mask = dom.mask()
    assert np.allclose(field.points[mask, 0, 0], dom.axis_coords(0)[mask])


def test_dirac_field_cutoff_to_infinity():
    dom = Domain.interval(0.0, 1.0, 8)
    vals = np.ones(dom.shape + (1,))
    vals[4, 0] = 1e10
    v = GridFunction(dom, vals)
    field = dirac_field(v, R_inf=1e3)
    assert field.infinite[4, 0]
    assert not field.infinite[3, 0]


@pytest.mark.parametrize("R_inf", [np.nan, -1.0, 0.0])
def test_cutoff_radius_must_be_positive(R_inf):
    dom = Domain.unit_square(8)
    v = GridFunction(dom, np.zeros(dom.shape + (2,)))
    frame = build_frame("standard", N=2, n=2)
    window = [HSchedule(((0.25,),))]
    with pytest.raises(ValueError, match="cutoff radius must be positive"):
        dirac_field(v, R_inf)
    with pytest.raises(ValueError, match="cutoff radius must be positive"):
        diffuse_field(v, frame, 1, window, R_inf)
    assert not dirac_field(v, np.inf).infinite.any()


def test_reduced_support_examples():
    m = atom([[0.0]], [1.0], [True])
    assert reduced_support(m) == []
    m = atom([[2.0], [0.0]], [0.5, 0.5], [False, True])
    rs = reduced_support(m)
    assert len(rs) == 1
    assert rs[0][0][0] == 2.0 and rs[0][1] == 0.5
    m = atom([[3.0]], [1.0], [False])
    assert reduced_support(m)[0][1] == 1.0


def test_barycenter_examples():
    assert barycenter_off_infinity(atom([[3.0]], [1.0], [False]))[0] == 3.0
    # unnormalized restriction: half the mass at infinity halves the value
    m = atom([[2.0], [0.0]], [0.5, 0.5], [False, True])
    assert barycenter_off_infinity(m)[0] == pytest.approx(1.0)


def test_barycenter_field_recovers_quotient():
    dom = Domain.unit_square(16)
    u = GridFunction.from_callable(
        dom, lambda x: (x[..., 0] ** 2 - x[..., 1])[..., None])
    fr = build_frame("standard", N=1, n=2)
    h = 2 * dom.spacing
    q = difference_quotient_1(u, fr, h)
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(h)], R_inf=1e9)
    bary = barycenter_field(field)
    assert np.allclose(bary.values, q.values, atol=1e-12)


def test_translate_examples():
    m = atom([[0.0, 0.0]], [1.0], [False])
    t = translate(m, [1.0, -2.0])
    assert np.allclose(t.points[0], [1.0, -2.0])
    m_inf = atom([[0.0]], [1.0], [True])
    t = translate(m_inf, [5.0])
    assert t.infinite[0]
    m2 = atom([[1.0], [0.0]], [0.5, 0.5], [False, True])
    t2 = translate(m2, [2.0])
    assert t2.points[0, 0] == 3.0 and t2.infinite[1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_translate_group_law(a, b):
    m = atom([[0.5, -1.0], [2.0, 0.0], [0.0, 0.0]],
             [0.25, 0.25, 0.5], [False, False, True])
    lhs = translate(translate(m, a), b)
    rhs = translate(m, np.add(a, b))
    assert np.allclose(lhs.points, rhs.points, atol=1e-12)
    assert np.array_equal(lhs.infinite, rhs.infinite)
    assert lhs.total_mass == pytest.approx(1.0)


def test_weight_conservation_through_operations():
    dom = Domain.unit_square(12)
    u = GridFunction.from_callable(dom, lambda x: np.sin(x))
    fr = build_frame("standard", N=2, n=2)
    h = dom.spacing
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(s * h) for s in (1, 2, 3)],
                          R_inf=1e6)
    mask = dom.mask()
    assert np.allclose(field.weights.sum(axis=-1)[mask], 1.0, atol=1e-12)
    shifted = translate_field(field, difference_quotient_1(u, fr, h))
    assert np.allclose(shifted.weights.sum(axis=-1)[mask], 1.0, atol=1e-12)


def test_pair_single_atom_recovers_coefficient():
    dom = Domain.unit_square(8)
    v = GridFunction(dom, np.zeros(dom.shape + (1,)))
    field = dirac_field(v, R_inf=10.0)
    phi = bump(np.zeros(1), radius=1.0)

    def weight(x, X):
        return (x[:, 0] + x[:, 1])[:, None]

    out = pair(field, [phi], weight)
    x = dom.node_coords()
    mask = dom.mask()
    assert np.allclose(out.values[mask, 0], (x[..., 0] + x[..., 1])[mask])


def test_pair_infinity_mass_with_compact_phi_vanishes():
    dom = Domain.unit_square(8)
    vals = np.full(dom.shape + (1,), 1e12)
    v = GridFunction(dom, np.where(dom.mask()[..., None], vals, 0.0))
    field = dirac_field(v, R_inf=1.0)
    phi = bump(np.zeros(1), radius=5.0)
    out = pair(field, [phi], lambda x, X: np.ones((x.shape[0], 1)))
    assert np.allclose(out.values[dom.mask()], 0.0)


def test_pair_strong_residual_reduction():
    # a unit-height window around the gradient value turns the pairing into
    # the pointwise residual of the strong equation
    dom = Domain.unit_square(16)
    u = GridFunction.from_callable(dom, lambda x: (x[..., 0] * 2.0)[..., None])
    fr = build_frame("standard", N=1, n=2)
    h = 2 * dom.spacing
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(h)], R_inf=1e9)
    phi = bump(np.array([2.0, 0.0]), radius=1.0)

    def weight(x, X):
        return (X[:, 0] - 2.0)[:, None] + 1.0  # residual of D_1 u = 2 plus one

    out = pair(field, [phi], weight)
    inner = dom.interior_mask(2 * h)
    assert np.allclose(out.values[inner, 0], 1.0, atol=1e-9)


def test_pair_rejects_unbounded_weight_with_noncompact_phi():
    dom = Domain.unit_square(4)
    field = dirac_field(GridFunction(dom, np.zeros(dom.shape + (1,))), 1.0)
    with pytest.raises(ValueError):
        pair(field, [constant_one()], lambda x, X: X)
    pair(field, [constant_one()], lambda x, X: np.ones((x.shape[0], 1)),
         weight_bounded=True)


def test_pair_infinity_convention():
    # mixed mass, non-compact test function of unit value at infinity: the
    # infinite atom contributes its weight without evaluating the weight map
    dom = Domain.unit_square(4)
    vals = np.full(dom.shape + (1,), 100.0)
    v = GridFunction(dom, np.where(dom.mask()[..., None], vals, 0.0))
    field = dirac_field(v, R_inf=10.0)  # all mask atoms at infinity

    def weight(x, X):
        raise AssertionError("weight map must not see the atom at infinity")

    def safe_weight(x, X):
        assert X.shape[0] == 0 or np.all(X == 0.0)
        return np.ones((x.shape[0], 1))

    out = pair(field, [constant_one()], safe_weight, weight_bounded=True)
    assert np.allclose(out.values[dom.mask()], 1.0)


def _pair_one_witness(field, phi, weight_fn):
    """Reference: the pairing of a single witness, one witness per call."""
    dom = field.domain
    x = dom.node_coords()
    k = field.n_atoms
    flat_pts = field.points.reshape(-1, field.space_dim)
    phi_vals = phi(flat_pts).reshape(dom.shape + (k,))
    phi_vals = np.where(field.infinite, 0.0, phi_vals)
    x_rep = np.repeat(x.reshape(-1, dom.dim), k, axis=0)
    w_vals = np.asarray(weight_fn(x_rep, flat_pts), float)
    M = w_vals.shape[-1]
    w_vals = w_vals.reshape(dom.shape + (k, M))
    w_vals = np.where(field.infinite[..., None], 0.0, w_vals)
    out = np.einsum("...k,...k,...km->...m", field.weights, phi_vals, w_vals)
    if phi.value_at_infinity != 0.0:
        out = out + phi.value_at_infinity * field.infinity_mass()[..., None]
    return GridFunction(dom, out)


def _sine_field(res=24, R_inf=3.0):
    """A first-order field with three atoms of weight 1/3 per cell (an inexact
    weight, so the order of the products shows), some of them at infinity."""
    dom = Domain.unit_square(res)
    u = GridFunction.from_callable(
        dom, lambda x: np.stack([np.sin(3 * x[..., 0]) * x[..., 1],
                                 np.cos(2 * x[..., 1])], axis=-1))
    fr = build_frame("standard", N=2, n=2)
    h = dom.spacing
    return diffuse_field(u, fr, 1, [HSchedule.first_order(s * h) for s in (1, 2, 4)],
                         R_inf=R_inf)


def test_family_pairing_matches_per_witness_pairing_bit_for_bit():
    field = _sine_field()
    assert field.infinite[field.domain.mask()].any()
    assert (~field.infinite[field.domain.mask()]).any()
    dom = field.domain
    phis = [bump(np.zeros(4), r) for r in (0.5, 1.0, 4.0)]
    phis += [bump(np.array([1.0, 0.0, 0.0, -1.0]), 2.0), constant_one()]
    rows = field.points.reshape(-1, 4)
    x_rep = np.repeat(dom.node_coords().reshape(-1, 2), field.n_atoms, axis=0)
    weight_rows = np.stack([rows[:, 0] * rows[:, 3] - 0.3, np.sin(rows[:, 1]),
                            x_rep[:, 0] + rows[:, 2]], axis=-1)

    def weight(x, X):
        return weight_rows

    out = pair(field, phis, weight, weight_bounded=True)
    assert out.components == len(phis) * 3
    blocks = out.values.reshape(dom.shape + (len(phis), 3))
    for j, phi in enumerate(phis):
        ref = _pair_one_witness(field, phi, weight)
        assert blocks[..., j, :].tobytes() == ref.values.tobytes()


def test_pairing_on_a_mask_matches_the_full_pairing_bit_for_bit():
    """``where`` restricts the weight rows to the masked cells, in row-major
    order with atoms innermost, and zeroes every other cell."""
    field = _sine_field()
    dom = field.domain
    where = dom.interior_mask(3 * dom.spacing)
    where[5:9, 10:12] = False
    assert field.infinite[where].any() and (~field.infinite[where]).any()
    phis = [bump(np.zeros(4), r) for r in (0.5, 1.0, 4.0)]
    phis += [bump(np.array([1.0, 0.0, 0.0, -1.0]), 2.0), constant_one()]
    seen = []

    def weight(x, X):
        seen.append((x, X))
        return np.stack([X[:, 0] * X[:, 3] - 0.3, np.sin(X[:, 1]), x[:, 0] + X[:, 2]],
                        axis=-1)

    full = pair(field, phis, weight, weight_bounded=True)
    masked = pair(field, phis, weight, weight_bounded=True, where=where)
    k = field.n_atoms
    assert np.array_equal(seen[1][0], np.repeat(dom.node_coords()[where], k, axis=0))
    assert np.array_equal(seen[1][1], field.points[where].reshape(-1, 4))
    assert masked.values[where].tobytes() == full.values[where].tobytes()
    assert (masked.values[~where] == 0.0).all()


def test_mixed_family_pairing_obeys_the_infinity_convention():
    # per cell: one finite atom at 0.5 of weight 1/4, and 3/4 of the mass at
    # infinity; the compact witness ignores the mass at infinity, the
    # constant one counts it at its value at infinity
    dom = Domain.unit_square(6)
    pts = np.zeros(dom.shape + (2, 1))
    pts[..., 0, 0] = 0.5
    weights = np.broadcast_to([0.25, 0.75], dom.shape + (2,))
    infinite = np.broadcast_to([False, True], dom.shape + (2,))
    field = YoungMeasureField(dom, (1,), pts, weights, infinite, R_inf=10.0)
    phis = [bump(np.zeros(1), 2.0), constant_one()]

    def weight(x, X):
        X = X.reshape(dom.shape + (2, 1))
        assert np.all(X[..., 1, :] == 0.0)  # atoms at infinity carry zeros
        return np.full((x.shape[0], 1), 2.0)

    with pytest.raises(ValueError, match="compactly supported"):
        pair(field, phis, weight)
    out = pair(field, phis, weight, weight_bounded=True)
    mask = dom.mask()
    assert np.allclose(out.values[mask, 0], 0.25 * (1 - 0.0625) ** 2 * 2.0)
    assert np.allclose(out.values[mask, 1], 0.25 * 2.0 + 0.75)


def test_check_rejects_a_witness_family_that_is_not_compactly_supported():
    dom = Domain.unit_square(32)
    u = GridFunction.from_callable(
        dom, lambda x: (np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]))[..., None]
        * [1.0, 0.0])
    h = dom.spacing
    windows = [schedule_window(4 * h / 2**lvl, 2, ratio=0.5, order=2) for lvl in range(2)]
    family = [bump(np.zeros(8), 1.0), constant_one()]
    with pytest.raises(ValueError, match="compactly supported"):
        check_dsolution(u, tensor_system(Tensor4.laplacian(2, 2)),
                        build_frame("standard", N=2, n=2), windows,
                        R_list=[10.0], Phi_family=family)


def test_pair_product_fibre_structure():
    dom = Domain.unit_square(8)
    u = GridFunction.from_callable(dom, lambda x: (3.0 * x[..., 0])[..., None])
    fr = build_frame("standard", N=1, n=2)
    h = dom.spacing
    fields = diffuse_jet_field(u, fr,
                               [[HSchedule.first_order(h)],
                                [HSchedule.second_order(h)]], R_inf=1e9)
    phis = [bump(np.array([3.0, 0.0]), 2.0), bump(np.zeros(4), 1.0)]

    def weight(x, joint):
        return np.ones((x.shape[0], 1))

    out = pair_product(fields, phis, weight)
    inner = dom.interior_mask(4 * h)
    # both factors sit at their bump centers, so the product is phi1*phi2 > 0
    assert (out.values[inner, 0] > 0.5).all()


def test_diffuse_jet_field_clips_each_order_at_R_inf():
    """The cut-off applies to each order's field on its own: the gradient
    (3, 0) of a linear map lies beyond R_inf = 2, its zero hessian inside."""
    dom = Domain.unit_square(8)
    u = GridFunction.from_callable(dom, lambda x: (3.0 * x[..., 0])[..., None])
    h = dom.spacing
    first, second = diffuse_jet_field(u, build_frame("standard", N=1, n=2),
                                      [[HSchedule.first_order(h)],
                                       [HSchedule.second_order(h)]], R_inf=2.0)
    inner = dom.interior_mask(4 * h)
    assert first.infinite[inner].all()
    assert not second.infinite[inner].any()


def test_is_concentrated_dirac_vs_itself():
    dom = Domain.unit_square(8)
    v = GridFunction.from_callable(dom, lambda x: x)
    field = dirac_field(v, R_inf=1e6)
    passes, summary = is_concentrated(field, v, radius=1e-8, mass_threshold=1.0)
    assert summary["fraction_passing"] == 1.0


def test_concentration_of_smooth_gradient():
    dom = Domain.unit_square(64)
    h = dom.spacing
    eta = np.array([0.8, 0.6])
    u = GridFunction.from_callable(
        dom, lambda x: (np.sin(x[..., 0]) * x[..., 1])[..., None] * eta)
    fr = build_frame("standard", N=2, n=2)
    field = diffuse_field(u, fr, 1,
                          [HSchedule.first_order(s) for s in (h, 2 * h)], R_inf=1e6)
    x = dom.node_coords()
    du = np.stack([np.cos(x[..., 0]) * x[..., 1], np.sin(x[..., 0])], axis=-1)
    ref = GridFunction(dom, np.einsum("a,...i->...ai", eta, du).reshape(dom.shape + (4,)))
    passes, _ = is_concentrated(field, ref, radius=4 * h, mass_threshold=0.99)
    inner = dom.interior_mask(3 * h)
    assert passes[inner].mean() >= 0.99


def test_fat_cantor_field_not_concentrated_on_witnesses():
    case = fat_cantor_indicator(depth=6, resolution=4096)
    u = case.grids["indicator"]
    dom = u.domain
    h = dom.spacing
    steps = [h, 2 * h, 3 * h, 4 * h]
    fr = build_frame("standard", N=1, n=1)
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(s) for s in steps],
                          R_inf=0.1 / h)
    witness = infinity_witness_cells(case, steps)
    assert witness.any()
    zero_ref = GridFunction(dom, np.zeros(dom.shape + (1,)))
    passes, _ = is_concentrated(field, zero_ref, radius=1.0, mass_threshold=0.5)
    assert not passes[witness].any()


def test_additivity_with_differentiable_shift():
    """Adding a smooth map translates the quotient atoms by its gradient."""
    dom = Domain.unit_square(48)
    h = dom.spacing
    u = GridFunction.from_callable(
        dom, lambda x: np.stack([np.sin(2 * x[..., 0]), x[..., 1] ** 2], axis=-1))
    v = GridFunction.from_callable(
        dom, lambda x: np.stack([x[..., 0] * x[..., 1], np.cos(x[..., 0])], axis=-1))
    fr = build_frame("standard", N=2, n=2)
    window = [HSchedule.first_order(s) for s in (2 * h, 4 * h)]
    uv = GridFunction(dom, u.values + v.values)
    f_sum = diffuse_field(uv, fr, 1, window, R_inf=1e9)
    f_u = diffuse_field(u, fr, 1, window, R_inf=1e9)
    shift = difference_quotient_1(v, fr, 2 * h)
    translated = translate_field(f_u, shift)
    inner = dom.interior_mask(5 * h)
    dist = np.linalg.norm(f_sum.points - translated.points, axis=-1)
    assert dist[inner].max() < 20 * h


def test_oscillation_atom_spread():
    # the oscillation limit spreads gradient mass over the unit interval;
    # its discrete witness pools fine-step atoms over 32-cell windows whose
    # phases sweep a full oscillation period
    case = oscillation_example(mu=200.0, resolution=1024)
    u = case.grids["map"]
    dom = u.domain
    h = dom.spacing
    fr = build_frame("standard", N=1, n=1)
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(h)], R_inf=1e9)
    pts = field.points[..., 0, 0]
    inner = dom.interior_mask(2 * h)
    assert np.abs(pts[inner]).max() <= 1.0 + 1e-9
    width = 32
    for start in range(8, dom.shape[0] - width - 8, width):
        block = pts[start:start + width]
        assert block.min() < -0.9 and block.max() > 0.9


def test_convergence_principle_for_pairings():
    """Vanishing pairings of atomwise-converging fields with uniformly
    converging coefficients persist in the limit."""
    dom = Domain.unit_square(12)
    fr = build_frame("standard", N=1, n=2)
    phi = bump(np.array([1.0, 0.0]), radius=3.0)
    target = GridFunction.from_callable(
        dom, lambda x: np.stack([np.ones_like(x[..., 0]), 0 * x[..., 0]], axis=-1))

    def coeff_m(m):
        def weight(x, X):
            # vanishes exactly on the field atoms at level m
            return (X[:, 0] - (1.0 + 1.0 / m))[:, None]
        return weight

    for m in (1, 2, 4, 8, 64):
        vals = np.stack([np.full(dom.shape, 1.0 + 1.0 / m),
                         np.zeros(dom.shape)], axis=-1)
        field_m = dirac_field(GridFunction(dom, vals), R_inf=1e6)
        out = pair(field_m, [phi], coeff_m(m))
        assert np.abs(out.values).max() < 1e-12
    limit_field = dirac_field(target, R_inf=1e6)

    def weight_inf(x, X):
        return (X[:, 0] - 1.0)[:, None]

    out = pair(limit_field, [phi], weight_inf)
    assert np.abs(out.values).max() < 1e-12


def test_chordal_distance_monotone_to_infinity():
    s = 10.0
    d1 = chordal_distance(np.array([1.0]), None, s)
    d2 = chordal_distance(np.array([100.0]), None, s)
    d3 = chordal_distance(np.array([10000.0]), None, s)
    assert d1 > d2 > d3
    assert chordal_distance(None, None, s) == 0.0
    assert chordal_distance(np.array([1.0]), np.array([1.0]), s) == 0.0


def test_measure_serialization_roundtrip(tmp_path):
    dom = Domain.unit_square(6)
    u = GridFunction.from_callable(dom, lambda x: np.sin(3 * x))
    fr = build_frame("standard", N=2, n=2)
    h = dom.spacing
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(s * h) for s in (1, 2)],
                          R_inf=2.0)
    path = tmp_path / "measure.bin"
    save_measure_field(path, field)
    back = load_measure_field(path)
    assert back.space_shape == field.space_shape
    assert np.array_equal(back.points, field.points)
    assert np.array_equal(back.weights, field.weights)
    assert np.array_equal(back.infinite, field.infinite)
    assert back.R_inf == field.R_inf


def test_truncated_measure_file_rejected(tmp_path):
    dom = Domain.unit_square(6)
    u = GridFunction.from_callable(dom, lambda x: np.sin(3 * x))
    fr = build_frame("standard", N=2, n=2)
    field = diffuse_field(u, fr, 1, [HSchedule.first_order(dom.spacing)], R_inf=2.0)
    path = tmp_path / "measure.bin"
    save_measure_field(path, field)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated measure file"):
        load_measure_field(path)


def _random_measure_field(seed, shape, k, space_shape, p_inf):
    rng = np.random.default_rng(seed)
    dom = Domain(shape=shape, spacing=0.25, origin=(-0.5, 1.0))
    infinite = rng.random(shape + (k,)) < p_inf
    points = rng.standard_normal(shape + (k, int(np.prod(space_shape))))
    points[infinite] = 0.0
    weights = rng.uniform(0.1, 1.0, shape + (k,))
    weights /= weights.sum(axis=-1, keepdims=True)
    return YoungMeasureField(dom, space_shape, points, weights, infinite,
                             R_inf=float(rng.uniform(1.0, 100.0)))


measure_fields = st.builds(
    _random_measure_field, st.integers(0, 2**31 - 1),
    st.tuples(st.integers(3, 6), st.integers(3, 6)), st.integers(1, 4),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    st.sampled_from([0.0, 0.3, 1.0]))


@settings(max_examples=25, deadline=None)
@given(measure_fields)
def test_measure_file_roundtrip_bit_exact(tmp_path_factory, field):
    path = tmp_path_factory.mktemp("measures") / "measure.bin"
    save_measure_field(path, field)
    back = load_measure_field(path)
    assert back.domain == field.domain
    assert back.space_shape == field.space_shape
    assert back.R_inf == field.R_inf
    assert back.points.tobytes() == field.points.tobytes()
    assert back.weights.tobytes() == field.weights.tobytes()
    assert back.infinite.tobytes() == field.infinite.tobytes()


@settings(max_examples=25, deadline=None)
@given(measure_fields, st.data())
def test_measure_file_cut_short_or_extended_is_rejected(tmp_path_factory, field, data):
    path = tmp_path_factory.mktemp("measures") / "measure.bin"
    save_measure_field(path, field)
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(0, len(raw) - 1), label="kept bytes")
        path.write_bytes(raw[:cut])
    else:
        extra = data.draw(st.binary(min_size=1, max_size=200), label="appended")
        path.write_bytes(raw + extra)
    with pytest.raises(ValueError):
        load_measure_field(path)


def _measure_file_records(tmp_path):
    """A small saved field and its raw header and float64 records."""
    field = _random_measure_field(3, (4, 5), 2, (2,), 0.3)
    path = tmp_path / "measure.bin"
    save_measure_field(path, field)
    raw = path.read_bytes()
    head = raw.index(b"\n") + 1
    rec = np.frombuffer(raw[head:], dtype="<f8").reshape(20, 1 + 2 * 4).copy()
    return path, raw[:head], rec


def test_measure_file_atom_count_must_match_the_header(tmp_path):
    path, header, rec = _measure_file_records(tmp_path)
    rec[7, 0] = 3.0
    path.write_bytes(header + rec.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="atom count"):
        load_measure_field(path)


def test_measure_file_infinity_flag_must_be_zero_or_one(tmp_path):
    path, header, rec = _measure_file_records(tmp_path)
    rec[11, 1] = 0.75  # flag of the first atom of cell 11
    path.write_bytes(header + rec.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="infinity flag"):
        load_measure_field(path)


def test_atomic_measure_weight_validation():
    with pytest.raises(ValueError):
        atom([[0.0]], [0.5], [False])
    with pytest.raises(ValueError):
        atom([[0.0], [1.0]], [0.7, -0.3], [False, False])


def test_compactly_supported_phi_vanishes_at_infinity():
    with pytest.raises(ValueError):
        TestFunction(finite_part=lambda x: np.ones(x.shape[:-1]),
                     value_at_infinity=1.0, support_radius=2.0)
