import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusepde.tensors import (Decomposition, SubspaceProjector, Tensor4,
                                canonicalize_decomposition, ellipticity_constant,
                                normalize_decomposition, random_decomposition,
                                range_basis, ranges_and_subspaces, reconstruct,
                                regularize, spectral_factor, subspace_H,
                                validate_decomposition)


def test_reconstruct_scalar():
    dec = Decomposition((np.array([[1.0]]),), (np.array([[2.0]]),))
    t = reconstruct(dec)
    assert t.entries[0, 0, 0, 0] == 2.0


def test_reconstruct_diag_example(diag_dec):
    t = reconstruct(diag_dec)
    expected = np.zeros((2, 2, 2, 2))
    # expand the factor sum by hand: only the (a,1,a,1) entries survive
    expected[0, 0, 0, 0] = 1.0
    expected[1, 0, 1, 0] = 1.0
    assert np.array_equal(t.entries, expected)


def test_reconstruct_identity_factors():
    dec = Decomposition((np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))),
                        (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))))
    t = reconstruct(dec)
    target = np.einsum("ab,ij->aibj", np.eye(3), np.eye(2))
    assert np.array_equal(t.entries, target)


def test_tensor_symmetry_enforced():
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError):
        Tensor4(2, 2, bad)


def test_validate_diag_example(diag_dec):
    report = validate_decomposition(diag_dec)
    assert report.passed
    assert np.allclose(np.abs(report.common_vector), [1.0, 0.0])


def test_validate_overlapping_ranges():
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
                        (np.eye(2), np.eye(2)))
    report = validate_decomposition(dec)
    assert not report.passed
    assert "range_orthogonality" in report.failures()


def test_validate_disjoint_eigenspaces():
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    report = validate_decomposition(dec)
    assert not report.passed
    assert "common_eigenvector" in report.failures()


def test_normalize_rescales_minimal_eigenvalue():
    dec = Decomposition((np.diag([1.0, 0.0]), np.zeros((2, 2))),
                        (np.diag([2.0, 0.0]), np.zeros((2, 2))))
    norm = normalize_decomposition(dec)
    assert np.allclose(norm.A_factors[0], np.diag([1.0, 0.0]))
    assert np.allclose(norm.B_factors[0], np.diag([2.0, 0.0]))
    again = normalize_decomposition(norm)
    assert np.allclose(again.B_factors[0], norm.B_factors[0])


def test_normalize_preserves_tensor(rng):
    for _ in range(5):
        dec = random_decomposition(rng, 3, 2, normalized=False)
        a = reconstruct(dec).entries
        b = reconstruct(normalize_decomposition(dec)).entries
        assert np.allclose(a, b, atol=1e-10)


def test_normalize_all_zero_rejected():
    dec = Decomposition((np.eye(2), np.eye(2) * 0), (np.zeros((2, 2)), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        normalize_decomposition(dec)


def test_spectral_factor_diagonal():
    sd = spectral_factor(np.diag([0.0, 1.0]), eps=0.0)
    assert np.allclose(sd.Lambda, [0.0, 1.0])
    assert sd.i0 == 1
    assert np.allclose(sd.Theta, np.diag([0.0, 1.0]))
    assert np.allclose(sd.Gamma @ sd.Gamma.T, np.diag([0.0, 1.0]))


def test_spectral_factor_identity():
    for eps in (0.0, 0.3, 1.0):
        sd = spectral_factor(np.eye(3), eps)
        assert np.allclose(sd.Theta, np.sqrt(1 + eps) * np.eye(3))
        assert np.allclose(sd.Gamma @ sd.Gamma.T, (1 + eps) * np.eye(3))


def test_spectral_factor_reconstruction(rng):
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        a = m @ m.T
        sd = spectral_factor(a, eps=0.1)
        assert np.linalg.norm(sd.Gamma @ sd.Gamma.T - (a + 0.1 * np.eye(4))) < 1e-10


def test_spectral_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        spectral_factor(np.diag([-1.0, 1.0]))


def test_subspace_H_examples():
    h = subspace_H(np.diag([0.0, 1.0]))
    assert h.dim == 1
    e22 = np.zeros((2, 2))
    e22[1, 1] = 1.0
    assert np.allclose(h.project(e22), e22)
    assert subspace_H(np.eye(3)).dim == 6
    assert subspace_H(np.zeros((2, 2))).dim == 0


@pytest.mark.parametrize("a, dim", [
    (np.diag([0.0, 1.0]), 1), (np.eye(3), 6), (np.zeros((2, 2)), 0),
    (np.diag([1.0, 0.0]), 1), (np.diag([1e8, 5.0]), 3),
], ids=["diag01", "eye3", "zero", "diag10", "diag-spread"])
def test_subspace_H_is_scale_invariant(a, dim):
    """Scaling a PSD matrix by 1e-12 keeps its hessian subspace: an
    eigenvalue counts as positive relative to the largest one, as in
    ``range_basis``, not relative to 1."""
    small = subspace_H(1e-12 * a)
    assert subspace_H(a).dim == small.dim == dim
    assert small.distance(subspace_H(a)) <= 1e-12


def test_subspace_H_agreement_battery(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = rng.standard_normal((n, n))
        a = m @ m.T
        if rng.random() < 0.5:
            # degenerate case: kill part of the spectrum
            w, v = np.linalg.eigh(a)
            w[: n // 2] = 0.0
            a = (v * w) @ v.T
        subspace_H(a)  # raises if the constructions disagree


def test_theta_inequality(rng):
    """|Theta X Theta| >= nu(A) |H0 X| for random symmetric X and PSD A."""
    for eps in (0.0, 0.1, 1.0):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = rng.standard_normal((n, n))
            a = m @ m.T
            w, v = np.linalg.eigh(a)
            w[: max(0, n - 2)] = 0.0
            a = (v * w) @ v.T
            sd = spectral_factor(a, eps)
            if sd.i0 is None:
                continue
            nu = sd.Lambda[sd.i0]
            for _ in range(5):
                x = rng.standard_normal((n, n))
                x = 0.5 * (x + x.T)
                block = np.zeros_like(x)
                block[sd.i0:, sd.i0:] = x[sd.i0:, sd.i0:]
                lhs = np.linalg.norm(sd.Theta @ x @ sd.Theta)
                rhs = nu * np.linalg.norm(block)
                assert lhs >= rhs - 1e-10


def test_ranges_and_subspaces_diag(diag_dec):
    data = ranges_and_subspaces(diag_dec)
    assert data.sigma.dim == 2
    assert data.pi.dim == 2
    assert data.xi.dim == 2
    e1_o_e1 = np.outer([1.0, 0.0], [1.0, 0.0])
    e2_o_e1 = np.outer([0.0, 1.0], [1.0, 0.0])
    assert np.allclose(data.pi.project(e1_o_e1), e1_o_e1)
    assert np.allclose(data.pi.project(e2_o_e1), e2_o_e1)
    e1_o_e2 = np.outer([1.0, 0.0], [0.0, 1.0])
    assert not np.allclose(data.pi.project(e1_o_e2), e1_o_e2)
    x = np.zeros((2, 2, 2))
    x[0, 0, 0] = 1.0
    assert np.allclose(data.xi.project(x), x)


def test_ranges_full_for_identity_factors(laplacian_dec):
    data = ranges_and_subspaces(laplacian_dec)
    assert data.sigma.dim == 2
    assert data.pi.dim == 4
    assert data.xi.dim == 2 * 3  # symmetric 2x2 blocks per component


def test_zero_factor_contributes_nothing():
    dec = Decomposition((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                        (np.diag([1.0, 0.0]), np.zeros((2, 2))))
    data = ranges_and_subspaces(dec)
    assert data.pi.dim == 1
    assert data.sigma.dim == 1


def test_ellipticity_constants(diag_dec, laplacian_dec):
    nu, bound = ellipticity_constant(diag_dec)
    assert abs(nu - 1.0) < 1e-8
    assert abs(bound - 1.0) < 1e-8
    nu, bound = ellipticity_constant(laplacian_dec)
    assert abs(nu - 1.0) < 1e-8
    dec = Decomposition((np.diag([2.0, 0.0]), np.diag([0.0, 3.0])),
                        (np.eye(2), np.eye(2)))
    nu, bound = ellipticity_constant(dec)
    assert abs(nu - 2.0) < 1e-8
    assert abs(bound - 2.0) < 1e-8


def test_ellipticity_bound_battery(rng):
    for _ in range(50):
        dec = random_decomposition(rng, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), normalized=False)
        nu, bound = ellipticity_constant(dec)
        assert 0 < nu <= bound
        assert nu == pytest.approx(bound, rel=1e-12, abs=0.0)


def test_energy_below_the_bound_raises():
    """Overlapping B ranges (the only failed condition) put the least
    rank-one energy, ``1 - 1/sqrt(2)`` at ``a`` anywhere, below every
    factor's candidate 1."""
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dec = Decomposition((np.diag([1.0, 0.0]), np.outer(v, v)), (np.eye(2), np.eye(2)))
    assert validate_decomposition(dec).failures() == ["range_orthogonality"]
    with pytest.raises(ArithmeticError,
                       match=f"energy {1 - 1 / np.sqrt(2.0):.6e} below candidate 1.000000e"):
        ellipticity_constant(dec)


@pytest.mark.parametrize("seed", [2, 9, 10, 16, 21, 102])
def test_nu_never_exceeds_its_bound(seed):
    """The bound is the least per-factor candidate and ``nu`` the smaller of
    it and the search's minimum, so ``nu <= bound`` holds to the last bit."""
    nu, bound = ellipticity_constant(random_decomposition(np.random.default_rng(seed), 2, 2))
    assert nu <= bound


def test_random_decomposition_is_pinned():
    """Factors and the generator state after each draw, over seeds, shapes
    and both scalings: the benchmark's inputs come from this generator."""
    digest = hashlib.sha256()
    for seed in range(6):
        for N, n in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 3), (4, 3)):
            for normalized in (True, False):
                rng = np.random.default_rng(seed)
                dec = random_decomposition(rng, N, n, normalized=normalized)
                for m in dec.B_factors + dec.A_factors:
                    digest.update(m.tobytes())
                digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "0ce31af5494bcb4fb01e11e261ab32e4466f1ebfc4d3840142dee554b78463a2"


@pytest.mark.parametrize("N, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_nu_meets_its_bound_and_no_domain_grid_point_falls_below(N, n):
    """``nu`` meets the least factor candidate to 1e-12.  On n = 2, a grid of
    4096 directions ``a`` on the circle, each with its exact least energy
    over the value ranges of the factors whose A range is the whole plane,
    finds nothing lower."""
    for seed in range(8):
        dec = random_decomposition(np.random.default_rng(seed), N, n)
        nu, bound = ellipticity_constant(dec)
        assert nu == pytest.approx(bound, rel=1e-12, abs=0.0)
        full = [g for g, a in enumerate(dec.A_factors) if range_basis(a).shape[1] == n]
        if n != 2 or not full:
            continue
        s = np.hstack([range_basis(dec.B_factors[g]) for g in full])
        theta = np.linspace(0.0, np.pi, 4096, endpoint=False)
        a = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        m = sum(np.einsum("ki,ij,kj->k", a, dec.A_factors[g], a)[:, None, None]
                * (s.T @ dec.B_factors[g] @ s) for g in full)
        assert np.linalg.eigvalsh(m)[:, 0].min() >= nu * (1 - 1e-12)


def test_decomposable_tensor_nonnegative(rng):
    for _ in range(20):
        dec = random_decomposition(rng, 2, 3)
        t = reconstruct(dec)
        q = rng.standard_normal((2, 3))
        val = np.einsum("aibj,ai,bj->", t.entries, q, q)
        assert val >= -1e-10


def test_hessian_action_vanishes_off_xi(rng):
    for _ in range(10):
        dec = random_decomposition(rng, 2, 2)
        data = ranges_and_subspaces(dec)
        t = reconstruct(dec)
        for row in data.xi.complement_basis():
            x = row.reshape(2, 2, 2)
            x = 0.5 * (x + x.transpose(0, 2, 1))
            assert np.linalg.norm(np.einsum("aibj,bij->a", t.entries, x)) < 1e-9


def test_regularize_diag_example(diag_dec):
    t = regularize(diag_dec, 0.5)
    # zeroth factor vanishes (B sum is the identity); A factors shift by eps
    assert t.entries[0, 0, 0, 0] == pytest.approx(1.5)
    assert t.entries[0, 1, 0, 1] == pytest.approx(0.5)
    assert t.entries[1, 0, 1, 0] == pytest.approx(1.5)
    assert t.entries[0, 0, 1, 1] == 0.0


def test_regularize_identity_factors(laplacian_dec):
    eps = 0.25
    t = regularize(laplacian_dec, eps)
    target = np.einsum("ab,ij->aibj", np.eye(2), (1 + eps) * np.eye(2))
    assert np.allclose(t.entries, target)


def test_regularize_eps_zero_matches_reconstruct(diag_dec):
    assert np.allclose(regularize(diag_dec, 0.0).entries,
                       reconstruct(diag_dec).entries)


@pytest.mark.parametrize("eps", [1e160, 1e308])
def test_regularize_rejects_an_eps_that_overflows(eps):
    """Entries of order ``eps**2`` overflow; the regularization raises
    instead of returning infinite or NaN entries."""
    canon = canonicalize_decomposition(random_decomposition(np.random.default_rng(7), 2, 2))
    assert np.isfinite(regularize(canon, 1e150).entries).all()
    with pytest.raises(ValueError, match="overflows"):
        regularize(canon, eps)


def test_regularize_norm_precondition():
    dec = Decomposition((2 * np.eye(2), np.zeros((2, 2))),
                        (np.eye(2), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        regularize(dec, 0.1)
    canon = canonicalize_decomposition(dec)
    regularize(canon, 0.1)
    assert np.allclose(reconstruct(canon).entries, reconstruct(dec).entries)


def test_regularize_rank_one_positivity(rng):
    dec = random_decomposition(rng, 2, 2)
    for eps in (0.1, 0.5, 1.0):
        t = regularize(dec, eps)
        etas = rng.standard_normal((10_000, 2))
        avec = rng.standard_normal((10_000, 2))
        etas /= np.linalg.norm(etas, axis=1, keepdims=True)
        avec /= np.linalg.norm(avec, axis=1, keepdims=True)
        q = np.einsum("ka,ki->kai", etas, avec)
        vals = np.einsum("aibj,kai,kbj->k", t.entries, q, q)
        assert vals.min() >= eps**2 - 1e-10


def test_apply_equals_apply_projected(rng, diag_dec):
    data = ranges_and_subspaces(diag_dec)
    t = reconstruct(diag_dec)
    for _ in range(20):
        x = rng.standard_normal((2, 2, 2))
        x = 0.5 * (x + x.transpose(0, 2, 1))
        xp = data.xi.project(x)
        assert np.allclose(np.einsum("aibj,bij->a", t.entries, x),
                           np.einsum("aibj,bij->a", t.entries, xp), atol=1e-10)


def test_serialization_roundtrip(tmp_path, diag_dec):
    path = tmp_path / "dec.json"
    diag_dec.save(path)
    loaded = Decomposition.load(path)
    for a, b in zip(loaded.B_factors, diag_dec.B_factors):
        assert np.array_equal(a, b)
    t = reconstruct(diag_dec)
    doc = t.to_json_dict()
    again = Tensor4.from_json_dict(doc)
    assert np.array_equal(again.entries, t.entries)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_projector_idempotent_self_adjoint(vecs):
    proj = SubspaceProjector.from_vectors((3,), [np.array(v) for v in vecs])
    p = proj.matrix
    assert np.linalg.norm(p @ p - p) < 1e-9
    assert np.linalg.norm(p - p.T) < 1e-12
