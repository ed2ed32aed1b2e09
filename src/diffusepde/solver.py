"""Regularized solves of degenerate linear tensor systems and the nearness iteration.

The linear problem contracts a factored fourth-order tensor with the
hessian.  Degenerate tensors are regularized into strictly rank-one
positive ones, each regularized problem is solved with second-order central
differences and zero Dirichlet data, and the projected solution triple
(values, gradient, hessian restricted to the tensor's subspaces) is
extrapolated to the vanishing-regularization limit.  Fully nonlinear
systems close to the linear one are solved by a fixed-point iteration whose
contraction factor comes from the nearness constants.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs, dpbtrf, dpbtrs

from .grids import GridFunction
from .tensors import (Decomposition, canonicalize_decomposition,
                      ranges_and_subspaces, reconstruct, regularize)

SOLVER_TOL = 1e-10
# largest relative right-hand-side component outside the admissible value
# subspace that a solve accepts
TOL_COMPATIBLE = 1e-8
# a torus mode whose symbol eigenvalue is at most this fraction of the largest
# is singular, and :class:`TorusFactor` borders it; bordering treats the mode as
# null, so the fraction stays at rounding level and near-singular modes are inverted
_SINGULAR_MODE_TOL = 1e-13


class DataOverflow(OverflowError):
    """A quantity that a solve derives from its right-hand side overflows."""


@contextmanager
def _data_overflow():
    """Turns numpy's floating-point overflow or invalid operation into
    :class:`DataOverflow`: wraps a solve's arithmetic on its data once its
    operators are built, where finite data can only overflow by their size."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DataOverflow("a quantity derived from the right-hand side overflows "
                           f"({exc})") from exc


@dataclass
class FibreData:
    """Projected solution triple: values, gradient and hessian components
    restricted to the admissible subspaces of the tensor."""

    sigma_u: GridFunction
    pi_Du: GridFunction
    xi_D2u: GridFunction


def fibre_norms(fd):
    """Cell-volume-weighted discrete L2 norms of the three components."""
    return (fd.sigma_u.l2_norm(), fd.pi_Du.l2_norm(), fd.xi_D2u.l2_norm())


def _l2(rows, domain):
    """:meth:`GridFunction.l2_norm` of a field given by its active-cell rows."""
    return float(np.sqrt(domain.spacing ** domain.dim * np.sum(rows ** 2)))


def _on_grid(domain, mask, rows):
    """The grid function with active-cell rows ``rows``, zero elsewhere."""
    out = np.zeros(domain.shape + (rows.shape[-1],))
    out[mask] = rows
    return GridFunction(domain, out)


@lru_cache(maxsize=4)
def lattice_patterns(domain):
    """Central difference patterns of the lattice restricted to the active
    cells, so that a stencil entry reaching a masked-out node (whose value is
    the zero extension) is dropped.  Keyed by axes: ``(a,)`` is the
    ``(-1, 0, 1)`` pattern along axis ``a``, ``(i, i)`` the ``(1, -2, 1)``
    pattern along axis ``i``, and ``(i, j)`` for ``i < j`` the product of the
    ``(-1, 0, 1)`` patterns along both axes.  A row keeps its entries by
    descending column, so that a product adds them in the order of the shift
    formulas ``v[+1] - v[-1]``, ``v[+1] - 2 v + v[-1]`` and ``v[++] - v[+-] -
    v[-+] + v[--]``.  Built once per domain; callers must not modify the
    shared matrices."""
    keep = np.flatnonzero(domain.mask())

    def lattice(axes, values, offsets):
        """Kronecker product over the lattice axes of the 1-D pattern
        ``values`` at ``offsets`` along ``axes`` and the identity along the
        others, restricted to the active cells, rows by descending column."""
        out = sp.identity(1, format="csr")
        for k, m in enumerate(domain.shape):
            factor = sp.diags(values, offsets, (m, m)) if k in axes else sp.identity(m)
            out = sp.kron(out, factor, format="csr")
        out = out[keep][:, keep]
        out.sort_indices()
        row = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))
        flip = out.indptr[row] + out.indptr[row + 1] - 1 - np.arange(out.nnz)
        return sp.csr_matrix((out.data[flip], out.indices[flip], out.indptr), shape=out.shape)

    dims = range(domain.dim)
    patterns = {(a,): lattice((a,), [-1.0, 1.0], [-1, 1]) for a in dims}
    patterns.update({(i, j): lattice((i,), [1.0, -2.0, 1.0], [-1, 0, 1]) if i == j
                     else lattice((i, j), [-1.0, 1.0], [-1, 1])
                     for i in dims for j in dims if i <= j})
    return patterns


def _derivative_rows(domain, X, order):
    """Active-cell rows of the central gradient (``order`` 1, laid out
    ``(component, axis)``) or hessian (``order`` 2, ``(component, i, j)``) of
    the field whose active-cell rows are ``X``: each :func:`lattice_patterns`
    product divided by ``2h``, ``h^2`` (``i == j``) or ``4h^2``."""
    h = domain.spacing
    out = np.empty(X.shape + (domain.dim,) * order)
    for axes, D in lattice_patterns(domain).items():
        if len(axes) == order:
            scale = 2 * h if order == 1 else h**2 if axes[0] == axes[1] else 4 * h**2
            out[(..., *axes)] = out[(..., *axes[::-1])] = (D @ X) / scale
    return out.reshape(len(X), -1)


def _derivative(u, order):
    """The grid function whose active-cell rows are :func:`_derivative_rows`
    of ``order`` (1 or 2) of those of ``u``."""
    mask = u.domain.mask()
    return _on_grid(u.domain, mask, _derivative_rows(u.domain, u.values[mask], order))


def gradient_central(u):
    """Central-difference gradient of a grid function, ``d * dim`` components
    laid out row-major as ``(component, axis)``; the zero extension supplies
    the values at masked-out nodes."""
    return _derivative(u, 1)


def hessian_central(u):
    """Central-difference hessian of a grid function, ``d * dim * dim``
    components laid out row-major as ``(component, i, j)``."""
    return _derivative(u, 2)


@lru_cache(maxsize=4)
def _cell_offset(domain):
    """The farthest any second-order pattern of :func:`lattice_patterns`
    reaches ahead in the active cells' order (largest ``column - row``)."""
    reach = 0
    for axes, D in lattice_patterns(domain).items():
        if len(axes) == 2:
            rows = np.repeat(np.arange(D.shape[0]), np.diff(D.indptr))
            reach = max(reach, int((D.indices - rows).max(initial=0)))
    return reach


def _band_shape(domain, N):
    """``(u + 1, unknowns)``, the LAPACK upper band storage of a group of
    ``N`` components: upper bandwidth ``u = N * offset + N - 1``
    (:func:`_cell_offset`) over ``N`` unknowns per active cell."""
    return N * _cell_offset(domain) + N, lattice_patterns(domain)[0, 0].shape[0] * N


def _transposed(domain):
    """The 2-D lattice with its axes swapped: its mask is the transpose of
    ``domain``'s and its active cells, in row-major order, are ``domain``'s
    in column-major order."""
    return replace(domain, shape=domain.shape[::-1], origin=domain.origin[::-1])


@lru_cache(maxsize=4)
def _column_order(domain):
    """The index in ``domain``'s row-major cell order of each active cell of
    the 2-D lattice taken in column-major order (:func:`_transposed`).
    Built once per domain; callers must not modify it."""
    index = np.full(domain.shape, -1)
    mask = domain.mask()
    index[mask] = np.arange(np.count_nonzero(mask))
    return index.T[index.T >= 0]


@lru_cache(maxsize=4)
def _torus_rings(domain):
    """The active cells and the ghost ring (the inactive nodes within one
    step of an active one, diagonals included) on the torus of a 2-D
    lattice, whose shape ``(s1 - 1, s2 - 1)`` identifies the first and last
    node layers.  Built once per domain; callers must not modify them."""
    shape = tuple(m - 1 for m in domain.shape)
    active = domain.mask()[:shape[0], :shape[1]]
    near = np.zeros_like(active)
    for shift in np.ndindex(3, 3):
        near |= np.roll(active, np.subtract(shift, 1), axis=(0, 1))
    return active, near & ~active


def _band_lattice(domain):
    """The lattice in whose row-major cell order a group's band is stored:
    on a 2-D lattice whose second axis is the longer, the transposed one
    (:func:`_transposed`), so that the band reaches one row of the shorter
    axis ahead; otherwise ``domain`` itself."""
    if domain.dim == 2 and domain.shape[1] > domain.shape[0]:
        return _transposed(domain)
    return domain


def _takes_torus(domain, N):
    """Whether a group of ``N`` components on ``domain`` is factored on the
    torus (:class:`TorusFactor`) rather than by the band: on a 2-D lattice,
    when the torus factor's LU costs no more flops than the band Cholesky,
    both read from sizes known before either is allocated.  The bordered
    system has a side of at least ``m = N (|G| + 1)``, ``G`` the ghost ring
    of :func:`_torus_rings`, and its LU costs ``2 m^3 / 3``; the band of
    :func:`_band_lattice` with ``n`` unknowns and upper bandwidth ``u``
    (:func:`_band_shape`) costs about ``n u^2``.  On a square lattice the
    torus is taken from 8 steps for a box and 28 for a disc; on a thin
    strip, whose ghost ring runs the strip's length, the band is."""
    if domain.dim != 2:
        return False
    rows, unknowns = _band_shape(_band_lattice(domain), N)
    side = N * (int(_torus_rings(domain)[1].sum()) + 1)
    return 2 * side**3 <= 3 * unknowns * (rows - 1) ** 2


@lru_cache(maxsize=4)
def _upper_patterns(domain):
    """The entries on and above the diagonal of each second-order pattern of
    :func:`lattice_patterns`, keyed by axes, as ``(rows, columns, values)``
    with 64-bit indices.  Built once per domain."""
    upper = {}
    for axes, D in lattice_patterns(domain).items():
        if len(axes) == 2:
            U = sp.triu(D, format="coo")
            upper[axes] = (U.row.astype(np.int64), U.col.astype(np.int64), U.data)
    return upper


def _negated_band(domain, blocks):
    """The negated operator ``-sum D_axes (x) E_axes`` of the ``N x N``
    ``blocks`` in LAPACK upper band storage of :func:`_band_shape`, filled
    from the cached :func:`_upper_patterns`: ``band[u + i - j, j] = -A[i,
    j]`` for ``max(0, j - u) <= i <= j``, in Fortran order.  The entry of
    cells ``r <= c`` and components ``(a, b)`` sits at ``i = r N + a``, ``j
    = c N + b``; a cell's own block (``r == c``) gives only its entries with
    ``a <= b``."""
    N = next(iter(blocks.values())).shape[0]
    band = np.zeros(_band_shape(domain, N), order="F")
    u = band.shape[0] - 1
    flat = band.reshape(-1, order="F")  # a view: entry (k, j) is flat[k + j (u + 1)]
    for axes, E in blocks.items():
        rows, cols, vals = _upper_patterns(domain)[axes]
        base = u + N * (rows + cols * u)  # flat index of (i, j) for a = b = 0
        apart = cols > rows
        for a, b in zip(*np.nonzero(E)):
            keep = apart if a > b else slice(None)
            flat[base[keep] + (a + b * u)] -= E[a, b] * vals[keep]
    return band


def _kron_sum(patterns, blocks):
    """``sum D_axes (x) E_axes`` over the ``blocks`` (in their order), ``D``
    the lattice pattern of the same axes; CSC."""
    size = next(iter(patterns.values())).shape[0] * next(iter(blocks.values())).shape[0]
    return sum((sp.kron(patterns[axes], E) for axes, E in blocks.items()),
               sp.csc_matrix((size, size)))


def _component_split(blocks):
    """An orthonormal component basis ``Q`` (``None`` for the identity), the
    blocks rotated into it, and the groups of components they still couple.

    Blocks that are already diagonal keep the identity.  Otherwise ``Q`` is
    the eigenbasis of a fixed generic combination of the blocks, kept only
    when it diagonalizes every block to 1e-13 of the largest entry, as it
    does when the tensor's B factors commute; the dropped off-diagonal
    rounding is left to the solve's residual check."""
    def off_diagonal(E):
        return np.abs(E - np.diag(np.diag(E))).max()

    Q = None
    if any(off_diagonal(E) for E in blocks.values()):
        weights = np.random.default_rng(0).standard_normal(len(blocks))
        comb = sum(w * E for w, E in zip(weights, blocks.values()))
        V = np.linalg.eigh(comb + comb.T)[1]
        rotated = {axes: V.T @ E @ V for axes, E in blocks.items()}
        tol = 1e-13 * max(np.abs(E).max() for E in blocks.values())
        if all(off_diagonal(R) <= tol for R in rotated.values()):
            Q, blocks = V, {axes: np.diag(np.diag(R)) for axes, R in rotated.items()}
    return Q, blocks, _coupled_groups(sum(E != 0 for E in blocks.values()))


def _coupled_groups(adjacency):
    """The connected components of the undirected graph on the components
    whose edges are the nonzero entries of the nonnegative ``adjacency``,
    each listed once, from its least member: a row of the transitive closure
    (a path between components has fewer steps than there are components)."""
    n = len(adjacency)
    reach = np.linalg.matrix_power(adjacency + adjacency.T + np.eye(n) > 0, n)
    return [np.flatnonzero(row) for i, row in enumerate(reach) if row.argmax() == i]


class SineFactor:
    """Inverse of ``sum_i e_i D_ii`` on the open box of interior shape
    ``shape``, ``D_ii`` the ``(1, -2, 1)`` pattern along axis ``i`` and
    ``e_i`` scalars.  The orthonormal DST-I diagonalizes every pattern
    (eigenvalues ``-4 sin^2(pi k / (2 (m + 1)))``, ``k = 1..m``), so a solve
    is a transform over the lattice axes, a division by the mode eigenvalues
    and the transform back (fast diagonalization).  It holds no triangular
    factors: ``L.nnz`` and ``U.nnz`` read 0."""

    L = U = SimpleNamespace(nnz=0)

    def __init__(self, shape, coefficients):
        self.shape = tuple(shape)
        modes = np.zeros(self.shape)
        for axis, (m, e) in enumerate(zip(self.shape, coefficients)):
            k = np.arange(1, m + 1).reshape((-1,) + (1,) * (len(self.shape) - axis - 1))
            modes = modes - 4 * e * np.sin(np.pi * k / (2 * (m + 1))) ** 2
        if (modes == 0).any():
            raise ArithmeticError("discrete operator numerically singular: "
                                  "a mode eigenvalue is zero")
        self.eigenvalues = modes

    def solve(self, b):
        from scipy.fft import dstn
        axes = tuple(range(len(self.shape)))
        modes = dstn(b.reshape(self.shape + (-1,)), type=1, norm="ortho", axes=axes)
        modes /= self.eigenvalues[..., None]
        return dstn(modes, type=1, norm="ortho", axes=axes).reshape(b.shape)


class BandCholesky:
    """Inverse of a group operator ``A`` whose negation is symmetric positive
    definite, from the Cholesky factor ``-A = U^T U`` of its upper band
    (:func:`_negated_band`), which LAPACK's ``dpbtrf`` overwrites in place.
    A solve is ``dpbtrs`` on the negated right-hand side.  When the band
    orders the cells otherwise than the operator, ``cells`` gives the
    operator's index of each band cell (:func:`_column_order`), and a solve
    permutes the right-hand side's cell rows into the band's order and back.
    ``U.nnz`` counts the stored band entries; ``L = U^T`` is not stored, so
    ``L.nnz`` reads 0."""

    L = SimpleNamespace(nnz=0)

    def __init__(self, band, cells=None):
        self.band, info = dpbtrf(band, overwrite_ab=True)
        if info:
            raise ArithmeticError(
                "discrete operator numerically singular: the leading minor of order "
                f"{info} of the negated operator is not positive definite")
        self.U = SimpleNamespace(nnz=self.band.size)
        self.cells = cells

    def solve(self, b):
        cells = self.cells
        if cells is not None:
            b = b.reshape(len(cells), -1)[cells].reshape(b.shape)
        x, info = dpbtrs(self.band, np.negative(b, order="F"), overwrite_b=True)
        if info:
            raise ValueError(f"dpbtrs rejected its argument number {-info}")
        if cells is None:
            return x
        out = np.empty(x.shape)
        out.reshape(len(cells), -1)[cells] = x.reshape(len(cells), -1)
        return out


class TorusFactor:
    """Inverse of a group operator on a 2-D lattice by the capacitance-matrix
    method (Buzbee, Dorr, George & Golub 1971; Hockney 1970).

    Both mask kinds leave the first and last node layers inactive, so the
    lattice with those layers identified is a torus of shape ``(s1 - 1, s2 -
    1)``.  There the group's stencil ``P`` has constant coefficients: it is
    diagonal in Fourier modes, with the ``N x N`` symbol ``sum_i E_ii (2 cos
    t_i - 2) - 4 E_01 sin t_0 sin t_1``, and the operator is ``P`` restricted
    to the active cells.  A solution is the active part of a torus field
    ``x = P+ (b + E_G lam) + Phi mu`` that vanishes on the ghost ring ``G``
    (the inactive nodes within one step of an active one, diagonals
    included).  ``P+`` inverts the symbol on its regular modes; ``Phi`` is a
    real basis of the singular ones (the ``N`` constant modes always), and
    ``(lam, mu)`` solve the bordered capacitance system ``[C Phi_G; Phi_G^T
    0]`` that makes ``x`` vanish on ``G`` and the source lie in the range of
    ``P``.  ``C = (P+)_GG`` is gathered by index difference from the
    fundamental solutions ``P+ delta`` and LU-factored once.  A solve is two
    real FFT pairs and one dense LU solve.  ``U.nnz`` counts the stored
    entries of the bordered LU; ``L`` shares that storage, so ``L.nnz``
    reads 0.  Non-finite values are left to the caller's check."""

    L = SimpleNamespace(nnz=0)

    def __init__(self, domain, blocks):
        from scipy.fft import irfftn
        self.shape = tuple(m - 1 for m in domain.shape)
        self.active, self.ghost = _torus_rings(domain)
        self.N = N = blocks[0, 0].shape[0]
        n0, n1 = self.shape
        with np.errstate(all="ignore"):
            # mode angles on the half spectrum of a real transform; sin(pi) is 0
            t0 = 2 * np.pi * np.fft.fftfreq(n0)[:, None]
            t1 = 2 * np.pi * np.fft.rfftfreq(n1)[None, :]
            mixed = np.where(np.abs(t0) == np.pi, 0.0, np.sin(t0)) * np.where(
                t1 == np.pi, 0.0, np.sin(t1))
            symbol = (blocks[0, 0] * (2 * np.cos(t0) - 2)[..., None, None]
                      + blocks[1, 1] * (2 * np.cos(t1) - 2)[..., None, None]
                      - 4 * blocks[0, 1] * mixed[..., None, None])
            w, V = (symbol[..., 0], np.ones(symbol.shape)) if N == 1 else np.linalg.eigh(symbol)
            singular = np.abs(w) <= _SINGULAR_MODE_TOL * np.abs(w).max()
            inverse = np.divide(1.0, w, out=np.zeros_like(w), where=~singular)
            self.inverse = (V * inverse[..., None, :]) @ V.swapaxes(-1, -2)
            self._singular_basis(V, singular)

            g0, g1 = np.nonzero(self.ghost)
            n_ghost, n_border = len(g0) * N, len(self.k0) + len(self.sines)
            if n_border > n_ghost:
                raise ArithmeticError(
                    f"discrete operator numerically singular: {n_border} torus modes "
                    f"are singular, more than its {n_ghost} ghost unknowns can border")
            fundamental = irfftn(self.inverse, s=self.shape, axes=(0, 1))
            C = fundamental[np.subtract.outer(g0, g0) % n0, np.subtract.outer(g1, g1) % n1]
            phase = 2 * np.pi * (np.outer(g0, self.k0) / n0 + np.outer(g1, self.k1) / n1)
            trig = np.concatenate([np.cos(phase), np.sin(phase[:, self.sines])], axis=1)
            null = np.concatenate([self.null, self.null[self.sines]])
            border = np.einsum("gm,ma->gam", trig, null).reshape(n_ghost, n_border)
            self.scale = np.abs(C).max()
            system = np.zeros((n_ghost + n_border,) * 2, order="F")
            system[:n_ghost, :n_ghost] = C.transpose(0, 2, 1, 3).reshape(n_ghost, n_ghost)
            system[:n_ghost, n_ghost:] = self.scale * border
            system[n_ghost:, :n_ghost] = self.scale * border.T
            self.lu, self.piv, _ = dgetrf(system, overwrite_a=True)
            pivots = np.abs(np.diag(self.lu))
            if pivots.min() <= len(pivots) * np.finfo(float).eps * pivots.max():
                raise ArithmeticError("discrete operator numerically singular: the bordered "
                                      "capacitance system has a pivot at rounding level")
        self.U = SimpleNamespace(nnz=self.lu.size)

    def _singular_basis(self, V, singular):
        """The singular modes' real basis: for each mode ``k`` on the half
        spectrum, and each null vector ``v`` of its symbol, ``cos(k x) v``
        and, unless ``k = -k`` on the torus, ``sin(k x) v``.  A mode whose
        conjugate also lies on the half spectrum (second index 0 or ``n1 /
        2``) is taken once, from the lesser first index."""
        n0, n1 = self.shape
        k0, k1, j = np.nonzero(singular)
        partner = -k0 % n0
        paired = (k1 == 0) | (2 * k1 == n1)
        keep = ~paired | (k0 <= partner)
        self.k0, self.k1 = k0[keep], k1[keep]
        self.null = V[self.k0, self.k1, :, j[keep]]
        self.mirrored = paired[keep] & (k0 < partner)[keep]
        self.sines = np.flatnonzero(~paired[keep] | self.mirrored)

    def _times_symbol(self, spectrum):
        """``P+`` applied mode by mode to ``spectrum`` of shape ``(..., N, m)``."""
        return sum(self.inverse[..., :, b, None] * spectrum[..., None, b, :]
                   for b in range(self.N))

    def solve(self, b):
        from scipy.fft import irfftn, rfftn
        N, n_modes = self.N, len(self.k0)
        with np.errstate(all="ignore"):
            field = np.zeros(self.shape + (N, b.size // b.shape[0]))
            field[self.active] = b.reshape(-1, *field.shape[2:])
            spectrum = rfftn(field, axes=(0, 1))
            y = irfftn(self._times_symbol(spectrum), s=self.shape, axes=(0, 1))
            # the source's components along the singular basis
            c = np.einsum("sa,sam->sm", self.null, spectrum[self.k0, self.k1])
            rhs = np.concatenate([-y[self.ghost].reshape(-1, field.shape[-1]),
                                  -self.scale * c.real, self.scale * c.imag[self.sines]])
            sol = dgetrs(self.lu, self.piv, rhs)[0]
            n_ghost = len(rhs) - n_modes - len(self.sines)
            field[self.ghost] = sol[:n_ghost].reshape(-1, *field.shape[2:])
            spectrum = self._times_symbol(rfftn(field, axes=(0, 1)))
            # Phi mu on the singular modes: (n / 2) (mu_cos - i mu_sin) v at k and
            # its conjugate at -k, and n mu_cos v at a k with k = -k
            mu = self.scale * sol[n_ghost:]
            coef = mu[:n_modes].astype(complex)
            coef[self.sines] = 0.5 * (coef[self.sines] - 1j * mu[n_modes:])
            lift = (self.active.size * coef)[:, None, :] * self.null[:, :, None]
            np.add.at(spectrum, (self.k0, self.k1), lift)
            np.add.at(spectrum, (-self.k0[self.mirrored] % self.shape[0], self.k1[self.mirrored]),
                      lift[self.mirrored].conj())
            x = irfftn(spectrum, s=self.shape, axes=(0, 1))[self.active]
        return x.reshape(b.shape)


class SplitLU:
    """Factors of an operator that is block-diagonal over groups of
    components in the orthonormal basis ``Q`` (``None`` for the identity).

    ``factors`` pairs each distinct factor (a :class:`SineFactor`, a
    :class:`TorusFactor` or a :class:`BandCholesky`) with the component
    groups that share it.  A solve rotates the right-hand side's cell rows into the
    basis, solves the groups of each factor as one multi-column right-hand
    side and rotates back.  ``factors`` may be an iterator that builds each
    factor as the solve reaches it: a single solve then holds one factor at a
    time.  ``L.nnz`` and ``U.nnz`` are summed over the distinct factors."""

    def __init__(self, Q, factors, N):
        self.Q = Q
        self.factors = factors
        self.N = N

    def solve(self, b):
        rows = b.reshape(-1, self.N)
        if self.Q is not None:
            rows = rows @ self.Q
        out = np.empty_like(rows)
        for lu, groups in self.factors:
            cols = lu.solve(np.stack([rows[:, g].reshape(-1) for g in groups], axis=1))
            del lu  # freed before the next factor is built
            for g, col in zip(groups, cols.T):
                out[:, g] = col.reshape(-1, len(g))
        if self.Q is not None:
            out = out @ self.Q.T
        return out.reshape(-1)

    @property
    def L(self):
        return SimpleNamespace(nnz=sum(lu.L.nnz for lu, _ in self.factors))

    @property
    def U(self):
        return SimpleNamespace(nnz=sum(lu.U.nnz for lu, _ in self.factors))


class DiscreteOperator:
    """Sparse second-order central-difference discretization of the tensor
    contraction with the hessian, zero Dirichlet data on the mask.

    Unknowns are ordered by flat (row-major) index of the masked cell, with
    the ``N`` components innermost: unknown ``k * N + alpha`` is component
    ``alpha`` at the ``k``-th active cell.  The matrix is the Kronecker sum
    ``sum_{i <= j} D_ij (x) E_ij`` of the domain's :func:`lattice_patterns`
    and ``N x N`` blocks of the symmetrized tensor: ``E_ii = T[:, i, :, i] /
    h^2`` and, for ``i < j``, ``E_ij = 2 T[:, i, :, j] / (4 h^2)``.
    """

    def __init__(self, tensor, domain):
        if domain.dim != tensor.n:
            raise ValueError("tensor domain dimension does not match the grid")
        self.tensor = tensor
        self.domain = domain
        self.N = tensor.N
        self.mask = domain.mask()
        self.n_cells = int(self.mask.sum())
        h = domain.spacing
        # symmetric-in-(i,j) effective coefficients
        eff = 0.5 * (tensor.entries + tensor.entries.transpose(0, 3, 2, 1))
        dims = range(domain.dim)
        self._blocks = {(i, i): eff[:, i, :, i] / h**2 for i in dims}
        self._blocks.update({(i, j): 2 * eff[:, i, :, j] / (4 * h**2)
                             for i in dims for j in dims if i < j})
        self._lu = None

    @cached_property
    def matrix(self):
        """The assembled CSC matrix, built on first read."""
        return self._assemble()

    def _assemble(self):
        return _kron_sum(lattice_patterns(self.domain), self._blocks)

    def _apply(self, x):
        """The operator applied to the unknown vector ``x`` without assembling
        it: ``sum D_axes X E_axes^T`` over the nonzero blocks, ``X`` the cell
        rows of ``x``."""
        patterns = lattice_patterns(self.domain)
        X = x.reshape(-1, self.N)
        y = np.zeros_like(X)
        for axes, E in self._blocks.items():
            if E.any():
                y += (patterns[axes] @ X) @ E.T
        return y.reshape(-1)

    def _split(self):
        """:class:`SplitLU` over an iterator that builds one factor per
        distinct group of decoupled components (:func:`_component_split`) as
        it is reached; a tensor that does not split is one group, whose
        operator equals :attr:`matrix`.  On the open box (``mask_kind ==
        "rect"``) a factor whose groups are single components with zero mixed
        blocks is a :class:`SineFactor`.  Every other factor is a
        :class:`BandCholesky` on 1-D and 3-D lattices; on a 2-D lattice, box or
        disc, it is a :class:`TorusFactor` or a :class:`BandCholesky`,
        whichever costs less (:func:`_takes_torus`).  A strictly
        Legendre-Hadamard tensor (every one regularized with ``eps > 0``)
        makes each group's negated operator symmetric positive definite on
        any mask; any other tensor whose factor breaks down raises
        ``ArithmeticError``."""
        Q, blocks, groups = _component_split(self._blocks)
        shared = {}
        for g in groups:
            sub = {axes: E[np.ix_(g, g)] for axes, E in blocks.items()}
            key = tuple(E.tobytes() for E in sub.values())
            shared.setdefault(key, (sub, []))[1].append(g)
        return SplitLU(Q, ((self._factor(sub, len(members[0])), members)
                           for sub, members in shared.values()), self.N)

    def _factor(self, sub, size):
        """The factor of one group of ``size`` components with blocks ``sub``
        (see :meth:`_split`); :func:`_takes_torus` chooses between the torus
        and the band on a 2-D lattice, and the band takes the cell order of
        :func:`_band_lattice`."""
        domain = self.domain
        if domain.mask_kind == "rect" and size == 1 and not any(
                E.any() for (i, j), E in sub.items() if i != j):
            return SineFactor([m - 2 for m in domain.shape],
                              [sub[i, i].item() for i in range(domain.dim)])
        if _takes_torus(domain, size):
            return TorusFactor(domain, sub)
        lattice = _band_lattice(domain)
        if lattice is domain:
            return BandCholesky(_negated_band(domain, sub))
        blocks = {(0, 0): sub[1, 1], (1, 1): sub[0, 0], (0, 1): sub[0, 1]}
        return BandCholesky(_negated_band(lattice, blocks), _column_order(domain))

    def factorize(self):
        """The :class:`SplitLU` of :meth:`_split` with every factor built and
        kept, for an operator that is solved more than once."""
        if self._lu is None:
            split = self._split()
            split.factors = list(split.factors)
            self._lu = split
        return self._lu

    def condition_estimate(self):
        """1-norm condition number estimate from the operator's factors;
        raises ``ArithmeticError`` as :meth:`factorize` does when there are
        none."""
        import scipy.sparse.linalg as spla
        lu = self.factorize()
        # every factor inverts a symmetric operator: the transposed solve is the solve
        inverse = spla.LinearOperator(self.matrix.shape, matvec=lu.solve, rmatvec=lu.solve)
        return float(spla.onenormest(self.matrix) * spla.onenormest(inverse))

    def rhs_vector(self, f):
        vals = f.values[self.mask]
        return vals.reshape(-1)

    def solve(self, b):
        """Solution vector for the right-hand side vector ``b`` (see
        :meth:`rhs_vector`), with one step of iterative refinement when the
        residual exceeds ``SOLVER_TOL`` relative to ``b``.  A solution that is
        not finite raises :class:`DataOverflow` when that of ``b`` scaled to a
        largest entry of 1 is finite (the data are too large for the
        operator), and ``ArithmeticError`` otherwise.  Without factors kept
        by :meth:`factorize`, each group's factor is built, used and freed in
        turn; those two rare paths build and keep them all."""
        x = (self.factorize() if self._lu is not None else self._split()).solve(b)
        if not np.isfinite(x).all():
            scale = np.abs(b).max()
            if 0 < scale < np.inf and np.isfinite(self.factorize().solve(b / scale)).all():
                raise DataOverflow("the solution overflows: the right-hand side is "
                                   "too large for the operator")
            with np.errstate(over="ignore", invalid="ignore"):
                cond = self.condition_estimate()
            raise ArithmeticError("linear solve produced non-finite values "
                                  f"(condition estimate {cond:.2e})")
        resid = self._apply(x) - b
        bnorm = np.linalg.norm(b)
        if bnorm > 0 and np.linalg.norm(resid) > SOLVER_TOL * bnorm:
            # one step of iterative refinement before giving up
            x = x + self.factorize().solve(-resid)
            resid = self._apply(x) - b
            if np.linalg.norm(resid) > SOLVER_TOL * bnorm:
                raise ArithmeticError(
                    "discrete residual above the solver tolerance: "
                    f"{np.linalg.norm(resid) / bnorm:.3e}")
        return x


def assemble_and_solve_eps(a_eps, f, domain):
    """Solve the coupled second-order system for one regularized tensor."""
    if f.components != a_eps.N:
        raise ValueError("right-hand side component count mismatch")
    op = DiscreteOperator(a_eps, domain)
    x = op.solve(op.rhs_vector(f))
    return _on_grid(domain, op.mask, x.reshape(-1, op.N))


@dataclass
class LinearSolveReport:
    eps_sequence: list
    cauchy_differences: list
    final_residual: float
    compatibility_defect: float

    def to_json_dict(self):
        return {"eps_sequence": [float(e) for e in self.eps_sequence],
                "cauchy_differences": [float(c) for c in self.cauchy_differences],
                "final_residual": float(self.final_residual),
                "compatibility_defect": float(self.compatibility_defect)}


def _fibre_rows(X, domain, data):
    """Active-cell rows of the projected triple of the field whose
    active-cell rows are ``X``."""
    return tuple(v @ p.matrix.T for v, p in ((X, data.sigma),
                                            (_derivative_rows(domain, X, 1), data.pi),
                                            (_derivative_rows(domain, X, 2), data.xi)))


def _extrapolate(a, b, eps_sequence):
    """Rows ``a`` and ``b`` at the last two epsilons, extrapolated to zero."""
    e1, e2 = eps_sequence[-2], eps_sequence[-1]
    return b + (b - a) * (e2 / (e1 - e2))


def fibre_projections(u, data):
    """Project the solution, its central-difference gradient and hessian onto
    the tensor subspaces."""
    mask = u.domain.mask()
    rows = _fibre_rows(u.values[mask], u.domain, data)
    return FibreData(*(_on_grid(u.domain, mask, r) for r in rows))


def check_sigma_valued(values, data):
    """Relative size of the right-hand-side component outside the admissible
    value subspace; ``values`` are the right-hand side's value rows."""
    defect = values - data.sigma.project(values)
    denom = max(float(np.max(np.abs(values))), 1e-300)
    return float(np.max(np.abs(defect))) / denom


def _compatible(values, data):
    """:func:`check_sigma_valued`, raising ``ValueError`` above ``TOL_COMPATIBLE``."""
    defect = check_sigma_valued(values, data)
    if defect > TOL_COMPATIBLE:
        raise ValueError(
            "right-hand side has a component outside the admissible value "
            f"subspace (relative size {defect:.3e}); the degenerate system is "
            "incompatible with it")
    return defect


def _check_shape(dec, f):
    """Reject data ``f`` whose component count or lattice dimension is not
    the factored system's, or whose mask has no active cell."""
    if (f.components, f.domain.dim) != (dec.N, dec.n):
        raise ValueError(f"right-hand side has {f.components} components on a "
                         f"{f.domain.dim}-D grid; the system takes {dec.N} on {dec.n}-D grids")
    if not f.domain.mask().any():
        raise ValueError(f"the {f.domain.mask_kind} mask of the "
                         f"{' x '.join(map(str, f.domain.shape))} lattice has no active "
                         "cell: there is nothing to solve")


def _regularized(dec, eps_sequence):
    """The regularized tensors of a strictly decreasing epsilon sequence."""
    if len(eps_sequence) < 2 or any(e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("need a strictly decreasing epsilon sequence")
    canon = canonicalize_decomposition(dec)
    return [regularize(canon, eps) for eps in eps_sequence]


def _fibre_limit(solutions, eps_sequence, data, domain):
    """Projected triples of the regularized solutions (active-cell rows),
    extrapolated linearly in epsilon to zero, and the Cauchy differences
    between consecutive triples."""
    triples = [_fibre_rows(X, domain, data) for X in solutions]
    cauchy = [sum(_l2(ra - rb, domain) for ra, rb in zip(a, b))
              for a, b in zip(triples, triples[1:])]
    if len(cauchy) >= 2 and cauchy[-1] > 2.0 * cauchy[0] + 1e-12:
        raise ArithmeticError("epsilon refinement is not settling; "
                              f"differences {cauchy}")
    return tuple(_extrapolate(a, b, eps_sequence)
                 for a, b in zip(triples[-2], triples[-1])), cauchy


def solve_linear(dec, f, eps_sequence):
    """Vanishing-regularization solve of the factored linear system.

    Solves the strictly rank-one positive regularization for each epsilon,
    projects onto the tensor subspaces and extrapolates linearly in epsilon
    to zero.  The right-hand side must take values in the admissible value
    subspace; a mismatch is a structural incompatibility, not a numerical
    failure, and is rejected.  Data so large that a quantity derived from
    them overflows raise :class:`DataOverflow`.
    """
    domain = f.domain
    _check_shape(dec, f)
    eps_sequence = list(eps_sequence)
    data = ranges_and_subspaces(dec)
    ops = [DiscreteOperator(a_eps, domain) for a_eps in _regularized(dec, eps_sequence)]
    with _data_overflow():
        defect = _compatible(f.values, data)
        mask = domain.mask()
        rhs = f.values[mask].reshape(-1)
        # one group factor alive at a time: each operator is dropped once it has
        # solved, and its single solve frees each group's factor before the next
        solutions = [ops.pop(0).solve(rhs).reshape(-1, dec.N) for _ in eps_sequence]
        rows, cauchy = _fibre_limit(solutions, eps_sequence, data, domain)
        fd = FibreData(*(_on_grid(domain, mask, r) for r in rows))
        resid = _tensor_hessian_residual(reconstruct(dec), fd.xi_D2u, f)
    report = LinearSolveReport(eps_sequence=eps_sequence, cauchy_differences=cauchy,
                               final_residual=resid, compatibility_defect=defect)
    return fd, report


def _tensor_hessian_residual(tensor, xi_d2u, f):
    dom = f.domain
    N, n = tensor.N, tensor.n
    X = xi_d2u.values.reshape(dom.shape + (N, n, n))
    Av = np.einsum("aibj,...bij->...a", tensor.entries, X)
    resid = GridFunction(dom, Av - f.values)
    interior = dom.interior_mask(2 * dom.spacing)
    denom = max(f.l2_norm(where=interior), 1e-300)
    return resid.l2_norm(where=interior) / denom


def verify_hessian_estimate(dec, maps, eps_list, tol_est=0.05):
    """Check the degenerate hessian bound on boundary-vanishing maps; one
    report per (map, eps), maps outermost.

    Both sides use the same central-difference hessian, taken once per map;
    the factored tensor is canonicalized (uniform minimal factor eigenvalues,
    admissible B scale) once and regularized once per eps, which leaves the
    assembled tensor and its rank-one energy unchanged.  When the tensor is
    the identity contraction the classical convex-domain hessian-vs-trace
    comparison is reported as well; a non-finite side raises ``ValueError``.
    """
    data = ranges_and_subspaces(dec)
    canon = canonicalize_decomposition(dec)
    regularized = [regularize(canon, eps) for eps in eps_list]
    N, n = dec.N, dec.n
    lap = np.einsum("ab,ij->aibj", np.eye(N), np.eye(n))
    laplacian = np.allclose(reconstruct(dec).entries, lap, atol=1e-12)
    reports = []
    for u in maps:
        dom = u.domain
        hess = hessian_central(u)
        X = hess.values.reshape(dom.shape + (N, n, n))
        lhs = GridFunction(dom, data.xi.project(X).reshape(hess.values.shape)).l2_norm()
        norms = {}
        if laplacian:
            trace = GridFunction(dom, np.einsum("...bii->...b", X))
            norms = {"hessian_norm": float(hess.l2_norm()),
                     "trace_norm": float(trace.l2_norm())}
        for eps, a_eps in zip(eps_list, regularized):
            with np.errstate(over="ignore"):  # an overflow is rejected below
                Av = np.einsum("aibj,...bij->...a", a_eps.entries, X)
                rhs = GridFunction(dom, Av).l2_norm() / data.nu
            if not np.isfinite([lhs, rhs]).all():
                raise ValueError(f"the estimate with eps={eps:g} is not finite "
                                 f"(lhs {lhs:g}, rhs {rhs:g})")
            reports.append({"lhs": float(lhs), "rhs": float(rhs), "nu": float(data.nu),
                            "eps": float(eps), "passed": bool(lhs <= rhs * (1 + tol_est)),
                            "tol_est": float(tol_est), **norms})
    return reports


class NearnessViolation(ValueError):
    """Parameters of :func:`make_nonlinearity` that violate its nearness
    requirement."""


@dataclass
class EllipticityCertificate:
    """Nearness constants tying a nonlinear system to a factored linear one."""

    dec: Decomposition
    A_of_x: GridFunction
    B: float
    C: float

    def __post_init__(self):
        if self.B < 0 or self.C < 0 or self.B + self.C >= 1:
            raise ValueError("need nonnegative constants with B + C < 1")
        mask = self.A_of_x.domain.mask()
        vals = self.A_of_x.values[mask]
        if vals.min() <= 0 or not np.isfinite(vals).all():
            raise ValueError("scaling function must be positive and finite")

    @property
    def kappa(self):
        return self.B + self.C


def make_nonlinearity(dec, A_of_x, gamma, g=None, lipschitz_g=0.0):
    """Factory of certified nonlinear systems near a factored linear one.

    ``F(x, X) = A(x)^(-1) [(1 + gamma) T : X + P_sigma g(P_xi X)]`` with ``g``
    Lipschitz of constant ``lipschitz_g``.  Valid when
    ``nu * |gamma| + lipschitz_g < nu``; the certificate carries
    ``B = lipschitz_g / nu`` and ``C = |gamma|`` (derivation: subtract the
    tensor action from the scaled increment and bound the two remainders
    separately); parameters that break it raise :class:`NearnessViolation`.
    The returned evaluator is constant along the complement of the hessian
    subspace by construction.
    """
    data = ranges_and_subspaces(dec)
    nu = data.nu
    if nu * abs(gamma) + lipschitz_g >= nu:
        raise NearnessViolation("parameters violate the nearness requirement "
                                f"nu*|gamma| + Lip(g) < nu (nu={nu:.3e})")
    N, n = dec.N, dec.n
    # T : X as a product of rows: contract[(b, i, j), a] = T[a, i, b, j]
    contract = reconstruct(dec).entries.transpose(2, 1, 3, 0).reshape(N * n * n, N)

    from .checker import CoefficientSystem

    def evaluate(x, uval, X):
        """``uval`` holds the rows' scaling values ``A(x)``."""
        # masked-out nodes carry zeroed scaling values; results there are unused
        a = np.where(uval[:, 0] > 0, uval[:, 0], 1.0)
        Xp = data.xi.project(X.reshape((-1, N, n, n))).reshape(X.shape[0], -1)
        out = (1.0 + gamma) * (Xp @ contract)
        if g is not None:
            gv = np.asarray(g(Xp), float)
            out = out + data.sigma.project(gv)
        return out / a[:, None]

    system = CoefficientSystem(order=2, n=n, N=N, M=N, evaluate=evaluate,
                               u_source=lambda u, frame, fine_step: A_of_x,
                               name="certified-nonlinearity")
    cert = EllipticityCertificate(dec=dec, A_of_x=A_of_x,
                                  B=lipschitz_g / nu, C=abs(gamma))
    return system, cert


@dataclass
class IterationLog:
    """History of :func:`campanato_solve`'s Anderson iteration: each step's
    increment ``|G(b_k) - b_k|`` and residual, and from the second on the
    Lipschitz quotient ``|G(b_k) - G(b_{k-1})| / |b_k - b_{k-1}|`` of ``G``,
    which after a Picard step is the ratio of the last two increments."""

    increments: list
    ratios: list
    residuals: list
    stop: float = 0.0   # the iteration stops at an increment this small

    def max_ratio(self):
        """Largest quotient whose earlier increment exceeds ``1e3 * stop``,
        or ``None``: the quotients of increments near the stop are rounding."""
        return max((r for r, inc in zip(self.ratios, self.increments)
                    if inc > 1e3 * self.stop), default=None)

    def to_rows(self):
        rows = []
        for k, inc in enumerate(self.increments):
            rows.append({"iteration": k + 1, "increment": inc,
                         "ratio": self.ratios[k] if k < len(self.ratios) else "",
                         "residual": self.residuals[k]})
        return rows


# the Anderson depth, and the worst-conditioned Gram matrix solved, not restarted
_ANDERSON_DEPTH, _ANDERSON_COND = 2, 1e10


def campanato_solve(F, cert, f, eps_sequence, max_iter=40, tol=1e-10, tol_final=1e-6):
    """Fixed-point solve of a certified nonlinear system.

    Finds the fixed point of ``G(b) = b - A(x) (F(x, G2(u_b)) - f)``, where
    ``u_b`` solves the factored linear problem with data ``b``; the nearness
    constants make ``G`` a contraction with factor ``kappa = B + C``.  Each
    step evaluates ``G`` once and takes the Anderson step of depth 2 (Walker
    & Ni 2011); the first step, and each after a rising increment or an
    ill-conditioned fit, is the Picard step ``b <- G(b)``.  Stops when the
    increment is small relative to the data.  A Lipschitz quotient of ``G``
    (see :class:`IterationLog`) of at least 1 above the floor of
    :meth:`IterationLog.max_ratio` contradicts ``kappa < 1`` and aborts.

    An iteration solves only the two finest epsilons and takes the projected
    hessian rows of their extrapolated solution alone; the returned triple
    and :func:`_fibre_limit`'s settling guard read every epsilon's solution
    to the last iterate.  Data so large that a quantity derived from them
    overflows raise :class:`DataOverflow`.
    """
    dec = cert.dec
    _check_shape(dec, f)
    data = ranges_and_subspaces(dec)
    dom = f.domain
    eps_sequence = list(eps_sequence)
    ops = [DiscreteOperator(a_eps, dom) for a_eps in _regularized(dec, eps_sequence)]
    with _data_overflow():
        _compatible(f.values, data)
        # A(x), the node coordinates and f on the active cells, read once
        mask = dom.mask()
        a_rows = cert.A_of_x.values[mask]
        x_rows = dom.node_coords()[mask]
        f_rows = f.values[mask]
        f_norm = max(_l2(f_rows, dom), 1e-300)

        b = a_rows * f_rows
        log = IterationLog(increments=[], ratios=[], residuals=[], stop=tol * f_norm)
        # overwritten in place: the history's differences of the update
        # r = b - G(b) and of G, then r_k, r_{k-1} and the step d = b_{k-1} - b_k
        dR, dG = np.empty((2, _ANDERSON_DEPTH, b.size))
        update, last, step = np.empty((3,) + b.shape)
        kept = 0   # differences taken since the history was last restarted
        for op in ops[-2:]:  # solved once per iteration: their factors are kept
            op.factorize()
        for k in range(max_iter):
            if k:
                b -= step
            _compatible(b, data)
            fine = [op.solve(b.reshape(-1)).reshape(-1, dec.N) for op in ops[-2:]]
            xi = _derivative_rows(dom, _extrapolate(*fine, eps_sequence), 2) @ data.xi.matrix.T
            resid_rows = F.evaluate(x_rows, a_rows, xi) - f_rows
            resid = _l2(resid_rows, dom) / f_norm
            np.multiply(a_rows, resid_rows, out=update)
            inc = _l2(update, dom)
            log.increments.append(inc)
            log.residuals.append(resid)
            if k:
                new = kept % _ANDERSON_DEPTH
                np.subtract(update, last, out=dR[new].reshape(b.shape))
                # G(b_k) - G(b_{k-1}) = (r_{k-1} - d) - r_k, which is -r_k to
                # the bit after a Picard step (d = r_{k-1})
                np.subtract(last, step, out=dG[new].reshape(b.shape))
                dG[new] -= update.reshape(-1)
                ratio = _l2(dG[new], dom) / _l2(step, dom)
                log.ratios.append(ratio)
                if ratio >= 1.0 and log.increments[-2] > 1e3 * log.stop:
                    raise ArithmeticError(
                        f"iteration is not contracting (Lipschitz quotient {ratio:.3g} "
                        ">= 1); the nearness certificate looks violated")
                kept = kept + 1 if inc <= log.increments[-2] else 0
            if inc <= log.stop:
                break
            m = min(kept, _ANDERSON_DEPTH)
            gram = dR[:m] @ dR[:m].T
            if m and np.linalg.cond(gram) > _ANDERSON_COND:
                m = kept = 0
            gamma = np.linalg.solve(gram[:m, :m], dR[:m] @ update.reshape(-1))
            np.dot(gamma, dG[:m], out=step.reshape(-1))
            step += update
            last, update = update, last
        # the last iteration solved the two finest on ``b``; free their
        # factors, and the history before the coarser solves
        del ops[-2:], dR, dG, update, last, step
        solutions = [op.solve(b.reshape(-1)).reshape(-1, dec.N) for op in ops] + fine
        rows, _ = _fibre_limit(solutions, eps_sequence, data, dom)
    if inc > log.stop and log.residuals[-1] > tol_final:
        raise ArithmeticError(f"no convergence within {max_iter} iterations "
                              f"(last residual {log.residuals[-1]:.3e})")
    final_resid = log.residuals[-1]
    if final_resid > tol_final:
        raise ArithmeticError(
            f"converged iteration but final residual {final_resid:.3e} "
            f"exceeds {tol_final:.1e}")
    return FibreData(*(_on_grid(dom, mask, r) for r in rows)), log


def poincare_check(u, directions):
    """Directional Poincare comparison for boundary-vanishing grid functions.

    For each pair ``(eta, a)`` checks that the norm of the projected values is
    bounded by the domain diameter times the norm of the discrete directional
    derivative, with an O(h) discretization allowance.
    """
    dom = u.domain
    diam = dom.diameter()
    h = dom.spacing
    grad = gradient_central(u)
    g = grad.values.reshape(dom.shape + (u.components, dom.dim))
    results = []
    for eta, a in directions:
        eta = np.asarray(eta, float)
        a = np.asarray(a, float)
        eta = eta / np.linalg.norm(eta)
        a = a / np.linalg.norm(a)
        proj = GridFunction(dom, u.values @ eta)
        dproj = GridFunction(dom, np.einsum("...cd,c,d->...", g, eta, a)[..., None])
        lhs = proj.l2_norm()
        rhs = diam * dproj.l2_norm()
        tol_disc = h * max(dproj.l2_norm(), 1.0)
        results.append({"eta": eta.tolist(), "a": a.tolist(),
                        "lhs": float(lhs), "rhs": float(rhs),
                        "tol_disc": float(tol_disc),
                        "passed": bool(lhs <= rhs + tol_disc)})
    return {"results": results,
            "passed": all(r["passed"] for r in results),
            "diameter": float(diam)}


def boundary_ring_norm(gf):
    """Cell-weighted L2 norm over the ring of active cells that touch the
    masked-out region."""
    return gf.l2_norm(where=gf.domain.boundary_ring())
