"""Symmetric fourth-order tensors built from factor pairs, their subspaces and regularization.

A factored tensor ``T[a,i,b,j] = sum_g B^g[a,b] * A^g[i,j]`` with
positive-semidefinite factors carries three derived subspaces:

* ``sigma``  in R^N   -- where admissible right-hand sides live,
* ``pi``     in R^{Nn}  -- the range of the tensor acting on matrices,
* ``xi``     in R_s^{Nn^2} -- the hessian directions the tensor can see,

together with a positive rank-one energy constant ``nu`` that quantifies
the (possibly degenerate) ellipticity of the induced operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TOL_LIN = 1e-10
TOL_PSD = 1e-10
TOL_RANK = 1e-9
TENSOR_FORMAT = "diffusepde-tensor4-v1"
DECOMPOSITION_FORMAT = "diffusepde-decomposition-v1"


def sym_outer(a, b):
    """Symmetrized outer product ``(a (x) b + b (x) a) / 2``."""
    return 0.5 * (np.outer(a, b) + np.outer(b, a))


def operator_norm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def eigh_deterministic(m):
    """Ascending eigendecomposition with a fixed sign convention per eigenvector."""
    w, v = np.linalg.eigh(m)
    for k in range(v.shape[1]):
        col = v[:, k]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            v[:, k] = -col
    return w, v


def _spectrum(m):
    """``eigh_deterministic(m)``, the largest eigenvalue magnitude, and the
    mask of the eigenvalues that count as positive relative to it."""
    w, v = eigh_deterministic(m)
    scale = np.max(np.abs(w)) if w.size else 0.0
    return w, v, scale, w > TOL_RANK * max(scale, 1e-300)


def range_basis(m):
    """Orthonormal basis (columns) of the range of a symmetric PSD matrix."""
    _, v, _, pos = _spectrum(m)
    return v[:, pos]


def smallest_positive_eigenvalue(m):
    """Smallest positive eigenvalue and an orthonormal basis of its eigenspace."""
    w, v, scale, pos = _spectrum(m)
    if not pos.any():
        return None, None
    lam = w[pos][0]
    close = np.abs(w - lam) <= TOL_RANK * max(scale, 1.0) + 1e-14 * max(lam, 1.0)
    # ties resolved by taking the full eigenspace
    return float(lam), v[:, pos & close]


@dataclass(frozen=True)
class Tensor4:
    """Symmetric linear map on R^{Nn}: ``entries[a,i,b,j] == entries[b,j,a,i]``."""

    N: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.N, self.n, self.N, self.n):
            raise ValueError("entries shape must be (N, n, N, n)")
        if not np.allclose(e, e.transpose(2, 3, 0, 1), atol=TOL_LIN):
            raise ValueError("tensor is not symmetric under (a,i) <-> (b,j)")
        object.__setattr__(self, "entries", e)

    def as_matrix(self):
        """The (Nn) x (Nn) matrix of the action on R^{Nn}."""
        d = self.N * self.n
        return self.entries.reshape(d, d)

    def apply(self, arg):
        """Act on a matrix Q in R^{Nn} (shape (N, n)) or a hessian-type tensor
        X in R_s^{Nn^2} (shape (N, n, n)); returns R^{Nn} resp. R^N."""
        arg = np.asarray(arg, dtype=float)
        if arg.shape == (self.N, self.n):
            return np.einsum("aibj,bj->ai", self.entries, arg)
        if arg.shape == (self.N, self.n, self.n):
            return np.einsum("aibj,bij->a", self.entries, arg)
        raise ValueError(f"argument shape {arg.shape} matches neither action")

    def rank_one_form(self, eta, a):
        """Quadratic form on the rank-one direction ``eta (x) a``."""
        q = np.outer(eta, a)
        return float(np.einsum("aibj,ai,bj->", self.entries, q, q))

    def to_json_dict(self):
        return {"format": TENSOR_FORMAT, "N": self.N, "n": self.n,
                "entries": self.entries.tolist()}

    @staticmethod
    def from_json_dict(doc):
        if doc.get("format") != TENSOR_FORMAT:
            raise ValueError("not a tensor document")
        return Tensor4(int(doc["N"]), int(doc["n"]), np.array(doc["entries"], dtype=float))

    @staticmethod
    def laplacian(N, n):
        """The identity-factor tensor, acting as the componentwise trace."""
        e = np.einsum("ab,ij->aibj", np.eye(N), np.eye(n))
        return Tensor4(N, n, e)


@dataclass(frozen=True)
class Decomposition:
    """Factor family ``{B^g, A^g}`` with B-ranges mutually orthogonal and the
    minimal positive eigenspaces of the A-factors sharing a common direction."""

    B_factors: tuple
    A_factors: tuple

    def __post_init__(self):
        B = tuple(np.asarray(b, dtype=float) for b in self.B_factors)
        A = tuple(np.asarray(a, dtype=float) for a in self.A_factors)
        if len(B) != len(A) or not B:
            raise ValueError("need equally many B and A factors")
        N, n = len(B), A[0].shape[0] if A[0].ndim else 0
        if any(b.shape != (N, N) for b in B):
            raise ValueError("expected N factor pairs with N x N B factors")
        if any(a.shape != (n, n) for a in A):
            raise ValueError("A factor shape mismatch")
        if not all(np.isfinite(m).all() for m in B + A):
            raise ValueError("factors must be finite")
        object.__setattr__(self, "B_factors", B)
        object.__setattr__(self, "A_factors", A)

    @property
    def N(self):
        return self.B_factors[0].shape[0]

    @property
    def n(self):
        return self.A_factors[0].shape[0]

    def to_json_dict(self):
        return {"format": DECOMPOSITION_FORMAT, "N": self.N, "n": self.n,
                "B_factors": [b.tolist() for b in self.B_factors],
                "A_factors": [a.tolist() for a in self.A_factors]}

    @staticmethod
    def from_json_dict(doc):
        if not isinstance(doc, dict) or doc.get("format") != DECOMPOSITION_FORMAT:
            raise ValueError("not a decomposition document")
        if not all(type(doc.get(key)) is list for key in ("B_factors", "A_factors")):
            raise ValueError("a decomposition document needs the lists B_factors and A_factors")
        if any(type(e) is bool for m in doc["B_factors"] + doc["A_factors"]
               for e in np.ravel(np.array(m, dtype=object))):
            raise ValueError("decomposition factor entries must be numbers, not booleans")
        try:
            return Decomposition(tuple(np.array(b, float) for b in doc["B_factors"]),
                                 tuple(np.array(a, float) for a in doc["A_factors"]))
        except TypeError as exc:  # a factor entry that is not a number, say an object
            raise ValueError(f"decomposition factor entries must be numbers: {exc}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return Decomposition.from_json_dict(json.load(fh))


def reconstruct(dec):
    """Assemble the fourth-order tensor from its factor pairs."""
    e = np.zeros((dec.N, dec.n, dec.N, dec.n))
    for b, a in zip(dec.B_factors, dec.A_factors):
        e += np.einsum("ab,ij->aibj", b, a)
    return Tensor4(dec.N, dec.n, e)


@dataclass
class ValidationReport:
    checks: dict
    common_vector: np.ndarray | None = None

    @property
    def passed(self):
        return all(ok for ok, _ in self.checks.values())

    def failures(self):
        return [name for name, (ok, _) in self.checks.items() if not ok]


def validate_decomposition(dec):
    """Check the factor conditions; reports per-condition pass/fail and, on
    success, a witness unit vector common to all minimal positive eigenspaces."""
    checks = {}
    psd_ok = True
    details = []
    for g, (b, a) in enumerate(zip(dec.B_factors, dec.A_factors)):
        for name, m in (("B", b), ("A", a)):
            if not np.allclose(m, m.T, atol=TOL_PSD):
                psd_ok = False
                details.append(f"{name}^{g} not symmetric")
                continue
            w = np.linalg.eigvalsh(m)
            if w.size and w[0] < -TOL_PSD * max(1.0, abs(w[-1])):
                psd_ok = False
                details.append(f"{name}^{g} has eigenvalue {w[0]:.3e}")
    checks["psd"] = (psd_ok, "; ".join(details))

    ortho_ok = True
    details = []
    for g in range(dec.N):
        for d in range(g + 1, dec.N):
            # ranges of symmetric PSD factors are orthogonal iff the product vanishes
            prod = dec.B_factors[g] @ dec.B_factors[d]
            scale = max(operator_norm(dec.B_factors[g]) * operator_norm(dec.B_factors[d]), 1e-300)
            if operator_norm(prod) > 1e3 * TOL_PSD * scale:
                ortho_ok = False
                details.append(f"ranges of B^{g} and B^{d} overlap")
    checks["range_orthogonality"] = (ortho_ok, "; ".join(details))

    spaces = []
    for a in dec.A_factors:
        if operator_norm(a) == 0.0:
            continue
        lam, basis = smallest_positive_eigenvalue(a)
        if lam is None:
            continue
        spaces.append(basis)
    if spaces:
        common = _subspace_intersection(spaces, dec.n)
        if common.shape[1] > 0:
            checks["common_eigenvector"] = (True, "")
            witness = common[:, 0]
        else:
            checks["common_eigenvector"] = (False, "minimal positive eigenspaces have trivial intersection")
            witness = None
    else:
        checks["common_eigenvector"] = (True, "all A factors vanish")
        witness = None
    return ValidationReport(checks=checks, common_vector=witness)


def _subspace_intersection(bases, dim):
    """Orthonormal basis (columns) of the intersection of a nonempty family of
    subspaces given by bases (columns)."""
    s, vt = np.linalg.svd(np.vstack([np.eye(dim) - b @ b.T for b in bases]))[1:]
    null_dim = int(np.sum(s <= max(s[0], 1.0) * 1e-10))
    return vt[dim - null_dim:].T


def normalize_decomposition(dec):
    """Rescale each nonzero factor pair so the smallest positive eigenvalue of
    its A factor equals one; the assembled tensor is unchanged."""
    Bs, As = [], []
    any_nonzero = False
    for b, a in zip(dec.B_factors, dec.A_factors):
        lam, _ = smallest_positive_eigenvalue(a)
        if lam is None:
            Bs.append(b.copy())
            As.append(a.copy())
            continue
        any_nonzero = True
        Bs.append(lam * b)
        As.append(a / lam)
    if not any_nonzero:
        raise ValueError("all A factors are zero")
    return Decomposition(tuple(Bs), tuple(As))


def canonicalize_decomposition(dec):
    """Normalized factors, globally rescaled so the summed B family has unit
    operator norm.  Preserves the assembled tensor; makes the regularization
    admissible for any input scale."""
    norm = normalize_decomposition(dec)
    total = sum(norm.B_factors)
    c = operator_norm(np.asarray(total))
    if c <= 0:
        raise ValueError("all B factors are zero")
    Bs = tuple(b / c for b in norm.B_factors)
    As = tuple(a * c for a in norm.A_factors)
    return Decomposition(Bs, As)


@dataclass(frozen=True)
class SpectralData:
    """Spectral square-root factorization ``Gamma Gamma^T = A + eps I``."""

    O: np.ndarray
    Lambda: np.ndarray
    i0: int | None
    Theta: np.ndarray
    Gamma: np.ndarray


def spectral_factor(a, eps=0.0):
    """Eigendecomposition with ascending eigenvalues plus the shifted square root."""
    a = np.asarray(a, dtype=float)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    w, v, top, pos = _spectrum(a)
    if w.size and w[0] < -TOL_PSD * max(top, 1.0):
        raise ValueError(f"matrix not positive semidefinite (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    i0 = int(np.argmax(pos)) if pos.any() else None
    theta = np.diag(np.sqrt(w + eps))
    return SpectralData(O=v, Lambda=w, i0=i0, Theta=theta, Gamma=v @ theta)


@dataclass(frozen=True)
class SubspaceProjector:
    """Orthogonal projection onto a subspace of a flattened tensor space."""

    ambient_shape: tuple
    basis: np.ndarray  # (k, D) orthonormal rows
    matrix: np.ndarray  # (D, D)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def ambient_dim(self):
        return int(np.prod(self.ambient_shape))

    @staticmethod
    def from_vectors(ambient_shape, vectors):
        """Build from spanning vectors (each shaped like the ambient tensor)."""
        D = int(np.prod(ambient_shape))
        if not vectors:
            return SubspaceProjector(tuple(ambient_shape), np.zeros((0, D)), np.zeros((D, D)))
        m = np.stack([np.asarray(v, float).reshape(D) for v in vectors])
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        keep = s > max(s[0], 1.0) * 1e-12
        basis = vt[keep]
        return SubspaceProjector(tuple(ambient_shape), basis, basis.T @ basis)

    def project(self, x):
        x = np.asarray(x, float)
        flat = x.reshape(x.shape[: x.ndim - len(self.ambient_shape)] + (self.ambient_dim,))
        out = flat @ self.matrix.T
        return out.reshape(x.shape)

    def complement_basis(self):
        """Orthonormal rows spanning the orthogonal complement."""
        w, v = np.linalg.eigh(np.eye(self.ambient_dim) - self.matrix)
        keep = w > 0.5
        return v[:, keep].T

    def contains(self, x):
        x = np.asarray(x, float)
        r = x - self.project(x)
        return float(np.linalg.norm(r)) <= 1e-9 * max(1.0, float(np.linalg.norm(x)))

    def distance(self, other):
        return operator_norm(self.matrix - other.matrix)


@dataclass(frozen=True)
class EllipticityData:
    sigma: SubspaceProjector   # admissible value directions in R^N
    pi: SubspaceProjector      # gradient directions in R^{Nn}
    xi: SubspaceProjector      # hessian directions in R_s^{Nn^2}
    nu: float


def subspace_H(a):
    """Hessian-direction subspace of a single PSD matrix, computed two ways.

    The eigenbasis block pattern and the span of symmetrized products of
    range vectors must agree; disagreement signals eigen-decomposition
    instability and raises.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    sd = spectral_factor(a, 0.0)
    ambient = (n, n)
    if sd.i0 is None:
        proj_block = SubspaceProjector.from_vectors(ambient, [])
    else:
        cols = []
        for i in range(sd.i0, n):
            for j in range(i, n):
                pattern = np.zeros((n, n))
                pattern[i, j] = 1.0
                pattern[j, i] = 1.0
                cols.append(sd.O @ pattern @ sd.O.T)
        proj_block = SubspaceProjector.from_vectors(ambient, cols)

    t = range_basis(a)
    pairs = []
    for i in range(t.shape[1]):
        for j in range(i, t.shape[1]):
            pairs.append(sym_outer(t[:, i], t[:, j]))
    proj_span = SubspaceProjector.from_vectors(ambient, pairs)

    dist = proj_block.distance(proj_span)
    if dist > TOL_LIN:
        raise ArithmeticError(f"hessian-subspace constructions disagree by {dist:.3e}")

    # complement must be invisible to the matrix acting on symmetric arguments
    for row in proj_span.complement_basis():
        x = row.reshape(n, n)
        if abs(np.tensordot(a, 0.5 * (x + x.T))) > 1e3 * TOL_LIN * max(operator_norm(a), 1.0):
            raise ArithmeticError("complement of hessian subspace not annihilated")
    return proj_span


def ranges_and_subspaces(dec):
    """Derived subspaces and ellipticity constant of a factored tensor.

    The gradient subspace from the per-factor construction is cross-checked
    against the numerically extracted range of the assembled tensor.
    """
    N, n = dec.N, dec.n
    sigma_g, t_g, nu = _factor_ranges(dec)

    pi_vecs, sigma_vecs, xi_vecs = [], [], []
    for sg, tg in zip(sigma_g, t_g):
        if sg.shape[1] == 0 or tg.shape[1] == 0:
            continue
        for r in range(sg.shape[1]):
            sigma_vecs.append(sg[:, r])
            for s in range(tg.shape[1]):
                pi_vecs.append(np.outer(sg[:, r], tg[:, s]))
            for s in range(tg.shape[1]):
                for s2 in range(s, tg.shape[1]):
                    xi_vecs.append(np.einsum("a,ij->aij", sg[:, r],
                                             sym_outer(tg[:, s], tg[:, s2])))
    sigma = SubspaceProjector.from_vectors((N,), sigma_vecs)
    pi = SubspaceProjector.from_vectors((N, n), pi_vecs)
    xi = SubspaceProjector.from_vectors((N, n, n), xi_vecs)

    u, s, _ = np.linalg.svd(reconstruct(dec).as_matrix())
    keep = s > TOL_RANK * max(s[0] if s.size else 0.0, 1e-300)
    pi_direct = SubspaceProjector((N, n), u[:, keep].T, u[:, keep] @ u[:, keep].T)
    if pi.distance(pi_direct) > 1e-8:
        raise ArithmeticError("gradient subspace disagrees with the tensor range")

    return EllipticityData(sigma=sigma, pi=pi, xi=xi, nu=nu)


def _factor_ranges(dec):
    """Range bases of each factor pair's ``B`` and ``A``, and the least
    candidate ``lambda_min(B^g) * lambda_min(A^g)`` over the pairs whose
    ranges are both nontrivial; one spectrum per factor matrix."""
    sigma_g, t_g, cands = [], [], []
    for b, a in zip(dec.B_factors, dec.A_factors):
        (wb, vb, _, pb), (wa, va, _, pa) = _spectrum(b), _spectrum(a)
        sigma_g.append(vb[:, pb])
        t_g.append(va[:, pa])
        if pb.any() and pa.any():
            cands.append(float(wb[pb][0]) * float(wa[pa][0]))
    if not cands:
        raise ValueError("tensor has trivial range; no rank-one directions")
    return sigma_g, t_g, min(cands)


def ellipticity_constant(dec):
    """Minimum of the rank-one quadratic form over unit directions inside the
    tensor range, with its upper bound: the least per-factor candidate
    ``lambda_min(B^g) * lambda_min(A^g)``.

    The candidates attain the minimum for factored tensors; a descent over
    each factor pair's ranges and over the mixed directions cross-checks
    that no smaller value exists.
    """
    sigma_g, t_g, bound = _factor_ranges(dec)
    tasks = [(sg, tg) for sg, tg in zip(sigma_g, t_g) if sg.shape[1] and tg.shape[1]]
    # mixed directions: domain vector shared by every active factor
    active_t = [tg for tg in t_g if tg.shape[1]]
    if len(active_t) > 1:
        inter = _subspace_intersection(active_t, dec.n)
        if inter.shape[1]:
            # an orthonormal basis of the value ranges' span, which they
            # are not themselves where two ranges overlap
            stacked = np.hstack([sg for sg in sigma_g if sg.shape[1]])
            tasks.append((range_basis(stacked @ stacked.T), inter))
    e = reconstruct(dec).entries
    best = min(_alternating_minimum(np.einsum("aibj,ar,is,bu,jv->rsuv", e, sg, tg, sg, tg))
               for sg, tg in tasks)
    if best < bound - max(1e-8, 1e-9 * bound):
        raise ArithmeticError(
            f"search found rank-one energy {best:.6e} below candidate {bound:.6e}")
    nu = min(bound, best) if best > 0 else bound
    if nu <= 0:
        raise ValueError("rank-one energy is not positive on the range")
    return float(nu), bound


def _alternating_minimum(r):
    """Least energy ``r[p,s,q,t] eta_p a_s eta_q a_t`` over unit ``eta`` and
    ``a`` reached from each domain basis vector by exact alternating steps:
    for a fixed ``a`` the least energy over ``eta`` is the lowest eigenvalue
    of ``r a a``, and for a fixed ``eta`` that over ``a`` is the lowest of
    ``r eta eta``.  Each step minimizes, so the energy never rises; the
    descent stops when it no longer falls."""
    best = np.inf
    for a in np.eye(r.shape[1]):
        lam = np.inf
        while True:
            eta = np.linalg.eigh(np.einsum("psqt,s,t->pq", r, a, a))[1][:, 0]
            w, v = np.linalg.eigh(np.einsum("psqt,p,q->st", r, eta, eta))
            if not w[0] < lam:
                break
            lam, a = w[0], v[:, 0]
        best = min(best, lam)
    return float(best)


def regularize(dec, eps):
    """Rank-one strictly positive regularization of a factored tensor.

    Adds a zeroth factor pair ``(eps (I - sum B), eps I)`` and shifts each A
    factor by ``eps I``.  Requires the summed B family to have operator norm
    at most one so the added factor stays positive semidefinite; rescale the
    factors first (:func:`canonicalize_decomposition`) otherwise.  An eps
    so large that an entry overflows is a ``ValueError``.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    total = sum(np.asarray(b) for b in dec.B_factors)
    if operator_norm(total) > 1.0 + 1e3 * TOL_LIN:
        raise ValueError(
            "summed B factors exceed unit operator norm; rescale the "
            "decomposition (see canonicalize_decomposition) before regularizing")
    N, n = dec.N, dec.n
    e = np.zeros((N, n, N, n))
    for b, a in zip(dec.B_factors, dec.A_factors):
        e += np.einsum("ab,ij->aibj", b, np.asarray(a) + eps * np.eye(n))
    b0 = eps * (np.eye(N) - total)
    e += np.einsum("ab,ij->aibj", b0, eps * np.eye(n))
    if not np.isfinite(e).all():
        raise ValueError(f"the regularization with eps={eps:g} overflows")
    return Tensor4(N, n, e)


def random_decomposition(rng, N, n, normalized=True):
    """Random valid factor family: orthogonal B-ranges carved from a random
    orthogonal matrix, A factors sharing one minimal-eigenvalue direction.

    ``normalized=True`` yields unit minimal positive eigenvalues and summed
    B norm at most one, which is the admissible input for regularization.
    """
    q_n = np.linalg.qr(rng.standard_normal((N, N)))[0]
    # split R^N into one chunk per factor (chunks may be empty only if N > 1)
    cuts = sorted(rng.choice(np.arange(1, N), size=N - 1, replace=True)) if N > 1 else []
    chunks = np.split(q_n, cuts, axis=1)

    abar = rng.standard_normal(n)
    abar /= np.linalg.norm(abar)
    comp = np.linalg.svd(np.eye(n) - np.outer(abar, abar))[0][:, : n - 1]

    Bs, As = [], []
    for g in range(N):
        u = chunks[g]
        if u.shape[1] == 0:
            Bs.append(np.zeros((N, N)))
            As.append(np.zeros((n, n)))
            continue
        w = rng.uniform(0.5, 2.0, size=u.shape[1])
        Bs.append((u * w) @ u.T)
        lam = 1.0 if normalized else rng.uniform(0.5, 2.0)
        a = lam * np.outer(abar, abar)
        extra = rng.integers(0, n)
        if extra and n > 1:
            idx = rng.permutation(n - 1)[:extra]
            for i in idx:
                v = comp[:, i]
                a = a + rng.uniform(lam * 1.5, lam * 4.0) * np.outer(v, v)
        As.append(a)
    dec = Decomposition(tuple(Bs), tuple(As))
    if normalized:
        # uniform global rescale keeps the minimal A eigenvalues equal across
        # factors while bringing the summed B family inside the unit ball
        total = sum(dec.B_factors)
        c = operator_norm(total)
        if c > 1.0:
            dec = Decomposition(tuple(b / c for b in dec.B_factors),
                                tuple(a * c for a in dec.A_factors))
    return dec
