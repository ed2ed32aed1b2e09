"""Atomic measure fields on one-point-compactified tensor spaces.

Per lattice cell we keep a finite list of weighted atoms; any atom whose
payload exceeds the configured cutoff radius is merged into a single atom
at the added point at infinity.  These empirical fields are the
finite-resolution surrogate of measure-valued derivative limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import HSchedule, difference_quotient_1, jet_difference_quotients
from .grids import GridFunction, read_header

WEIGHT_TOL = 1e-12


@dataclass
class AtomicMeasure:
    """Finitely many weighted atoms summing to unit mass."""

    points: np.ndarray      # (k, D) payloads; rows flagged infinite are zeroed
    weights: np.ndarray     # (k,)
    infinite: np.ndarray    # (k,) bool

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, float))
        self.weights = np.asarray(self.weights, float)
        self.infinite = np.asarray(self.infinite, bool)
        if (self.weights <= 0).any():
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to one")

    @property
    def total_mass(self):
        return float(self.weights.sum())

    @property
    def infinity_mass(self):
        return float(self.weights[self.infinite].sum())

    def finite_atoms(self):
        keep = ~self.infinite
        return self.points[keep], self.weights[keep]


def reduced_support(measure):
    """Finite atoms only, weights unrescaled: ``[(point, weight), ...]``."""
    pts, w = measure.finite_atoms()
    return [(pts[k].copy(), float(w[k])) for k in range(len(w))]


def barycenter_off_infinity(measure):
    """Weighted sum of the finite atoms (unnormalized restriction barycenter).

    When all mass is finite this recovers the plain mean; infinite mass is
    simply dropped, so the result scales with the finite fraction.
    """
    pts, w = measure.finite_atoms()
    if len(w) == 0:
        return np.zeros(measure.points.shape[1])
    return np.einsum("k,kd->d", w, pts)


def translate(measure, a):
    """Shift finite atoms by ``a``; the atom at infinity is left intact.

    Shifted atoms stay finite however far they move; :func:`translate_field`
    is the translation that re-clips atoms leaving the cutoff ball to infinity.
    """
    a = np.asarray(a, float)
    pts = measure.points.copy()
    inf = measure.infinite.copy()
    pts[~inf] += a
    return AtomicMeasure(points=pts, weights=measure.weights.copy(), infinite=inf)


def chordal_distance(x, y, scale):
    """Metric of the spherical compactification via stereographic embedding.

    ``y=None`` denotes the point at infinity; distances to it shrink as the
    finite argument grows.
    """
    if x is None and y is None:
        return 0.0
    if x is None:
        x, y = y, None
    x = np.asarray(x, float)
    gx = np.sqrt(1.0 + (x @ x) / scale**2)
    if y is None:
        return float(scale / gx)
    y = np.asarray(y, float)
    gy = np.sqrt(1.0 + (y @ y) / scale**2)
    return float(np.linalg.norm(x - y) / (gx * gy))


@dataclass(frozen=True)
class TestFunction:
    """Continuous test function on the compactified space.

    ``finite_part`` must be vectorized over ``(..., D)`` payload arrays.  A
    compactly supported function (finite ``support_radius``) vanishes at
    infinity by construction.  A radial function also gives ``profile``, its
    value as a function of the squared distance to ``center``.
    """

    __test__ = False  # not a pytest collection target

    finite_part: callable
    value_at_infinity: float = 0.0
    support_radius: float | None = None
    center: np.ndarray | None = None
    profile: callable | None = None

    def __post_init__(self):
        if self.support_radius is not None and self.value_at_infinity != 0.0:
            raise ValueError("compactly supported test functions vanish at infinity")

    @property
    def compactly_supported(self):
        return self.support_radius is not None

    def __call__(self, x):
        return np.asarray(self.finite_part(np.asarray(x, float)), float)


def bump(center, radius):
    """Quartic bump of unit height supported on a ball: ``(1 - |x-c|^2/r^2)^2``."""
    center = np.asarray(center, float)

    def profile(d2):
        return np.clip(1.0 - d2 / radius**2, 0.0, None) ** 2

    return TestFunction(finite_part=lambda x: profile(np.sum((x - center) ** 2, axis=-1)),
                        support_radius=radius, center=center, profile=profile)


def constant_one():
    """The constant test function (not compactly supported, 1 at infinity)."""
    return TestFunction(finite_part=lambda x: np.ones(x.shape[:-1]),
                        value_at_infinity=1.0, support_radius=None)


class YoungMeasureField:
    """Per-cell atomic measures over a tensor space, on a common grid.

    Storage is dense: payload array ``(*grid, k, D)``, weights ``(*grid, k)``
    and an infinity flag ``(*grid, k)``.  Only masked-in cells are meaningful.
    """

    def __init__(self, domain, space_shape, points, weights, infinite, R_inf):
        self.domain = domain
        self.space_shape = tuple(space_shape)
        D = int(np.prod(space_shape))
        self.points = np.asarray(points, float).reshape(domain.shape + (-1, D))
        self.weights = np.asarray(weights, float)
        self.infinite = np.asarray(infinite, bool)
        self.R_inf = float(R_inf)
        k = self.points.shape[-2]
        if self.weights.shape != domain.shape + (k,):
            raise ValueError("weights shape mismatch")
        mask = domain.mask()
        sums = self.weights.sum(axis=-1)
        if not np.allclose(sums[mask], 1.0, atol=WEIGHT_TOL):
            raise ValueError("per-cell weights must sum to one")

    @property
    def space_dim(self):
        return int(np.prod(self.space_shape))

    @property
    def n_atoms(self):
        return self.points.shape[-2]

    def infinity_mass(self):
        """Grid array of per-cell mass at infinity."""
        return np.sum(self.weights * self.infinite, axis=-1)

    def map_payloads(self, fn):
        """New field with finite payloads transformed by ``fn`` (vectorized)."""
        pts = fn(self.points.reshape(-1, self.space_dim)).reshape(self.points.shape)
        pts = np.where(self.infinite[..., None], 0.0, pts)
        return YoungMeasureField(self.domain, self.space_shape, pts,
                                 self.weights.copy(), self.infinite.copy(), self.R_inf)


def _check_cutoff(R_inf):
    if not R_inf > 0:
        raise ValueError(f"cutoff radius must be positive, got {R_inf}")


def _clip_to_infinity(points, R_inf):
    norms = np.linalg.norm(points, axis=-1)
    infinite = norms > R_inf
    points = np.where(infinite[..., None], 0.0, points)
    return points, infinite


def dirac_field(v, R_inf):
    """One atom per cell at the sampled value; values beyond the cutoff go to
    the point at infinity."""
    _check_cutoff(R_inf)
    dom = v.domain
    pts = v.values[..., None, :]
    pts, inf = _clip_to_infinity(pts, R_inf)
    w = np.ones(dom.shape + (1,))
    return YoungMeasureField(dom, (v.components,), pts, w, inf, R_inf)


def default_cutoff(u, frame):
    """Default infinity cutoff: 1e6 times the range of the four-step quotient."""
    coarse = difference_quotient_1(u, frame, 4 * u.domain.spacing)
    scale = float(np.max(np.linalg.norm(
        coarse.values.reshape(-1, coarse.components), axis=1)))
    return 1e6 * max(scale, 1.0)


def diffuse_field(u, frame, order, schedules, R_inf, jets=None):
    """Empirical measure field of order-``order`` difference quotients.

    Each schedule in the window contributes one equally weighted atom per
    cell; payloads beyond the cutoff are sent to infinity.  A schedule of
    higher order is truncated to its first ``order`` rows.  The optional
    cache ``jets`` maps truncated schedules to quotient grids of this ``u``
    and ``frame``; missing entries are computed and stored in it.
    """
    if not schedules:
        raise ValueError("empty schedule window")
    _check_cutoff(R_inf)
    jets = {} if jets is None else jets
    dom = u.domain
    space_shape = (frame.N,) + (frame.n,) * order
    atoms = []
    for sched in schedules:
        if sched.order < order:
            raise ValueError("schedule order too low")
        sched = HSchedule(rows=sched.rows[:order])
        if sched not in jets:
            jets[sched] = jet_difference_quotients(u, frame, sched)
        atoms.append(jets[sched].values.reshape(dom.shape + (1, -1)))
    pts = np.concatenate(atoms, axis=-2)
    pts, inf = _clip_to_infinity(pts, R_inf)
    k = pts.shape[-2]
    w = np.full(dom.shape + (k,), 1.0 / k)
    return YoungMeasureField(dom, space_shape, pts, w, inf, R_inf)


def diffuse_jet_field(u, frame, windows, R_inf):
    """Independently windowed fields for orders 1..p (a fibre product)."""
    return [diffuse_field(u, frame, q, win, R_inf)
            for q, win in enumerate(windows, start=1)]


def pair(field, phis, weight_fn, weight_bounded=False, where=None):
    """Duality pairings per cell of every witness ``phi_j`` in the sequence
    ``phis``: ``sum_k w_k phi_j(X_k) weight_fn(x, X_k)``, on the cells of the
    grid mask ``where`` (every cell by default); other cells read zero.

    ``weight_fn(x, X)`` is called once for the whole family, on one row per
    (cell, atom) of those cells: cells in row-major lattice order, atoms
    innermost, so row ``c * n_atoms + k`` holds atom ``k`` of the ``c``-th
    such cell.  It returns one value (or one row of ``M`` components) per
    row.  With ``J = len(phis)`` the result has ``J * M`` components,
    witness-major: its values reshaped to ``dom.shape + (J, M)`` hold one
    block per cell, row ``j`` for ``phi_j``.  Radial witnesses sharing a
    center share one squared distance per row.

    The atom at infinity contributes ``w * phi_j.value_at_infinity`` per
    component; its weight row (taken at a zeroed payload) is discarded.  A
    non-compactly-supported witness together with an unbounded weight
    function is rejected.
    """
    if not weight_bounded and not all(phi.compactly_supported for phi in phis):
        raise ValueError("test function must be compactly supported unless the "
                         "weight function is declared bounded")
    dom = field.domain
    cells = np.ones(dom.shape, bool) if where is None else where
    infinite, weights = field.infinite[cells], field.weights[cells]
    flat_pts = field.points[cells].reshape(-1, field.space_dim)
    x_rep = np.repeat(dom.node_coords()[cells], field.n_atoms, axis=0)
    w_vals = np.asarray(weight_fn(x_rep, flat_pts), float).reshape(infinite.shape + (-1,))
    w_vals = np.where(infinite[..., None], 0.0, w_vals)

    centers = {phi.center.tobytes(): phi.center for phi in phis if phi.profile is not None}
    d2 = {key: np.sum((flat_pts - c) ** 2, axis=-1) for key, c in centers.items()}
    phi_vals = np.stack([phi(flat_pts) if phi.profile is None
                         else phi.profile(d2[phi.center.tobytes()]) for phi in phis])
    # (w phi) r per (cell, witness), summed over the atoms in order
    wphi = np.where(infinite[:, None], 0.0,
                    weights[:, None] * phi_vals.reshape((len(phis),) + infinite.shape)
                    .transpose(1, 0, 2))
    out = np.zeros(infinite.shape[:1] + (len(phis), w_vals.shape[-1]))
    for a in range(field.n_atoms):
        out += wphi[..., a, None] * w_vals[:, None, a, :]
    inf_mass = np.sum(weights * infinite, axis=-1)
    for j, phi in enumerate(phis):
        if phi.value_at_infinity != 0.0:
            out[:, j] += phi.value_at_infinity * inf_mass[:, None]
    full = np.zeros(dom.shape + out.shape[1:])
    full[cells] = out
    return GridFunction(dom, full.reshape(dom.shape + (-1,)))


def pair_product(fields, phi_list, weight_fn):
    """Pairing against a fibre-product measure of independently built fields.

    ``phi_list`` holds one compactly supported factor per field; the weight
    function receives the concatenated payload tuple.
    """
    if len(fields) != len(phi_list):
        raise ValueError("need one test factor per field")
    dom = fields[0].domain
    out = None
    # iterate over the product of atom indices (windows are small)
    ranges = [range(f.n_atoms) for f in fields]
    import itertools as _it
    x = dom.node_coords().reshape(-1, dom.dim)
    for combo in _it.product(*ranges):
        w = np.ones(dom.shape)
        phi_val = np.ones(dom.shape)
        payloads = []
        dead = np.zeros(dom.shape, dtype=bool)
        for f, phi, k in zip(fields, phi_list, combo):
            w = w * f.weights[..., k]
            vals = phi(f.points[..., k, :])
            vals = np.where(f.infinite[..., k], 0.0, vals)
            phi_val = phi_val * vals
            dead |= f.infinite[..., k]
            payloads.append(f.points[..., k, :].reshape(-1, f.space_dim))
        joint = np.concatenate(payloads, axis=-1)
        g = np.asarray(weight_fn(x, joint), float)
        if g.ndim == 1:
            g = g[:, None]
        g = g.reshape(dom.shape + (g.shape[-1],))
        term = (w * phi_val * ~dead)[..., None] * g
        out = term if out is None else out + term
    return GridFunction(dom, out)


def is_concentrated(field, ref, radius, mass_threshold):
    """Per-cell test: mass within ``radius`` of the reference value.

    Returns ``(passes, summary)`` where ``passes`` is a boolean grid array
    and the summary reports the passing fraction over the mask.
    """
    dom = field.domain
    refv = ref.values[..., None, :]
    dist = np.linalg.norm(field.points - refv, axis=-1)
    near = (dist <= radius) & ~field.infinite
    mass = np.sum(field.weights * near, axis=-1)
    passes = mass >= mass_threshold
    mask = dom.mask()
    frac = float(np.mean(passes[mask])) if mask.any() else 1.0
    return passes, {"fraction_passing": frac,
                    "radius": float(radius),
                    "mass_threshold": float(mass_threshold)}


def translate_field(field, shifts):
    """Cellwise translation of the finite atoms by a grid of shift vectors."""
    pts = field.points.copy()
    s = shifts.values[..., None, :]
    pts = np.where(field.infinite[..., None], pts, pts + s)
    over = ~field.infinite & (np.linalg.norm(pts, axis=-1) > field.R_inf)
    inf = field.infinite | over
    pts = np.where(inf[..., None], 0.0, pts)
    return YoungMeasureField(field.domain, field.space_shape, pts,
                             field.weights.copy(), inf, field.R_inf)


def barycenter_field(field):
    """Grid function of per-cell restriction barycenters."""
    w = np.where(field.infinite, 0.0, field.weights)
    vals = np.einsum("...k,...kd->...d", w, field.points)
    return GridFunction(field.domain, vals)


# serialization ------------------------------------------------------------

MEASURE_FORMAT = "diffusepde-measure-v1"


def save_measure_field(path, field):
    """Grid header plus per-cell atom records, all little-endian float64.

    Record layout per cell: atom count, then (flag, payload..., weight) per
    atom; flag 1 marks the atom at infinity (payload zeros retained).
    """
    import json
    header = {
        "format": MEASURE_FORMAT,
        "dims": list(field.domain.shape),
        "spacing": field.domain.spacing,
        "origin": list(field.domain.origin),
        "mask": field.domain.mask_kind,
        "space_shape": list(field.space_shape),
        "atoms": field.n_atoms,
        "R_inf": field.R_inf,
        "byte_order": "little",
    }
    k = field.n_atoms
    D = field.space_dim
    cells = int(np.prod(field.domain.shape))
    rec = np.empty((cells, 1 + k * (2 + D)))
    rec[:, 0] = k
    body = np.concatenate([
        field.infinite.reshape(cells, k, 1).astype(float),
        field.points.reshape(cells, k, D),
        field.weights.reshape(cells, k, 1),
    ], axis=-1)
    rec[:, 1:] = body.reshape(cells, -1)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(rec, dtype="<f8").tobytes())


def load_measure_field(path):
    with open(path, "rb") as fh:
        dom, header = read_header(fh, MEASURE_FORMAT, ("atoms", "space_shape", "R_inf"))
        k = header["atoms"]
        D = int(np.prod(header["space_shape"]))
        cells = dom.n_nodes
        size = cells * (1 + k * (2 + D)) * 8
        raw = fh.read(size)
        if len(raw) != size:
            raise ValueError(f"truncated measure file: {path}")
        if fh.read(1):
            raise ValueError(f"trailing bytes after the measure body: {path}")
    rec = np.frombuffer(raw, dtype="<f8").reshape(cells, 1 + k * (2 + D))
    if not (rec[:, 0] == k).all():
        raise ValueError(f"per-cell atom count differs from the header's {k}: {path}")
    body = rec[:, 1:].reshape(cells, k, 2 + D)
    if not np.isin(body[..., 0], (0.0, 1.0)).all():
        raise ValueError(f"infinity flag other than 0 or 1: {path}")
    infinite = body[..., 0] == 1.0
    points = body[..., 1:1 + D]
    weights = body[..., -1]
    return YoungMeasureField(dom, tuple(header["space_shape"]),
                             points.reshape(dom.shape + (k, D)).copy(),
                             weights.reshape(dom.shape + (k,)).copy(),
                             infinite.reshape(dom.shape + (k,)).copy(),
                             header["R_inf"])
