"""Verifiable solution criteria for measure-valued generalized solutions.

A candidate map passes when, cell by cell, the measure built from its
difference quotients charges (off infinity) only the zero set of the PDE
coefficients.  Several equivalent readings of that statement are computed
side by side on identical inputs:

* ``pairing``  -- duality pairings against a family of compactly supported
  test functions vanish;
* ``support``  -- the coefficients vanish on every finite atom;
* ``integral`` -- the finite-part integral of the absolute coefficients vanishes;
* ``cutoff``   -- coefficients evaluated on radius-R cut-off quotients tend to zero;
* ``distance`` -- cut-off quotients approach the coefficient zero set inside
  the R-ball.

All residuals decrease under schedule refinement for true solutions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .frames import HSchedule, difference_quotient_1, jet_difference_quotients
from .grids import GridFunction
from .measures import bump, diffuse_field, pair, witness_values

TOL_ZERO = 1e-8


@dataclass
class CoefficientSystem:
    """Coefficients of a PDE system of order ``p`` in ``M`` equations.

    A system is given by exactly one of two callables.  ``evaluate(x, uval,
    X)`` is vectorized over stacked rows: ``x`` has shape ``(rows, n)``,
    ``uval`` ``(rows, du)`` and ``X`` ``(rows, D)`` with the top-order
    tensor flattened row-major; it returns ``(rows, M)``.  The rows are
    cell-aligned: row ``r`` of ``uval`` is the per-cell state of the cell
    whose node sits at ``x[r]``, so evaluators never look cells up from
    coordinates.

    A jet-linear system is given by ``jet_linearization(x, uval)`` alone,
    returning per-row ``(L, c)`` of shapes ``(rows, M, D)`` and ``(rows,
    M)`` with ``F = L X + c``, or one ``(1, M, D)``, ``(1, M)`` pair for
    constant coefficients; ``evaluate`` is derived from it.  It enables
    exact zero-set distances and the trivial cut-off selection.  Other
    systems may supply ``zero_set_oracle(x, uval, R)`` returning
    representative points (``(cells, k, D)``) of the zero set inside the
    R-ball.

    ``u_source(u, frame, fine_step)`` returns the grid function of per-cell
    state whose rows fill the ``uval`` slot: the map itself by default, a
    fixed fine-step gradient quotient of the map for gradient-sourced
    systems, or a field the system carries (the scaling ``A(x)`` of
    ``solver.make_nonlinearity``).
    """

    order: int
    n: int
    N: int
    M: int
    evaluate: callable | None = None
    u_source: callable = lambda u, frame, fine_step: u
    zero_set_oracle: callable | None = None
    jet_linearization: callable | None = None
    name: str = "system"

    def __post_init__(self):
        if (self.evaluate is None) == (self.jet_linearization is None):
            raise ValueError("a coefficient system takes exactly one of "
                             "evaluate and jet_linearization")
        if self.evaluate is None:
            def evaluate(x, uval, X):
                L, c = self.jet_linearization(x, uval)
                return np.einsum("cmd,cd->cm", L, X) + c
            self.evaluate = evaluate

    @property
    def jet_dim(self):
        return self.N * self.n**self.order

    @property
    def linear_in_jet(self):
        return self.jet_linearization is not None


def tensor_system(tensor):
    """Linear constant-coefficient system: the tensor contracted with the hessian."""
    N, n = tensor.N, tensor.n
    L = tensor.entries.reshape(N, n, N, n)
    # hessian action matrix: rows are equations, columns flattened (b, i, j)
    Lmat = np.einsum("aibj->abij", L).reshape(N, N * n * n)

    def jet_linearization(x, uval):
        return Lmat[None], np.zeros((1, N))

    return CoefficientSystem(order=2, n=n, N=N, M=N,
                             jet_linearization=jet_linearization,
                             name="linear-tensor")


def infinity_laplace_system(n):
    """Second-order coefficients of the vectorial supremal-energy system.

    For a gradient value ``P`` the coefficient tensor reads
    ``P (x) P + |P|^2 Proj_{range(P)^perp} (x) I``; the projection uses the
    singular value decomposition of ``P`` with a relative rank cutoff.
    """

    def jet_linearization(x, uval):
        """Per-cell ``(L, 0)`` at the gradient values ``uval``."""
        cells = uval.shape[0]
        Pm = uval.reshape(cells, n, n)
        u, s, vt = np.linalg.svd(Pm)
        keep = s > 1e-9 * np.maximum(s[:, :1], 1e-300)
        proj_range = np.einsum("cak,ck,cbk->cab", u, keep.astype(float), u)
        proj_perp = np.eye(n)[None] - proj_range
        p2 = np.einsum("cai,cai->c", Pm, Pm)
        L = (np.einsum("cai,cbj->cabij", Pm, Pm)
             + p2[:, None, None, None, None]
             * np.einsum("cab,ij->cabij", proj_perp, np.eye(n)))
        return L.reshape(cells, n, n * n * n), np.zeros((cells, n))

    return CoefficientSystem(order=2, n=n, N=n, M=n,
                             u_source=difference_quotient_1,
                             jet_linearization=jet_linearization,
                             name="infinity-laplace")


def eikonal_system(n, N, speed):
    """First-order system ``|Du|^2 - speed^2 = 0`` with an exact zero-set oracle."""

    def evaluate(x, uval, X):
        return (np.einsum("cd,cd->c", X, X) - speed**2)[:, None]

    def zero_set_oracle(x, uval, R):
        if R < speed:
            raise ValueError("zero set does not meet the ball")
        pts = np.zeros((x.shape[0], 1, N * n))
        pts[:, 0, 0] = speed
        return pts

    def gradient_entries(x, uval, X):
        return 2.0 * X.reshape(X.shape[0], 1, -1)

    sys = CoefficientSystem(order=1, n=n, N=N, M=1, evaluate=evaluate,
                            zero_set_oracle=zero_set_oracle, name="eikonal")
    sys.jet_gradient = gradient_entries
    return sys


def tangent_system(base, F_x=None, F_X=None):
    """Differentiated system of a first-order base system.

    The new system has order two and ``M * n`` equations indexed ``(mu, i)``:
    the x-derivative of the coefficients plus the jet-derivative contracted
    with the next-order tensor.  Derivative callables are analytic closures
    ``(x, uval, X) -> (cells, M, n)`` resp. ``(cells, M, N*n)``; when ``F_X``
    is omitted a finite-difference fallback in the jet variable is used and
    flagged as lower trust on the returned system.
    """
    if base.order != 1:
        raise ValueError("tangent construction implemented for first-order systems")
    F_x = F_x or (lambda x, uval, P: np.zeros((x.shape[0], base.M, base.n)))
    F_X_eff = F_X or getattr(base, "jet_gradient", None)
    fd_fallback = F_X_eff is None
    if fd_fallback:
        step = 1e-6

        def F_X_eff(x, uval, P):
            cells, D = P.shape
            out = np.zeros((cells, base.M, D))
            for d in range(D):
                e = np.zeros(D)
                e[d] = step
                out[:, :, d] = (base.evaluate(x, uval, P + e)
                                - base.evaluate(x, uval, P - e)) / (2 * step)
            return out

    n, N, M = base.n, base.N, base.M

    def jet_linearization(x, uval):
        """``uval`` carries the first-order jet (gradient values) of the base
        map; equation ``(mu, i)`` reads ``gx[mu, i] + sum_{b j} gX[mu, b, j]
        X[b, j, i]``."""
        cells = x.shape[0]
        gx = F_x(x, uval, uval).reshape(cells, M * n)
        gX = F_X_eff(x, uval, uval).reshape(cells, M, N, n)
        L = np.zeros((cells, M, n, N, n, n))
        for i in range(n):
            L[:, :, i, :, :, i] = gX
        return L.reshape(cells, M * n, N * n * n), gx

    sys = CoefficientSystem(order=2, n=n, N=N, M=M * n,
                            u_source=difference_quotient_1,
                            jet_linearization=jet_linearization,
                            name=f"tangent({base.name})")
    sys.fd_fallback = fd_fallback
    return sys


def cutoff(U, F, u, R):
    """Radius-R cut-off of a jet-valued grid function.

    Cells with in-ball jet values pass through; overflowing cells receive a
    zero of the residual coefficients (``F = 0``) inside the ball.  For
    jet-linear systems this is the minimal-norm solution of the affine
    equation; otherwise an oracle point.  The replacement is verified to be
    an in-ball zero; cells where no such zero exists raise.
    """
    dom = U.domain
    vals = U.values.reshape(-1, U.components)
    over = np.linalg.norm(vals, axis=1) > R
    x = dom.node_coords().reshape(-1, dom.dim)
    uv = u.values.reshape(-1, u.components)
    lin = _linearize(F, x, uv, over) if over.any() else None
    cut, infeasible = _cut(vals, over, F, R, x, uv, None, lin)
    if infeasible is not None:
        raise ValueError(infeasible)
    return GridFunction(dom, cut.reshape(U.values.shape))


def _linearize(F, x, uval, rows):
    """Per-row ``(L, c, pinv(L))`` with ``F = L X + c``; ``None`` unless the
    system is jet-linear.  ``pinv(L)`` is taken on the rows of the boolean
    mask ``rows`` alone and reads NaN elsewhere.  A linearization shared by
    every row takes one ``pinv`` and is broadcast to the rows."""
    if not F.linear_in_jet:
        return None
    L, c = F.jet_linearization(x, uval)
    if len(L) == 1:
        pinv = np.linalg.pinv(L)
    else:
        pinv = np.full((len(L), L.shape[2], L.shape[1]), np.nan)
        pinv[rows] = np.linalg.pinv(L[rows])
    return tuple(np.broadcast_to(a, (len(x),) + a.shape[1:]) for a in (L, c, pinv))


def _cut(vals, over, F, R, x, uv, fv, lin):
    """``(cut, None)``, ``cut`` being ``vals`` with the ``over`` rows replaced
    by verified zeros of ``F = f`` in the radius-R ball; ``(None, reason)``
    when the zero set misses the ball, the data lie outside the jet map's
    range or the oracle raises ``ValueError``.  Any other fault raises, a
    non-finite selection among them.  Rows of ``x``, ``uv``, ``fv`` (``None``
    for vanishing data) and ``lin`` (see ``_linearize``) align with ``vals``."""
    out = vals.copy()
    if not over.any():
        return out, None
    x, uv = x[over], uv[over]
    fv = None if fv is None else fv[over]

    def finite(sel):
        bad = np.flatnonzero(over)[~np.isfinite(sel).all(axis=1)]
        if bad.size:
            raise ValueError(f"cut-off selection is not finite at {bad.size} "
                             f"row(s), first {bad[:5].tolist()}")
        return sel

    if lin is not None:
        L, c, pinv = (a[over] for a in lin)
        rhs = -c if fv is None else fv - c
        sel = finite(np.einsum("cdm,cm->cd", pinv, rhs))
        sel_norm = np.linalg.norm(sel, axis=1)
        if np.max(sel_norm) > R * (1 + 1e-9):
            return None, (f"zero set misses the radius-{R} ball at "
                          f"{int(np.sum(sel_norm > R))} cells")
        resid = np.einsum("cmd,cd->cm", L, sel) + c - (0.0 if fv is None else fv)
        if np.max(np.abs(resid)) > 1e3 * TOL_ZERO * max(
                1.0, float(np.max(np.abs(rhs)))):
            return None, "data not in the range of the jet map; no zero exists"
    elif F.zero_set_oracle is not None:
        if fv is not None and np.max(np.abs(fv)) > TOL_ZERO:
            raise ValueError("oracle systems need the data folded into "
                             "the coefficients")
        try:
            sel = F.zero_set_oracle(x, uv, R)[:, 0, :]
        except ValueError as exc:
            return None, str(exc)
        finite(sel)
        res = F.evaluate(x, uv, sel)
        if np.max(np.linalg.norm(res, axis=1)) > TOL_ZERO:
            raise ValueError("oracle points are not zeros of the system")
        if np.max(np.linalg.norm(sel, axis=1)) > R * (1 + 1e-9):
            raise ValueError("oracle produced points outside the ball")
    else:
        raise ValueError("cut-off needs a linear system or a zero-set oracle")
    out[over] = sel
    return out, None


class NoFeasibleRadius(ValueError):
    """No radius of a check's ``R_list`` admits a zero of the system inside its ball."""


@dataclass
class CheckReport:
    """Residuals, verdicts and metadata of one solution check."""

    residuals: dict          # name -> list over levels (interior max, in F units)
    verdicts: dict           # name -> bool
    trends: dict             # name -> bool (non-increasing within 10%)
    tolerance: float
    scale: float
    levels: list             # finest step per level
    R_values: list
    R_inf: float
    skipped: list
    metadata: dict = field(default_factory=dict)
    residual_field: GridFunction | None = None  # finest-level per-cell residual

    @property
    def passed(self):
        return all(self.verdicts.values())

    def to_json_dict(self):
        return {
            "residuals": {k: [float(x) for x in v] for k, v in self.residuals.items()},
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "trends": {k: bool(v) for k, v in self.trends.items()},
            "tolerance": self.tolerance,
            "scale": self.scale,
            "levels": [float(x) for x in self.levels],
            "R_values": [float(x) for x in self.R_values],
            "R_inf": self.R_inf,
            "skipped": list(self.skipped),
            "metadata": self.metadata,
            "passed": bool(self.passed),
        }


def witness_family(finite_pts):
    """Compactly supported witnesses near the finite atoms ``finite_pts``
    (``(rows, D)``) plus one at the origin.

    Bumps sit at the centroid of the finite atoms with radii 1, 2 and 4 times
    a robust (median) atom spread, so they discriminate the bulk cluster
    while escaping outliers fall outside every support.
    """
    phis = []
    if finite_pts.size:
        centroid = finite_pts.mean(axis=0)
        spread = float(np.median(np.linalg.norm(finite_pts - centroid, axis=1)))
        base = max(spread, 1e-3 * max(np.linalg.norm(centroid), 1.0), 1e-6)
        phis += [bump(centroid, f * base) for f in (1.0, 2.0, 4.0)]
        origin_radius = max(np.linalg.norm(centroid) + base, base)
    else:
        origin_radius = 1.0
    phis += [bump(np.zeros(finite_pts.shape[-1]), f * origin_radius) for f in (1.0, 2.0, 4.0)]
    return phis


def default_margin(schedules, domain):
    """Default interior margin of :func:`check_dsolution`: the longest reach
    of a schedule's last row over all windows, plus two lattice steps."""
    return max(sum(abs(h) for h in sched.rows[-1])
               for window in schedules for sched in window) + 2 * domain.spacing


def check_dsolution(u, F, frame, schedules, R_list=None, Phi_family=None, f=None,
                    project=None, C_disc=50.0):
    """Run every characterization of the solution property on one candidate map.

    ``schedules`` is a list of windows (each a list of step schedules), coarse
    to fine; residual trends are reported across them.  ``project`` optionally
    projects jet values onto a subspace the coefficients depend on before
    measures are built (admissible whenever the coefficients are constant
    along the complement).  Verdicts compare the finest-level interior
    residual against ``max(C_disc * h_finest, 1e-6 * scale)``.
    """
    if not 0 <= C_disc < np.inf:
        raise ValueError(f"C_disc must be finite and nonnegative, got {C_disc}")
    dom = u.domain
    if (u.components, dom.dim) != (F.N, F.n):
        raise ValueError("candidate map does not match the system")
    if f is None:
        f = GridFunction(dom, np.zeros(dom.shape + (F.M,)))
    if f.domain != dom:
        raise ValueError("right-hand side lies on another lattice or mask than the map")
    if f.components != F.M:
        raise ValueError("right-hand side does not match the system")
    fine = min(abs(h) for row in schedules[-1][-1].rows for h in row)
    uval = F.u_source(u, frame, fine)

    x_flat = dom.node_coords().reshape(-1, dom.dim)
    uval_flat = uval.values.reshape(-1, uval.components)
    f_flat = f.values.reshape(-1, F.M)

    def coefficients(X, x, uv, lin):
        """``F`` at jets ``X`` of shape ``(cells, k, D)``, ``k`` per cell, on
        the cells of the rows of ``x``, ``uv`` and ``lin``."""
        if lin is not None:
            return np.einsum("cmd,ckd->ckm", lin[0], X) + lin[1][:, None]
        k = X.shape[1]
        return F.evaluate(np.repeat(x, k, axis=0), np.repeat(uv, k, axis=0),
                          X.reshape(-1, F.jet_dim)).reshape(X.shape[:2] + (F.M,))

    mask = dom.mask()
    margin = default_margin(schedules, dom)
    interior = dom.interior_mask(margin)
    if not interior.any():
        raise ValueError("no interior cells at this margin; refine the grid")

    # the cascade's distinct jets, truncated to the system's order, in order
    # of first use: level l mixes the jets picks[l], each with weight 1/k
    index = {}
    picks = [[index.setdefault(HSchedule(rows=s.rows[:F.order]), len(index))
              for s in window] for window in schedules]
    first = next(iter(index))
    jets = {first: jet_difference_quotients(u, frame, first)}
    R_inf = 1e6 * max(float(np.max(np.linalg.norm(jets[first].values[mask],
                                                  axis=-1))), 1.0)
    # one field holds each distinct jet once, clipped at R_inf (and projected)
    cascade = diffuse_field(u, frame, F.order, list(index), R_inf, jets)
    del jets
    if project is not None:
        cascade = cascade.map_payloads(
            lambda X: project.project(X.reshape((-1,) + project.ambient_shape))
            .reshape(X.shape))
    pts = cascade.points.reshape(len(x_flat), len(index), F.jet_dim)
    at_inf = cascade.infinite.reshape(pts.shape[:2])

    oracle_ok = F.linear_in_jet or F.zero_set_oracle is not None
    skipped = [] if oracle_ok else ["cutoff", "distance"]

    names = ["pairing", "support", "integral"] + (["cutoff", "distance"] if oracle_ok else [])
    residuals = {name: [] for name in names}
    levels = []
    infeasible_R = {}

    # witnesses and radii are fixed once, near where the finest level's
    # finite interior atoms settle (cells row-major, atoms innermost), and
    # reused across every refinement level
    inner = interior.reshape(-1)
    phi_family = Phi_family
    if Phi_family is None or R_list is None:
        finest = np.ix_(np.flatnonzero(inner), picks[-1])
        settled = pts[finest][~at_inf[finest]]
    if phi_family is None:
        phi_family = witness_family(settled)
    if R_list is None:
        # radii comfortably containing the settled finite mass
        s = float(np.linalg.norm(settled, axis=-1).max()) if settled.size else 1.0
        s = max(s, 1.0)
        R_list = [2.0 * s, 8.0 * s]

    # the rows each (last jet, R) cut-off replaces: a jet at infinity lies
    # outside every cut-off ball.  Feasibility is read on every cell, the
    # residuals on the interior ones.
    overs = {}
    for j in dict.fromkeys(pick[-1] for pick in picks):
        norm = np.linalg.norm(pts[:, j], axis=1)
        overs[j] = [at_inf[:, j] | (norm > R) for R in R_list]

    # per-cell linearization, shared by every level and radius; its pinv on
    # the rows the cut-offs and distances read
    lin = _linearize(F, x_flat, uval_flat,
                     np.logical_or.reduce([inner] + [o for os in overs.values() for o in os]))
    zeros = coefficients(np.zeros((x_flat.shape[0], 1, F.jet_dim)), x_flat, uval_flat, lin)
    scale = float(np.median(np.abs(f.values[mask])) +
                  np.median(np.abs(zeros.reshape(dom.shape + (F.M,))[mask])))
    # tolerance tracks the resolution of the finest level as a whole, i.e.
    # the coarsest step appearing in its window
    h_finest = max(abs(h) for sched in schedules[-1] for row in sched.rows
                   for h in row)
    tol = max(C_disc * h_finest, 1e-6 * scale)

    # every verdict reads the interior cells alone: their rows, sliced once
    x_in, uval_in, f_in = x_flat[inner], uval_flat[inner], f_flat[inner]
    lin_in = None if lin is None else tuple(a[inner] for a in lin)
    lip = None if lin is None else np.linalg.norm(lin_in[0], axis=(1, 2))

    # each jet once: the norms of its residual rows (every cell for the
    # finest window's jets, which make the support field, the interior for
    # the others) and its pairing atom on the interior, which every witness
    # evaluates once
    full_norms, norms, atoms = {}, [], []
    for j in range(len(index)):
        X = pts[inner, j]
        if j in picks[-1]:
            res = coefficients(pts[:, j, None], x_flat, uval_flat, lin)[:, 0] - f_flat
            full_norms[j] = np.where(at_inf[:, j], 0.0, np.linalg.norm(res, axis=-1))
            res, norm = res[inner], full_norms[j][inner]
        else:
            res = coefficients(X[:, None], x_in, uval_in, lin_in)[:, 0] - f_in
            norm = np.where(at_inf[inner, j], 0.0, np.linalg.norm(res, axis=-1))
        norms.append(norm)
        atoms.append((at_inf[inner, j], witness_values(phi_family, X), res))

    @functools.cache
    def cut_residuals(j, r):
        """The largest interior residual and distance of jet ``j`` cut off
        at radius ``R_list[r]``, or the reason that radius is infeasible."""
        R = R_list[r]
        cut, infeasible = _cut(pts[:, j], overs[j][r], F, R, x_flat, uval_flat, f_flat, lin)
        if infeasible is not None:
            return infeasible
        cut = cut[inner]
        res = coefficients(cut[:, None], x_in, uval_in, lin_in)[:, 0] - f_in
        dist = _distance_residual(cut, res, F, x_in, uval_in, R, lin_in, lip)
        return float(np.max(np.linalg.norm(res, axis=1))), float(np.max(dist))

    for level, (window, pick) in enumerate(zip(schedules, picks)):
        # a level combines its window's per-jet rows in window order
        k = len(pick)
        paired = pair([(1.0 / k,) + atoms[j] for j in pick], phi_family)
        at_inf_lvl = np.stack([atoms[j][0] for j in pick], axis=-1)
        atom_norm = np.stack([norms[j] for j in pick], axis=-1)
        int_cell = np.sum(np.where(at_inf_lvl, 0.0, 1.0 / k) * atom_norm, axis=-1)
        residuals["pairing"].append(float(np.max(np.linalg.norm(paired, axis=-1))))
        residuals["support"].append(float(atom_norm.max()))
        residuals["integral"].append(float(int_cell.max()))

        if oracle_ok:
            cut_res, dist_res = 0.0, 0.0
            for r, R in enumerate(R_list):
                outcome = cut_residuals(pick[-1], r)
                if isinstance(outcome, str):
                    infeasible_R.setdefault(level, []).append((float(R), outcome))
                    continue
                cut_res = max(cut_res, outcome[0])
                dist_res = max(dist_res, outcome[1])
            if len(infeasible_R.get(level, ())) == len(R_list):
                raise NoFeasibleRadius(
                    "no cut-off radius admits a zero inside its ball; "
                    f"raise the R values (details: {infeasible_R.get(level)})")
            residuals["cutoff"].append(cut_res)
            residuals["distance"].append(dist_res)
        levels.append(min(abs(h) for sched in window for row in sched.rows for h in row))

    sup_cell = np.stack([full_norms[j] for j in picks[-1]], axis=-1).max(axis=-1)
    sup_field = GridFunction(dom, sup_cell.reshape(dom.shape + (1,)))

    verdicts = {name: residuals[name][-1] <= tol for name in names}
    trends = {name: _non_increasing(residuals[name]) for name in names}
    return CheckReport(residuals=residuals, verdicts=verdicts, trends=trends,
                       tolerance=tol, scale=scale, levels=levels,
                       R_values=list(R_list), R_inf=float(R_inf), skipped=skipped,
                       metadata={"system": F.name, "C_disc": C_disc,
                                 "interior_margin": margin,
                                 "projected": project is not None,
                                 "infeasible_R": {str(k): v for k, v in
                                                  infeasible_R.items()}},
                       residual_field=sup_field)


def _distance_residual(vals, res, F, x_flat, uval_flat, R, lin, lip):
    """Per-cell distance from cut-off jets ``vals`` to the zero set, rescaled
    to coefficient units by a per-cell operator-norm estimate.

    ``res`` holds the coefficient residuals ``F - f`` at ``vals``; ``lin``
    and ``lip`` are the shared linearization and its per-cell norm (``None``
    for oracle systems).
    """
    if lin is not None:
        dist = np.linalg.norm(np.einsum("cdm,cm->cd", lin[2], res), axis=1)
    else:
        pts = F.zero_set_oracle(x_flat, uval_flat, R)
        dist = np.min(np.linalg.norm(vals[:, None, :] - pts, axis=2), axis=1)
        # local slope estimate of the coefficients near the ball
        lip = np.linalg.norm(res, axis=1) / np.maximum(dist, 1e-30)
    return dist * lip


def _non_increasing(seq):
    return all(seq[k + 1] <= seq[k] * 1.1 + 1e-14 for k in range(len(seq) - 1))
