"""Explicit solutions and counterexample maps used as oracles by the test
machinery: a chordwise-integrated solution of a one-directional second-order
problem on the disc, a fat-Cantor indicator, piecewise-affine sawtooth maps
with constant gradient norm, and a vanishing oscillation family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grids import Domain, GridFunction


@dataclass
class ReferenceCase:
    """A built map plus descriptors of the checks it is expected to pass or fail."""

    name: str
    params: dict
    grids: dict
    expected: dict = field(default_factory=dict)


# rational enumeration -----------------------------------------------------

def stern_brocot_rationals(count):
    """Deterministic enumeration of the rationals in [0, 1].

    0 and 1 first, then a breadth-first mediant traversal between them; the
    order is reproducible bit for bit.
    """
    out = [Fraction(0, 1), Fraction(1, 1)]
    frontier = [(Fraction(0, 1), Fraction(1, 1))]
    while len(out) < count:
        nxt = []
        for lo, hi in frontier:
            med = Fraction(lo.numerator + hi.numerator,
                           lo.denominator + hi.denominator)
            out.append(med)
            nxt.append((lo, med))
            nxt.append((med, hi))
            if len(out) >= count:
                break
        frontier = nxt
    return out[:count]


def fat_cantor_removed_intervals(depth):
    """Open intervals removed around the first ``depth`` enumerated rationals;
    the j-th has half-width 3^-j."""
    rs = stern_brocot_rationals(depth)
    return [(float(r) - 3.0 ** -(j + 1), float(r) + 3.0 ** -(j + 1))
            for j, r in enumerate(rs)]


def interval_union_measure(intervals):
    """Length of the union of intervals clipped to [0, 1]."""
    clipped = sorted((max(a, 0.0), min(b, 1.0)) for a, b in intervals if b > 0.0 and a < 1.0)
    total = 0.0
    cur_a, cur_b = None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def fat_cantor_indicator(depth, resolution):
    """Indicator of the depth-truncated fat Cantor set on [0, 1].

    Returns the grid function together with the removed intervals and the
    exact retained measure of the truncation.
    """
    if depth < 1:
        raise ValueError("depth must be at least one")
    removed = fat_cantor_removed_intervals(depth)
    dom = Domain.interval(0.0, 1.0, resolution)
    x = dom.axis_coords(0)
    in_k = np.ones_like(x, dtype=bool)
    for a, b in removed:
        in_k &= ~((x > a) & (x < b))
    gf = GridFunction(dom, in_k.astype(float)[:, None])
    measure = 1.0 - interval_union_measure(removed)
    case = ReferenceCase(
        name="fat-cantor",
        params={"depth": depth, "resolution": resolution},
        grids={"indicator": gf},
        expected={
            "retained_measure": measure,
            "removed_intervals": removed,
            "checks": ["quotients blow up where the step window crosses "
                       "removed material; the sum with its negation has a "
                       "unit atom at zero everywhere"],
        })
    return case


def infinity_witness_cells(case, window_steps):
    """Cells of the truncated set whose forward quotient stencils land
    entirely in removed material.

    These are the discrete witnesses of the derivative blow-up: every step of
    the window jumps from the set into a removed interval, so each atom has
    magnitude 1/step.  Deeper cells instead see mostly zero quotients, as
    forced by translation continuity of the indicator.
    """
    gf = case.grids["indicator"]
    dom = gf.domain
    x = dom.axis_coords(0)
    removed = case.expected["removed_intervals"]
    in_k = gf.values[:, 0] > 0.5

    def in_removed(pts):
        out = np.zeros_like(pts, dtype=bool)
        for a, b in removed:
            out |= (pts > a) & (pts < b)
        return out

    witness = in_k.copy()
    for h in window_steps:
        witness &= in_removed(x + h)
    return witness


# sawtooth maps -------------------------------------------------------------

def sawtooth_profile(x, k):
    """Slope +-1 triangle wave of period 1/k and amplitude 1/(2k)."""
    t = np.mod(x * k, 1.0)
    return np.where(t < 0.5, t, 1.0 - t) / k


def sawtooth_map(M, k, resolution):
    """Planar map with componentwise sawtooth profiles.

    Away from fold lines the gradient is ``diag(+-M, +-M)``: its squared norm
    is ``2 M^2``, the determinant has magnitude ``M^2`` and both singular
    values equal ``M``.  The trace of the map itself supplies the boundary
    data.  The resolution is snapped to a multiple of ``2k`` so fold lines
    sit on lattice nodes.
    """
    if M <= 0 or k < 1:
        raise ValueError("need M > 0 and k >= 1")
    if not np.isfinite(2.0 * M * M):
        raise ValueError(f"M = {M!r} is too large: the gradient norm 2 M^2 overflows")
    res = int(np.ceil(resolution / (2 * k)) * 2 * k)
    dom = Domain.unit_square(res)

    def fn(x):
        return M * np.stack([sawtooth_profile(x[..., 0], k),
                             sawtooth_profile(x[..., 1], k)], axis=-1)

    gf = GridFunction.from_callable(dom, fn)
    return ReferenceCase(
        name="sawtooth",
        params={"M": M, "k": k, "resolution": res},
        grids={"map": gf},
        expected={
            "gradient_norm_sq": 2 * M**2,
            "abs_determinant": M**2,
            "checks": ["first-order eikonal identities hold off folds; the "
                       "supremal-energy system residual decreases under "
                       "window refinement"],
        })


def fold_distance_mask(dom, k, margin):
    """Nodes farther than ``margin`` from every fold line, along both axes."""
    half = 1.0 / (2 * k)
    keep = np.ones(dom.shape, dtype=bool)
    for axis in range(2):
        c = dom.axis_coords(axis)
        dist = np.abs(c / half - np.rint(c / half)) * half
        good = dist > margin
        sl = [None, None]
        sl[axis] = slice(None)
        keep &= good[tuple(sl)] if axis == 0 else good[None, :]
    return keep


# disc explicit solution -----------------------------------------------------

def disc_explicit_solution(f, resolution):
    """Solution of the one-directional problem on the closed unit disc.

    Along each vertical chord the right-hand side is integrated twice from
    the lower endpoint (kernel form, composite trapezoid on the chord nodes
    plus exact endpoints) and an affine-in-x2 correction forces zeros at both
    chord endpoints.  The second derivative along x2 reproduces the data in
    the interior.
    """
    dom = Domain.unit_disc(resolution)
    xs = dom.axis_coords(0)
    ys = dom.axis_coords(1)
    vals = np.zeros(dom.shape)
    coarse_columns = 0
    for i, x1 in enumerate(xs):
        if x1**2 >= 1.0:
            continue
        b = np.sqrt(1.0 - x1**2)
        inside = np.nonzero((ys > -b) & (ys < b))[0]
        if len(inside) < 2:
            coarse_columns += 1
            continue
        nodes = np.concatenate([[-b], ys[inside], [b]])
        fvals = np.array([f(x1, s) for s in nodes])
        w_nodes = _second_antiderivative(nodes, fvals)
        w_top = w_nodes[-1]
        # affine correction vanishing at both chord endpoints
        v = (nodes / (2 * b)) * w_top + 0.5 * w_top
        u = -v + w_nodes
        vals[i, inside] = u[1:-1]
    gf = GridFunction(dom, vals[..., None])
    return ReferenceCase(
        name="disc-explicit",
        params={"resolution": resolution},
        grids={"solution": gf},
        expected={"coarse_columns": coarse_columns,
                  "checks": ["vanishes at chord endpoints; second x2 "
                             "difference matches the data in the interior"]})


def _second_antiderivative(nodes, fvals):
    """``w(t) = int_lo^t (t - s) f(s) ds`` by composite trapezoid on the nodes.

    Uses the pair of cumulative integrals of ``f`` and ``s f(s)`` so a single
    sweep serves every evaluation point.
    """
    df = np.diff(nodes)
    f_mid = 0.5 * (fvals[1:] + fvals[:-1])
    sf = nodes * fvals
    sf_mid = 0.5 * (sf[1:] + sf[:-1])
    I0 = np.concatenate([[0.0], np.cumsum(f_mid * df)])
    I1 = np.concatenate([[0.0], np.cumsum(sf_mid * df)])
    return nodes * I0 - I1


def oscillation_example(mu, resolution):
    """The vanishing oscillation family ``sin(mu x) / mu`` on the unit interval."""
    if mu < 2 * np.pi:
        raise ValueError("frequency too low for the domain")
    dom = Domain.interval(0.0, 1.0, resolution)
    x = dom.axis_coords(0)
    gf = GridFunction(dom, (np.sin(mu * x) / mu)[:, None])
    return ReferenceCase(
        name="oscillation",
        params={"mu": mu, "resolution": resolution, "length": 1.0},
        grids={"map": gf},
        expected={"quotient_range": (-1.0, 1.0),
                  "checks": ["derivative quotients fill out the unit "
                             "interval as the window widens"]})


# case name: the parameters its builder takes, with their defaults
CASE_PARAMETERS = {
    "fat-cantor": {"depth": 8, "resolution": 4096},
    "sawtooth": {"M": 1.0, "k": 4, "resolution": 128},
    "disc-explicit": {"f": lambda x1, x2: 1.0, "resolution": 128},
    "oscillation": {"mu": 200.0, "resolution": 65536},
}


def build_reference(name, **params):
    """The case ``name`` built from ``params`` over its defaults."""
    if name not in CASE_PARAMETERS:
        raise ValueError(f"unknown reference case {name!r}")
    # resolved per call, so a builder rebound on the module is the one called
    builder = {"fat-cantor": fat_cantor_indicator, "sawtooth": sawtooth_map,
               "disc-explicit": disc_explicit_solution,
               "oscillation": oscillation_example}[name]
    return builder(**{**CASE_PARAMETERS[name], **params})
