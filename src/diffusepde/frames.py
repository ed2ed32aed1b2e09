"""Orthonormal frames of the value/domain spaces and difference quotients along them.

Difference quotients follow the projection recipe: project the map onto each
value-frame vector, take iterated one-directional quotients along the
matching domain-frame vectors, and assemble the results into a full tensor
in standard coordinates.  Off-lattice evaluations use multilinear
interpolation with the zero extension outside the mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, shift_array
from .tensors import eigh_deterministic, range_basis


@dataclass(frozen=True)
class Frame:
    """Value-space frame ``E_range[a]`` plus one domain frame ``E_domain[a, i]`` per a."""

    E_range: np.ndarray   # (N, N), rows are frame vectors
    E_domain: np.ndarray  # (N, n, n), rows are frame vectors per value direction

    def __post_init__(self):
        er = np.asarray(self.E_range, float)
        ed = np.asarray(self.E_domain, float)
        if er.ndim != 2 or er.shape[0] != er.shape[1]:
            raise ValueError("E_range must be square")
        if ed.ndim != 3 or ed.shape[0] != er.shape[0] or ed.shape[1] != ed.shape[2]:
            raise ValueError("E_domain must be (N, n, n)")
        if not (np.isfinite(er).all() and np.isfinite(ed).all()):
            raise ValueError("frame entries must be finite")
        if np.linalg.norm(er @ er.T - np.eye(er.shape[0])) > 1e-8:
            raise ValueError("value frame not orthonormal")
        for a in range(ed.shape[0]):
            if np.linalg.norm(ed[a] @ ed[a].T - np.eye(ed.shape[1])) > 1e-8:
                raise ValueError(f"domain frame {a} not orthonormal")
        object.__setattr__(self, "E_range", er)
        object.__setattr__(self, "E_domain", ed)

    @property
    def N(self):
        return self.E_range.shape[0]

    @property
    def n(self):
        return self.E_domain.shape[1]


def build_frame(mode="standard", dec=None, N=None, n=None):
    """Standard canonical frames, or frames adapted to a factored tensor.

    In adapted mode the value frame is assembled from orthonormal bases of
    the per-factor value subspaces (completed canonically), and the domain
    frame attached to a value vector of factor g lists the eigenvectors of
    ``A^g`` in ascending order, so the trailing vectors span its range.
    """
    if mode == "standard":
        if N is None or n is None:
            raise ValueError("standard mode needs N and n")
        return Frame(np.eye(N), np.broadcast_to(np.eye(n), (N, n, n)).copy())
    if mode != "from_decomposition":
        raise ValueError(f"unknown mode {mode!r}")
    if dec is None:
        raise ValueError("decomposition required")
    N, n = dec.N, dec.n
    value_vecs = []
    domain_frames = []
    for b, a in zip(dec.B_factors, dec.A_factors):
        basis = range_basis(b)
        if basis.shape[1] == 0:
            continue
        _, vecs = eigh_deterministic(a)
        for r in range(basis.shape[1]):
            value_vecs.append(basis[:, r])
            domain_frames.append(vecs.T.copy())
    completion = gram_schmidt_complete(value_vecs, N)
    for _ in range(len(completion) - len(value_vecs)):
        domain_frames.append(np.eye(n))
    return Frame(np.stack(completion), np.stack(domain_frames))


def gram_schmidt_complete(vectors, dim):
    """Complete a partial orthonormal family deterministically with canonical seeds."""
    out = [np.asarray(v, float) for v in vectors]
    for k in range(dim):
        if len(out) == dim:
            break
        cand = np.zeros(dim)
        cand[k] = 1.0
        for v in out:
            cand = cand - (cand @ v) * v
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            out.append(cand / norm)
    if len(out) != dim:
        raise ArithmeticError("orthonormal completion failed")
    return out


@dataclass(frozen=True)
class HSchedule:
    """One evaluation point of step sizes for an order-p quotient jet.

    ``rows[q-1]`` holds the q steps of the order-q iterated quotient; a plain
    order-p vector schedule is a single row.  Every step must resolve at
    least one lattice spacing.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(h) for h in row) for row in self.rows)
        if not rows:
            raise ValueError("empty schedule")
        for q, row in enumerate(rows, start=1):
            if len(row) != q:
                raise ValueError("row q must hold q steps")
            if any(h == 0 for h in row):
                raise ValueError("zero step")
        object.__setattr__(self, "rows", rows)

    @property
    def order(self):
        return len(self.rows)

    def validate_for(self, domain):
        for row in self.rows:
            for h in row:
                if abs(h) < domain.spacing * (1 - 1e-12):
                    raise ValueError(
                        f"step {h} below the lattice spacing {domain.spacing}")

    @staticmethod
    def first_order(h):
        return HSchedule(rows=((h,),))


def schedule_window(base_step, count, ratio=0.5, order=1, separation=1.0):
    """A refining family of schedules: steps ``base_step * ratio^k``.

    ``separation`` multiplies successive in-row steps for higher orders
    (earlier limit indices get smaller steps, approximating successive
    separate limits; the ratio used is recorded on the schedule itself).
    """
    out = []
    for k in range(count):
        h = base_step * ratio**k
        if order == 1:
            out.append(HSchedule.first_order(h))
        else:
            rows = []
            for q in range(1, order + 1):
                row = tuple(h * separation ** (q - 1 - j) for j in range(q))
                rows.append(row)
            out.append(HSchedule(rows=tuple(rows)))
    return out


def window_cascade(base_step, levels, count, ratio, order, spacing):
    """The window cascade of a check: at level ``lvl`` the window of
    ``count`` steps from ``base_step / 2**lvl``, less its steps below the
    lattice ``spacing``.  A level is empty exactly when its top step lies
    below the spacing, so the cascade stops at its first empty level."""
    windows = []
    for lvl in range(levels):
        top = math.ldexp(base_step, -lvl)  # base_step / 2**lvl, without overflow
        # steps fall with k: keep the leading ones, so no step below the
        # spacing is built (one that underflows to zero could not be)
        kept = sum(top * ratio**k >= spacing for k in range(count))
        if not kept:
            break
        windows.append(schedule_window(top, kept, ratio=ratio, order=order))
    return windows


def _interp_shifted(values, domain, offset):
    """Multilinear interpolation of a scalar lattice field at ``x + offset``.

    Per axis, node ``i`` samples at ``i + s`` (``s`` the offset in lattice
    units): a slice shift for integer ``s``, else linear between the two
    neighbouring nodes.  A sample outside ``[0, m - 1]`` reads 0 (no
    interpolation toward the edge), and a zero reads ``+0.0``.
    """
    out = values
    for axis, s in enumerate(np.asarray(offset, float) / domain.spacing):
        if s == np.round(s):
            if s:  # the closing ``+ 0.0`` copies
                out = shift_array(out, axis, int(s))
            continue
        m = out.shape[axis]
        c = np.arange(m) + s
        lo = np.clip(np.floor(c), 0, m - 2).astype(int)
        t = (c - lo).reshape((-1,) + (1,) * (out.ndim - 1 - axis))
        mixed = (1 - t) * np.take(out, lo, axis) + t * np.take(out, lo + 1, axis)
        out = np.where(((c >= 0) & (c <= m - 1)).reshape(t.shape), mixed, 0.0)
    return out + 0.0


def difference_quotient_1(u, frame, h):
    """First-order quotient tensor field, standard coordinates, d = N * n.

    Components laid out row-major as ``(value index, domain index)``.
    """
    return jet_difference_quotients(u, frame, HSchedule.first_order(h))


class QuotientOverflow(OverflowError):
    """The difference quotients of a finite map overflow at the schedule's step."""


def jet_difference_quotients(u, frame, sched):
    """Order-p iterated quotient along the schedule's last row, assembled as a
    symmetric tensor.

    The output is a GridFunction with ``N * n^p`` components in standard
    coordinates, symmetrized over the domain indices.  Each value direction
    ``alpha`` is one pass: its quotients along the domain-frame vectors, their
    rotation into standard domain coordinates, then the symmetrization.

    Products with a standard frame are skipped: an identity domain frame is
    not rotated by, and a unit value vector ``e_beta`` adds its pass into
    component ``beta`` alone.  On finite quotients the skipped products only
    multiply by 1 and add zeros, so the bits are those of the full products.
    """
    dom = u.domain
    sched.validate_for(dom)
    N, n, p = frame.N, frame.n, sched.order
    if u.components != N or dom.dim != n:
        raise ValueError("frame does not match the grid function")
    g = dom.dim  # the grid axes come first
    out = np.zeros(dom.shape + (N,) + (n,) * p)
    for alpha in range(N):
        r = frame.E_domain[alpha]  # rows are frame vectors
        e = frame.E_range[alpha]
        # iterate quotients over all index tuples, reusing prefixes
        stack = {(): u.values @ e}
        # a quotient that overflows raises QuotientOverflow below
        with np.errstate(over="ignore", invalid="ignore"):
            for h in sched.rows[-1]:
                stack = {prefix + (i,): (_interp_shifted(vals, dom, h * r[i]) - vals) / h
                         for prefix, vals in stack.items() for i in range(n)}
        # the index tuples are in row-major order, so they stack into the block
        block = np.stack(list(stack.values()), axis=-1).reshape(dom.shape + (n,) * p)
        if not np.array_equal(r, np.eye(n)):
            for mode in range(g, g + p):
                block = np.moveaxis(np.moveaxis(block, mode, -1) @ r, -1, mode)
        sym = np.zeros_like(block)
        for perm in itertools.permutations(range(g, g + p)):
            sym += block.transpose(tuple(range(g)) + perm)
        sym /= float(np.prod(range(1, p + 1)))
        beta = int(np.argmax(e))
        if np.array_equal(e, np.eye(N)[beta]):
            out[(slice(None),) * g + (beta,)] += sym
        else:
            out += np.moveaxis(np.tensordot(sym, e, axes=0), -1, g)
    try:
        return GridFunction(dom, out.reshape(dom.shape + (N * n**p,)))
    except ValueError as exc:  # ``u`` is finite, so its quotients overflowed
        raise QuotientOverflow(f"difference quotients of step {sched.rows[-1][0]!r} overflow; "
                            "the map's values are too large for the step") from exc
