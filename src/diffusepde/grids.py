"""Uniform-lattice grid functions on rectangle/disc domains and their binary IO.

A :class:`GridFunction` is the discrete stand-in for a measurable map
``u : R^n >= Omega -> R^d``: values sampled at lattice nodes, extended by
zero outside the active mask.  The mask marks the *open* domain, so the
zero extension doubles as homogeneous Dirichlet data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MASK_KINDS = ("rect", "disc")
GRID_FORMAT = "diffusepde-grid-v1"


@dataclass(frozen=True)
class Domain:
    """Uniform axis-aligned lattice with a rectangular or disc-shaped mask.

    Nodes sit at ``origin + spacing * index``.  For ``mask_kind == "rect"``
    the active set is the open box (outermost node ring excluded); for
    ``"disc"`` it is the open disc inscribed in the bounding box.
    """

    shape: tuple
    spacing: float
    origin: tuple
    mask_kind: str = "rect"

    def __post_init__(self):
        if self.mask_kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.mask_kind!r}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be positive and finite")
        if len(self.origin) != len(self.shape):
            raise ValueError("origin/shape dimension mismatch")
        if not np.isfinite(self.origin).all():
            raise ValueError("origin must be finite")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def extent(self):
        return tuple((m - 1) * self.spacing for m in self.shape)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def axis_coords(self, axis):
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    def node_coords(self):
        """Coordinate arrays of shape ``(*shape, dim)``."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def mask(self):
        """Boolean array of active (in-domain) nodes."""
        if self.mask_kind == "rect":
            m = np.zeros(self.shape, dtype=bool)
            m[(slice(1, -1),) * self.dim] = True
            return m
        center = np.array(self.origin) + 0.5 * np.array(self.extent)
        radius = 0.5 * min(self.extent)
        x = self.node_coords() - center
        return np.einsum("...k,...k->...", x, x) < radius**2 * (1 - 1e-12)

    def interior_mask(self, margin):
        """Active nodes farther than ``margin`` (a length) from any masked-out node."""
        out = self.mask()
        # each pass clears the nodes on the array's edge, so none is left after max(shape)
        steps = int(min(np.ceil(margin / self.spacing), max(self.shape)))
        for _ in range(steps):
            eroded = out.copy()
            for k in range(self.dim):
                eroded &= shift_array(out, k, 1)
                eroded &= shift_array(out, k, -1)
            out = eroded
        return out

    def boundary_ring(self):
        """Active nodes with at least one masked-out lattice neighbour."""
        m = self.mask()
        ring = np.zeros(self.shape, dtype=bool)
        for k in range(self.dim):
            ring |= m & ~shift_array(m, k, 1)
            ring |= m & ~shift_array(m, k, -1)
        return ring

    def diameter(self):
        if self.mask_kind == "disc":
            return float(min(self.extent))
        return float(np.sqrt(sum(e**2 for e in self.extent)))

    # common constructors -------------------------------------------------
    @staticmethod
    def unit_square(resolution):
        h = 1.0 / resolution
        return Domain(shape=(resolution + 1, resolution + 1), spacing=h,
                      origin=(0.0, 0.0), mask_kind="rect")

    @staticmethod
    def unit_disc(resolution):
        h = 2.0 / resolution
        return Domain(shape=(resolution + 1, resolution + 1), spacing=h,
                      origin=(-1.0, -1.0), mask_kind="disc")

    @staticmethod
    def interval(a, b, resolution):
        h = (b - a) / resolution
        return Domain(shape=(resolution + 1,), spacing=h, origin=(a,),
                      mask_kind="rect")


def shift_array(values, axis, steps):
    """Shift along ``axis`` by ``steps`` nodes, zeroing vacated entries.

    ``shift(v, axis, +1)[i] == v[i+1]`` (reads the forward neighbour).
    """
    if steps == 0:
        return values.copy()
    out = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if steps > 0:
        src[axis] = slice(steps, None)
        dst[axis] = slice(None, -steps)
    else:
        src[axis] = slice(None, steps)
        dst[axis] = slice(-steps, None)
    out[tuple(dst)] = values[tuple(src)]
    return out


class GridFunction:
    """Componentwise lattice samples of a map Omega -> R^d, zero outside the mask."""

    def __init__(self, domain, values):
        values = np.asarray(values, dtype=float)
        if values.shape[: domain.dim] != domain.shape:
            raise ValueError("values do not match domain shape")
        if values.ndim == domain.dim:
            values = values[..., None]
        if values.ndim != domain.dim + 1:
            raise ValueError("values must have one trailing component axis")
        self.domain = domain
        self.values = np.where(domain.mask()[..., None], values, 0.0)
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite values on active nodes")

    @property
    def components(self):
        return self.values.shape[-1]

    @staticmethod
    def from_callable(domain, fn):
        """Sample ``fn(x)`` (vectorized over points ``(..., dim)``) on the lattice."""
        x = domain.node_coords()
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape == domain.shape:
            vals = vals[..., None]
        return GridFunction(domain, vals)

    def l2_norm(self, where=None):
        """Cell-volume-weighted discrete L2 norm over the mask (or ``where``)."""
        sel = self.domain.mask() if where is None else where
        w = self.domain.spacing ** self.domain.dim
        return float(np.sqrt(w * np.sum(self.values[sel] ** 2)))

    def __add__(self, other):
        self._check_compatible(other)
        return GridFunction(self.domain, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return GridFunction(self.domain, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.domain, self.values * scalar)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if other.domain != self.domain or other.components != self.components:
            raise ValueError("incompatible grid functions")


# binary IO ---------------------------------------------------------------

def save_grid(path, gf):
    """Grid file: one JSON header line, then little-endian float64, row-major,
    components innermost.  Round-trips bit-exactly."""
    header = {
        "format": GRID_FORMAT,
        "dims": list(gf.domain.shape),
        "spacing": gf.domain.spacing,
        "origin": list(gf.domain.origin),
        "components": gf.components,
        "mask": gf.domain.mask_kind,
        "byte_order": "little",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(gf.values, dtype="<f8").tobytes())


def _count(v):
    return type(v) is int and v > 0


def _number(v):
    return type(v) in (int, float)


def _list_of(valid):
    return lambda v: type(v) is list and len(v) > 0 and all(map(valid, v))


# key -> test of its value, for the header fields of grid and measure files
HEADER_FIELDS = {"dims": _list_of(_count), "spacing": _number,
                 "origin": _list_of(_number), "mask": lambda v: type(v) is str,
                 "components": _count, "atoms": _count, "space_shape": _list_of(_count),
                 "R_inf": _number}


def read_header(fh, fmt, keys):
    """The JSON header line of a file of format ``fmt``, and the lattice it
    declares.  A header that is not a JSON object of that format, or that
    lacks a lattice field or one of ``keys`` or holds a value of another
    type, raises ``ValueError``."""
    header = json.loads(fh.readline().decode("ascii"))
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"not a {fmt} file: {fh.name}")
    for key in ("dims", "spacing", "origin", "mask") + keys:
        if key not in header or not HEADER_FIELDS[key](header[key]):
            raise ValueError(f"header field {key!r} is missing or of the wrong type "
                             f"({header.get(key)!r}): {fh.name}")
    return Domain(shape=tuple(header["dims"]), spacing=header["spacing"],
                  origin=tuple(header["origin"]), mask_kind=header["mask"]), header


def load_grid(path):
    with open(path, "rb") as fh:
        dom, header = read_header(fh, GRID_FORMAT, ("components",))
        if not dom.mask().any():
            raise ValueError(f"the {dom.mask_kind} mask keeps no node of the {dom.shape} lattice")
        count = dom.n_nodes * header["components"]
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise ValueError("truncated grid file")
        if fh.read(1):
            raise ValueError("trailing bytes after the grid body")
        values = np.frombuffer(raw, dtype="<f8").reshape(dom.shape + (header["components"],))
    return GridFunction(dom, values.copy())
