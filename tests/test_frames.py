import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusepde.frames import (Frame, HSchedule, build_frame, difference_quotient_1,
                               jet_difference_quotients, schedule_window, window_cascade)
from diffusepde.grids import Domain, GridFunction
from diffusepde.reference import fat_cantor_indicator, sawtooth_map
from diffusepde.tensors import random_decomposition


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_standard_frame_canonical():
    fr = build_frame("standard", N=2, n=3)
    assert np.array_equal(fr.E_range, np.eye(2))
    assert np.array_equal(fr.E_domain[0], np.eye(3))


def test_frame_from_diag_decomposition(diag_dec):
    fr = build_frame("from_decomposition", dec=diag_dec)
    assert np.allclose(np.abs(fr.E_range), np.eye(2))
    # domain frames list eigenvectors ascending, so the range vector comes last
    for a in range(2):
        assert np.allclose(np.abs(fr.E_domain[a, -1]), [1.0, 0.0])


def test_frame_completion_deterministic():
    dec_b = (np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)), np.zeros((3, 3)))
    dec_a = (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    from diffusepde.tensors import Decomposition
    dec = Decomposition(dec_b, dec_a)
    f1 = build_frame("from_decomposition", dec=dec)
    f2 = build_frame("from_decomposition", dec=dec)
    assert np.array_equal(f1.E_range, f2.E_range)
    assert np.array_equal(f1.E_domain, f2.E_domain)
    assert f1.E_range.shape == (3, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_frame_orthonormality_random_rotations(seed):
    rng = np.random.default_rng(seed)
    q_n = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    q_d = np.stack([np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(3)])
    fr = Frame(q_n, q_d)
    assert np.linalg.norm(fr.E_range @ fr.E_range.T - np.eye(3)) < 1e-10
    for a in range(3):
        gram = fr.E_domain[a] @ fr.E_domain[a].T
        assert np.linalg.norm(gram - np.eye(2)) < 1e-10


def test_quotient_exact_on_linear_map():
    dom = Domain.unit_square(32)
    m = np.array([[1.0, 2.0], [3.0, -1.0]])
    u = GridFunction.from_callable(dom, lambda x: x @ m.T)
    fr = build_frame("standard", N=2, n=2)
    q = difference_quotient_1(u, fr, 2 * dom.spacing)
    inner = dom.interior_mask(3 * dom.spacing)
    assert np.abs(q.values[inner] - m.reshape(-1)).max() < 1e-10


@pytest.mark.parametrize("h", [0.5, -0.5, 0.999])
def test_quotient_step_below_the_spacing_raises(h):
    dom = Domain.unit_square(16)
    u = GridFunction.from_callable(dom, lambda x: x)
    fr = build_frame("standard", N=2, n=2)
    with pytest.raises(ValueError, match="below the lattice spacing"):
        difference_quotient_1(u, fr, h * dom.spacing)


def test_quotient_of_absolute_value():
    dom = Domain.interval(-1.0, 1.0, 64)
    u = GridFunction.from_callable(dom, lambda x: np.abs(x[..., 0])[..., None])
    fr = build_frame("standard", N=1, n=1)
    h = 4 * dom.spacing
    q = difference_quotient_1(u, fr, h)
    x = dom.axis_coords(0)
    right = (x > h) & (x < 1.0 - 2 * h)
    assert np.allclose(q.values[right, 0], 1.0)


def test_fat_cantor_quotient_blowup_adjacent_to_holes():
    case = fat_cantor_indicator(depth=4, resolution=2048)
    u = case.grids["indicator"]
    dom = u.domain
    h = dom.spacing
    fr = build_frame("standard", N=1, n=1)
    q = difference_quotient_1(u, fr, h)
    x = dom.axis_coords(0)
    in_k = u.values[:, 0] > 0.5
    hole = np.zeros_like(in_k)
    for a, b in case.expected["removed_intervals"]:
        hole |= (x + h > a) & (x + h < b)
    witness = in_k & hole & (x + h < 1.0)
    assert witness.any()
    assert np.allclose(np.abs(q.values[witness, 0]), 1.0 / h)


def test_jet_exact_on_quadratic():
    dom = Domain.unit_square(32)
    s = np.array([[2.0, 0.5], [0.5, -1.0]])
    u = GridFunction.from_callable(
        dom, lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, s, x)[..., None])
    fr = build_frame("standard", N=1, n=2)
    sched = HSchedule(rows=((2 * dom.spacing,), (2 * dom.spacing, 3 * dom.spacing)))
    jets = jet_difference_quotients(u, fr, sched)
    inner = dom.interior_mask(6 * dom.spacing)
    assert np.abs(jets.values[inner] - s.reshape(-1)).max() < 1e-9


def test_jet_second_order_taylor_rate():
    dom = Domain.unit_square(128)
    u = GridFunction.from_callable(
        dom, lambda x: (np.sin(x[..., 0]) * np.sin(2 * x[..., 1]))[..., None])
    fr = build_frame("standard", N=1, n=2)
    x = dom.node_coords()
    true = np.stack([
        -np.sin(x[..., 0]) * np.sin(2 * x[..., 1]),
        2 * np.cos(x[..., 0]) * np.cos(2 * x[..., 1]),
        2 * np.cos(x[..., 0]) * np.cos(2 * x[..., 1]),
        -4 * np.sin(x[..., 0]) * np.sin(2 * x[..., 1])], axis=-1)
    errs = []
    for steps in (8, 4):
        h = steps * dom.spacing
        sched = HSchedule(rows=((h,), (h, h)))
        jets = jet_difference_quotients(u, fr, sched)
        inner = dom.interior_mask(2 * h + 2 * dom.spacing)
        errs.append(np.abs(jets.values[inner] - true[inner]).max())
    # first-order一sided error: halving the step roughly halves the error
    assert errs[1] < 0.65 * errs[0]


def test_sawtooth_second_quotient_scales_inverse_step():
    case = sawtooth_map(1.0, 2, 64)
    u = case.grids["map"]
    dom = u.domain
    fr = build_frame("standard", N=2, n=2)
    vals = {}
    for steps in (2, 4):
        h2 = steps * dom.spacing
        sched = HSchedule(rows=((h2,), (h2, h2)))
        jets = jet_difference_quotients(u, fr, sched)
        x = jets.values.reshape(dom.shape + (2, 2, 2))
        # one step below the fold at x1 = 1/4 the stencil straddles the peak:
        # the first quotients are +1 and -1, so the second quotient is -2/h
        i = int(round((0.25 - h2) / dom.spacing))
        j = dom.shape[1] // 2
        vals[steps] = x[i, j, 0, 0, 0]
    assert vals[2] == pytest.approx(-2.0 / (2 * dom.spacing), rel=1e-9)
    assert vals[4] == pytest.approx(-2.0 / (4 * dom.spacing), rel=1e-9)


def test_frame_covariance_of_first_quotient():
    dom = Domain.unit_square(128)
    u = GridFunction.from_callable(
        dom, lambda x: np.stack([np.sin(x[..., 0] + 0.3 * x[..., 1]),
                                 np.cos(0.5 * x[..., 0])], axis=-1))
    h = 4 * dom.spacing
    std = build_frame("standard", N=2, n=2)
    q_std = difference_quotient_1(u, std, h)
    rot = rotation(0.37)
    fr = Frame(np.eye(2), np.stack([rot.T, rot.T]))
    q_rot = difference_quotient_1(u, fr, h)
    inner = dom.interior_mask(2 * h)
    err = np.abs(q_rot.values[inner] - q_std.values[inner]).max()
    assert err < 10 * h * 1.0  # both approximate the same gradient to O(h)


def test_schedule_validation():
    with pytest.raises(ValueError):
        HSchedule(rows=((0.0,),))
    with pytest.raises(ValueError):
        HSchedule(rows=((0.1, 0.1),))
    sched = HSchedule(rows=((0.1,), (0.1, 0.05)))
    dom = Domain.unit_square(8)
    with pytest.raises(ValueError):
        sched.validate_for(dom)  # 0.05 is below the spacing 0.125


@pytest.mark.parametrize("E_range, E_domain", [
    ([[np.nan, 0.0], [0.0, 1.0]], np.eye(2)),
    (np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]),
])
def test_frame_rejects_nonfinite_entries(E_range, E_domain):
    with pytest.raises(ValueError, match="finite"):
        Frame(np.asarray(E_range), np.stack([np.asarray(E_domain)] * 2))


def test_schedule_window_shapes():
    win = schedule_window(0.5, 3, ratio=0.5, order=2, separation=2.0)
    assert len(win) == 3
    assert win[0].rows[1] == (1.0, 0.5)
    assert win[1].rows[0] == (0.25,)


def _map_coordinates_shift(values, domain, offset):
    """The multilinear reference: ``map_coordinates`` at ``i + s`` per node."""
    from scipy.ndimage import map_coordinates
    mesh = np.meshgrid(*[np.arange(m, dtype=float) for m in domain.shape], indexing="ij")
    shift = np.asarray(offset, float) / domain.spacing
    return map_coordinates(values, [m + s for m, s in zip(mesh, shift)],
                           order=1, mode="constant", cval=0.0)


@pytest.mark.parametrize("mask_kind", ["rect", "disc"])
@pytest.mark.parametrize("resolution", [128, 100, 50])
def test_interp_shifted_matches_map_coordinates(mask_kind, resolution):
    from diffusepde.frames import _interp_shifted
    dom = (Domain.unit_square if mask_kind == "rect" else Domain.unit_disc)(resolution)
    rng = np.random.default_rng(resolution)
    v = GridFunction(dom, rng.standard_normal(dom.shape)).values[..., 0]
    v[rng.random(v.shape) < 0.05] = -0.0
    h = dom.spacing
    for steps in [(1, 0), (0, -3), (2, -5), (16, 0), (-resolution + 1, 2)]:
        offset = (steps[0] * h, steps[1] * h)
        got = _interp_shifted(v, dom, offset)
        assert got.tobytes() == _map_coordinates_shift(v, dom, offset).tobytes(), steps
    # fractional and oblique offsets, some straddling the lattice edge
    for steps in [(0.3, 0), (1.7, -2.2), (4 * np.cos(0.37), 4 * np.sin(0.37)),
                  (-0.999 * resolution, 0.5), (0.3, resolution - 1.5)]:
        offset = (steps[0] * h, steps[1] * h)
        got = _interp_shifted(v, dom, offset)
        want = _map_coordinates_shift(v, dom, offset)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), steps
        assert ((got == 0) == (want == 0)).all(), steps



def _pinned_case(case):
    """The map and frame of a pinned jet: an adapted frame on a 24-cell disc
    lattice, the standard frame on an 11^3 lattice or a 20-cell square, or a
    frame mixing unit and rotated value vectors with identity and rotated
    domain frames on a 20-cell disc."""
    rng = np.random.default_rng(3)
    if case == "adapted":
        dom = Domain.unit_disc(24)
        frame = build_frame("from_decomposition",
                            dec=random_decomposition(np.random.default_rng(7), 2, 2))
    elif case == "standard-3d":
        dom = Domain(shape=(11, 11, 11), spacing=0.1, origin=(0.0, 0.0, 0.0))
        frame = build_frame("standard", N=2, n=3)
    elif case == "standard-2d":
        dom, rng = Domain.unit_square(20), np.random.default_rng(4)
        frame = build_frame("standard", N=2, n=2)
    else:
        dom, rng = Domain.unit_disc(20), np.random.default_rng(4)
        c, s = np.cos(0.6), np.sin(0.6)
        frame = Frame(np.array([[0.0, 0.0, 1.0], [c, s, 0.0], [-s, c, 0.0]]),
                      np.stack([rotation(0.37).T, np.eye(2), rotation(-1.1).T]))
    return GridFunction(dom, rng.standard_normal(dom.shape + (frame.N,))), frame


@pytest.mark.parametrize("case, steps, digest", [
    ("adapted", (1.5,),
     "68b297ba0cdc2c7f422e01c04415e251b9fda23a7b1032650943f3a2178c8d54"),
    ("adapted", (1.5, 2.25),
     "df0f21d202fde734d0d03918f527f85b60dc74ff8295b1508f2606ec35449f68"),
    ("adapted", (2.25, 1.5, -1.5),
     "5245cc9b23d2f2d00a282d073f6ba974aeb99b3798bbe4c014b3ef4dfcecae77"),
    ("standard-3d", (1.5, 2.25),
     "963d7411f22081490659fb4e5e435cdf359a2150ce09438e1f2c5868d0ec8c1d"),
    ("standard-2d", (2.0,),
     "5025d1da0feb643a524afee2fb152d8c07d61017dbf2c088a00e6e8d56e9b2ab"),
    ("standard-2d", (2.0, 3.0),
     "aa7ad242f16a610dd854564f4dd1b784defe294cfcd9488d9de8fb29652768fa"),
    ("standard-2d", (3.0, 1.0, -2.0),
     "6a01a3b1c0b88d9997cdd018748a2490832b351d98a7419af15578d3bb8e4ea5"),
    ("mixed", (1.5,),
     "188d429ae20f6a7762642bedbf9aa33accba33af234c92354b3c259507145215"),
    ("mixed", (1.5, 2.25),
     "12600adfce254c64519ba476dbba665b5c0c8e8bd2ad1a4ee21579e0afcb60f3"),
    ("mixed", (2.25, 1.5, -1.5),
     "d8a2ed25b688708521279ac397928f2102528e5fcea19268b0983db05303ef42"),
], ids=["adapted-order1", "adapted-order2", "adapted-order3", "standard-3d-order2",
        "standard-2d-order1", "standard-2d-order2", "standard-2d-order3",
        "mixed-order1", "mixed-order2", "mixed-order3"])
def test_jets_are_pinned(case, steps, digest):
    """Jets through the rotation and interpolation branches, and through the
    skipped products of standard value and domain vectors, bit for bit:
    sha256 of the values as float64."""
    u, frame = _pinned_case(case)
    h = u.domain.spacing
    rows = tuple(tuple(s * h for s in steps[:q]) for q in range(1, len(steps) + 1))
    jet = jet_difference_quotients(u, frame, HSchedule(rows=rows))
    assert hashlib.sha256(np.asarray(jet.values, np.float64).tobytes()).hexdigest() == digest

def test_cli_import_does_not_load_ndimage():
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import diffusepde.cli; "
            "print('scipy.ndimage' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_does_not_load_scipy():
    """Only the solve-side commands load the solver, and with it scipy."""
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import diffusepde.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_window_cascade_stops_at_its_first_empty_level():
    """Once a level's top step lies below the spacing every later level is
    empty: a million levels give the windows of twenty, and a cascade that
    halves its base step past 2**-1023 raises no OverflowError."""
    want = window_cascade(1.0, 20, 3, 0.5, 2, 1 / 64)
    assert len(want) == 7
    assert window_cascade(1.0, 10**6, 3, 0.5, 2, 1 / 64) == want
    # 1e300 / 2**lvl >= 1e-300 up to lvl = floor(600 log2 10) = 1993
    deep = window_cascade(1e300, 10**6, 1, 0.5, 1, 1e-300)
    assert len(deep) == 1994 and deep[-1][0].rows == ((math.ldexp(1e300, -1993),),)
